import sys
from collections import Counter

import pytest

from dragprof.errors import (
    DanglingRef,
    OutOfMemory,
    ProtocolViolation,
    SchemeError,
    SchemeRuntimeError,
    SchemeSyntaxError,
)
from dragprof.heap import NEVER_USED, NIL, PAIR, VECTOR, LifetimeRecord, Nil
from dragprof.interp import (
    Closure,
    Interpreter,
    SrcList,
    parse,
    run_source,
    write_value,
)
from dragprof.profiler import format_draglog
from dragprof.runtime import Runtime
from support import (
    LIMIT_PROGRAMS,
    RULE_PROGRAMS,
    ProgramGenerator,
    oracle_checked_points,
)

WALK_LOOP = """
(let ((x (list 1 2 3)))
  (let loop ((y x))
    (if (null? y)
        '()
        (begin
          (car y)
          (loop (cdr y))))))
"""


def run(src, **kw):
    kw.setdefault("source_name", "test.scm")
    return run_source(src, **kw)


def interp_fixture(**kw):
    rt = Runtime(**kw)
    return rt, Interpreter(rt)


# ---------------------------------------------------------------------------
# parsing

def test_parse_atom_arithmetic():
    program = parse("(+ 1 2)")
    assert len(program) == 1
    form = program[0]
    assert type(form) is SrcList and form.tail is None
    assert form.items == ["+", 1, 2]
    assert (form.line, form.col) == (1, 1)


def test_parse_walk_loop_shape_named_let_inside_let():
    form = parse(WALK_LOOP)[0]
    assert form.items[0] == "let"
    bindings = form.items[1].items
    assert bindings[0].items[0] == "x"
    assert len(form.items) == 3  # let, bindings, one body form
    inner = form.items[2]
    assert inner.items[:2] == ["let", "loop"]
    assert (inner.line, inner.col) == (3, 3)


def test_parse_unbalanced_open_reports_end_of_input():
    with pytest.raises(SchemeSyntaxError) as err:
        parse("(car")
    assert "end of input" in str(err.value)
    assert err.value.line == 1
    assert err.value.col == 5


def test_parse_unexpected_close():
    with pytest.raises(SchemeSyntaxError) as err:
        parse("())")
    assert "closing" in str(err.value)


def test_parse_positions_on_later_lines():
    with pytest.raises(SchemeSyntaxError) as err:
        parse("(+ 1 2)\n  (car")
    assert err.value.line == 2


def test_parse_dotted_in_code_rejected():
    _, interp = interp_fixture()
    with pytest.raises(SchemeSyntaxError) as err:
        interp.eval_program(parse("(car (1 . 2))"))
    assert (err.value.line, err.value.col) == (1, 6)


def test_parse_bad_hash_literal():
    with pytest.raises(SchemeSyntaxError):
        parse("#x")


def test_parse_misplaced_dot():
    with pytest.raises(SchemeSyntaxError):
        parse("'(. 2)")


def test_comments_and_negative_numbers():
    r = run("; leading comment\n(- 0 5) ; trailing\n")
    assert r.value == -5


# ---------------------------------------------------------------------------
# evaluation basics

def test_arithmetic_no_heap_objects():
    r = run("(+ 1 2)")
    assert r.value == 3
    assert len(r.trace_log.records) == 0
    assert r.trace_log.end_tick == 1  # just the termination step


def test_walk_loop_trace_is_exact():
    # hand trace: list allocates the three cells tail-first at ticks
    # 1,2,3; each loop step is null?/car/cdr (three uses); termination
    # adds one tick, and the closing collection reclaims all cells.
    r = run(WALK_LOOP)
    assert isinstance(r.value, Nil)
    assert r.value_repr == "()"
    log = r.trace_log
    assert len(log.records) == 3
    assert all(rec.kind == PAIR for rec in log.records)
    assert log.end_tick == 13
    by_id = {rec.obj_id: rec for rec in log.records}
    assert {i: by_id[i].create_tick for i in by_id} == {0: 1, 1: 2, 2: 3}
    assert {i: by_id[i].last_use_tick for i in by_id} == {0: 12, 1: 9, 2: 6}
    assert all(rec.collect_tick == 13 for rec in log.records)
    assert all(rec.last_use_tick < rec.collect_tick for rec in log.records)
    assert not any(rec.censored for rec in log.records)


def test_counting_loop_allocates_exactly_five_pairs():
    src = "(let loop ((i 0)(acc '())) (if (= i 5) acc " \
          "(loop (+ i 1) (cons i acc))))"
    r = run(src)
    assert r.value_repr == "(4 3 2 1 0)"
    log = r.trace_log
    assert len(log.records) == 5
    assert all(rec.kind == PAIR for rec in log.records)
    # cons uses its ref argument (the growing accumulator) before each
    # creation, so creations land on the odd ticks
    assert sorted(rec.create_tick for rec in log.records) == [1, 3, 5, 7, 9]


def test_car_updates_last_use_tick():
    r = run("(define p (cons 1 2)) (car p)")
    [rec] = r.trace_log.records
    assert rec.create_tick == 1
    assert rec.last_use_tick == 2  # the car
    assert rec.censored  # global binding holds it at termination
    assert r.value == 1


def test_null_on_immediate_records_nothing():
    r = run("(null? '())")
    assert r.value is True
    assert len(r.trace_log.records) == 0
    assert r.trace_log.end_tick == 1


def test_pair_predicate_on_vector_records_use():
    r = run("(define v (vector 1)) (pair? v)")
    assert r.value is False
    [rec] = r.trace_log.records
    assert rec.kind == VECTOR
    assert rec.last_use_tick == 2  # the predicate inspected it


def test_type_error_raised_before_any_use_event():
    rt, interp = interp_fixture()
    with pytest.raises(SchemeRuntimeError):
        interp.eval_program(parse("(define v (vector 1)) (car v)"))
    assert rt.heap.objects[0].last_use_tick == NEVER_USED


def test_vector_index_error_before_use():
    rt, interp = interp_fixture()
    with pytest.raises(SchemeRuntimeError) as err:
        interp.eval_program(parse("(define v (vector 1 2)) (vector-ref v 2)"))
    assert "out of range" in str(err.value)
    assert rt.heap.objects[0].last_use_tick == NEVER_USED


def test_vector_to_list_event_pattern():
    # v created at 1; vector->list uses v at 2 and conses tail-first
    # at 3 and 4
    r = run("(define v (vector 7 8)) (vector->list v)")
    assert r.value_repr == "(7 8)"
    recs = {rec.obj_id: rec for rec in r.trace_log.records}
    assert recs[0].kind == VECTOR and recs[0].create_tick == 1
    assert recs[0].last_use_tick == 2
    assert recs[1].kind == PAIR and recs[1].create_tick == 3
    assert recs[2].kind == PAIR and recs[2].create_tick == 4
    assert recs[0].censored and not recs[1].censored


def test_list_to_vector_event_pattern():
    # pairs created at 1,2; list->vector uses head then tail (3,4) and
    # allocates the vector at 5
    r = run("(define lst (list 1 2)) (list->vector lst)")
    assert r.value_repr == "#(1 2)"
    recs = {rec.obj_id: rec for rec in r.trace_log.records}
    assert recs[0].create_tick == 1 and recs[1].create_tick == 2
    assert recs[1].last_use_tick == 3  # the head (built tail-first)
    assert recs[0].last_use_tick == 4
    assert recs[2].kind == VECTOR and recs[2].create_tick == 5
    assert recs[2].size_slots == 2


def test_quoted_list_allocates_at_every_evaluation():
    r = run("(define (f) '(1 2)) (f) (f)")
    assert len(r.trace_log.records) == 4
    assert r.value_repr == "(1 2)"


def test_quote_dotted_pair():
    r = run("'(1 . 2)")
    assert r.value_repr == "(1 . 2)"
    assert len(r.trace_log.records) == 1


def test_nested_quote_structure():
    r = run("'((1 2) 3)")
    assert r.value_repr == "((1 2) 3)"
    assert len(r.trace_log.records) == 4


def test_gc_interval_trigger_counts():
    # six allocations under K=4: one interval collection right after the
    # fourth (alloc ticks 1,3,5,7 with the interleaved cons uses), plus
    # the closing manual collection.
    src = "(let loop ((i 0) (acc '())) (if (= i 6) acc " \
          "(loop (+ i 1) (cons 0 acc))))"
    r = run(src, gc_interval=4)
    triggers = [s.trigger for s in r.collections]
    assert triggers == ["interval", "manual"]
    assert r.collections[0].tick == 7
    assert r.collections[0].survivors == 4
    assert r.collections[0].collected == 0


def test_use_events_count_toward_clock_but_not_trigger():
    # uses advance ticks; only allocations arm the collector
    r = run("(define p (cons 1 2)) (car p) (car p) (car p)",
            gc_interval=2)
    assert [s.trigger for s in r.collections] == ["manual"]
    assert r.trace_log.end_tick == 5


# ---------------------------------------------------------------------------
# language features

def test_closure_capture_and_application():
    r = run("(define (make-adder n) (lambda (m) (+ n m))) "
            "((make-adder 5) 6)")
    assert r.value == 11


def test_closure_captured_pair_survives_collections():
    src = """
    (define f (let ((p (cons 40 2))) (lambda () (+ (car p) (cdr p)))))
    (let churn ((i 0))
      (if (= i 64)
          'done
          (begin (cons i i) (churn (+ i 1)))))
    (f)
    """
    r = run(src, gc_interval=1, heap_slots=64)
    assert r.value == 42
    assert len(r.collections) > 32


def test_operator_closure_is_a_root_while_its_arguments_allocate():
    # the operator is a fresh closure, the only holder of v's pair, and
    # the argument's cons collects at K=1 before the call is made
    call = "((let ((v (cons 1 2))) (lambda (z) (car v))) (cons 3 4))"
    for src in (call, f"(define (f) {call}) (f)"):
        with oracle_checked_points() as checked:
            assert run(src, gc_interval=1).value == 1
        assert checked.points >= 2


# The pin rule: a call's or a let's values must be roots while a later
# part can allocate.  In the first group the first value is the only
# holder of a fresh object (the ints of + aside) and a later argument
# allocates, so at K=1 a collection point comes before the object's use
# (a one-argument closure call is the test above); in the second,
# nothing after the first argument can allocate.
LATER_PART_ALLOCATES = {
    "fixed-1": ("(vector->list (make-vector 2 (cons 1 2)))",
                "((1 . 2) (1 . 2))"),
    "fixed-2": ("(eq? (cons 1 2) (car (cons 3 4)))", "#f"),
    "fixed-3": ("(vector-set! (make-vector 1 0) 0 (car (cons 1 2)))", "()"),
    "fixed-3-int": ("(+ (car (cons 1 2)) (car (cons 3 4)) 5)", "9"),
    "fixed-4": ("(list (cons 1 2) 3 4 (car (cons 5 6)))",
                "((1 . 2) 3 4 5)"),
    "fixed-4-int": ("(+ (car (cons 1 2)) 2 3 (car (cons 3 4)))", "9"),
    "closure-2": ("((lambda (v a) (vector-ref v 0)) (make-vector 1 7)"
                  " (car (cons 1 2)))", "7"),
    "closure-3": ("((lambda (v a b) (vector-ref v 0)) (make-vector 1 7) 1"
                  " (car (cons 1 2)))", "7"),
    "closure-4": ("((lambda (v a b c) (vector-ref v 0)) (make-vector 1 7)"
                  " 1 (car (cons 1 2)) 2)", "7"),
    "let-2": ("(let ((v (make-vector 1 7)) (a (car (cons 1 2))))"
              " (vector-ref v 0))", "7"),
    "let-3": ("(let ((v (make-vector 1 7)) (a 1) (b (car (cons 1 2))))"
              " (vector-ref v 0))", "7"),
    "let-4": ("(let loop ((v (make-vector 1 7)) (a 1) (b (car (cons 1 2)))"
              " (c 2)) (vector-ref v 0))", "7"),
}
NOTHING_LATER_ALLOCATES = {
    "fixed-2": ("(eq? (cons 1 2) 5)", "#f"),
    "fixed-3": ("(vector-set! (make-vector 1 0) 0 5)", "()"),
    "fixed-4": ("(+ (vector-length (make-vector 2 0)) 1 2 3)", "8"),
    "closure-3": ("((lambda (v a b) (vector-ref v 0)) (make-vector 1 7)"
                  " 1 2)", "7"),
    "closure-op": ("((let ((v (cons 1 2))) (lambda (z) (car v))) 3)", "1"),
    "let-3": ("(let ((v (make-vector 1 7)) (a 1) (b 2)) (vector-ref v 0))",
              "7"),
}


@pytest.mark.parametrize("src, expected", [
    *LATER_PART_ALLOCATES.values(), *NOTHING_LATER_ALLOCATES.values()],
    ids=[*(f"later-{k}" for k in LATER_PART_ALLOCATES),
         *(f"first-{k}" for k in NOTHING_LATER_ALLOCATES)])
def test_values_are_pinned_while_a_later_part_can_allocate(src, expected):
    # plain, then in tail position: the body of a procedure
    for program in (src, f"(define (f) {src}) (f)"):
        with oracle_checked_points() as checked:
            r = run(program, gc_interval=1, heap_slots=32)
        assert r.value_repr == expected
        assert checked.points >= 2


def test_set_mutates_nearest_binding():
    r = run("(define x 1) (define (bump) (set! x (+ x 1))) "
            "(bump) (bump) x")
    assert r.value == 3


# Internal define: a define binds its name in the frame it runs in, from
# the moment it runs.  Before that, the name means its outer binding.
INTERNAL_DEFINES = {
    "reference-before-define":
        ("(define x 1) (define (f) (define y x) (define x 2) (list y x)) "
         "(f)", "(1 2)"),
    "set-before-define-assigns-the-global":
        ("(define x 1) (define (f) (set! x 2) (define x 5) x) "
         "(define r (f)) (list x r)", "(2 5)"),
    "closure-made-before-the-define":
        ("(define x 1) "
         "(define (f) (define (g) x) (define a (g)) (define x 2) "
         "(list a (g))) (f)", "(1 2)"),
    "define-in-an-untaken-branch":
        ("(define x 1) (define (f b) (if b (define x 2)) x) "
         "(list (f #f) (f #t) x)", "(1 2 1)"),
    "define-in-a-let-init-binds-the-enclosing-frame":
        ("(define z 0) "
         "(define (f) (let ((a (begin (define z 3) 4))) (+ a z))) "
         "(list (f) z)", "(7 0)"),
    "define-in-a-top-level-let-init-binds-the-global":
        ("(let ((a (begin (define z 3) 4))) a) z", "3"),
    "define-of-a-parameter-name":
        ("(define (f x) (define y x) (define x 5) (list y x)) (f 1)",
         "(1 5)"),
    "named-let-body":
        ("(let loop ((i 0) (acc '())) (define d (* i i)) "
         "(if (= i 3) acc (loop (+ i 1) (cons d acc))))", "(4 1 0)"),
    "shadowed-by-a-nested-let":
        ("(define (f) (define x 1) (let ((x 2)) (define y x) y)) (f)",
         "2"),
}


@pytest.mark.parametrize("case", sorted(INTERNAL_DEFINES))
def test_internal_define_scoping(case):
    source, expected = INTERNAL_DEFINES[case]
    assert run(source).value_repr == expected


def test_internal_define_errors_before_the_define_runs():
    with pytest.raises(SchemeRuntimeError) as err:
        run("(define (f) (define r r) r)\n(f)")
    assert str(err.value) == "1:13: unbound variable: r"
    with pytest.raises(SchemeRuntimeError) as err:
        run("(define (f)\n  (set! q 1)\n  (define q 2)\n  q)\n(f)")
    assert str(err.value) == "2:3: set! of unbound variable: q"


def test_set_unbound_is_an_error():
    with pytest.raises(SchemeRuntimeError) as err:
        run("(set! nope 1)")
    assert "unbound" in str(err.value)


def test_unbound_variable_reports_position():
    # positions attach to forms; the error points at the enclosing call
    with pytest.raises(SchemeRuntimeError) as err:
        run("(+ 1 1)\n(+ 1 missing)")
    assert "unbound variable: missing" in str(err.value)
    assert "2:1" in str(err.value)


def test_arity_error_names_procedure():
    with pytest.raises(SchemeRuntimeError) as err:
        run("(define (f x) x) (f 1 2)")
    assert "f expects 1" in str(err.value)
    with pytest.raises(SchemeRuntimeError) as err:
        run("(cons 1)")
    assert "cons" in str(err.value)


def test_apply_non_procedure():
    with pytest.raises(SchemeRuntimeError) as err:
        run("(3 4)")
    assert "not a procedure" in str(err.value)


def test_procedures_cannot_be_stored_in_the_heap():
    with pytest.raises(SchemeRuntimeError) as err:
        run("(cons car '())")
    assert "stored" in str(err.value)
    with pytest.raises(SchemeRuntimeError):
        run("(vector (lambda (x) x))")


def test_set_car_type_and_effect():
    r = run("(define p (cons 1 2)) (set-car! p 9) (car p)")
    assert r.value == 9
    with pytest.raises(SchemeRuntimeError):
        run("(set-car! 5 1)")


def test_eq_semantics():
    assert run("(eq? 1 1)").value is True
    assert run("(eq? 1 2)").value is False
    assert run("(eq? 1 #t)").value is False
    assert run("(eq? #t #t)").value is True
    assert run("(eq? 'a 'a)").value is True
    assert run("(eq? '() '())").value is True
    assert run("(eq? (cons 1 2) (cons 1 2))").value is False
    assert run("(let ((p (cons 1 2))) (eq? p p))").value is True


def test_eq_records_uses_on_both_refs():
    r = run("(define p (cons 1 2)) (define q (cons 3 4)) (eq? p q)")
    recs = {rec.obj_id: rec for rec in r.trace_log.records}
    assert recs[0].last_use_tick == 3
    assert recs[1].last_use_tick == 4


def test_numeric_predicates_and_comparisons():
    assert run("(number? 3)").value is True
    assert run("(number? #t)").value is False
    assert run("(< 1 2 3)").value is True
    assert run("(< 1 3 2)").value is False
    assert run("(= 2 2 2)").value is True
    with pytest.raises(SchemeRuntimeError):
        run("(+ 1 'a)")


def test_make_vector_default_fill_and_negative():
    r = run("(vector-ref (make-vector 2) 1)")
    assert isinstance(r.value, Nil)
    with pytest.raises(SchemeRuntimeError) as err:
        run("(make-vector -1)")
    assert "negative" in str(err.value)


def test_display_writes_scheme_syntax(capsys):
    r = run("(display '(1 (2 3) . 4))")
    assert capsys.readouterr().out == "(1 (2 3) . 4)"
    assert isinstance(r.value, Nil)


def test_display_records_use():
    r = run("(define p (cons 1 2)) (display p)")
    [rec] = r.trace_log.records
    assert rec.last_use_tick == 2


def test_write_value_cycle_marker():
    rt = Runtime()
    refs = []
    rt.roots = lambda: list(refs)
    p = rt.alloc_pair(1, NIL)
    rt.heap.store(p.address + 1, p)
    refs.append(p)
    assert "#<cycle>" in write_value(rt.heap, p)


def test_if_without_else_returns_nil():
    r = run("(if #f 1)")
    assert isinstance(r.value, Nil)


def test_begin_sequences_and_returns_last():
    r = run("(begin 1 2 3)")
    assert r.value == 3


def test_named_let_shadowing_and_result():
    r = run("(let fact ((n 5) (acc 1)) "
            "(if (= n 0) acc (fact (- n 1) (* acc n))))")
    assert r.value == 120


# ---------------------------------------------------------------------------
# tail calls and scale

def test_tail_calls_run_in_constant_control_stack():
    # a quarter-million iterations under a tiny recursion limit: only
    # constant-depth evaluation can survive this
    src = "(let loop ((i 0)) (if (= i 250000) i (loop (+ i 1))))"
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(150)
    try:
        r = run(src)
    finally:
        sys.setrecursionlimit(limit)
    assert r.value == 250000


TAIL_CONTEXTS = {
    "if-branch": "(define (up i) (if (< i 100000) (up (+ i 1)) i)) (up 0)",
    "begin-last": "(define (up i) (if (= i 100000) i "
                  "(begin (+ i 1) (up (+ i 1))))) (up 0)",
    "let-in-named-let": "(let loop ((i 0)) (if (= i 100000) i "
                        "(let ((j (+ i 1))) (loop j))))",
    "define-body": "(define (up i) (define j (+ i 1)) (up-to j)) "
                   "(define (up-to i) (if (= i 100000) i (up i))) (up 0)",
    "mutual": "(define (ev? n) (if (= n 0) #t (od? (- n 1)))) "
              "(define (od? n) (if (= n 0) #f (ev? (- n 1)))) "
              "(if (ev? 100000) 100000 0)",
}


@pytest.mark.parametrize("context", sorted(TAIL_CONTEXTS))
def test_each_tail_context_runs_in_constant_control_stack(context):
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(150)
    try:
        r = run(TAIL_CONTEXTS[context])
    finally:
        sys.setrecursionlimit(limit)
    assert r.value == 100000


def test_frames_abandoned_by_tail_calls_are_not_roots():
    # q (tick 1) is bound only in f's frame, p (tick 2, used at tick 3)
    # only in the let frame.  The tail let replaces f's frame and the
    # tail call (g 0) replaces the let frame, so under K=1 the collection
    # after g's cons (tick 4) reclaims both.  Made a non-tail call, (g 0)
    # leaves the let frame a root, and both live on to the next
    # allocation (tick 5).
    src = ("(define (g n) (cons n n))"
           "(define (f q) (let ((p (cons 1 2))) (car p) (g 0){rest}))"
           "(f (cons 7 7)) (cons 5 5)")
    tail = {rec.obj_id: rec
            for rec in run(src.format(rest=""), gc_interval=1)
            .trace_log.records}
    assert (tail[0].create_tick, tail[0].collect_tick) == (1, 4)
    assert (tail[1].create_tick, tail[1].last_use_tick,
            tail[1].collect_tick) == (2, 3, 4)
    non_tail = {rec.obj_id: rec
                for rec in run(src.format(rest=" 'x"), gc_interval=1)
                .trace_log.records}
    assert non_tail[0].collect_tick == non_tail[1].collect_tick == 5


# ---------------------------------------------------------------------------
# the root walk

def walk_roots(interp):
    """The root walk as a generator: the order _iter_roots must keep."""
    seen = set()
    values = [*map(interp.globals.get, interp._assigned), *interp._stack]
    while values:
        v = values.pop()
        if type(v) is LifetimeRecord:
            yield v
        elif type(v) is Closure:
            values.append(v.env)
        elif type(v) is list and id(v) not in seen:
            seen.add(id(v))
            values += v


def test_root_walk_returns_a_list_in_the_walks_order():
    # at every point of generated programs at K=1: closures, frames
    # shared by closures, non-tail recursion and pinned arguments
    walks = 0
    for seed in range(12):
        rt = Runtime(heap_slots=512, gc_interval=1)
        interp = Interpreter(rt)

        def checked_roots():
            roots = interp._iter_roots()
            assert type(roots) is list
            assert roots == list(walk_roots(interp))
            nonlocal walks
            walks += 1
            return roots

        rt.roots = checked_roots
        try:
            interp.eval_program(parse(ProgramGenerator(seed).program()))
        except SchemeError:
            pass
    assert walks > 300


def _two_frames(p, q):
    outer = [None, p, q]
    return [outer, [outer, p]]


def _pinned(p, q):
    return [[None, p], [p, q, p]]


def _captured(p, q):
    frame = [None, p, q]
    return [frame, [Closure(1, None, frame, "f"), p]]


def _cycle(p, q):
    a = [None, p]
    b = [a, q, p]
    a[0] = b
    return [a, [Closure(0, None, b, None)]]


@pytest.mark.parametrize("stack", [_two_frames, _pinned, _captured, _cycle])
def test_gather_roots_gives_each_record_once(stack):
    rt = Runtime()
    interp = Interpreter(rt)
    p, q = rt.alloc_pair(1, 2), rt.alloc_pair(3, 4)
    interp._stack += stack(p, q)
    walked = interp._iter_roots()
    assert len(walked) > 2  # p is listed more than once
    roots = rt.gather_roots((p, 5))
    assert roots == list(dict.fromkeys(walked))  # each first place kept
    assert sorted(r.obj_id for r in roots) == [p.obj_id, q.obj_id]


# ---------------------------------------------------------------------------
# tail calls of a body's own code run as loops; car, cdr, vector-ref,
# null? and cons run inline

RULE_RESULTS = {
    "loop-set": "(new . 3)",
    "proc-redefined": "b",
    "proc-set": "(c 2)",
    "proc-internal-define": "2",
    "loop-let-shadow": "(shadow 1)",
    "loop-lambda-shadow": "100",
    "loop-inner-named-let": "(inner 9)",
    "proc-let-shadow": "8",
    "proc-parameter-shadow": "8",
    "loop-arity": "error: 1:31: loop expects 1 arguments, got 2",
    "proc-arity": "error: 1:27: f expects 1 arguments, got 0",
    "proc-split": "z",
    "loop-split": "z",
    "loop-closure": "2",
    "proc-closure": "3",
    "proc-define-slot": "2",
    "loop-define-slot": "(4 1 0)",
    "proc-lambda-form": "(1 2 3 4)",
    "proc-in-begin": "z",
    "loop-in-non-tail-let": "(10)",
    "loop-tail-let": "(3 2 1 0)",
    "sibling-closure": "(b a a)",
    "define-slot-non-tail": "(((1 . 1) 1) (2 . 2) 2)",
    "define-slot-trampoline": "((e o e o e) (e o e o))",
    "define-slot-split": "(0 1 2 3)",
    "define-slot-named-let-non-tail": "((3 2 1 0) after)",
    "define-slot-closure-later": "((1 . 5) (2 . 5))",
    "car-number": "error: 1:1: car: expected a pair, got a number",
    "car-nil": "error: 1:16: car: expected a pair, got the empty list",
    "cdr-vector": "error: 1:1: cdr: expected a pair, got a vector",
    "cdr-symbol": "error: 1:1: cdr: expected a pair, got a symbol",
    "vector-ref-pair": "error: 1:1: vector-ref: expected a vector, got a pair",
    "vector-ref-high": "error: 1:25: vector-ref: index 2 out of range for "
                       "vector of length 2",
    "vector-ref-negative": "error: 1:1: vector-ref: index -1 out of range "
                           "for vector of length 2",
    "vector-ref-boolean": "error: 1:1: vector-ref: expected a number, got a "
                          "boolean",
    "vector-ref-symbol": "error: 1:15: vector-ref: expected a number, got a "
                         "symbol",
    "vector-ref-huge": "error: 1:1: vector-ref: index 1" + "0" * 40
                       + " out of range for vector of length 1",
    "null-any": "(#f #f #t #f)",
    "cons-procedure": "error: 1:16: cons: a procedure cannot be stored in a "
                      "heap object",
    "cons-procedure-first": "error: 1:1: cons: a procedure cannot be stored "
                            "in a heap object",
    "inline-reads": "(1 2 x #f #f ((a . #t) (1 . 2)))",
    "operand-slot-set-later": "(1 2 2)",
    "operator-set-later": "1",
    "primitive-operand-set-later": "21",
    "let-init-set-later": "(1 5)",
    "operand-effect-before-read": "(() 7)",
    "ghosts-out-of-id-order": "11",
}


@pytest.mark.parametrize("k", [1, 16])
@pytest.mark.parametrize("name", sorted(RULE_PROGRAMS))
def test_rule_programs(name, k):
    # every point's roots as the oracle finds them, at every allocation
    # with k = 1
    with oracle_checked_points():
        try:
            result = run(RULE_PROGRAMS[name], gc_interval=k).value_repr
        except SchemeRuntimeError as exc:
            result = f"error: {exc}"
    assert result == RULE_RESULTS[name]


def generated_calls(src, names=()):
    """The calls of generated functions, and of the functions named in
    names, while src runs."""
    calls = Counter()

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and (code.co_filename == "<dragprof>"
                                and code.co_name != "<module>"
                                or code.co_name in names):
            calls[code.co_name] += 1

    sys.setprofile(profile)
    try:
        value = run(src).value_repr
    finally:
        sys.setprofile(None)
    return value, calls


@pytest.mark.parametrize("src, value, calls", [
    ("(let loop ((i 0)) (if (= i 500) i (loop (+ i 1))))", "500", 1),
    ("(define (up i) (if (= i 500) i (up (+ i 1)))) (up 0)", "500", 1),
    ("(define up (lambda (i) (if (= i 500) i (let ((j (+ i 1))) (up j)))))"
     " (up 0)", "500", 1),
    ("(define (up i) 0) (define (up i) (if (= i 500) i (up (+ i 1))))"
     " (up 0)", "500", 1),
    # one call of the lambda's body per call from the top level, not 8
    (RULE_PROGRAMS["sibling-closure"], "(b a a)", 3),
], ids=["named-let", "define", "define-lambda", "redefined",
        "sibling-closure"])
def test_a_self_tail_call_is_a_turn_of_a_loop(src, value, calls):
    # one call of the body, not one per turn: the run-time test finds the
    # callee's code is the body's own
    result, counts = generated_calls(src)
    assert result == value
    assert max(counts.values()) == calls


def test_inline_bodies_call_no_primitive_for_the_values_they_cover():
    bodies = ("_prim_car", "_prim_cdr", "_prim_vector_ref", "_prim_null_p",
              "_prim_cons")
    src = ("(define v (vector 1 2 3))"
           "(let loop ((i 0) (acc 0))"
           "  (if (= i 3) acc"
           "      (let ((p (cons (vector-ref v i) '())))"
           "        (loop (+ i 1) (if (null? (cdr p)) (+ acc (car p)) -1)))))")
    value, calls = generated_calls(src, bodies)
    assert value == "6"
    assert not calls.keys() & set(bodies)
    # a reference in a cons goes through its body, which records its use
    value, calls = generated_calls("(cons 1 (cons 2 '()))", bodies)
    assert value == "(1 2)"
    assert calls["_prim_cons"] == 1


def test_a_record_under_a_primitive_name_stays_a_root():
    # the root walk reads only the globals a define or set! can change;
    # car is one of them here
    with oracle_checked_points() as checks:
        r = run("(define car (cons 1 2)) (cons 3 4) (cons 5 6) car",
                gc_interval=1)
    assert checks.points >= 3
    assert r.value_repr == "(1 . 2)"
    assert {rec.obj_id: rec for rec in r.trace_log.records}[0].censored


# ---------------------------------------------------------------------------
# primitive names: fixed unless a define or set! in the program targets
# them; a call of a name a frame in scope binds is an ordinary call

def test_an_interpreter_runs_one_program():
    # a later program could rebind a name fixed in the first
    _, interp = interp_fixture()
    assert interp.eval_program(parse("(define (f p) (car p)) 1")) == 1
    with pytest.raises(ProtocolViolation):
        interp.eval_program(parse("(define (car x) 42) (f (cons 1 2))"))


def test_primitive_name_bound_by_let():
    assert run("(let ((car cdr)) (car '(1 2)))").value_repr == "(2)"


def test_primitive_name_as_lambda_parameter():
    assert run("((lambda (+) (+ 2 3)) *)").value == 6


def test_a_local_binding_leaves_a_primitive_name_fixed():
    # only a define or set! of the name unfixes it, for the whole program
    _, interp = interp_fixture()
    interp.compile_program(parse("(define (f list) (car list)) "
                                 "(let ((cons 1)) cons) (set! cdr car)"))
    assert {"list", "cons", "car"} <= interp._fixed.keys()
    assert "cdr" not in interp._fixed


def test_primitive_name_set_in_the_same_program():
    src = ("(define (f p) (car p))\n"
           "(define a (f '(1 2)))\n"
           "(set! car cdr)\n"
           "(list a (f '(1 2)))")
    assert run(src).value_repr == "(1 (2))"


def test_wrong_arity_primitive_call_fails_only_when_it_runs():
    assert run("(define (g) (car 1 2)) 7").value == 7
    with pytest.raises(SchemeRuntimeError) as err:
        run("(define (g) (car 1 2)) (g)")
    assert str(err.value) == "1:13: car: bad argument count 2"


def test_car_of_a_collected_object_is_a_dangling_ref():
    for src in ("(car x)", "(let ((f car)) (f x))"):
        rt, interp = interp_fixture()
        ref = rt.alloc_pair(1, 2)
        rt.collect_now()  # nothing roots the pair
        interp.globals["x"] = ref
        with pytest.raises(DanglingRef):
            interp.eval_program(parse(src))


@pytest.mark.parametrize("src", [
    "(cdr x)",
    "(vector-ref x 0)",
    "(let ((i 1)) (vector-ref x i))",
    "(null? x)",
    "(cons x 1)",
    "(cons 1 x)",
])
def test_an_inline_body_on_a_collected_object(src):
    # as in the primitive's body: a read and a use alike are a
    # DanglingRef
    rt, interp = interp_fixture()
    ref = rt.alloc_pair(1, 2)
    rt.collect_now()
    interp.globals["x"] = ref
    with pytest.raises(DanglingRef):
        interp.eval_program(parse(src))


def test_runtime_entry_points_are_called_for_every_event(monkeypatch):
    # the bench tracer patches these methods on the class before a run;
    # the interpreter must call them, not copies taken at import
    counts = Counter()
    for name in ("record_use", "alloc_pair", "alloc_vector"):
        def counted(self, *args, _name=name,
                    _original=getattr(Runtime, name)):
            counts[_name] += 1
            return _original(self, *args)
        monkeypatch.setattr(Runtime, name, counted)
    src = WALK_LOOP + """
    (define v (make-vector 3 (cons 1 2)))
    (vector-set! v 0 (list->vector (vector->list (vector 1 2 3))))
    (eq? (vector-ref v 1) (car '(a b)))
    (let ((car cdr)) (car (list v v)))
    """
    log = run(src, gc_interval=3).trace_log
    allocs = len(log.records)
    assert counts["alloc_pair"] > 0 and counts["alloc_vector"] > 0
    assert counts["alloc_pair"] + counts["alloc_vector"] == allocs
    # the clock steps once per creation, once per use and at the end
    assert counts["record_use"] == log.end_tick - 1 - allocs > 0


def test_a_cons_is_two_python_calls_and_one_record():
    # no collection point: the body and Runtime.alloc_pair, and the
    # record is the only object the heap keeps for the pair
    rt, interp = interp_fixture(gc_interval=10 ** 9)
    cons = interp.primitives["cons"].fn
    calls = []

    def profile(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    records = len(rt.heap.objects)
    sys.setprofile(profile)
    try:
        pair = cons(interp, None, 1, NIL)
    finally:
        sys.setprofile(None)
    assert calls == ["_prim_cons", "alloc_pair"]
    assert len(rt.heap.objects) == records + 1
    assert rt.heap.objects[pair.obj_id] is pair
    assert rt.heap.slots[pair.address:pair.address + 2] == [1, NIL]


def test_run_source_leaves_the_recursion_limit_alone():
    limit = sys.getrecursionlimit()
    with pytest.raises(SchemeRuntimeError, match="recursion too deep"):
        run("(define (down n) (+ 1 (down n))) (down 0)")
    assert sys.getrecursionlimit() == limit


def test_long_list_build_and_traverse():
    n = 50_000
    src = f"""
    (define xs
      (let build ((i 0) (acc '()))
        (if (= i {n}) acc (build (+ i 1) (cons 1 acc)))))
    (let total ((rest xs) (sum 0))
      (if (null? rest) sum (total (cdr rest) (+ sum (car rest)))))
    """
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(300)
    try:
        r = run(src, heap_slots=2 ** 17, gc_interval=n)
    finally:
        sys.setrecursionlimit(limit)
    assert r.value == n
    assert len(r.trace_log.records) == n


@pytest.mark.slow
def test_million_element_list_runs():
    # the full-scale tail-call contract; deselect with -m "not slow"
    n = 1_000_000
    src = f"""
    (define xs
      (let build ((i 0) (acc '()))
        (if (= i {n}) acc (build (+ i 1) (cons 1 acc)))))
    (let total ((rest xs) (sum 0))
      (if (null? rest) sum (total (cdr rest) (+ sum (car rest)))))
    """
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(300)
    try:
        r = run(src, heap_slots=2 ** 21, gc_interval=n)
    finally:
        sys.setrecursionlimit(limit)
    assert r.value == n
    assert len(r.trace_log.records) == n


def test_out_of_memory_exit_path():
    src = """
    (define xs '())
    (let loop ((i 0))
      (if (= i 100)
          'done
          (begin (set! xs (cons i xs)) (loop (+ i 1)))))
    """
    with pytest.raises(OutOfMemory) as err:
        run(src, heap_slots=32)
    # the failing allocation site and primitive are named
    assert "cons" in str(err.value)
    assert "6:27:" in str(err.value)


# ---------------------------------------------------------------------------
# programs at Python's static limits: 100 levels of indentation, 200
# nested brackets, the longest integer str() converts, and symbols that
# are not Python identifiers

@pytest.mark.parametrize("name, value_repr, records", [
    ("nested-ifs", "(8 . 7)", 2 * 3 + 1),
    ("nested-lets", "(" + " ".join(map(str, range(119, -1, -1))) + ")", 121),
    ("long-begin", "4999", 5000),
    ("wide-plus", str(sum(range(300))), 300),
    ("wide-list", "(" + " ".join(map(str, range(300))) + ")", 600),
    ("wide-vector", "#(" + " ".join(map(str, range(300))) + ")", 301),
    ("deep-plus", "251", 1),
    ("long-integer", "7" * 4000, 2),
    ("odd-symbols", 'a"b\\c', 1),
])
def test_programs_at_python_limits(name, value_repr, records, capsys):
    r = run(LIMIT_PROGRAMS[name], heap_slots=2 ** 15)
    assert r.value_repr == value_repr
    assert len(r.trace_log.records) == records
    if name in ("long-integer", "odd-symbols"):
        assert capsys.readouterr().out == value_repr


def test_equal_constants_of_other_types_stay_apart():
    # 1 == True and 0 == False in Python; each call of five constants
    # keeps its own values
    src = ("(list (list 1 1 1 1 1) (list 1 1 1 1 #t) (vector 0 0 0 0 0) "
           "(vector 0 0 0 0 #f) (+ 1 1) (eq? 1 #t) (eq? #f 0))")
    assert run(src).value_repr == ("((1 1 1 1 1) (1 1 1 1 #t) #(0 0 0 0 0) "
                                   "#(0 0 0 0 #f) 2 #f #f)")


def test_odd_symbols_in_error_messages():
    with pytest.raises(SchemeRuntimeError) as err:
        run("(car 'x\"y) (cons u\"v\\ 1)")
    assert str(err.value) == "1:1: car: expected a pair, got a symbol"
    with pytest.raises(SchemeRuntimeError) as err:
        run("(cons u\"v\\ 1)")
    assert str(err.value) == '1:1: unbound variable: u"v\\'


# ---------------------------------------------------------------------------
# determinism

def test_identical_runs_produce_identical_logs():
    src = WALK_LOOP + "(vector->list (vector 1 2 3))"
    a = run(src, gc_interval=3)
    b = run(src, gc_interval=3)
    assert format_draglog(a.trace_log) == format_draglog(b.trace_log)
    assert [s.tick for s in a.collections] == [s.tick for s in b.collections]


@pytest.mark.parametrize("k", [1, 3, 16])
def test_generated_programs_agree_with_the_oracle(k):
    # every collection point of every run is checked against the oracle,
    # copied or not, and a second run of each program ends the same way,
    # byte for byte
    ends = {"value": 0, "error": 0}
    points = dated = 0
    for seed in range(60):
        source = ProgramGenerator(seed).program()
        outcomes = []
        for _ in range(2):
            with oracle_checked_points() as checked:
                try:
                    r = run(source, gc_interval=k, heap_slots=512)
                except SchemeError as exc:
                    outcomes.append(("error", str(exc)))
                else:
                    outcomes.append(("value", format_draglog(r.trace_log)))
            points += checked.points
            dated += checked.dated_points
        assert outcomes[0] == outcomes[1], source
        ends[outcomes[0][0]] += 1
    assert ends["value"] >= 40 and ends["error"] >= 5
    assert points >= 120
    assert dated > 0  # some points were resolved by a later copy
