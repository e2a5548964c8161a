"""Shared drivers and program templates for the test suite."""

import bisect
import contextlib
import random

from hypothesis import strategies as st

import dragprof
from dragprof import runtime
from dragprof.gc import Collector, canonical_serialization, reachability_oracle
from dragprof.heap import NEVER_USED, NIL, PAIR, VECTOR
from dragprof.profiler import (CollectionStats, Columns, TraceLog,
                               _read_columns)
from dragprof.runtime import Runtime


def _substitute(text, old, new):
    assert old in text, f"template drifted: {old!r} not found"
    return text.replace(old, new)


def motiv_source(n, spin_steps):
    """The bundled motiv program with its two size knobs substituted."""
    text = dragprof.bundled_program("motiv.scm")
    text = _substitute(text, "(define n 1000)", f"(define n {n})")
    return _substitute(text, "(define spin-steps 5000)",
                       f"(define spin-steps {spin_steps})")


def nullified_source(n):
    text = dragprof.bundled_program("motiv-nullified.scm")
    return _substitute(text, "(define n 1000)", f"(define n {n})")


def _nested_ifs(depth, inner):
    """depth ifs, nested in the then branch and the else branch by turns,
    around inner; t is #t and f is #f."""
    src = inner
    for i in range(depth):
        src = f"(if t {src} 0)" if i % 2 else f"(if f 0 {src})"
    return src


def _nested_lets(depth):
    """A let depth deep whose innermost body reads the outermost and the
    innermost binding; each binding conses onto the one before."""
    src = f"(cons (car a0) a{depth - 1})"
    for i in range(depth - 1, 0, -1):
        src = f"(let ((a{i} (cons {i} a{i - 1}))) {src})"
    return f"(cdr (let ((a0 (cons 0 '()))) {src}))"


_ALLOCATING_ARGS = " ".join(f"(car '({i}))" for i in range(300))
_LONG_INT = "7" * 4000
_INNER = "(car (list 7 (cons 8 9)))"

# Programs at Python's static limits, which a compiler to Python source
# must split or keep out of the text: 100 levels of indentation, 200
# nested brackets, the longest integer str() converts (4300 digits), and
# symbols that are no Python identifier or string literal.
LIMIT_PROGRAMS = {
    "nested-ifs": ("(define t #t) (define f #f)\n"
                   f"(define (g x) (+ x {_nested_ifs(150, _INNER)}))\n"
                   f"(cons (g 1) {_nested_ifs(150, _INNER)})"),
    "nested-lets": _nested_lets(120),
    "long-begin": "(define x '()) (begin " + " ".join(
        f"(set! x (cons {i} x))" for i in range(5000)) + " (car x))",
    "wide-plus": f"(+ {_ALLOCATING_ARGS})",
    "wide-list": f"(list {_ALLOCATING_ARGS})",
    "wide-vector": f"(vector {_ALLOCATING_ARGS})",
    "deep-plus": "(+ 1 " * 250 + "(car '(1))" + ")" * 250,
    "long-integer": f"(display {_LONG_INT}) "
                    f"(car (list {_LONG_INT} -{_LONG_INT}))",
    "odd-symbols": ("(define a\"b 'a\"b\\c)\n"
                    "(display (let ((x\\y a\"b)) (car (list x\\y))))\n"
                    "a\"b"),
}


def _split_self_call(src="(if (= n 0) 'z (down (- n 1)))"):
    """src, by default a self tail call of down, nested 60 ifs deep, so
    in a unit split off its procedure's body."""
    for _ in range(60):
        src = f"(if #t {src} 0)"
    return src


# Programs at the edges of the rules that run a tail call of a body's own
# code as a loop and car, cdr, vector-ref, null? and cons inline: tail
# calls that reach another body (after a set!, a redefinition or a
# shadowing binding), pass a wrong count or sit in a split unit, another
# closure of the same body, loops whose turns keep their frames, a body
# with define slots on each path that calls it, and each inline body on
# the values its primitive's body must handle; and a program whose dead
# are logged out of id order at a tick before the last.
RULE_PROGRAMS = {
    # a set! of the loop name: the next turn calls the new value
    "loop-set": ("(let loop ((i 0))\n"
                 "  (if (= i 2) (set! loop (lambda (j) (cons 'new j))) 0)\n"
                 "  (if (< i 5) (loop (+ i 1)) i))"),
    # a second define or a set! of a procedure: the old body's tail call
    # reaches the new value
    "proc-redefined": ("(define (f x) (if (= x 0) 'a (f (- x 1))))\n"
                       "(define g f)\n(define (f x) 'b)\n(g 3)"),
    "proc-set": ("(define (f x) (if (= x 0) 'a (f (- x 1))))\n"
                 "(define g f)\n(set! f (lambda (x) (list 'c x)))\n(g 3)"),
    "proc-internal-define": "(define (f x) (define (f y) (+ y 1)) (f x))\n"
                            "(f 1)",
    # a binding that shadows the loop or procedure name
    "loop-let-shadow": ("(let loop ((i 0))\n"
                        "  (if (= i 3) 'done\n"
                        "      (let ((loop (lambda (j) (list 'shadow j))))\n"
                        "        (loop (+ i 1)))))"),
    "loop-lambda-shadow": "(let loop ((i 0))\n"
                          "  ((lambda (loop) (loop i)) (lambda (k) (+ k 100))))",
    "loop-inner-named-let": ("(let loop ((i 0))\n"
                             "  (if (= i 2) i\n"
                             "      (let loop ((j i))\n"
                             "        (if (= j 9) (list 'inner j) "
                             "(loop (+ j 1))))))"),
    "proc-let-shadow": "(define (f x) (let ((f (lambda (y) (* y 2)))) (f x)))"
                       "\n(f 4)",
    "proc-parameter-shadow": "(define (f f) (if (number? f) f (f 7)))\n"
                             "(f (lambda (x) (+ x 1)))",
    # a wrong count is the closure call's arity error
    "loop-arity": "(let loop ((i 0)) (if (= i 1) (loop 1 2) (loop (+ i 1))))",
    "proc-arity": "(define (f x) (if (= x 0) (f) (f (- x 1))))\n(f 2)",
    # a self tail call in a unit split off the body stays a call
    "proc-split": f"(define (down n) {_split_self_call()})\n(down 3)",
    "loop-split": f"(let down ((n 3)) {_split_self_call()})",
    # a tail call of another closure of the same body takes that
    # closure's frame as its parent
    "sibling-closure": ("(define (make k)\n"
                        "  (lambda (n other) (if (= n 0) k "
                        "(other (- n 1) other))))\n"
                        "(define a (make 'a))\n(define b (make 'b))\n"
                        "(list (a 3 b) (b 2 a) (a 0 b))"),
    # every turn has a frame of its own, which a closure keeps
    "loop-closure": ("(let loop ((i 0) (f (lambda () -1)))\n"
                     "  (if (= i 3) (f) (loop (+ i 1) (lambda () i))))"),
    "proc-closure": ("(define (h i f)\n"
                     "  (if (= i 3) (f) (h (+ i 1) (lambda () (+ i (f))))))\n"
                     "(h 0 (lambda () 0))"),
    "proc-define-slot": ("(define (f i acc) (define (get) i)\n"
                         "  (if (= i 3) (acc) (f (+ i 1) get)))\n"
                         "(f 0 (lambda () -1))"),
    "loop-define-slot": ("(let loop ((i 0) (acc '())) (define d (* i i))\n"
                         "  (if (= i 3) acc (loop (+ i 1) (cons d acc))))"),
    "proc-lambda-form": ("(define f (lambda (n acc)\n"
                         "  (if (= n 0) acc (f (- n 1) (cons n acc)))))\n"
                         "(f 4 '())"),
    "proc-in-begin": "(begin (define (f n) (if (= n 0) 'z (f (- n 1))))\n"
                     "(f 5))",
    "loop-in-non-tail-let": ("(define (sum xs)\n"
                             "  (let ((total (let loop ((ys xs) (s 0))\n"
                             "                 (if (null? ys) s\n"
                             "                     (loop (cdr ys) "
                             "(+ s (car ys)))))))\n"
                             "    (list total)))\n"
                             "(sum (list 1 2 3 4))"),
    "loop-tail-let": ("(let loop ((i 0) (acc '()))\n"
                      "  (if (= i 4) acc\n"
                      "      (let ((p (cons i acc))) (loop (+ i 1) p))))"),
    # a body that extends its frame by its define slots, called by a
    # non-tail call, a trampoline, a split unit's call, a non-tail named
    # let and a later call of a closure
    "define-slot-non-tail": "(define (f x) (define y (cons x x)) (list y x))\n"
                            "(cons (f 1) (f 2))",
    "define-slot-trampoline": ("(define (ev n acc) (define p (cons 'e acc))\n"
                               "  (if (= n 0) p (od (- n 1) p)))\n"
                               "(define (od n acc) (define p (cons 'o acc))\n"
                               "  (if (= n 0) p (ev (- n 1) p)))\n"
                               "(list (ev 4 '()) (od 3 '()))"),
    "define-slot-split": ("(define (down n acc) (define d (cons n acc))\n"
                          + _split_self_call("(if (= n 0) d (down (- n 1) d))")
                          + ")\n(down 3 '())"),
    "define-slot-named-let-non-tail": (
        "(list (let loop ((i 0) (acc '())) (define d (cons i acc))\n"
        "        (if (= i 3) d (loop (+ i 1) d)))\n"
        "      'after)"),
    "define-slot-closure-later": ("(define g (let ((k 5))\n"
                                  "  (lambda (x) (define y (cons x k)) y)))\n"
                                  "(list (g 1) (g 2))"),
    # the cases an inline body leaves to its primitive's body
    "car-number": "(car 5)",
    "car-nil": "(let ((x '())) (car x))",
    "cdr-vector": "(cdr (vector 1 2))",
    "cdr-symbol": "(cdr 'a)",
    "vector-ref-pair": "(vector-ref (cons 1 2) 0)",
    "vector-ref-high": "(let ((v (vector 1 2))) (vector-ref v 2))",
    "vector-ref-negative": "(vector-ref (vector 1 2) -1)",
    "vector-ref-boolean": "(vector-ref (vector 1 2) #t)",
    "vector-ref-symbol": "(let ((i 'a)) (vector-ref (vector 1 2) i))",
    "vector-ref-huge": ("(vector-ref (vector 1) "
                        "(* 100000000000000000000 100000000000000000000))"),
    "null-any": "(list (null? car) (null? 0) (null? '()) (null? (list 1)))",
    "cons-procedure": "(let ((f car)) (cons 1 f))",
    "cons-procedure-first": "(cons (lambda (x) x) 2)",
    "inline-reads": ("(define v (vector (cons 1 2) 'x #f))\n"
                     "(list (car (vector-ref v 0)) (cdr (vector-ref v 0))\n"
                     "      (vector-ref v 1) (vector-ref v 2)\n"
                     "      (null? (vector-ref v 2))\n"
                     "      (cons (cons 'a #t) (cons (vector-ref v 0) '())))"),
    # each operand is read where it stands, before the later operands
    # run: a later set! of its slot or effect on its pair shows only in
    # the operands after it
    "operand-slot-set-later": ("(define (f x) (list x (begin (set! x 2) x)"
                               " x))\n(f 1)"),
    "operator-set-later": ("(define p (cons 1 2))\n"
                           "(define (h g) (g (begin (set! g cdr) p)))\n"
                           "(h car)"),
    "primitive-operand-set-later": ("(define (k x) (+ x (begin (set! x 10) x)"
                                    " x))\n(k 1)"),
    "let-init-set-later": ("(define (m x)\n"
                           "  (let ((a x) (b (begin (set! x 5) x)))\n"
                           "    (list a b)))\n(m 1)"),
    "operand-effect-before-read": ("(define p (cons 1 2))\n"
                                   "(list (set-car! p 7) (car p))"),
    # hold keeps a vector across six rounds beside a 12-cell live list.
    # When a copy between points finds a hold dead that was a root at
    # the last point, and an earlier copy since that point found
    # younger garbage dead, the ghosts die out of id order: at K=8 in a
    # 44-slot heap, or K=3 in a 40-slot one, at ticks before the last.
    "ghosts-out-of-id-order": (
        "(define keep (let build ((i 0) (acc '()))\n"
        "  (if (= i 12) acc (build (+ i 1) (cons i acc)))))\n"
        "(let loop ((i 0) (hold (make-vector 3 0)) (c 0))\n"
        "  (if (< i 300)\n"
        "      (begin (cons i i)\n"
        "             (if (= c 5)\n"
        "                 (loop (+ i 1) (make-vector 3 i) 0)\n"
        "                 (loop (+ i 1) hold (+ c 1))))))\n"
        "(car keep)"),
}


class Roots:
    """An explicit root list, the runtime's roots."""

    def __init__(self, rt):
        self.refs = []
        rt.roots = lambda: list(self.refs)


class HeapDriver:
    """Random mutator over a Runtime, no interpreter involved.

    Keeps an explicit root list as the runtime's roots and mixes
    allocations (pairs and short vectors, some dropped immediately),
    root drops, slot writes and use events.  Live-set size stays bounded
    by max_roots plus whatever the rooted objects reach.
    """

    def __init__(self, runtime: Runtime, rng: random.Random, max_roots=40):
        self.rt = runtime
        self.rng = rng
        self.max_roots = max_roots
        self.roots = []
        runtime.roots = lambda: list(self.roots)

    def _random_value(self):
        r = self.rng.random()
        if self.roots and r < 0.5:
            return self.rng.choice(self.roots)
        if r < 0.75:
            return self.rng.randrange(-100, 100)
        return NIL

    def step(self) -> str:
        rng = self.rng
        rt = self.rt
        op = rng.random()
        if op < 0.45 or not self.roots:
            if rng.random() < 0.7:
                ref = rt.alloc_pair(self._random_value(),
                                    self._random_value())
            else:
                ref = rt.alloc_vector(rng.randrange(0, 4),
                                      self._random_value())
            if rng.random() < 0.8 and len(self.roots) < self.max_roots:
                self.roots.append(ref)
            return "alloc"
        if op < 0.60:
            self.roots.pop(rng.randrange(len(self.roots)))
            return "drop"
        if op < 0.80:
            ref = rng.choice(self.roots)
            rec = rt.heap.objects[ref.obj_id]
            if rec.size_slots:
                rt.heap.store(rec.address + rng.randrange(rec.size_slots),
                              self._random_value())
            return "write"
        rt.record_use(rng.choice(self.roots))
        return "use"


def checked_collect(rt: Runtime):
    """Collect once, asserting the survivor set matches the independent
    reachability oracle and the reachable graph is unchanged."""
    live_before = len(rt.heap.objects)
    with oracle_checked_copies() as checked:
        stats = rt.collect_now()
    # The point and its copy keep the same objects; they count the dead
    # apart: the point takes the ghosts, the copy those of earlier
    # uncopied points.
    [copy] = checked
    assert copy.trigger == stats.trigger == "manual"
    assert copy.survivors == stats.survivors
    assert copy.slots_copied == stats.slots_copied
    assert stats.survivors + stats.collected == live_before
    assert stats.survivors == len(rt.heap.objects)
    # every survivor sits inside the (new) active space
    for meta in rt.heap.objects.values():
        assert 0 <= meta.address
        assert meta.address + meta.size_slots <= rt.heap.used_slots
    return stats


def make_log(rows, end_tick, gc_interval=1):
    """A TraceLog of rows (profiler.Columns tuples), in the order given."""
    columns = Columns(*([getattr(r, name) for r in rows]
                        for name in Columns._fields))
    return TraceLog(gc_interval, 64, "synthetic", end_tick, columns)


def in_key_order(log):
    """Whether the log's rows are their own sort by (collect tick, id)."""
    rows = list(log.records)
    return rows == sorted(rows, key=lambda r: (r.collect_tick, r.obj_id))


def counted_sorts(monkeypatch):
    """The row counts a Runtime sorts, one per call of the helper that
    sorts the lines of one collect tick."""
    counts = []
    sort = runtime.sorted_lines

    def counting(text):
        counts.append(text.count("\n"))
        return sort(text)

    monkeypatch.setattr(runtime, "sorted_lines", counting)
    return counts


def logged_rows(rt):
    """The rows a runtime has logged so far, in the order logged: its
    OBJ lines read back by the DRAGLOG reader, as Columns."""
    read = _read_columns("".join(rt.lines) + "END 0\n")
    assert read is not None, "the runtime logged a line the reader rejects"
    return read[0]


@st.composite
def trace_logs(draw):
    """Logs whose records a run could write, in creation order: pairs and
    vectors, censored records collected at the end, never-used records,
    records created at tick 0, and none at all."""
    end = draw(st.integers(0, 300))
    rows = []
    for i in range(draw(st.integers(0, 20))):
        kind = draw(st.sampled_from((PAIR, VECTOR)))
        size = 2 if kind == PAIR else draw(st.integers(0, 4))
        create = draw(st.integers(0, end))
        censored = draw(st.booleans())
        collect = end if censored else draw(st.integers(create, end))
        last = draw(st.just(NEVER_USED) | st.integers(create, collect))
        rows.append(Columns(i, kind, size, create, last, collect, censored))
    return make_log(rows, end)


def run_gc_correctness_session(seed: int, objects_budget=120,
                               heap_slots=8192):
    """One randomized mutation program with oracle-checked collections."""
    rng = random.Random(seed)
    with oracle_checked_points():
        rt = Runtime(heap_slots=heap_slots, gc_interval=10 ** 9)
        driver = HeapDriver(rt, rng)
        allocated = 0
        while allocated < objects_budget:
            if driver.step() == "alloc":
                allocated += 1
            if rng.random() < 0.04:
                checked_collect(rt)
        checked_collect(rt)
        log = rt.terminate()
    ids = [r.obj_id for r in log.records]
    assert len(ids) == allocated, "records lost or duplicated"
    assert len(set(ids)) == allocated, "an object was logged twice"
    for rec in log.records:
        if rec.last_use_tick != NEVER_USED:
            assert rec.create_tick <= rec.last_use_tick <= rec.collect_tick
        assert rec.create_tick <= rec.collect_tick
    return log


def run_delta_gc_session(seed: int, gc_interval: int, ops=1200,
                         heap_slots=4096):
    """Randomized run asserting the collection-lag bound: each object is
    collected at most gc_interval allocations after the oracle first
    reports it unreachable.  The oracle runs after every mutator step;
    the log's collect ticks say when each object was collected.

    Returns (objects allocated, objects checked against the bound).
    """
    rng = random.Random(seed)
    first_unreachable = {}  # obj_id -> allocation count at that moment
    rt = Runtime(heap_slots=heap_slots, gc_interval=gc_interval)
    driver = HeapDriver(rt, rng, max_roots=25)
    for _ in range(ops):
        driver.step()
        reachable = reachability_oracle(rt.heap, rt.gather_roots())
        for oid in rt.heap.objects:
            if oid not in reachable and oid not in first_unreachable:
                first_unreachable[oid] = rt.heap.allocated
    log = rt.terminate()
    # the allocations made by tick t: those created at or before it
    creates = sorted(rec.create_tick for rec in log.records)
    violations = []
    checked = 0
    for rec in log.records:
        if rec.censored:
            continue
        allocs = bisect.bisect_right(creates, rec.collect_tick)
        # Objects not yet seen unreachable died inside the very step
        # that reached this collection: lag zero.
        gap = allocs - first_unreachable.get(rec.obj_id, allocs)
        checked += 1
        if gap > gc_interval:
            violations.append((rec.obj_id, gap))
    assert not violations, f"collection lag exceeded K: {violations[:5]}"
    return rt.heap.allocated, checked


class ProgramGenerator:
    """Seeded random mini-Scheme programs for the interpreter.

    A program is a run of snippets: lists built by non-tail recursion,
    named-let folds, closures that keep state through set!, procedures
    with internal defines (some that a read, a set! and a closure of
    their name precede), quoted structure, vectors filled with fresh
    pairs, pair mutation that makes cycles, slots whose fresh contents
    are overwritten in a loop, dropped references, primitive
    calls whose later arguments allocate, fixed and closure calls whose
    first value is fresh and whose later arguments may allocate or not,
    primitive names rebound locally
    and globally, a wrong-arity call that never runs, and sometimes a
    deliberate runtime error.  Snippets refer to the heap values that
    earlier ones defined, so the live graph is shared and changes shape
    over the run.  Sizes stay small enough that 512 heap
    slots never run out.
    """

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.lists = []    # globals bound to proper lists of integers
        self.values = []   # globals bound to any value
        self.closures = []  # globals bound to counter procedures
        self.count = 0

    def _name(self, stem):
        self.count += 1
        return f"{stem}{self.count}"

    def _pick(self, names, default="'()"):
        return self.rng.choice(names) if names else default

    def program(self) -> str:
        rng = self.rng
        snippets = [self._build_list]
        snippets += rng.choices(
            [self._build_list, self._fold, self._counter, self._internal,
             self._quote, self._vector, self._cycle, self._drop,
             self._temporaries, self._call, self._nested, self._shadow,
             self._rebind, self._overwrite, self._late_define,
             self._mixed_args],
            k=rng.randrange(2, 7))
        forms = [make() for make in snippets]
        if rng.random() < 0.2:
            forms.append(self._error())
        # the result: a fresh structure over whatever is still defined
        forms.append(f"(list {self._pick(self.values)} "
                     f"{self._pick(self.lists)})")
        return "\n".join(forms)

    def _build_list(self):
        name, build = self._name("xs"), self._name("build")
        n = self.rng.randrange(0, 9)
        self.lists.append(name)
        self.values.append(name)
        return (f"(define ({build} n)\n"
                f"  (if (= n 0) '() (cons n ({build} (- n 1)))))\n"
                f"(define {name} ({build} {n}))")

    def _fold(self):
        name = self._name("sum")
        self.values.append(name)
        return (f"(define {name}\n"
                f"  (let loop ((l {self._pick(self.lists)}) (acc 0))\n"
                f"    (if (null? l) acc (loop (cdr l) (+ acc (car l))))))")

    def _counter(self):
        make, tick = self._name("make-counter"), self._name("tick")
        name = self._name("seen")
        k = self.rng.randrange(1, 4)
        other = self._pick(self.values)
        self.values.append(name)
        self.closures.append(tick)
        # only the closure's captured frame keeps its list alive
        return (f"(define ({make} start)\n"
                f"  (let ((c start) (seen '()))\n"
                f"    (lambda ()\n"
                f"      (set! seen (cons c seen))\n"
                f"      (set! c (+ c 1))\n"
                f"      (vector-length (list->vector seen)))))\n"
                f"(define {tick} ({make} {k}))\n"
                f"({tick})\n"
                f"({tick})\n"
                f"(define {name} (cons ({tick}) {other}))")

    def _internal(self):
        proc, name = self._name("pair-up"), self._name("pairs")
        self.values.append(name)
        return (f"(define ({proc} l)\n"
                f"  (define (swap p) (cons (cdr p) (car p)))\n"
                f"  (define acc '())\n"
                f"  (let walk ((l l))\n"
                f"    (if (null? l) acc\n"
                f"        (begin (set! acc (cons (swap (cons (car l) l)) acc))\n"
                f"               (walk (cdr l))))))\n"
                f"(define {name} ({proc} {self._pick(self.lists)}))")

    def _late_define(self):
        # before the internal define runs, its name means the global: a
        # read sees it, a set! assigns it, and a closure made then sees
        # the global until the define runs and the inner binding after
        var, proc, peek = (self._name("late"), self._name("shadowing"),
                           self._name("peek"))
        name = self._name("late-pairs")
        other = self._pick(self.values)
        self.values += [var, name]
        return (f"(define {var} (cons 0 {other}))\n"
                f"(define ({proc} l)\n"
                f"  (define ({peek}) {var})\n"
                f"  (define before (cons {var} l))\n"
                f"  (set! {var} (cons 1 before))\n"
                f"  (define early ({peek}))\n"
                f"  (define {var} (list l early))\n"
                f"  (cons ({peek}) before))\n"
                f"(define {name} ({proc} {self._pick(self.lists)}))")

    def _quote(self):
        name = self._name("q")
        self.values.append(name)
        n = self.rng.randrange(100)
        return (f"(define {name} '(a (b {n} #t) () . c))\n"
                f"(car (cdr {name}))")

    def _vector(self):
        name, copy = self._name("v"), self._name("vl")
        n = self.rng.randrange(0, 6)
        source = self._pick(self.lists)
        self.values.append(name)
        self.lists.append(copy)
        return (f"(define {name} (make-vector {n} 0))\n"
                f"(let fill ((i 0))\n"
                f"  (if (< i (vector-length {name}))\n"
                f"      (begin (vector-set! {name} i (cons i '()))\n"
                f"             (fill (+ i 1)))))\n"
                f"(define {copy} (vector->list (list->vector {source})))\n"
                f"(vector (vector->list {name}) {copy})")

    def _cycle(self):
        name = self._name("ring")
        other = self._pick(self.values)
        self.values.append(name)
        return (f"(define {name} (list 1 2 {other}))\n"
                f"(set-cdr! (cdr (cdr {name})) {name})\n"
                f"(set-car! {name} (eq? (car (cdr (cdr (cdr {name})))) 1))")

    def _temporaries(self):
        # values held only by a let's inits or a call's arguments while
        # later ones allocate
        name = self._name("tmp")
        n = self.rng.randrange(10)
        other = self._pick(self.values)
        self.values.append(name)
        return (f"(define {name}\n"
                f"  (let ((a (cons {n} {other})) (b (list {n} {n})))\n"
                f"    (set-car! b a)\n"
                f"    (list (cons (car a) b) (vector (cons 1 2))"
                f" (car (cons a (cons 3 4))))))")

    def _nested(self):
        # primitives that do not allocate, over arguments that do: the
        # earlier argument values are live only as call temporaries
        name = self._name("nest")
        n = self.rng.randrange(10)
        other = self._pick(self.values)
        self.values.append(name)
        return (f"(define {name}\n"
                f"  (let ((x (cons {n} {other})))\n"
                f"    (list (+ (car x) (car (cons 1 2)))\n"
                f"          (eq? x (car (cons x '())))\n"
                f"          (eq? (car (list x)) (cdr x))\n"
                f"          (eq? (cons {n} {n}) (car (cons 1 2)))\n"
                f"          (vector-ref (vector x (cons 3 {n})) 1)\n"
                f"          (null? (cdr (list (vector x) x))))))")

    def _shadow(self):
        # primitive names bound by let, lambda and define, and a call of
        # a fixed primitive with the wrong count that is never made
        name, proc = self._name("shadow"), self._name("never")
        source = self._pick(self.lists)
        self.values.append(name)
        return (f"(define ({proc}) (cdr 1 2))\n"
                f"(define {name}\n"
                f"  (let ((car cdr) (+ *))\n"
                f"    (define (vector x) (cons x x))\n"
                f"    (list (car (cons 1 {source})) (+ 2 3 4) (vector 5)\n"
                f"          ((lambda (cons a) (cons a a)) list 7))))")

    def _rebind(self):
        # a global primitive name rebound to a procedure that allocates;
        # from then on every call of a primitive takes the generic path
        prim = self.rng.choice(["car", "cdr", "null?", "vector-length"])
        original = self._name("original")
        definition = self.rng.choice([
            f"(set! {prim} (lambda (x) (cons 0 x) ({original} x)))",
            f"(define ({prim} x) (vector x) ({original} x))",
        ])
        return f"(define {original} {prim})\n{definition}"

    def _overwrite(self):
        # a fresh object stored in a slot, then overwritten while the
        # loop allocates: each store drops the last reference to the
        # previous one
        name = self._name("box")
        n = self.rng.randrange(1, 8)
        store = self.rng.choice(["set-car! {} v", "set-cdr! {} v",
                                 "vector-set! {} 1 v"])
        make = "(make-vector 2 0)" if "vector" in store else "(cons 0 0)"
        other = self._pick(self.values)
        self.values.append(name)
        return (f"(define {name} {make})\n"
                f"(let fill ((i 0))\n"
                f"  (if (< i {n})\n"
                f"      (let ((v (list i {other})))\n"
                f"        ({store.format(name)})\n"
                f"        (fill (+ i 1)))))")

    def _mixed_args(self):
        # fixed calls of 3 and 4 arguments and closure calls, in tail
        # position and not, whose later arguments each allocate or not:
        # both sides of the rule that pins a call's values only while a
        # later argument can allocate
        rng = self.rng
        name, pick, keep = (self._name("mixed"), self._name("pick"),
                            self._name("keep"))
        n = rng.randrange(10)
        other = self._pick(self.values)
        self.values.append(name)

        def later(fresh):
            return rng.choice([str(n), fresh])
        return (f"(define ({pick} v a b)\n"
                f"  (vector-set! v 1 b)\n"
                f"  (vector-ref v 0))\n"
                f"(define ({keep} v a) ({pick} v {later('(cons a a)')} a))\n"
                f"(define {name}\n"
                f"  (list (vector-set! (make-vector 2 0) 1"
                f" {later(f'(cons {n} {other})')})\n"
                f"        (+ (vector-length (make-vector 3 0)) {n}"
                f" {later(f'(car (cons {n} 0))')} 1)\n"
                f"        ({pick} (make-vector 2 (cons {n} {other})) {n}"
                f" {later('(list 1 2)')})\n"
                f"        ({keep} (make-vector 2 (cons {n} {n}))"
                f" {later('(vector 3)')})))")

    def _call(self):
        if not self.closures:
            return self._build_list()
        name = self._name("calls")
        self.values.append(name)
        return f"(define {name} ({self.rng.choice(self.closures)}))"

    def _drop(self):
        if not self.values:
            return "'()"
        name = self.values.pop(self.rng.randrange(len(self.values)))
        if name in self.lists:
            self.lists.remove(name)
        return f"(set! {name} '())"

    def _error(self):
        return self.rng.choice([
            "(car 5)",
            "(vector-ref (vector 1 2) 2)",
            "(undefined-procedure 1)",
            f"(let ((x {self._pick(self.values)})) (x))",
            "((lambda (a b) a) 1)",
            "(set! never-defined 1)",
            "(+ 1 '(2))",
            "(car 1 2)",
            "(cons (vector 1))",
        ])


class PointChecks:
    """What oracle_checked_points saw: the number of collection points,
    the trigger of each point no copy ran at, and each copy's stats."""

    def __init__(self):
        self.points = 0
        self.dated = []  # a later copy dated these points' dead
        self.copies = []
        self._runs = {}  # id(runtime) -> _OracleRun

    @property
    def dated_points(self):
        return len(self.dated)


class _OracleRun:
    """The oracle's view of one runtime: each point's expected stats and
    each object's expected collect tick."""

    def __init__(self, rt):
        assert rt.heap.stamp == -1, "runtime seen after its first point"
        self.rt = rt
        self.alive = set()  # reachable at the last point
        self.created = 0    # objects created by the last point
        self.stats = []
        self.collect_tick = {}

    def point(self, trigger, roots):
        rt = self.rt
        reached = reachability_oracle(rt.heap, roots)
        created = rt.heap.allocated
        candidates = self.alive | set(range(self.created, created))
        tick = rt.clock
        died = candidates - reached
        for obj_id in died:
            self.collect_tick[obj_id] = tick
        self.stats.append(CollectionStats(
            trigger, tick, len(reached), len(died),
            sum(rt.heap.objects[i].size_slots for i in reached)))
        self.alive, self.created = reached, created

    def check(self):
        """Every point's stats, and the collect tick of every object in
        the runtime's logged rows, match the oracle's; the rows hold
        each object the oracle saw die, once, and none was used after it
        was collected.  The points of a run that ended without a copy
        after them (in an error) are dated by a copy over its current
        roots."""
        rt = self.rt
        # a manual point copies, which resolves it and every point before
        manual = [i for i, s in enumerate(self.stats) if s.trigger == "manual"]
        assert len(rt.collections) > (manual[-1] if manual else -1), \
            "a point before a copy is still unresolved"
        if len(rt.collections) < len(self.stats):
            rt.collector.collect(rt.gather_roots(), rt.clock)
        assert rt.collections == self.stats, \
            "collection stats diverge from the oracle"
        dead = logged_rows(rt)
        collected = []
        for obj_id, last_use, collect, censored in zip(
                dead.obj_id, dead.last_use_tick, dead.collect_tick,
                dead.censored):
            expected = None if censored else collect
            assert self.collect_tick.get(obj_id) == expected, \
                f"object #{obj_id} collected at {collect}, " \
                f"the oracle says {self.collect_tick.get(obj_id)}"
            assert last_use <= collect, \
                f"object #{obj_id} used at {last_use}, " \
                f"after it was collected at {collect}"
            if not censored:
                collected.append(obj_id)
        assert sorted(collected) == sorted(self.collect_tick), \
            "the logged rows and the oracle's dead differ"


@contextlib.contextmanager
def oracle_checked_copies():
    """Check every copy inside the block: it keeps exactly what the
    oracle finds reachable from its roots and leaves the reachable graph
    unchanged.  Yields a list that gets each copy's stats."""
    original = Collector.collect
    checked = []

    def collect(collector, roots, clock, trigger="manual"):
        heap = collector.heap
        expected = reachability_oracle(heap, roots)
        before = canonical_serialization(heap, roots)
        stats = original(collector, roots, clock, trigger)
        assert set(heap.objects) == expected, \
            f"survivors diverge from the oracle at tick {clock}"
        assert canonical_serialization(heap, roots) == before, \
            f"reachable graph changed at tick {clock}"
        checked.append(stats)
        return stats

    Collector.collect = collect
    try:
        yield checked
    finally:
        Collector.collect = original


@contextlib.contextmanager
def oracle_checked_points():
    """Check every collection point of the runtimes made inside the block.

    At each point the oracle computes what the point's roots reach; the
    objects created before the point that were reachable at the last
    point (or created since) and are not reached now die here.  When the
    block ends, every resolved CollectionStats and every collect tick in
    the runtime's logged rows must be the oracle's, whether a copy ran at
    the point or a later one dated it.  Every copy is checked as by
    oracle_checked_copies.  Yields a PointChecks."""
    original = Runtime.collection_point
    checks = PointChecks()

    def collection_point(rt, trigger, roots):
        run = checks._runs.get(id(rt))
        if run is None:
            run = checks._runs[id(rt)] = _OracleRun(rt)
        run.point(trigger, roots)
        before = len(copies)
        original(rt, trigger, roots)
        checks.points += 1
        if len(copies) == before:
            checks.dated.append(trigger)

    Runtime.collection_point = collection_point
    try:
        with oracle_checked_copies() as copies:
            yield checks
    finally:
        Runtime.collection_point = original
    checks.copies = copies
    for run in checks._runs.values():
        run.check()
