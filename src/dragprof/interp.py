"""Compile-then-run evaluator for the profiled mini-Scheme subset.

The language: integer and boolean literals, quote, if, let, named let,
lambda, begin, define (plain and shorthand procedure form), set!, and
procedure application over the primitive table.

Three parts: the reader, parse(), turns source text into reader forms
(a SrcList with its line and column per parenthesized form; integers,
booleans and interned symbols for atoms); the compiler,
Interpreter.eval_program, checks the syntax of every top-level form and
builds its Python closure code(env) in one walk, then runs the closures
in order ("analyze, then execute": SICP 4.1.7; Feeley & Lapalme, "Using
closures for code generation", 1987); the primitive table binds the
procedures of the global environment.  Nesting too deep to read or to
compile is a syntax error.

Tail calls: in tail position (the chosen if branch, the last form of a
begin or body) a closure call returns a _TailCall instead of making the
call.  The nearest trampoline (a non-tail call, a non-tail let or named
let, or the top level) binds the frame and runs the body, so loops run
in constant control-stack space regardless of iteration count.

Env-slot invariant: the innermost slot of the env stack always holds
the current environment.  A non-tail closure call, let or named let
pushes a slot and pops it afterwards; a tail call, let or named let
overwrites the innermost slot; if, begin and primitive calls push
nothing.  The slots are the environments the collector treats as roots,
so a frame a tail call abandons is dead at the next allocation.

Profiling contract: every allocating primitive routes through the
Runtime, which advances the logical clock and may collect at the
allocation site; a use event is recorded for every heap reference a
primitive receives, left to right, after the primitive's own validation
(so a type error never records a use).  Quoted list structure allocates
each time the quote is evaluated, keeping creation ticks meaningful.

Closures and environment frames live outside the profiled heap; they
cannot be stored in heap slots, but any references they capture are part
of the root set.  Evaluator temporaries (argument lists, let inits,
partially built quoted structure) are pinned while further evaluation
could trigger a collection.
"""

import re
import sys
from dataclasses import dataclass

from .defaults import DEFAULT_GC_INTERVAL, DEFAULT_HEAP_SLOTS
from .errors import OutOfMemory, SchemeRuntimeError, SchemeSyntaxError
from .heap import NIL, PAIR, VECTOR, Nil, Ref, is_storable
from .profiler import TraceLog
from .runtime import Runtime

# ---------------------------------------------------------------------------
# Reader: source text -> s-expressions

_INT_RE = re.compile(r"[+-]?[0-9]+")

_QUOTE = sys.intern("quote")
_IF = sys.intern("if")
_LET = sys.intern("let")
_LAMBDA = sys.intern("lambda")
_BEGIN = sys.intern("begin")
_DEFINE = sys.intern("define")
_SET = sys.intern("set!")


class SrcList:
    """A parenthesized form; tail is the datum after a dot, if any."""

    __slots__ = ("items", "tail", "line", "col")

    def __init__(self, items, tail, line, col):
        self.items = items
        self.tail = tail
        self.line = line
        self.col = col


def tokenize(source: str):
    tokens = []
    line, col = 1, 1
    i, n = 0, len(source)
    while i < n:
        c = source[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
        elif c in " \t\r":
            col += 1
            i += 1
        elif c == ";":
            while i < n and source[i] != "\n":
                i += 1
        elif c in "()'":
            tokens.append((c, c, line, col))
            col += 1
            i += 1
        else:
            start, start_col = i, col
            while i < n and source[i] not in " \t\r\n;()'":
                i += 1
                col += 1
            tokens.append(("atom", source[start:i], line, start_col))
    return tokens, (line, col)


def _classify_atom(text, line, col):
    if _INT_RE.fullmatch(text):
        return int(text)
    if text == "#t":
        return True
    if text == "#f":
        return False
    if text.startswith("#"):
        raise SchemeSyntaxError(f"unknown literal {text}", line, col)
    return sys.intern(text)


class _Reader:
    def __init__(self, source):
        self.tokens, self.end_pos = tokenize(source)
        self.i = 0

    def _next(self, context):
        if self.i >= len(self.tokens):
            raise SchemeSyntaxError(f"unexpected end of input ({context})",
                                    *self.end_pos)
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def read_form(self):
        kind, text, line, col = self._next("expected a form")
        if kind == "(":
            items, tail = [], None
            while True:
                if self.i >= len(self.tokens):
                    raise SchemeSyntaxError(
                        "unexpected end of input (unclosed parenthesis)",
                        *self.end_pos)
                nkind, ntext, nline, ncol = self.tokens[self.i]
                if nkind == ")":
                    self.i += 1
                    return SrcList(items, tail, line, col)
                if nkind == "atom" and ntext == ".":
                    self.i += 1
                    if not items or tail is not None:
                        raise SchemeSyntaxError("misplaced dot", nline, ncol)
                    tail = self.read_form()
                    continue
                if tail is not None:
                    raise SchemeSyntaxError("form after dotted tail",
                                            nline, ncol)
                items.append(self.read_form())
        if kind == ")":
            raise SchemeSyntaxError("unexpected closing parenthesis",
                                    line, col)
        if kind == "'":
            return SrcList([_QUOTE, self.read_form()], None, line, col)
        if text == ".":
            raise SchemeSyntaxError("misplaced dot", line, col)
        return _classify_atom(text, line, col)

    def read_program(self):
        forms = []
        while self.i < len(self.tokens):
            forms.append(self.read_form())
        return forms


def parse(source: str):
    """Read source text into its top-level forms: SrcLists and atoms.
    Nesting deeper than the Python recursion limit allows is a syntax
    error."""
    reader = _Reader(source)
    try:
        return reader.read_program()
    except RecursionError:
        _, _, line, col = reader.tokens[reader.i - 1]
        raise SchemeSyntaxError("nesting too deep", line, col) from None


# ---------------------------------------------------------------------------
# Runtime values

class Env:
    """Lexical frame: a dict of bindings plus a parent link."""

    __slots__ = ("vars", "parent")

    def __init__(self, parent, vars):
        self.vars = vars
        self.parent = parent

    def lookup(self, name, pos):
        env = self
        while env is not None:
            if name in env.vars:
                return env.vars[name]
            env = env.parent
        raise _rt_error(f"unbound variable: {name}", pos)

    def assign(self, name, value, pos):
        env = self
        while env is not None:
            if name in env.vars:
                env.vars[name] = value
                return
            env = env.parent
        raise _rt_error(f"set! of unbound variable: {name}", pos)


class Closure:
    """A procedure: its parameters, its body compiled to code(frame), the
    environment it closes over and the name it was defined under."""

    __slots__ = ("params", "code", "env", "name")

    def __init__(self, params, code, env, name):
        self.params = params
        self.code = code
        self.env = env
        self.name = name

    def __repr__(self):
        return f"#<procedure {self.name}>" if self.name else "#<procedure>"


class Primitive:
    __slots__ = ("name", "min_args", "max_args", "fn")

    def __init__(self, name, min_args, max_args, fn):
        self.name = name
        self.min_args = min_args
        self.max_args = max_args
        self.fn = fn

    def __repr__(self):
        return f"#<primitive {self.name}>"


def _rt_error(msg, pos):
    if pos is not None:
        return SchemeRuntimeError(f"{pos[0]}:{pos[1]}: {msg}")
    return SchemeRuntimeError(msg)


def write_value(heap, value) -> str:
    """Scheme-style rendering; cycles are cut with a #<cycle> marker."""
    out = []
    on_path = set()

    def emit(v):
        if type(v) is Ref:
            meta = heap.objects.get(v.obj_id)
            if meta is None:
                out.append(f"#<collected {v.obj_id}>")
                return
            if v.obj_id in on_path:
                out.append("#<cycle>")
                return
            if meta.kind == VECTOR:
                on_path.add(v.obj_id)
                out.append("#(")
                for i in range(meta.size_slots):
                    if i:
                        out.append(" ")
                    emit(heap.slot_value(v.obj_id, i))
                out.append(")")
                on_path.discard(v.obj_id)
                return
            # pair: iterate over the cdr chain
            on_path.add(v.obj_id)
            chain = [v.obj_id]
            out.append("(")
            emit(heap.slot_value(v.obj_id, 0))
            cur = heap.slot_value(v.obj_id, 1)
            while True:
                if (type(cur) is Ref and cur.obj_id in heap.objects
                        and heap.objects[cur.obj_id].kind == PAIR):
                    if cur.obj_id in on_path:
                        out.append(" . #<cycle>")
                        break
                    on_path.add(cur.obj_id)
                    chain.append(cur.obj_id)
                    out.append(" ")
                    emit(heap.slot_value(cur.obj_id, 0))
                    cur = heap.slot_value(cur.obj_id, 1)
                    continue
                if isinstance(cur, Nil):
                    break
                out.append(" . ")
                emit(cur)
                break
            out.append(")")
            for oid in chain:
                on_path.discard(oid)
        elif v is True:
            out.append("#t")
        elif v is False:
            out.append("#f")
        elif isinstance(v, int):
            out.append(str(v))
        elif isinstance(v, Nil):
            out.append("()")
        elif isinstance(v, str):
            out.append(v)
        else:
            out.append(repr(v))

    emit(value)
    return "".join(out)


# ---------------------------------------------------------------------------
# Primitives

def _record_of(rt, v):
    """The record of the object v refers to; None if v is not a Ref."""
    return rt.heap.record(v) if type(v) is Ref else None


def _type_name(rt, v):
    if type(v) is Ref:
        return "a pair" if _record_of(rt, v).kind == PAIR else "a vector"
    if isinstance(v, bool):
        return "a boolean"
    if isinstance(v, int):
        return "a number"
    if isinstance(v, Nil):
        return "the empty list"
    if isinstance(v, str):
        return "a symbol"
    return "a procedure"


def _use_refs(interp, args):
    rt = interp.rt
    for v in args:
        if type(v) is Ref:
            rt.record_use(v)


def _check_storable(interp, v, name, pos):
    if not is_storable(v):
        raise _rt_error(f"{name}: {_type_name(interp.rt, v)} cannot be "
                        f"stored in a heap object", pos)


def _require_pair(interp, v, name, pos):
    rec = _record_of(interp.rt, v)
    if rec is None or rec.kind != PAIR:
        raise _rt_error(f"{name}: expected a pair, got "
                        f"{_type_name(interp.rt, v)}", pos)
    return rec


def _require_vector(interp, v, name, pos):
    rec = _record_of(interp.rt, v)
    if rec is None or rec.kind != VECTOR:
        raise _rt_error(f"{name}: expected a vector, got "
                        f"{_type_name(interp.rt, v)}", pos)
    return rec


def _require_number(interp, v, name, pos):
    if type(v) is not int:
        raise _rt_error(f"{name}: expected a number, got "
                        f"{_type_name(interp.rt, v)}", pos)


def _prim_cons(interp, args, pos):
    _check_storable(interp, args[0], "cons", pos)
    _check_storable(interp, args[1], "cons", pos)
    _use_refs(interp, args)
    return interp.rt.alloc_pair(args[0], args[1])


def _prim_list(interp, args, pos):
    for v in args:
        _check_storable(interp, v, "list", pos)
    _use_refs(interp, args)
    result = NIL
    for v in reversed(args):
        result = interp.rt.alloc_pair(v, result)
    return result


def _prim_car(interp, args, pos):
    _require_pair(interp, args[0], "car", pos)
    interp.rt.record_use(args[0])
    return interp.rt.heap.read_slot(args[0], 0)


def _prim_cdr(interp, args, pos):
    _require_pair(interp, args[0], "cdr", pos)
    interp.rt.record_use(args[0])
    return interp.rt.heap.read_slot(args[0], 1)


def _prim_set_car(interp, args, pos):
    _require_pair(interp, args[0], "set-car!", pos)
    _check_storable(interp, args[1], "set-car!", pos)
    _use_refs(interp, args)
    interp.rt.heap.write_slot(args[0], 0, args[1])
    return NIL


def _prim_set_cdr(interp, args, pos):
    _require_pair(interp, args[0], "set-cdr!", pos)
    _check_storable(interp, args[1], "set-cdr!", pos)
    _use_refs(interp, args)
    interp.rt.heap.write_slot(args[0], 1, args[1])
    return NIL


def _prim_null_p(interp, args, pos):
    _use_refs(interp, args)
    return isinstance(args[0], Nil)


def _prim_pair_p(interp, args, pos):
    _use_refs(interp, args)
    rec = _record_of(interp.rt, args[0])
    return rec is not None and rec.kind == PAIR


def _prim_number_p(interp, args, pos):
    _use_refs(interp, args)
    return type(args[0]) is int  # a bool is not a number


def _prim_vector(interp, args, pos):
    for v in args:
        _check_storable(interp, v, "vector", pos)
    _use_refs(interp, args)
    ref = interp.rt.alloc_vector(len(args), NIL)
    for i, v in enumerate(args):
        interp.rt.heap.write_slot(ref, i, v)
    return ref


def _prim_make_vector(interp, args, pos):
    _require_number(interp, args[0], "make-vector", pos)
    if args[0] < 0:
        raise _rt_error(f"make-vector: negative length {args[0]}", pos)
    fill = args[1] if len(args) == 2 else NIL
    _check_storable(interp, fill, "make-vector", pos)
    _use_refs(interp, args)
    return interp.rt.alloc_vector(args[0], fill)


def _vector_index(interp, rec, i, name, pos):
    _require_number(interp, i, name, pos)
    size = rec.size_slots
    if not 0 <= i < size:
        raise _rt_error(f"{name}: index {i} out of range for vector "
                        f"of length {size}", pos)


def _prim_vector_ref(interp, args, pos):
    rec = _require_vector(interp, args[0], "vector-ref", pos)
    _vector_index(interp, rec, args[1], "vector-ref", pos)
    _use_refs(interp, args)
    return interp.rt.heap.read_slot(args[0], args[1])


def _prim_vector_set(interp, args, pos):
    rec = _require_vector(interp, args[0], "vector-set!", pos)
    _vector_index(interp, rec, args[1], "vector-set!", pos)
    _check_storable(interp, args[2], "vector-set!", pos)
    _use_refs(interp, args)
    interp.rt.heap.write_slot(args[0], args[1], args[2])
    return NIL


def _prim_vector_length(interp, args, pos):
    rec = _require_vector(interp, args[0], "vector-length", pos)
    interp.rt.record_use(args[0])
    return rec.size_slots


def _prim_vector_to_list(interp, args, pos):
    rec = _require_vector(interp, args[0], "vector->list", pos)
    rt = interp.rt
    v = args[0]
    rt.record_use(v)
    result = NIL
    for i in range(rec.size_slots - 1, -1, -1):
        result = rt.alloc_pair(rt.heap.read_slot(v, i), result)
    return result


def _prim_list_to_vector(interp, args, pos):
    rt = interp.rt
    heap = rt.heap
    lst = args[0]
    # validate the spine first so an improper list records no events
    n, cur = 0, lst
    limit = len(heap.objects) + 1
    while (rec := _record_of(rt, cur)) is not None and rec.kind == PAIR:
        n += 1
        if n > limit:
            raise _rt_error("list->vector: cyclic list", pos)
        cur = heap.read_slot(cur, 1)
    if not isinstance(cur, Nil):
        raise _rt_error(f"list->vector: expected a proper list, got "
                        f"{_type_name(rt, args[0])}", pos)
    items = []
    cur = lst
    while not isinstance(cur, Nil):
        rt.record_use(cur)
        items.append(heap.read_slot(cur, 0))
        cur = heap.read_slot(cur, 1)
    # items stay reachable through the pinned argument list
    vec = rt.alloc_vector(n, NIL)
    for i, v in enumerate(items):
        heap.write_slot(vec, i, v)
    return vec


def _arith_args(interp, args, name, pos):
    for v in args:
        if type(v) is not int:
            _require_number(interp, v, name, pos)


def _prim_add(interp, args, pos):
    _arith_args(interp, args, "+", pos)
    return sum(args)


def _prim_sub(interp, args, pos):
    _arith_args(interp, args, "-", pos)
    if len(args) == 1:
        return -args[0]
    total = args[0]
    for v in args[1:]:
        total -= v
    return total


def _prim_mul(interp, args, pos):
    _arith_args(interp, args, "*", pos)
    total = 1
    for v in args:
        total *= v
    return total


def _prim_num_eq(interp, args, pos):
    _arith_args(interp, args, "=", pos)
    return all(a == args[0] for a in args[1:])


def _prim_lt(interp, args, pos):
    _arith_args(interp, args, "<", pos)
    return all(args[i] < args[i + 1] for i in range(len(args) - 1))


def _prim_eq_p(interp, args, pos):
    _use_refs(interp, args)
    a, b = args
    if type(a) is Ref:
        return type(b) is Ref and a.obj_id == b.obj_id
    if isinstance(a, bool):
        return a is b
    if isinstance(a, int):
        return type(b) is int and a == b
    if isinstance(a, str):
        return isinstance(b, str) and a == b
    if isinstance(a, Nil):
        return isinstance(b, Nil)
    return a is b


def _prim_display(interp, args, pos):
    if type(args[0]) is Ref:
        interp.rt.record_use(args[0])
    sys.stdout.write(write_value(interp.rt.heap, args[0]))
    return NIL


_PRIMITIVES = [
    ("cons", 2, 2, _prim_cons),
    ("list", 0, None, _prim_list),
    ("car", 1, 1, _prim_car),
    ("cdr", 1, 1, _prim_cdr),
    ("set-car!", 2, 2, _prim_set_car),
    ("set-cdr!", 2, 2, _prim_set_cdr),
    ("null?", 1, 1, _prim_null_p),
    ("pair?", 1, 1, _prim_pair_p),
    ("number?", 1, 1, _prim_number_p),
    ("vector", 0, None, _prim_vector),
    ("make-vector", 1, 2, _prim_make_vector),
    ("vector-ref", 2, 2, _prim_vector_ref),
    ("vector-set!", 3, 3, _prim_vector_set),
    ("vector-length", 1, 1, _prim_vector_length),
    ("vector->list", 1, 1, _prim_vector_to_list),
    ("list->vector", 1, 1, _prim_list_to_vector),
    ("+", 0, None, _prim_add),
    ("-", 1, None, _prim_sub),
    ("*", 0, None, _prim_mul),
    ("=", 2, None, _prim_num_eq),
    ("<", 2, None, _prim_lt),
    ("eq?", 2, 2, _prim_eq_p),
    ("display", 1, 1, _prim_display),
]


# ---------------------------------------------------------------------------
# Compiler: reader forms -> closures

def _syntax_error(msg, sx, pos):
    """Raise msg at sx's own position if it is a form, else at pos."""
    if type(sx) is SrcList:
        pos = (sx.line, sx.col)
    raise SchemeSyntaxError(msg, *pos)


def _require_symbol(sx, what, pos):
    if not isinstance(sx, str):
        _syntax_error(f"expected {what}", sx, pos)
    return sx


def _too_deep(form):
    return SchemeSyntaxError("nesting too deep", form.line, form.col)


class _TailCall:
    """A closure call in tail position, returned to the nearest trampoline
    instead of made where it appears."""

    __slots__ = ("fn", "args", "pos")

    def __init__(self, fn, args, pos):
        self.fn = fn
        self.args = args
        self.pos = pos


def _bind(fn, args, pos):
    """The frame of a call of closure fn on args."""
    params = fn.params
    if len(args) != len(params):
        raise _rt_error(f"{fn.name or 'procedure'} expects {len(params)} "
                        f"arguments, got {len(args)}", pos)
    return Env(fn.env, dict(zip(params, args)))


def _trampoline(stack, r):
    """Make the tail calls r leads to, each in the innermost env slot,
    until a value results."""
    while type(r) is _TailCall:
        fn = r.fn
        frame = _bind(fn, r.args, r.pos)
        stack[-1] = frame
        r = fn.code(frame)
    return r


class Interpreter:
    """One evaluation context over one Runtime.  Single-threaded; after an
    error propagates out of a run the context should be discarded."""

    def __init__(self, runtime: Runtime):
        self.rt = runtime
        self.globals = Env(None, {})
        self._env_stack = []
        self._pinned = []
        for name, lo, hi, fn in _PRIMITIVES:
            self.globals.vars[sys.intern(name)] = Primitive(name, lo, hi, fn)
        runtime.add_root_provider(self._iter_roots)

    def _iter_roots(self):
        """Yield every Ref reachable from the environments in use and the
        pinned temporaries, walking closure captures, cycle-safely."""
        seen_envs = set()
        env_queue = []

        def push_env(env):
            while env is not None and id(env) not in seen_envs:
                seen_envs.add(id(env))
                env_queue.append(env)
                env = env.parent

        push_env(self.globals)
        for env in self._env_stack:
            push_env(env)
        values = []
        for v in self._pinned:
            if type(v) is list:
                values.extend(v)
            else:
                values.append(v)
        qi = 0
        while values or qi < len(env_queue):
            while values:
                v = values.pop()
                tv = type(v)
                if tv is Ref:
                    yield v
                elif tv is Closure:
                    push_env(v.env)
            if qi < len(env_queue):
                values.extend(env_queue[qi].vars.values())
                qi += 1

    def eval_program(self, program):
        """Compile every top-level form, then run them in order in the
        global environment; returns the last one's value."""
        # compile_program's loop, inlined: calling it would take one more
        # Python frame and lower the deepest nesting that compiles.
        codes = []
        for form in program:
            try:
                codes.append(self._compile(form, (1, 1), True))
            except RecursionError:
                raise _too_deep(form) from None
        stack = self._env_stack
        env = self.globals
        result = NIL
        for code in codes:
            stack.append(env)
            try:
                result = _trampoline(stack, code(env))
            finally:
                stack.pop()
        return result

    def compile_program(self, forms):
        """The code of each top-level form.  A form nested too deep to
        compile is a syntax error at that form."""
        codes = []
        for form in forms:
            try:
                codes.append(self._compile(form, (1, 1), True))
            except RecursionError:
                raise _too_deep(form) from None
        return codes

    def _materialize(self, datum):
        """Build a quoted datum, allocating its pairs now."""
        if type(datum) is not SrcList:
            return datum
        pins = self._pinned
        vals = []
        pins.append(vals)
        for item in datum.items:
            vals.append(self._materialize(item))
        result = self._materialize(datum.tail) if datum.tail is not None \
            else NIL
        for v in reversed(vals):
            result = self.rt.alloc_pair(v, result)
        pins.pop()
        return result

    # The compile methods recurse per nesting level, so they build lists
    # with comprehensions, not generators: resuming a generator takes C
    # stack, which deep nesting overflows before the recursion limit.
    def _compile(self, sx, pos, tail):
        """Check reader form sx and return the closure code(env) that
        evaluates it; an atom reports pos, its enclosing form's position.
        In tail position (tail set) code may return a _TailCall."""
        if type(sx) is str:
            return lambda env: env.lookup(sx, pos)
        if type(sx) is not SrcList:  # an integer or a boolean
            return lambda env: sx
        pos = (sx.line, sx.col)
        if sx.tail is not None:
            raise SchemeSyntaxError("dotted list in code", *pos)
        items = sx.items
        if not items:
            raise SchemeSyntaxError("empty application", *pos)
        head = items[0]
        if head is _QUOTE:
            if len(items) != 2:
                raise SchemeSyntaxError("quote takes one datum", *pos)
            return self._compile_quote(items[1], pos)
        if head is _IF:
            if len(items) not in (3, 4):
                raise SchemeSyntaxError(
                    "if takes a test and one or two branches", *pos)
            # The alternative's errors are reported before the test's.
            alt = (self._compile(items[3], pos, tail) if len(items) == 4
                   else lambda env: NIL)
            test = self._compile(items[1], pos, False)
            then = self._compile(items[2], pos, tail)

            def if_(env):
                if test(env) is not False:
                    return then(env)
                return alt(env)
            return if_
        if head is _LET:
            if len(items) >= 2 and type(items[1]) is str:
                if len(items) < 4:
                    raise SchemeSyntaxError(
                        "named let needs bindings and a body", *pos)
                return self._compile_let(items[1], items[2], items[3:], pos,
                                         tail)
            if len(items) < 3:
                raise SchemeSyntaxError("let needs bindings and a body",
                                        *pos)
            return self._compile_let(None, items[1], items[2:], pos, tail)
        if head is _LAMBDA:
            if len(items) < 3:
                raise SchemeSyntaxError("lambda needs parameters and a body",
                                        *pos)
            plist = items[1]
            if type(plist) is not SrcList or plist.tail is not None:
                _syntax_error("expected a parameter list", plist, pos)
            return self._compile_lambda(plist.items, items[2:], pos)
        if head is _BEGIN:
            if len(items) < 2:
                raise SchemeSyntaxError("empty begin", *pos)
            return self._compile_body(items[1:], pos, tail)
        if head is _DEFINE:
            return self._compile_define(items, pos)
        if head is _SET:
            if len(items) != 3:
                raise SchemeSyntaxError("set! takes a name and a value",
                                        *pos)
            name = _require_symbol(items[1], "a name", pos)
            value_code = self._compile(items[2], pos, False)

            def set_var(env):
                env.assign(name, value_code(env), pos)
                return NIL
            return set_var
        return self._compile_apply(items, pos, tail)

    def _compile_body(self, forms, pos, tail):
        codes = [self._compile(f, pos, False) for f in forms[:-1]]
        last = self._compile(forms[-1], pos, tail)
        if not codes:
            return last

        def body(env):
            for code in codes:
                code(env)
            return last(env)
        return body

    def _compile_lambda(self, plist, body_forms, pos):
        params = tuple([_require_symbol(p, "a parameter name", pos)
                        for p in plist])
        body = self._compile_body(body_forms, pos, True)
        return lambda env: Closure(params, body, env, None)

    def _compile_define(self, items, pos):
        if len(items) < 3:
            raise SchemeSyntaxError("define needs a name and a value", *pos)
        target = items[1]
        if type(target) is SrcList:  # (define (name params...) body...)
            if target.tail is not None or not target.items:
                _syntax_error("bad define form", target, pos)
            name = _require_symbol(target.items[0], "a procedure name", pos)
            value_code = self._compile_lambda(target.items[1:], items[2:],
                                              pos)
        else:
            if len(items) != 3:
                raise SchemeSyntaxError("define takes one value", *pos)
            name = _require_symbol(target, "a name", pos)
            value_code = self._compile(items[2], pos, False)

        def define(env):
            value = value_code(env)
            if type(value) is Closure and value.name is None:
                value.name = name
            env.vars[name] = value
            return NIL
        return define

    def _compile_quote(self, datum, pos):
        if type(datum) is SrcList and not datum.items and datum.tail is None:
            datum = NIL  # '() allocates nothing, so it is a constant
        if type(datum) is not SrcList:
            return lambda env: datum
        materialize = self._materialize

        def quote(env):
            try:
                return materialize(datum)
            except OutOfMemory as exc:
                raise OutOfMemory(f"{pos[0]}:{pos[1]}: quote: {exc}") \
                    from None
        return quote

    def _compile_let(self, loop_name, bindings, body_forms, pos, tail):
        """A let, or a named let; an init reports its binding's position."""
        if type(bindings) is not SrcList or bindings.tail is not None:
            _syntax_error("expected a binding list", bindings, pos)
        names, inits = [], []
        for b in bindings.items:
            if (type(b) is not SrcList or b.tail is not None
                    or len(b.items) != 2):
                _syntax_error("expected (name init) binding", b, pos)
            bpos = (b.line, b.col)
            names.append(_require_symbol(b.items[0], "a binding name", bpos))
            inits.append(self._compile(b.items[1], bpos, False))
        names = tuple(names)
        body = self._compile_body(body_forms, pos, True)
        stack, pins = self._env_stack, self._pinned

        def let(env):
            parent = env
            if loop_name is not None:
                # the loop name binds a closure over its own frame
                parent = Env(env, {})
                parent.vars[loop_name] = Closure(names, body, parent,
                                                 loop_name)
            vals = []
            pins.append(vals)
            for init in inits:
                vals.append(init(env))
            frame = Env(parent, dict(zip(names, vals)))
            pins.pop()
            if tail:
                stack[-1] = frame
                return body(frame)
            stack.append(frame)
            try:
                return _trampoline(stack, body(frame))
            finally:
                stack.pop()
        return let

    def _compile_apply(self, items, pos, tail):
        fn_code = self._compile(items[0], pos, False)
        arg_codes = [self._compile(a, pos, False) for a in items[1:]]
        interp, stack, pins = self, self._env_stack, self._pinned

        def apply(env):
            fn = fn_code(env)
            pins.append(fn)
            args = []
            pins.append(args)
            for arg in arg_codes:
                args.append(arg(env))
            tf = type(fn)
            if tf is Primitive:
                n = len(args)
                if n < fn.min_args or (fn.max_args is not None
                                       and n > fn.max_args):
                    raise _rt_error(f"{fn.name}: bad argument count {n}",
                                    pos)
                try:
                    result = fn.fn(interp, args, pos)
                except OutOfMemory as exc:
                    raise OutOfMemory(f"{pos[0]}:{pos[1]}: "
                                      f"{fn.name}: {exc}") from None
                pins.pop()
                pins.pop()
                return result
            if tf is not Closure:
                raise _rt_error(
                    f"not a procedure: {write_value(interp.rt.heap, fn)}",
                    pos)
            pins.pop()
            pins.pop()
            if tail:
                return _TailCall(fn, args, pos)
            frame = _bind(fn, args, pos)
            stack.append(frame)
            try:
                r = fn.code(frame)
                if type(r) is _TailCall:
                    r = _trampoline(stack, r)
                return r
            finally:
                stack.pop()
        return apply


# ---------------------------------------------------------------------------
# Entry point

@dataclass
class RunResult:
    value: object
    value_repr: str
    trace_log: TraceLog
    collections: list


def run_source(source: str, *,
               gc_interval: int = DEFAULT_GC_INTERVAL,
               heap_slots: int = DEFAULT_HEAP_SLOTS,
               source_name: str = "<string>") -> RunResult:
    """Parse and run a program, returning its result and the trace log.

    The result is rendered before termination; if it is a heap reference
    the object may be collected by the closing collection, so value_repr
    is the faithful record of what the program produced.  Running out of
    Python recursion depth is a SchemeRuntimeError ("recursion too deep");
    the caller chooses the limit.  A syntax error is reported before a
    configuration out of range (the ValueError of Runtime).
    """
    program = parse(source)
    try:
        rt = Runtime(heap_slots, gc_interval, source_name)
    except ValueError:
        Interpreter(Runtime()).compile_program(program)
        raise
    interp = Interpreter(rt)
    try:
        value = interp.eval_program(program)
        value_repr = write_value(rt.heap, value)
    except RecursionError:
        raise SchemeRuntimeError("recursion too deep") from None
    log = rt.terminate()
    return RunResult(value, value_repr, log, rt.collections)
