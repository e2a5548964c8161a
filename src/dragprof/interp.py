"""Compile-then-run evaluator for the profiled mini-Scheme subset.

The language: integer and boolean literals, quote, if, let, named let,
lambda, begin, define (plain and shorthand procedure form), set!, and
procedure application over the primitive table.

Three parts: the reader, parse(), turns source text into reader forms
(a SrcList with its line and column per parenthesized form; integers,
booleans and interned symbols for atoms; the Program's positions give
the line and column of each top-level form); the compiler,
Interpreter.eval_program, checks the syntax of every top-level form and
builds its Python closure code(frame) in one walk, then runs the closures
in order ("analyze, then execute": SICP 4.1.7; Feeley & Lapalme, "Using
closures for code generation", 1987); the primitive table binds the
procedures of the global table.  Nesting too deep to read or to
compile is a syntax error.

Which code can allocate: a collection point comes only with an
allocation, so a value needs a root only while code that can allocate
runs (the stack-map argument of Diwan, Moss and Hudson, "Compiler
support for garbage collection in a statically typed language", 1992).
The compiler puts each code that can allocate in one set: a closure
call (any call but one of a fixed primitive), a call of a primitive
that allocates, a quote of a non-empty list, and an if, begin, let,
set!, define or primitive call with a part that can.  Atoms, variable
references and lambda cannot.

Fixed primitives: an Interpreter compiles one program, so a primitive's
global is fixed for the whole run when no define or set! in the program
targets its name.  A call whose head is a fixed name that no frame in
scope binds, with a count the primitive accepts, calls the primitive's
body on the argument values: no operator lookup, no count check, no
operator pin; a two-argument + - * = or < calls a two-argument body.
Whatever the count, the argument values are pinned only when the
primitive allocates or an argument after the first can: else nothing
can allocate once the first argument is evaluated, so there is no
collection to root them for.

Tail calls: in tail position (the chosen if branch, the last form of a
begin or body) a closure call checks the count, binds the callee's
frame and returns the tuple (code, frame) instead of making the call; no
Scheme value is a tuple.  The nearest trampoline (a non-tail call, a
non-tail let or named let, or the top level) puts the frame in the
innermost stack slot and runs the code, so loops run in constant
control-stack space regardless of iteration count.

Lexical addressing (SICP 5.5.6; Dybvig, "Three implementation models
for Scheme", 1987): the compiler resolves every variable.  A closure
call or a let makes a frame, a Python list [parent, v1, v2, ...]: the
parameters or binding names in order, then a slot for each name an
internal define binds in it.  Those are the defines that run in the
frame: in the body and in its let inits, not in a nested lambda, let
body or quote.  A named let's loop closure has a frame of its own,
[parent, closure], between the let's frame and the enclosing one.  A
name bound by a parameter compiles to its slot, as (frame links out,
index), which a reference reads and a set! stores into directly; a name
no frame binds is looked up in the one global table, the
dict that top-level defines fill.  A define slot holds _UNSET until its
define runs, and until then the name means its outer binding: the name
compiles to its chain of candidate slots, out to the first parameter
slot or else the global table, and a reference or set! takes the first
candidate that is set.

The stack: one list of roots, each None (top level) or a list: a frame
or a list of pinned values; the current frame is always on it.  A call
makes the list [operator, argument values] and a let [frame, init
values].  If none of those parts can allocate, the list is made in one
expression; else it is pushed while they run, so the values so far are
roots, and popped after.  A closure call turns its list into the
callee's frame in place, the operator's slot becoming the parent link;
a let keeps its list as its frame.  A non-tail closure call, let or
named let pushes its frame once and pops it when it returns.  A tail
call, tail let or tail named let pushes none: its frame takes the
innermost slot, in place of the current frame (None at top level), so
a frame a tail call abandons is dead at the next allocation.  A call
that reaches a primitive at run time pushes its argument values while
the primitive runs.  A pinning fixed call and a quote push their value
lists while further evaluation could allocate; if and begin push
nothing.

Profiling contract: every allocating primitive routes through the
Runtime, which advances the logical clock and may collect at the
allocation site; a use event is recorded for every heap reference a
primitive receives, left to right, after the primitive's own validation
(so a type error never records a use).  Quoted list structure allocates
each time the quote is evaluated, keeping creation ticks meaningful.

Closures and frames live outside the profiled heap; they cannot be
stored in heap slots, but any references they capture are part of the
root set: the global table's values and the stack, with each closure's
frame and each frame's parent.
"""

import operator
import re
import sys
from dataclasses import dataclass

from .defaults import DEFAULT_GC_INTERVAL, DEFAULT_HEAP_SLOTS
from .errors import (
    OutOfMemory,
    ProtocolViolation,
    SchemeRuntimeError,
    SchemeSyntaxError,
    int_text,
)
from .heap import NIL, PAIR, VECTOR, Nil, Ref
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
        try:
            return int(text)
        except ValueError:  # longer than sys.get_int_max_str_digits()
            raise SchemeSyntaxError("integer literal too long",
                                    line, col) from None
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
        forms = Program()
        forms.positions = []
        while self.i < len(self.tokens):
            _, _, line, col = self.tokens[self.i]
            forms.positions.append((line, col))
            forms.append(self.read_form())
        return forms


class Program(list):
    """A source text's top-level forms; positions holds the line and
    column each starts at, the only position a top-level atom has."""


def parse(source: str):
    """Read source text into a Program of top-level forms: SrcLists and
    atoms.  Nesting deeper than the Python recursion limit allows is a
    syntax error."""
    reader = _Reader(source)
    try:
        return reader.read_program()
    except RecursionError:
        _, _, line, col = reader.tokens[reader.i - 1]
        raise SchemeSyntaxError("nesting too deep", line, col) from None


# ---------------------------------------------------------------------------
# Runtime values

# The value of a define slot whose define has not run yet.
_UNSET = object()


class Closure:
    """A procedure: its parameter count, the _UNSET slots its frame
    reserves for internal defines, its body compiled to code(frame), the
    frame it closes over (None at top level) and the name it was defined
    under."""

    __slots__ = ("arity", "unset", "code", "env", "name")

    def __init__(self, arity, unset, code, env, name):
        self.arity = arity
        self.unset = unset
        self.code = code
        self.env = env
        self.name = name

    def __repr__(self):
        return f"#<procedure {self.name}>" if self.name else "#<procedure>"


class Primitive:
    """A procedure of the primitive table: fn is its body, and allocates
    whether the body can allocate."""

    __slots__ = ("name", "min_args", "max_args", "allocates", "fn")

    def __init__(self, name, min_args, max_args, allocates, fn):
        self.name = name
        self.min_args = min_args
        self.max_args = max_args
        self.allocates = allocates
        self.fn = fn

    def accepts(self, n):
        return self.min_args <= n and (self.max_args is None
                                       or n <= self.max_args)

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
            text = int_text(v)
            if text.startswith("integer"):  # too long for str()
                raise SchemeRuntimeError(f"{text} too long to write")
            out.append(text)
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
#
# A primitive's body takes the interpreter, the call's position and the
# argument values, positionally.  The bodies are the one place the rules
# on values are checked (no procedure in a heap slot, no negative vector
# length, no index out of range): the runtime and the heap take the
# values they are handed as given.

def _record_of(rt, v):
    """The record of the object v refers to; None if v is not a Ref."""
    return rt.heap.record(v) if type(v) is Ref else None


_KIND_NAMES = {PAIR: "a pair", VECTOR: "a vector"}


def _type_name(rt, v):
    if type(v) is Ref:
        return _KIND_NAMES[_record_of(rt, v).kind]
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
    record_use = interp.record_use
    for v in args:
        if type(v) is Ref:
            record_use(v)


def _check_storable(interp, v, name, pos):
    """The one check that v may live in a heap slot: an immediate or a
    Ref, never a procedure."""
    if not isinstance(v, (int, str, Nil, Ref)):
        raise _rt_error(f"{name}: {_type_name(interp.rt, v)} cannot be "
                        f"stored in a heap object", pos)


def _require(interp, v, kind, name, pos):
    """The record of v if it is an object of kind.  The hottest bodies
    look the record up inline and call this only to raise: DanglingRef
    for a Ref with no record, else the type error."""
    rec = _record_of(interp.rt, v)
    if rec is None or rec.kind != kind:
        raise _rt_error(f"{name}: expected {_KIND_NAMES[kind]}, got "
                        f"{_type_name(interp.rt, v)}", pos)
    return rec


def _require_number(interp, v, name, pos):
    if type(v) is not int:
        raise _rt_error(f"{name}: expected a number, got "
                        f"{_type_name(interp.rt, v)}", pos)


def _prim_cons(interp, pos, a, b):
    _check_storable(interp, a, "cons", pos)
    _check_storable(interp, b, "cons", pos)
    _use_refs(interp, (a, b))
    return interp.rt.alloc_pair(a, b)


def _prim_list(interp, pos, *args):
    for v in args:
        _check_storable(interp, v, "list", pos)
    _use_refs(interp, args)
    result = NIL
    for v in reversed(args):
        result = interp.rt.alloc_pair(v, result)
    return result


def _prim_car(interp, pos, p):
    rec = interp.objects.get(p.obj_id) if type(p) is Ref else None
    if rec is None or rec.kind != PAIR:
        _require(interp, p, PAIR, "car", pos)
    interp.record_use(p)
    return interp.heap.slots[rec.address]


def _prim_cdr(interp, pos, p):
    rec = interp.objects.get(p.obj_id) if type(p) is Ref else None
    if rec is None or rec.kind != PAIR:
        _require(interp, p, PAIR, "cdr", pos)
    interp.record_use(p)
    return interp.heap.slots[rec.address + 1]


def _prim_set_car(interp, pos, p, v):
    rec = _require(interp, p, PAIR, "set-car!", pos)
    _check_storable(interp, v, "set-car!", pos)
    _use_refs(interp, (p, v))
    interp.heap.store(rec.address, v)
    return NIL


def _prim_set_cdr(interp, pos, p, v):
    rec = _require(interp, p, PAIR, "set-cdr!", pos)
    _check_storable(interp, v, "set-cdr!", pos)
    _use_refs(interp, (p, v))
    interp.heap.store(rec.address + 1, v)
    return NIL


def _prim_null_p(interp, pos, v):
    _use_refs(interp, (v,))
    return type(v) is Nil


def _prim_pair_p(interp, pos, v):
    _use_refs(interp, (v,))
    rec = _record_of(interp.rt, v)
    return rec is not None and rec.kind == PAIR


def _prim_number_p(interp, pos, v):
    _use_refs(interp, (v,))
    return type(v) is int  # a bool is not a number


def _prim_vector(interp, pos, *args):
    for v in args:
        _check_storable(interp, v, "vector", pos)
    _use_refs(interp, args)
    ref = interp.rt.alloc_vector(len(args), NIL)
    addr = interp.objects[ref.obj_id].address
    for i, v in enumerate(args):
        interp.heap.store(addr + i, v)
    return ref


def _prim_make_vector(interp, pos, n, fill=NIL):
    _require_number(interp, n, "make-vector", pos)
    if n < 0:
        raise _rt_error(f"make-vector: negative length {int_text(n)}", pos)
    _check_storable(interp, fill, "make-vector", pos)
    _use_refs(interp, (fill,))
    return interp.rt.alloc_vector(n, fill)


def _vector_index(interp, rec, i, name, pos):
    _require_number(interp, i, name, pos)
    size = rec.size_slots
    if not 0 <= i < size:
        raise _rt_error(f"{name}: index {int_text(i)} out of range for "
                        f"vector of length {size}", pos)


def _prim_vector_ref(interp, pos, v, i):
    rec = interp.objects.get(v.obj_id) if type(v) is Ref else None
    if rec is None or rec.kind != VECTOR:
        _require(interp, v, VECTOR, "vector-ref", pos)
    if type(i) is not int or not 0 <= i < rec.size_slots:
        _vector_index(interp, rec, i, "vector-ref", pos)
    interp.record_use(v)
    return interp.heap.slots[rec.address + i]


def _prim_vector_set(interp, pos, v, i, x):
    rec = interp.objects.get(v.obj_id) if type(v) is Ref else None
    if rec is None or rec.kind != VECTOR:
        _require(interp, v, VECTOR, "vector-set!", pos)
    if type(i) is not int or not 0 <= i < rec.size_slots:
        _vector_index(interp, rec, i, "vector-set!", pos)
    _check_storable(interp, x, "vector-set!", pos)
    _use_refs(interp, (v, x))
    interp.heap.store(rec.address + i, x)
    return NIL


def _prim_vector_length(interp, pos, v):
    rec = _require(interp, v, VECTOR, "vector-length", pos)
    interp.record_use(v)
    return rec.size_slots


def _prim_vector_to_list(interp, pos, v):
    rec = _require(interp, v, VECTOR, "vector->list", pos)
    interp.record_use(v)
    heap = interp.heap
    result = NIL
    # each allocation may move the vector, so its slots are read by id
    for i in range(rec.size_slots - 1, -1, -1):
        result = interp.rt.alloc_pair(heap.slot_value(v.obj_id, i), result)
    return result


def _prim_list_to_vector(interp, pos, lst):
    rt = interp.rt
    heap = interp.heap
    # validate the spine first so an improper list records no events
    n, cur = 0, lst
    limit = len(heap.objects) + 1
    while (rec := _record_of(rt, cur)) is not None and rec.kind == PAIR:
        n += 1
        if n > limit:
            raise _rt_error("list->vector: cyclic list", pos)
        cur = heap.slots[rec.address + 1]
    if not isinstance(cur, Nil):
        raise _rt_error(f"list->vector: expected a proper list, got "
                        f"{_type_name(rt, lst)}", pos)
    items = []
    cur = lst
    while not isinstance(cur, Nil):
        interp.record_use(cur)
        items.append(heap.slot_value(cur.obj_id, 0))
        cur = heap.slot_value(cur.obj_id, 1)
    # items stay reachable through the pinned argument list
    vec = interp.rt.alloc_vector(n, NIL)
    addr = interp.objects[vec.obj_id].address
    for i, v in enumerate(items):
        heap.store(addr + i, v)
    return vec


def _arith_args(interp, args, name, pos):
    for v in args:
        if type(v) is not int:
            _require_number(interp, v, name, pos)


def _prim_add(interp, pos, *args):
    _arith_args(interp, args, "+", pos)
    return sum(args)


def _prim_sub(interp, pos, *args):
    _arith_args(interp, args, "-", pos)
    if len(args) == 1:
        return -args[0]
    total = args[0]
    for v in args[1:]:
        total -= v
    return total


def _prim_mul(interp, pos, *args):
    _arith_args(interp, args, "*", pos)
    total = 1
    for v in args:
        total *= v
    return total


def _prim_num_eq(interp, pos, *args):
    _arith_args(interp, args, "=", pos)
    return all(map(operator.eq, args, args[1:]))


def _prim_lt(interp, pos, *args):
    _arith_args(interp, args, "<", pos)
    return all(map(operator.lt, args, args[1:]))


def _two_arg_body(name, op):
    """The body of a two-argument call of arithmetic primitive name: the
    same value and errors as its body for any count, with one type test
    per argument."""
    def body(interp, pos, a, b):
        if type(a) is int and type(b) is int:
            return op(a, b)
        _arith_args(interp, (a, b), name, pos)
    return body


_TWO_ARG_BODIES = {name: _two_arg_body(name, op) for name, op in [
    ("+", operator.add), ("-", operator.sub), ("*", operator.mul),
    ("=", operator.eq), ("<", operator.lt)]}


def _prim_eq_p(interp, pos, a, b):
    _use_refs(interp, (a, b))
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


def _prim_display(interp, pos, v):
    if type(v) is Ref:
        interp.record_use(v)
    sys.stdout.write(write_value(interp.heap, v))
    return NIL


# name, fewest and most arguments (None: any number), whether the body
# allocates, body
_PRIMITIVES = [
    ("cons", 2, 2, True, _prim_cons),
    ("list", 0, None, True, _prim_list),
    ("car", 1, 1, False, _prim_car),
    ("cdr", 1, 1, False, _prim_cdr),
    ("set-car!", 2, 2, False, _prim_set_car),
    ("set-cdr!", 2, 2, False, _prim_set_cdr),
    ("null?", 1, 1, False, _prim_null_p),
    ("pair?", 1, 1, False, _prim_pair_p),
    ("number?", 1, 1, False, _prim_number_p),
    ("vector", 0, None, True, _prim_vector),
    ("make-vector", 1, 2, True, _prim_make_vector),
    ("vector-ref", 2, 2, False, _prim_vector_ref),
    ("vector-set!", 3, 3, False, _prim_vector_set),
    ("vector-length", 1, 1, False, _prim_vector_length),
    ("vector->list", 1, 1, True, _prim_vector_to_list),
    ("list->vector", 1, 1, True, _prim_list_to_vector),
    ("+", 0, None, False, _prim_add),
    ("-", 1, None, False, _prim_sub),
    ("*", 0, None, False, _prim_mul),
    ("=", 2, None, False, _prim_num_eq),
    ("<", 2, None, False, _prim_lt),
    ("eq?", 2, 2, False, _prim_eq_p),
    ("display", 1, 1, False, _prim_display),
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


def _assigned(forms):
    """Every name a define (either form) or set! in forms targets, found
    in one iterative walk, so nesting costs no Python frames.  A
    malformed form only adds names, which is safe."""
    names, stack = set(), list(forms)
    while stack:
        sx = stack.pop()
        if type(sx) is not SrcList or not sx.items or sx.items[0] is _QUOTE:
            continue
        items = sx.items
        if items[0] in (_DEFINE, _SET) and len(items) > 1:
            target = items[1]
            if type(target) is SrcList:
                names.update(target.items[:1])
            else:
                names.add(target)
        stack.extend(items)
        if sx.tail is not None:
            stack.append(sx.tail)
    return names


def _frame_defines(forms):
    """The names the defines among forms bind in the frame the forms run
    in, each once, in order: every define not inside a quote, a lambda
    or a let body; let inits are entered.  One iterative walk, like
    _assigned; a malformed form only adds names, which is safe."""
    names, stack = {}, forms[::-1]
    while stack:
        sx = stack.pop()
        if type(sx) is not SrcList or not sx.items:
            continue
        items = sx.items
        head = items[0]
        if head is _QUOTE or head is _LAMBDA:
            continue
        if head is _LET:
            rest = items[2:] if len(items) > 1 and type(items[1]) is str \
                else items[1:]
            if rest and type(rest[0]) is SrcList:
                stack.extend([b.items[1] for b in reversed(rest[0].items)
                              if type(b) is SrcList and len(b.items) == 2])
            continue
        if head is _DEFINE and len(items) > 1:
            target = items[1]
            if type(target) is SrcList:  # the body is a lambda's
                if target.items and type(target.items[0]) is str:
                    names[target.items[0]] = None
                continue
            if type(target) is str:
                names[target] = None
        stack.extend(items[::-1])
    return list(names)


class _Scope:
    """The compile-time view of a frame: the slot of each name it binds,
    the names its define slots hold, the _UNSET values those start as,
    and the scope of the enclosing frame (None: the global table)."""

    __slots__ = ("slots", "late", "unset", "parent")

    def __init__(self, parent, names, body_forms):
        slots = {name: i for i, name in enumerate(names, 1)}
        late = [name for name in _frame_defines(body_forms)
                if name not in slots]
        for name in late:
            slots[name] = len(slots) + 1
        self.slots = slots
        self.late = late
        self.unset = (_UNSET,) * len(late)
        self.parent = parent


def _resolve(scope, name):
    """The slots name may mean at scope, innermost first, as (frame links
    out, index): each define slot out to the first parameter slot, which
    is always set.  Returns them and whether that parameter slot ends
    them; if not, the global table follows them."""
    chain, depth = [], 0
    while scope is not None:
        i = scope.slots.get(name)
        if i is not None:
            chain.append((depth, i))
            if name not in scope.late:
                return chain, True
        scope = scope.parent
        depth += 1
    return chain, False


def _slot_ref(depth, i):
    """The code of a reference to slot i of the frame depth links out."""
    if depth == 0:
        return lambda frame: frame[i]
    if depth == 1:
        return lambda frame: frame[0][i]
    if depth == 2:
        return lambda frame: frame[0][0][i]
    if depth == 3:
        return lambda frame: frame[0][0][0][i]

    def ref(frame):
        d = depth
        while d:
            frame = frame[0]
            d -= 1
        return frame[i]
    return ref


def _slot_set(depth, i, value_code):
    """The code of a set! of slot i of the frame depth links out: a
    store into the current frame, or into the frame that _slot_ref's
    read of slot 0 one frame in finds."""
    if depth == 0:
        def set_slot(frame):
            frame[i] = value_code(frame)
            return NIL
        return set_slot
    outer = _slot_ref(depth - 1, 0)  # the frame depth links out

    def set_outer_slot(frame):
        outer(frame)[i] = value_code(frame)
        return NIL
    return set_outer_slot


def _find(frame, chain):
    """The frame and index of the first set slot of chain (see _resolve),
    or (None, None) if none is: the name means its global."""
    for depth, i in chain:
        f = frame
        for _ in range(depth):
            f = f[0]
        if f[i] is not _UNSET:
            return f, i
    return None, None


def _direct_call(interp, body, pos, codes):
    """The code of a primitive call of body on codes' values that pins
    none of them."""
    if len(codes) == 1:
        a, = codes
        return lambda frame: body(interp, pos, a(frame))
    if len(codes) == 2:
        a, b = codes
        return lambda frame: body(interp, pos, a(frame), b(frame))
    if len(codes) == 3:
        a, b, c = codes
        return lambda frame: body(interp, pos, a(frame), b(frame), c(frame))

    def call(frame):
        vals = []
        for code in codes:
            vals.append(code(frame))
        return body(interp, pos, *vals)
    return call


def _call_procedure(interp, fn, args, pos):
    """Call fn, not a closure, on args[1:], pinned while it runs."""
    if type(fn) is not Primitive:
        raise _rt_error(f"not a procedure: {write_value(interp.heap, fn)}",
                        pos)
    del args[0]
    if not fn.accepts(len(args)):
        raise _rt_error(f"{fn.name}: bad argument count {len(args)}", pos)
    interp._stack.append(args)
    try:
        result = fn.fn(interp, pos, *args)
    except OutOfMemory as exc:
        raise OutOfMemory(f"{pos[0]}:{pos[1]}: {fn.name}: {exc}") from None
    interp._stack.pop()
    return result


def _trampoline(stack, r):
    """Run the tail calls r leads to, each a (code, frame) tuple with its
    frame in the innermost stack slot, until a value results."""
    while type(r) is tuple:
        code, frame = r
        stack[-1] = frame
        r = code(frame)
    return r


class Interpreter:
    """One evaluation context over one Runtime; it compiles and runs one
    program.  Single-threaded; after an error propagates out of a run the
    context should be discarded."""

    def __init__(self, runtime: Runtime):
        self.rt = runtime
        self.heap = runtime.heap
        self.objects = runtime.heap.objects
        # looked up here, not at import, so a patched Runtime.record_use
        # (the bench tracer's) is the one the primitives call
        self.record_use = runtime.record_use
        self.primitives = {sys.intern(row[0]): Primitive(*row)
                           for row in _PRIMITIVES}
        self.globals = dict(self.primitives)
        self._fixed = None  # fixed name -> Primitive, once compiling
        self._allocating = set()  # the codes that can allocate
        self._stack = []  # see "The stack" above
        runtime.add_root_provider(self._iter_roots)

    def _iter_roots(self):
        """Yield every Ref reachable from the global table and the stack:
        a closure adds the frame it captures, a list (a frame, whose
        parent is its slot 0, or pinned values) adds its items, once per
        list, so shared and cyclic frames are walked once."""
        seen = set()
        values = [*self.globals.values(), *self._stack]
        while values:
            v = values.pop()
            tv = type(v)
            if tv is Ref:
                yield v
            elif tv is Closure:
                values.append(v.env)
            elif tv is list and id(v) not in seen:
                seen.add(id(v))
                values += v

    def eval_program(self, program):
        """Compile every top-level form, then run them in order at top
        level; returns the last one's value."""
        stack = self._stack
        result = NIL
        for code in self.compile_program(program):
            stack.append(None)
            try:
                result = _trampoline(stack, code(None))
            finally:
                stack.pop()
        return result

    def compile_program(self, program):
        """The code of each top-level form.  A form nested too deep to
        compile is a syntax error at that form.  A second program is a
        ProtocolViolation: it could rebind a name fixed in the first."""
        if self._fixed is not None:
            raise ProtocolViolation("an Interpreter compiles one program")
        assigned = _assigned(program)
        self._fixed = {name: prim for name, prim in self.primitives.items()
                       if name not in assigned}
        codes = []
        for form, pos in zip(program, program.positions):
            try:
                codes.append(self._compile(form, None, pos, True))
            except RecursionError:
                raise _too_deep(form) from None
        return codes

    def _materialize(self, datum):
        """Build a quoted datum, allocating its pairs now."""
        if type(datum) is not SrcList:
            return datum
        stack = self._stack
        vals = []
        stack.append(vals)
        for item in datum.items:
            vals.append(self._materialize(item))
        result = self._materialize(datum.tail) if datum.tail is not None \
            else NIL
        for v in reversed(vals):
            result = self.rt.alloc_pair(v, result)
        stack.pop()
        return result

    def _marked(self, code, parts, allocates=False):
        """code, put in _allocating if it allocates or any of parts can."""
        if allocates or not self._allocating.isdisjoint(parts):
            self._allocating.add(code)
        return code

    def _list_code(self, codes):
        """The code of the list of codes' values, made in one expression,
        if none of them can allocate; else None."""
        if not self._allocating.isdisjoint(codes):
            return None
        if len(codes) == 1:
            a, = codes
            return lambda frame: [a(frame)]
        if len(codes) == 2:
            a, b = codes
            return lambda frame: [a(frame), b(frame)]
        if len(codes) == 3:
            a, b, c = codes
            return lambda frame: [a(frame), b(frame), c(frame)]
        if len(codes) == 4:
            a, b, c, d = codes
            return lambda frame: [a(frame), b(frame), c(frame), d(frame)]
        return lambda frame: [code(frame) for code in codes]

    # The compile methods recurse per nesting level, so they build lists
    # with comprehensions, not generators: resuming a generator takes C
    # stack, which deep nesting overflows before the recursion limit.
    def _compile(self, sx, scope, pos, tail):
        """Check reader form sx and return the closure code(frame) that
        evaluates it in a frame of scope; an atom reports pos, its
        enclosing form's position.  In tail position (tail set) code may
        return a tail call, a (code, frame) tuple.  A code that can
        allocate is put in _allocating once its parts are compiled."""
        if type(sx) is str:
            return self._compile_ref(sx, scope, pos)
        if type(sx) is not SrcList:  # an integer or a boolean
            return lambda frame: sx
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
            alt = (self._compile(items[3], scope, pos, tail)
                   if len(items) == 4 else lambda frame: NIL)
            test = self._compile(items[1], scope, pos, False)
            then = self._compile(items[2], scope, pos, tail)

            def if_(frame):
                if test(frame) is not False:
                    return then(frame)
                return alt(frame)
            return self._marked(if_, (test, then, alt))
        if head is _LET:
            if len(items) >= 2 and type(items[1]) is str:
                if len(items) < 4:
                    raise SchemeSyntaxError(
                        "named let needs bindings and a body", *pos)
                return self._compile_let(items[1], items[2], items[3:],
                                         scope, pos, tail)
            if len(items) < 3:
                raise SchemeSyntaxError("let needs bindings and a body",
                                        *pos)
            return self._compile_let(None, items[1], items[2:], scope, pos,
                                     tail)
        if head is _LAMBDA:
            if len(items) < 3:
                raise SchemeSyntaxError("lambda needs parameters and a body",
                                        *pos)
            plist = items[1]
            if type(plist) is not SrcList or plist.tail is not None:
                _syntax_error("expected a parameter list", plist, pos)
            return self._compile_lambda(plist.items, items[2:], scope, pos)
        if head is _BEGIN:
            if len(items) < 2:
                raise SchemeSyntaxError("empty begin", *pos)
            return self._compile_body(items[1:], scope, pos, tail)
        if head is _DEFINE:
            return self._compile_define(items, scope, pos)
        if head is _SET:
            return self._compile_set(items, scope, pos)
        return self._compile_apply(items, scope, pos, tail)

    def _compile_ref(self, name, scope, pos):
        chain, local = _resolve(scope, name)
        if local and len(chain) == 1:
            return _slot_ref(*chain[0])
        table = self.globals

        def global_ref(frame):
            try:
                return table[name]
            except KeyError:
                raise _rt_error(f"unbound variable: {name}", pos) from None
        if not chain:
            return global_ref

        def late_ref(frame):
            f, i = _find(frame, chain)
            return global_ref(frame) if f is None else f[i]
        return late_ref

    def _compile_set(self, items, scope, pos):
        if len(items) != 3:
            raise SchemeSyntaxError("set! takes a name and a value", *pos)
        name = _require_symbol(items[1], "a name", pos)
        value_code = self._compile(items[2], scope, pos, False)
        chain, local = _resolve(scope, name)
        if local and len(chain) == 1:
            return self._marked(_slot_set(*chain[0], value_code),
                                (value_code,))
        table = self.globals

        def set_var(frame):
            value = value_code(frame)
            f, i = _find(frame, chain)
            if f is not None:
                f[i] = value
            elif name in table:
                table[name] = value
            else:
                raise _rt_error(f"set! of unbound variable: {name}", pos)
            return NIL
        return self._marked(set_var, (value_code,))

    def _compile_body(self, forms, scope, pos, tail):
        codes = [self._compile(f, scope, pos, False) for f in forms[:-1]]
        last = self._compile(forms[-1], scope, pos, tail)
        if not codes:
            return last

        def body(frame):
            for code in codes:
                code(frame)
            return last(frame)
        return self._marked(body, codes + [last])

    def _compile_lambda(self, plist, body_forms, scope, pos):
        params = []
        for p in plist:
            name = _require_symbol(p, "a parameter name", pos)
            if name in params:
                raise SchemeSyntaxError(f"duplicate parameter {name}", *pos)
            params.append(name)
        inner = _Scope(scope, params, body_forms)
        body = self._compile_body(body_forms, inner, pos, True)
        arity, unset = len(params), inner.unset
        return lambda frame: Closure(arity, unset, body, frame, None)

    def _compile_define(self, items, scope, pos):
        if len(items) < 3:
            raise SchemeSyntaxError("define needs a name and a value", *pos)
        target = items[1]
        if type(target) is SrcList:  # (define (name params...) body...)
            if target.tail is not None or not target.items:
                _syntax_error("bad define form", target, pos)
            name = _require_symbol(target.items[0], "a procedure name", pos)
            value_code = self._compile_lambda(target.items[1:], items[2:],
                                              scope, pos)
        else:
            if len(items) != 3:
                raise SchemeSyntaxError("define takes one value", *pos)
            name = _require_symbol(target, "a name", pos)
            value_code = self._compile(items[2], scope, pos, False)
        # at top level the name is a global; else it has a slot
        slot = None if scope is None else scope.slots[name]
        table = self.globals

        def define(frame):
            value = value_code(frame)
            if type(value) is Closure and value.name is None:
                value.name = name
            if slot is None:
                table[name] = value
            else:
                frame[slot] = value
            return NIL
        return self._marked(define, (value_code,))

    def _compile_quote(self, datum, pos):
        if type(datum) is SrcList and not datum.items and datum.tail is None:
            datum = NIL  # '() allocates nothing, so it is a constant
        if type(datum) is not SrcList:
            return lambda frame: datum
        materialize = self._materialize

        def quote(frame):
            try:
                return materialize(datum)
            except OutOfMemory as exc:
                raise OutOfMemory(f"{pos[0]}:{pos[1]}: quote: {exc}") \
                    from None
        return self._marked(quote, (), True)

    def _compile_let(self, loop_name, bindings, body_forms, scope, pos,
                     tail):
        """A let, or a named let; an init reports its binding's position."""
        if type(bindings) is not SrcList or bindings.tail is not None:
            _syntax_error("expected a binding list", bindings, pos)
        names, inits = [], []
        for b in bindings.items:
            if (type(b) is not SrcList or b.tail is not None
                    or len(b.items) != 2):
                _syntax_error("expected (name init) binding", b, pos)
            bpos = (b.line, b.col)
            name = _require_symbol(b.items[0], "a binding name", bpos)
            if name in names:
                raise SchemeSyntaxError(f"duplicate binding name {name}",
                                        *pos)
            names.append(name)
            inits.append(self._compile(b.items[1], scope, bpos, False))
        if loop_name is not None:
            scope = _Scope(scope, [loop_name], [])
        inner = _Scope(scope, names, body_forms)
        body = self._compile_body(body_forms, inner, pos, True)
        arity, unset = len(names), inner.unset
        stack = self._stack
        build = self._list_code([lambda frame: frame, *inits])

        def let(frame):
            if build is not None:
                vals = build(frame)
            else:  # pinned while the inits run
                vals = [frame]
                stack.append(vals)
                for init in inits:
                    vals.append(init(frame))
                stack.pop()
            if loop_name is not None:
                # the loop name binds a closure over its own frame
                loop = [frame, None]
                loop[1] = Closure(arity, unset, body, loop, loop_name)
                vals[0] = loop
            vals += unset
            if tail:
                stack[-1] = vals
                return body(vals)
            stack.append(vals)
            try:
                r = body(vals)
                return _trampoline(stack, r) if type(r) is tuple else r
            finally:
                stack.pop()
        return self._marked(let, inits + [body])

    def _compile_apply(self, items, scope, pos, tail):
        fn_code = self._compile(items[0], scope, pos, False)
        arg_codes = [self._compile(a, scope, pos, False) for a in items[1:]]
        prim = self._fixed.get(items[0])
        if (prim is not None and prim.accepts(len(arg_codes))
                and not _resolve(scope, items[0])[0]):
            return self._compile_primitive_call(prim, arg_codes, pos)
        interp, stack = self, self._stack
        build = self._list_code([fn_code, *arg_codes])

        def apply(frame):
            if build is not None:
                args = build(frame)
            else:  # pinned while the arguments run
                args = [fn_code(frame)]
                stack.append(args)
                for arg in arg_codes:
                    args.append(arg(frame))
                stack.pop()
            fn = args[0]
            if type(fn) is not Closure:
                return _call_procedure(interp, fn, args, pos)
            if len(args) - 1 != fn.arity:
                raise _rt_error(f"{fn.name or 'procedure'} expects "
                                f"{fn.arity} arguments, got {len(args) - 1}",
                                pos)
            # the operator's slot becomes the parent link
            args[0] = fn.env
            args += fn.unset
            if tail:
                return fn.code, args
            stack.append(args)
            try:
                r = fn.code(args)
                return _trampoline(stack, r) if type(r) is tuple else r
            finally:
                stack.pop()
        return self._marked(apply, (), True)

    def _compile_primitive_call(self, prim, codes, pos):
        """A call of the fixed primitive prim on the arguments compiled to
        codes, whose count prim accepts (see "Fixed primitives" above)."""
        interp = self
        body = (len(codes) == 2 and _TWO_ARG_BODIES.get(prim.name)) or prim.fn
        if prim.allocates or not self._allocating.isdisjoint(codes[1:]):
            stack, name = self._stack, prim.name

            def call(frame):
                vals = []
                stack.append(vals)
                for code in codes:
                    vals.append(code(frame))
                try:
                    result = body(interp, pos, *vals)
                except OutOfMemory as exc:
                    raise OutOfMemory(f"{pos[0]}:{pos[1]}: {name}: {exc}") \
                        from None
                stack.pop()
                return result
        else:
            call = _direct_call(interp, body, pos, codes)
        return self._marked(call, codes, prim.allocates)


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
