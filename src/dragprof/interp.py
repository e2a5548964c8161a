"""Compile-then-run evaluator for the profiled mini-Scheme subset.

The language: integer and boolean literals, quote, if, let, named let,
lambda, begin, define (plain and shorthand procedure form), set!, and
procedure application over the primitive table.

Three parts: the reader, parse(), turns source text into reader forms
(a SrcList with its line and column per parenthesized form; integers,
booleans and interned symbols for atoms; the Program's positions give
the line and column of each top-level form); the compiler,
Interpreter.eval_program, checks the syntax of every top-level form and
lowers it to Python source in one walk, compiling each function of it
as soon as its text is complete, then calls the top-level functions in
order; the primitive table (dragprof.primitives, with write_value)
binds the procedures of the global table.  Nesting too deep to read or
to compile is a syntax error.

Generated code: one Python function of one argument, its frame, per
lambda body, named-let body and top-level form (a unit).  Within a
unit the code is in A-normal form (Flanagan, Sabry, Duba and
Felleisen, "The essence of compiling with continuations", 1993): if,
begin and let are statements, every intermediate value is a local or a
flat expression over locals, slots and constants, so no expression
nests brackets.  An operand (of a call, a primitive call or a let) that
reads a slot or runs an expression is read into a fresh local right
after its own statements, so each operand is read once, where it
stands, and a later operand's set! or effect cannot change it.  It
replaces a tree of closures, one Python call per node ("analyze, then
execute": SICP 4.1.7; Feeley & Lapalme, "Using closures for code
generation", 1987).  A let's frame is a local of its unit, so a slot
of it is read as f3[1]; a slot of a frame outside the unit is read
through the parent links of its argument, f0[0][2].  Every constant
(integer, symbol, quoted list, position, the _UNSET slots of a frame)
is a global of the generated module, never a literal of its text.
Branches nested _SPLIT deep move into a unit of their own, called on
the current frame, as Python allows 100 levels of indentation.

Which code can allocate: a collection point comes only with an
allocation, so a value needs a root only while code that can allocate
runs (the stack-map argument of Diwan, Moss and Hudson, "Compiler
support for garbage collection in a statically typed language", 1992).
The compiler marks each code that can allocate: a closure call (any
call but one of a fixed primitive), a call of a primitive that
allocates, a quote of a non-empty list, and an if, begin, let, set!,
define or primitive call with a part that can.  Atoms, variable
references and lambda cannot.

Fixed primitives: an Interpreter compiles one program, so a primitive's
global is fixed for the whole run when no define or set! in the program
targets its name.  A call whose head is a fixed name that no frame in
scope binds, with a count the primitive accepts, calls the primitive's
body on the argument values: no operator lookup, no count check, no
operator pin.  The body of a primitive that allocates runs through
_call_primitive, the one place a body runs pinned, which a call that
reaches a primitive at run time ends in too: it pushes the argument
list, calls the body and reports an OutOfMemory at the call.  A call of
+ - * = or < on two to four arguments runs the Python operator, with a
type test of each argument that is not an integer literal, and calls
the body only to raise its error.  car, cdr, vector-ref and null? run
inline too: when the values are a live pair; a live vector and an
integer index in range; a reference, the generated code records the use
through the Interpreter's record_use and reads heap.slots, read anew at
each access as a copy swaps the spaces; else it calls the body, which
raises.  A cons whose values are immediates (primitives.IMMEDIATE)
needs no use and no check, so it calls the Runtime's alloc_pair at
once; with any other value it calls the body.

Tail calls: in tail position (the chosen if branch, the last form of a
begin or body) a closure call checks the count, binds the callee's
frame and returns the tuple (code, frame) instead of making the call; no
Scheme value is a tuple.  The nearest trampoline (_run, inline after a
non-tail call and a non-tail let or named let) puts the frame in the
innermost stack slot and runs the code, so loops run in constant
control-stack space regardless of iteration count.  The tail of a
non-tail let's body runs inline: a tail call there takes the let's
stack slot and runs its trampoline at once.  A top-level form is a
non-tail body, so nothing it calls returns a tuple to the loop that
calls the top-level functions.

A tail call of a body's own code is a jump with arguments (Steele,
"Debunking the 'expensive procedure call' myth, or, LAMBDA: the
ultimate GOTO", 1977).  In the function of a lambda or named-let body
(not of a unit split off it), a tail call with the body's count first
tests at run time whether the callee is a closure whose code is that
function.  If it is, the frame a call would bind, [the callee's frame,
argument values], takes the innermost stack slot as f0, and a while
loop around the body, which extends f0 first, runs its next turn: a
fresh frame per turn, so a closure made in one turn keeps that turn's
bindings.  Any other callee takes the path above, so a set!, a
redefinition or a shadowing binding needs no rule of the compiler.

Lexical addressing (SICP 5.5.6; Dybvig, "Three implementation models
for Scheme", 1987): the compiler resolves every variable.  A closure
call or a let makes a frame, a Python list [parent, v1, v2, ...]: the
parameters or binding names in order, then a slot for each name an
internal define binds in it, which the body's function adds as it
starts (a let, as it binds), before anything can allocate.  Those are
the defines that run in the frame: in the body and in its let inits,
not in a nested lambda, let body or quote.  A named let's loop closure
has a frame of its own, [parent, closure], between the let's frame and
the enclosing one.  A name bound by a parameter compiles to its slot,
as (frame links out, index), which a reference reads and a set! stores
into directly; a name no frame binds is looked up in the one global
table, the dict that top-level defines fill.  A define slot holds
_UNSET until its define runs, and until then the name means its outer
binding: the name compiles to its chain of candidate slots, out to the
first parameter slot or else the global table, and a reference or set!
takes the first candidate that is set.

The stack: one list of roots, each a list: a frame or a list of pinned
values; the current frame is on it, except at top level, which has
none.  A call makes the list [operator, argument values] and a let
[frame, init values].  If no part after the first can allocate, the
list is made in one expression once the parts have run; else it is
pushed once the first part has run, so the values so far are roots
while the others run, and popped after.  A let's first part, the
current frame, is on the stack already, so its list is pushed only
while an init after the first can allocate.  A closure call turns its
list into the callee's frame in place, the operator's slot becoming
the parent link; a let keeps its list as its frame.  A non-tail
closure call, let or named let pushes its frame once and pops it when
it returns.  A tail call, tail let or tail named let pushes none: its
frame takes the innermost slot, in place of the current frame, so a
frame a tail call abandons is dead at the next allocation.  A fixed
primitive call pins its argument values while they run as a closure
call does; _call_primitive pushes them anew while a primitive's body
runs (a cons of immediates calls no body).  A quote pushes its value
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
frame and each frame's parent.  A reference is the object's record
(heap.py), so a frame slot, a pinned list and the stack hold the
records themselves; the generated code never looks an object up by id,
and every allocation and use goes through the Runtime's alloc_pair,
alloc_vector and record_use.
"""

import re
import sys
from collections import namedtuple

from .defaults import DEFAULT_GC_INTERVAL, DEFAULT_HEAP_SLOTS
from .errors import (
    OutOfMemory,
    ProtocolViolation,
    SchemeRuntimeError,
    SchemeSyntaxError,
)
from .heap import NIL, PAIR, VECTOR, LifetimeRecord, Nil
from .primitives import IMMEDIATE, PRIMITIVES, Primitive, list_of, \
    rt_error, write_value
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
                col += 1
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
    """A procedure: its parameter count, its body compiled to code(frame),
    the frame it closes over (None at top level) and the name it was
    defined under."""

    __slots__ = ("arity", "code", "env", "name")

    def __init__(self, arity, code, env, name):
        self.arity = arity
        self.code = code
        self.env = env
        self.name = name

    def __repr__(self):
        return f"#<procedure {self.name}>" if self.name else "#<procedure>"


# ---------------------------------------------------------------------------
# Compiler: reader forms -> generated Python functions

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


def _targets(forms):
    """The names some define (either form) or set! in forms targets,
    found in one iterative walk, so nesting costs no Python frames.  A
    malformed form only adds names, which is safe."""
    names, stack = set(), list(forms)
    while stack:
        sx = stack.pop()
        if type(sx) is not SrcList or not sx.items or sx.items[0] is _QUOTE:
            continue
        items = sx.items
        if items[0] in (_DEFINE, _SET) and len(items) > 1:
            target = items[1]
            names.update(target.items[:1] if type(target) is SrcList
                         else [target])
        stack.extend(items)
        if sx.tail is not None:
            stack.append(sx.tail)
    return names


def _frame_defines(forms):
    """The names the defines among forms bind in the frame the forms run
    in, each once, in order: every define not inside a quote, a lambda
    or a let body; let inits are entered.  One iterative walk, like
    _targets; a malformed form only adds names, which is safe."""
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


def _up(frame, depth):
    """The frame depth links out of frame."""
    for _ in range(depth):
        frame = frame[0]
    return frame


def _find(frame, chain, table, name):
    """The frame and index of the first set slot of chain (see _resolve),
    or if none is, table and name: the name means its global."""
    for depth, i in chain:
        f = _up(frame, depth)
        if f[i] is not _UNSET:
            return f, i
    return table, name


# The helpers of the generated code, for what is rare or raises.

def _unbound(name, pos):
    return rt_error(f"unbound variable: {name}", pos)


def _late_ref(table, frame, chain, name, pos):
    """The value of a name whose chain (see _resolve) holds define
    slots: the first that is set, else its global."""
    f, i = _find(frame, chain, table, name)
    if f is table and name not in table:
        raise _unbound(name, pos)
    return f[i]


def _set_var(table, frame, chain, name, pos, value):
    """A set! of a name that is not one parameter slot."""
    f, i = _find(frame, chain, table, name)
    if f is table and name not in table:
        raise rt_error(f"set! of unbound variable: {name}", pos)
    f[i] = value


def _oom(exc, pos, name):
    """The OutOfMemory exc, at the call of name at pos."""
    return OutOfMemory(f"{pos[0]}:{pos[1]}: {name}: {exc}")


def _call_procedure(interp, args, pos):
    """Call args[0] on args[1:] when it is not a closure of their count:
    an arity error for a closure, else a primitive, pinned while it
    runs."""
    fn = args[0]
    if type(fn) is Closure:
        raise rt_error(f"{fn.name or 'procedure'} expects {fn.arity} "
                        f"arguments, got {len(args) - 1}", pos)
    if type(fn) is not Primitive:
        raise rt_error(f"not a procedure: {write_value(interp.heap, fn)}",
                        pos)
    del args[0]
    if not fn.accepts(len(args)):
        raise rt_error(f"{fn.name}: bad argument count {len(args)}", pos)
    return _call_primitive(interp, fn, args, pos)


def _call_primitive(interp, fn, args, pos):
    """The body of the primitive fn on the list args, pinned while it
    runs."""
    interp._stack.append(args)
    try:
        result = fn.fn(interp, pos, *args)
    except OutOfMemory as exc:
        raise _oom(exc, pos, fn.name) from None
    interp._stack.pop()
    return result


def _run(var, call):
    """The lines that make call and run the tail calls it returns, each a
    (code, frame) tuple, with its frame in the innermost stack slot, until
    a value results in var: the trampoline."""
    return [f"{var} = {call}", f"while type({var}) is tuple:",
            (f"stack[-1] = {var}[1]", f"{var} = {var}[0]({var}[1])")]


def _flatten(node, lines):
    """Append node's lines to lines, indented.  A node is a list of lines
    and nodes; a tuple is a node indented one level more.  Walked with a
    stack, so nesting costs no Python frames."""
    stack = [(iter(node), 1)]
    while stack:
        items, depth = stack[-1]
        for item in items:
            if type(item) is str:
                lines.append("    " * depth + item)
            else:
                stack.append((iter(item), depth + (type(item) is tuple)))
                break
        else:
            stack.pop()


# The kinds of a value's expression: a constant (never a reference) or a
# temporary, read any number of times; a frame slot or a flat expression
# with effects, read once, where its operand stands.
_CONST, _STABLE, _OP = range(3)


class _Code:
    """A compiled expression: the node of statements that run first, the
    expression of its value and that expression's kind (expr is None once
    the value is returned or stored), and whether it can allocate, which
    it can if any of parts can."""

    __slots__ = ("node", "expr", "kind", "alloc")

    def __init__(self, node, expr, kind=_STABLE, parts=(), alloc=False):
        self.node, self.expr, self.kind = node, expr, kind
        self.alloc = alloc or any(p.alloc for p in parts)


def _deliver(code, tail, target):
    """code with its value stored in target if that is set, else returned
    if tail is set; else as it is."""
    if code.expr is None or not (tail or target):
        return code
    line = f"{target} = {code.expr}" if target else f"return {code.expr}"
    return _Code([code.node, line], None, _STABLE, [code])


# The Python operator a call of 2 to 4 arguments of these runs inline.
_INLINE = {"+": " + ", "-": " - ", "*": " * ", "=": " == ", "<": " < "}

# Branches nested this deep in one generated function move into a
# function of their own: Python allows 100 levels of indentation.
_SPLIT = 50

# The globals every generated module starts with.
_GENERATED = {v.__name__: v for v in (
    Closure, OutOfMemory, _call_primitive, _call_procedure, _late_ref,
    _oom, _set_var, _unbound, _up, *[row[4] for row in PRIMITIVES])}
_GENERATED.update(NIL=NIL, PAIR=PAIR, VECTOR=VECTOR, Nil=Nil,
                  LifetimeRecord=LifetimeRecord, IMMEDIATE=IMMEDIATE)


class Interpreter:
    """One evaluation context over one Runtime; it compiles and runs one
    program.  Single-threaded; after an error propagates out of a run the
    context should be discarded."""

    def __init__(self, runtime: Runtime):
        self.rt = runtime
        self.heap = runtime.heap
        # looked up here, not at import, so a patched Runtime.record_use
        # or alloc_pair (the bench tracer's) is the one the primitives
        # and the generated code call
        self.record_use = runtime.record_use
        self.alloc_pair = runtime.alloc_pair
        self.primitives = {sys.intern(row[0]): Primitive(*row)
                           for row in PRIMITIVES}
        self.globals = dict(self.primitives)
        self._fixed = None  # fixed name -> Primitive, once compiling
        self._assigned = ()  # the globals a define or set! can change
        self._stack = []  # see "The stack" above
        runtime.roots = self._iter_roots

    def _iter_roots(self):
        """Return, as one list, every reference (a record) reachable from
        the globals a define or set! in the program can change (the
        others hold their primitives) and from the stack: a closure adds
        the frame it captures, a list (a frame, whose parent is its slot
        0, or pinned values) adds its items, once per list, so shared and
        cyclic frames are walked once.  A record held in two places is
        listed twice; gather_roots keeps its first."""
        seen = set()
        roots = []
        found = roots.append
        values = [*map(self.globals.get, self._assigned), *self._stack]
        while values:
            v = values.pop()
            tv = type(v)
            if tv is LifetimeRecord:
                found(v)
            elif tv is Closure:
                values.append(v.env)
            elif tv is list and id(v) not in seen:
                seen.add(id(v))
                values += v
        return roots

    def eval_program(self, program):
        """Compile every top-level form, then run them in order; returns
        the last one's value."""
        result = NIL
        for code in self.compile_program(program):
            result = code(None)
        return result

    def compile_program(self, program):
        """The generated function of each top-level form.  A form nested
        too deep to compile is a syntax error at that form.  A second
        program is a ProtocolViolation: it could rebind a name fixed in
        the first."""
        if self._fixed is not None:
            raise ProtocolViolation("an Interpreter compiles one program")
        targets = _targets(program)
        self._fixed = {name: prim for name, prim in self.primitives.items()
                       if name not in targets}
        # sorted, so the roots come in the same order in every process
        self._assigned = sorted(name for name in targets
                                if type(name) is str)
        stack = self._stack
        self._env = dict(_GENERATED, G=self.globals, interp=self,
                         stack=stack, push=stack.append, pop=stack.pop,
                         quote=self._quote, heap=self.heap,
                         use=self.record_use, alloc=self.alloc_pair)
        self._consts, self._n, self._vars, self._depth = {}, 0, {}, 0
        self._own, self._jumps = None, False
        names = []
        for form, pos in zip(program, program.positions):
            try:
                names.append(self._unit([form], None, pos, False)[0])
            except RecursionError:
                raise _too_deep(form) from None
        return [self._env[name] for name in names]

    def _materialize(self, datum):
        """Build a quoted datum, allocating its pairs now."""
        if type(datum) is not SrcList:
            return datum
        vals = []
        self._stack.append(vals)
        for item in datum.items:
            vals.append(self._materialize(item))
        tail = datum.tail
        result = list_of(self.rt, vals,
                         NIL if tail is None else self._materialize(tail))
        self._stack.pop()
        return result

    def _quote(self, datum, pos):
        try:
            return self._materialize(datum)
        except OutOfMemory as exc:
            raise _oom(exc, pos, "quote") from None

    def _name(self, prefix="t"):
        """A fresh name for a generated local or function."""
        self._n += 1
        return f"{prefix}{self._n}"

    def _const(self, value, key=None):
        """The global of the generated module that holds value, found by
        key, by default value and its type (1 == True): no constant is
        written into the source text."""
        key = key or (type(value), value)
        name = self._consts.get(key)
        if name is None:
            name = self._consts[key] = f"c{len(self._consts)}"
            self._env[name] = value
        return name

    def _unit(self, forms, scope, pos, tail, arity=None):
        """Generate the function of a frame of scope, f0, that runs forms
        as a body (in tail position if tail); returns its name and code.
        The unit's frames are locals: f0 and a variable per inline let.
        arity is set if the body is a procedure's, taking that many
        arguments: it extends f0 by its define slots, and a tail call of
        its own code loops (see "Tail calls")."""
        name = self._name("u")
        saved = self._vars, self._depth, self._own, self._jumps
        self._vars, self._depth = {scope: "f0"}, 0
        self._own = name, arity
        self._jumps = False  # whether a call jumps back, so the body loops
        code = self._compile_body(forms, scope, pos, tail)
        node = [code.node, f"return {code.expr}"] if code.expr else code.node
        if arity is not None and scope.unset:
            node = [f"f0 += {self._const(scope.unset)}", node]
        if self._jumps:
            node = ["while True:", tuple(node)]
        self._vars, self._depth, self._own, self._jumps = saved
        lines = [f"def {name}(f0):"]
        _flatten(node, lines)
        # one compile() per unit bounds the parser's memory by the largest
        # unit's text, not the whole program's
        exec(compile("\n".join(lines), "<dragprof>", "exec"), self._env)
        return name, code

    def _slot(self, scope, depth, i):
        """The expression of slot i of the frame depth links out of
        scope's, read from the nearest frame held in a local."""
        while depth and scope.parent in self._vars:
            scope, depth = scope.parent, depth - 1
        frame = self._vars[scope]
        if depth > 3:
            return f"_up({frame}, {depth})[{i}]"
        return f"{frame}{'[0]' * depth}[{i}]"

    def _operands(self, parts, var=None, rooted=False):
        """(node, atoms): the statements that evaluate the codes parts in
        order, and the expression of each value: a constant or a local,
        which can be read again after all parts.  A slot or expression
        value is read into a fresh local right after its part's
        statements, so each value is read once, where its operand stands.
        With var the list of the values is made as var.  While a part
        after the first can allocate, the values so far are pinned: their
        list (var or a temporary) is pushed once the first is made, and
        popped after the last.  With rooted the first value is a root
        already, so a pin is needed only while a part after the second
        can allocate."""
        pin = any(p.alloc for p in parts[2 if rooted else 1:])
        node, atoms, pinned = [], [], None
        for p in parts:
            node.append(p.node)
            atom = p.expr
            if p.kind > _STABLE:
                atom = self._name()
                node.append(f"{atom} = {p.expr}")
            atoms.append(atom)
            if pinned:
                node.append(f"{pinned}.append({atom})")
            elif pin:
                pinned = var or self._name("a")
                node += [f"{pinned} = [{atom}]", f"push({pinned})"]
        if var and not pin:
            node.append(f"{var} = [{', '.join(atoms)}]")
        if pinned:
            node.append("pop()")
        return node, atoms

    # The compile methods recurse per nesting level, so they build lists
    # with comprehensions, not generators: resuming a generator takes C
    # stack, which deep nesting overflows before the recursion limit.
    def _compile(self, sx, scope, pos, tail=False, target=None):
        """Check reader form sx and compile it to the _Code that evaluates
        it in a frame of scope; an atom reports pos, its enclosing form's
        position.  In tail position (tail set) the value is returned, or
        stored in target if that is set, and a tail call is made in place
        (see "Tail calls" above); else the value goes to target if set."""
        if type(sx) is str:
            return _deliver(self._compile_ref(sx, scope, pos), tail, target)
        if type(sx) is not SrcList:  # an integer or a boolean
            return _deliver(_Code([], self._const(sx), _CONST), tail, target)
        pos = (sx.line, sx.col)
        if sx.tail is not None:
            raise SchemeSyntaxError("dotted list in code", *pos)
        items = sx.items
        if not items:
            raise SchemeSyntaxError("empty application", *pos)
        head = items[0]
        if head is _IF:
            return self._compile_if(sx, scope, pos, tail, target)
        if head is _LET:
            if len(items) >= 2 and type(items[1]) is str:
                if len(items) < 4:
                    raise SchemeSyntaxError(
                        "named let needs bindings and a body", *pos)
                return self._compile_let(items[1], items[2], items[3:],
                                         scope, pos, tail, target)
            if len(items) < 3:
                raise SchemeSyntaxError("let needs bindings and a body",
                                        *pos)
            return self._compile_let(None, items[1], items[2:], scope, pos,
                                     tail, target)
        if head is _BEGIN:
            if len(items) < 2:
                raise SchemeSyntaxError("empty begin", *pos)
            return self._compile_body(items[1:], scope, pos, tail, target)
        if head is _QUOTE:
            if len(items) != 2:
                raise SchemeSyntaxError("quote takes one datum", *pos)
            code = self._compile_quote(items[1], pos)
        elif head is _LAMBDA:
            if len(items) < 3:
                raise SchemeSyntaxError("lambda needs parameters and a body",
                                        *pos)
            plist = items[1]
            if type(plist) is not SrcList or plist.tail is not None:
                _syntax_error("expected a parameter list", plist, pos)
            code = self._compile_lambda(plist.items, items[2:], scope, pos)
        elif head is _DEFINE:
            code = self._compile_define(items, scope, pos)
        elif head is _SET:
            code = self._compile_set(items, scope, pos)
        else:
            return self._compile_apply(items, scope, pos, tail, target)
        return _deliver(code, tail, target)

    def _compile_ref(self, name, scope, pos):
        chain, local = _resolve(scope, name)
        if local and len(chain) == 1:
            return _Code([], self._slot(scope, *chain[0]), _OP)
        t, n, p = self._name(), self._const(name), self._const(pos)
        if chain:
            return _Code([f"{t} = _late_ref(G, {self._vars[scope]}, "
                          f"{self._const(tuple(chain))}, {n}, {p})"], t)
        return _Code(["try:", (f"{t} = G[{n}]",), "except KeyError:",
                      (f"raise _unbound({n}, {p}) from None",)], t)

    def _compile_if(self, sx, scope, pos, tail, target):
        items = sx.items
        if len(items) not in (3, 4):
            raise SchemeSyntaxError(
                "if takes a test and one or two branches", *pos)
        if self._depth >= _SPLIT:  # into a function of its own
            name, code = self._unit([sx], scope, pos, tail)
            call = f"{name}({self._vars[scope]})"
            if tail and target:
                return _Code(_run(target, call), None, _STABLE, [code])
            return _deliver(_Code([], call, _OP, [code]), tail, target)
        value = None
        if not (tail or target):
            target = value = self._name()
        self._depth += 1
        # The alternative's errors are reported before the test's.
        alt = (self._compile(items[3], scope, pos, tail, target)
               if len(items) == 4 else _deliver(_Code([], "NIL"), tail,
                                                target))
        test = self._compile(items[1], scope, pos)
        then = self._compile(items[2], scope, pos, tail, target)
        self._depth -= 1
        return _Code([test.node, f"if ({test.expr}) is not False:",
                      (then.node,), "else:", (alt.node,)], value, _STABLE,
                     [test, then, alt])

    def _compile_set(self, items, scope, pos):
        if len(items) != 3:
            raise SchemeSyntaxError("set! takes a name and a value", *pos)
        name = _require_symbol(items[1], "a name", pos)
        value = self._compile(items[2], scope, pos)
        chain, local = _resolve(scope, name)
        if local and len(chain) == 1:
            line = f"{self._slot(scope, *chain[0])} = {value.expr}"
        else:
            line = (f"_set_var(G, {self._vars[scope]}, "
                    f"{self._const(tuple(chain))}, {self._const(name)}, "
                    f"{self._const(pos)}, {value.expr})")
        return _Code([value.node, line], "NIL", _STABLE, [value])

    def _compile_body(self, forms, scope, pos, tail, target=None):
        effects = [self._compile(f, scope, pos) for f in forms[:-1]]
        last = self._compile(forms[-1], scope, pos, tail, target)
        if not effects:
            return last
        node = [[c.node, c.expr] if c.kind == _OP else c.node
                for c in effects]
        return _Code(node + [last.node], last.expr, last.kind,
                     effects + [last])

    def _compile_lambda(self, plist, body_forms, scope, pos):
        params = []
        for p in plist:
            param = _require_symbol(p, "a parameter name", pos)
            if param in params:
                raise SchemeSyntaxError(f"duplicate parameter {param}", *pos)
            params.append(param)
        inner = _Scope(scope, params, body_forms)
        fn, _ = self._unit(body_forms, inner, pos, True, len(params))
        return _Code([], f"Closure({len(params)}, {fn}, {self._vars[scope]}, "
                         "None)", _OP)

    def _compile_define(self, items, scope, pos):
        if len(items) < 3:
            raise SchemeSyntaxError("define needs a name and a value", *pos)
        target = items[1]
        if type(target) is SrcList:  # (define (name params...) body...)
            if target.tail is not None or not target.items:
                _syntax_error("bad define form", target, pos)
            name = _require_symbol(target.items[0], "a procedure name", pos)
            value = self._compile_lambda(target.items[1:], items[2:], scope,
                                         pos)
        else:
            if len(items) != 3:
                raise SchemeSyntaxError("define takes one value", *pos)
            name = _require_symbol(target, "a name", pos)
            value = self._compile(items[2], scope, pos)
        t, n = self._name(), self._const(name)
        # at top level the name is a global; else it has a slot
        slot = (f"G[{n}]" if scope is None else
                f"{self._vars[scope]}[{scope.slots[name]}]")
        return _Code([value.node, f"{t} = {value.expr}",
                      f"if type({t}) is Closure and {t}.name is None: "
                      f"{t}.name = {n}", f"{slot} = {t}"], "NIL", _STABLE,
                     [value])

    def _compile_quote(self, datum, pos):
        if type(datum) is SrcList and not datum.items and datum.tail is None:
            return _Code([], "NIL", _CONST)  # '() allocates nothing
        if type(datum) is not SrcList:
            return _Code([], self._const(datum), _CONST)
        return _Code([], f"quote({self._const(datum)}, {self._const(pos)})",
                     _OP, alloc=True)

    def _compile_let(self, loop_name, bindings, body_forms, scope, pos,
                     tail, target):
        """A let, or a named let; an init reports its binding's position.
        A let's frame is a local and its body runs inline; a named let's
        body is a function of its own, the code of its loop closure."""
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
            inits.append(self._compile(b.items[1], scope, bpos))
        frame, f, value = self._vars[scope], self._name("f"), None
        if not (tail or target):
            target = value = self._name()
        outer = scope if loop_name is None else _Scope(scope, [loop_name], [])
        inner = _Scope(outer, names, body_forms)
        # the current frame is on the stack already
        node, _ = self._operands([_Code([], frame), *inits], f, rooted=True)
        if loop_name is None:  # the frame is a local: extend it here
            if inner.unset:
                node.append(f"{f} += {self._const(inner.unset)}")
            self._vars[inner] = f
            body = self._compile_body(body_forms, inner, pos, True, target)
            run = [body.node]
        else:  # the loop name binds a closure over its own frame
            fn, body = self._unit(body_forms, inner, pos, True, len(names))
            loop = self._name("l")
            node += [f"{f}[0] = {loop} = [{frame}, None]",
                     f"{loop}[1] = Closure({len(names)}, {fn}, {loop}, "
                     f"{self._const(loop_name)})"]
            run = _run(target, f"{fn}({f})") if target else [
                f"return {fn}({f})"]
        node += ([f"stack[-1] = {f}", *run] if tail else
                 [f"push({f})", *run, "pop()"])
        return _Code(node, value, _STABLE, [*inits, body])

    def _compile_apply(self, items, scope, pos, tail, target):
        fn = self._compile(items[0], scope, pos)
        args = [self._compile(a, scope, pos) for a in items[1:]]
        prim = self._fixed.get(items[0])
        if (prim is not None and prim.accepts(len(args))
                and not _resolve(scope, items[0])[0]):
            return _deliver(self._compile_primitive_call(prim, args, pos,
                                                         items[1:]),
                            tail, target)
        a = self._name("a")
        node, atoms = self._operands([fn, *args], a)
        f, call = atoms[0], f"_call_procedure(interp, {a}, {self._const(pos)})"
        # the operator's slot becomes the parent link
        head = f"if type({f}) is Closure and {f}.arity == {len(args)}:"
        bind = f"{a}[0] = {f}.env"
        if tail and not target:
            own, arity = self._own
            if arity == len(args):  # a call of the unit's own code loops
                self._jumps = True
                node += [f"if type({f}) is Closure and {f}.code is {own}:",
                         (bind, f"stack[-1] = f0 = {a}", "continue")]
            node += [head, (bind, f"return ({f}.code, {a})"),
                     f"return {call}"]
            return _Code(node, None, _STABLE, (), True)
        value = target or self._name()
        run = _run(value, f"{f}.code({a})")
        node += [head, (bind, f"stack[-1] = {a}", *run) if tail else
                 (bind, f"push({a})", *run, "pop()"),
                 "else:", (f"{value} = {call}",)]
        return _Code(node, None if target else value, _STABLE, (), True)

    def _compile_primitive_call(self, prim, args, pos, forms):
        """A call of the fixed primitive prim on the arguments compiled to
        args, whose count prim accepts (see "Fixed primitives" above)."""
        node, atoms = self._operands(args)
        p = self._const(pos)
        if len(args) > 4 and all(a.kind == _CONST for a in args):
            # one constant tuple in place of a global per value
            atoms = ["*" + self._const(tuple(self._env[a] for a in atoms),
                                       tuple(atoms))]
        expr = f"{prim.fn.__name__}(interp, {', '.join([p, *atoms])})"
        if prim.name in _INLINE and 2 <= len(atoms) <= 4:
            tests = [f"type({a}) is int" for a, sx in zip(atoms, forms)
                     if type(sx) is not int]
            expr = _INLINE[prim.name].join(atoms) + (
                f" if {' and '.join(tests)} else {expr}" if tests else "")
        elif prim.name in _READS:
            test, read, other = _READS[prim.name]
            t = self._name()
            node += [f"if {test.format(*atoms)}:",
                     (f"use({atoms[0]})", f"{t} = {read.format(*atoms)}"),
                     "else:", (f"{t} = {other.format(*atoms) or expr}",)]
            return _Code(node, t, _STABLE, args)
        if not prim.allocates:  # so nothing can once the arguments ran
            return _Code(node, expr, _OP, args)
        t = self._name()
        call = [f"{t} = _call_primitive(interp, {self._const(prim)}, "
                f"[{', '.join(atoms)}], {p})"]
        if prim.name == "cons":  # immediates: no use, no check, no pin
            alloc = ["try:", (f"{t} = alloc({', '.join(atoms)})",),
                     "except OutOfMemory as exc:",
                     (f"raise _oom(exc, {p}, {self._const(prim.name)}) "
                      "from None",)]
            tests = [f"type({x}) in IMMEDIATE" for x, c in zip(atoms, args)
                     if c.kind != _CONST]
            call = [f"if {' and '.join(tests)}:", tuple(alloc), "else:",
                    tuple(call)] if tests else alloc
        return _Code(node + call, t, _STABLE, args, alloc=True)


# The inline bodies of car, cdr, vector-ref and null? over the atoms of
# the values: the test of the values whose call records a use of the
# first and reads, the read, and the value of the others ("": the body's
# call, which raises).
_READS = {
    "car": ("type({0}) is LifetimeRecord and {0}.kind == PAIR "
            "and {0}.address is not None", "heap.slots[{0}.address]", ""),
    "cdr": ("type({0}) is LifetimeRecord and {0}.kind == PAIR "
            "and {0}.address is not None", "heap.slots[{0}.address + 1]", ""),
    "vector-ref": ("type({0}) is LifetimeRecord and {0}.kind == VECTOR "
                   "and {0}.address is not None and type({1}) is int "
                   "and 0 <= {1} < {0}.size_slots",
                   "heap.slots[{0}.address + {1}]", ""),
    "null?": ("type({0}) is LifetimeRecord", "False", "type({0}) is Nil"),
}


# ---------------------------------------------------------------------------
# Entry point

RunResult = namedtuple("RunResult", "value value_repr trace_log collections")


def run_source(source: str, *,
               gc_interval: int = DEFAULT_GC_INTERVAL,
               heap_slots: int = DEFAULT_HEAP_SLOTS,
               source_name: str = "<string>", write=None) -> RunResult:
    """Parse and run a program, returning its result and the trace log.
    The run writes its whole DRAGLOG to write, if given, as it goes (see
    runtime.py), and the log holds no text; else the log's text is that
    DRAGLOG, the bytes `dragprof run` writes.

    The result is rendered before termination; if it is a heap reference
    the object may be collected by the closing collection, so value_repr
    is the faithful record of what the program produced.  Running out of
    Python recursion depth is a SchemeRuntimeError ("recursion too deep");
    the caller chooses the limit.  A syntax error is reported before a
    configuration out of range (the ValueError of Runtime).
    """
    program = parse(source)
    try:
        rt = Runtime(heap_slots, gc_interval, source_name, write)
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
