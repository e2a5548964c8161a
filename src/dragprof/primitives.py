"""The primitive table and the rendering of values.

A primitive's body takes the interpreter, the call's position and the
argument values, positionally.  The bodies are the one place the rules
on values are checked (no procedure in a heap slot, no negative vector
length, no index out of range): the runtime and the heap take the
values they are handed as given.  A heap reference is the object's
record (heap.py), read directly: no body looks an object up by id.
Each body that receives a heap reference records a use of it through
Runtime.record_use, left to right, after its own validation, so a type
error never records a use.  _record_of is the one check that a
reference's object is not collected (DanglingRef).  The bodies of cons
and of the setters test their values inline and call the checks only
to raise.  The generated code runs car, cdr and vector-ref inline
(interp.py), so their bodies run only for a call that reaches them at
run time and for values that raise.
"""

import math
import operator
import sys

from .errors import DanglingRef, SchemeRuntimeError, int_text
from .heap import NIL, PAIR, VECTOR, LifetimeRecord, Nil


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


def rt_error(msg, pos):
    return SchemeRuntimeError(f"{pos[0]}:{pos[1]}: {msg}")


def write_value(heap, value) -> str:
    """Scheme-style rendering; cycles are cut with a #<cycle> marker.
    The values still to write wait on a stack, with the steps between
    them as tuples (no value is one), so nesting costs no Python frames:
    (text,) writes text; (recs, None) closes the list or vector of recs;
    (recs, cur) goes on with a list whose pairs so far are recs at cur,
    the cdr of the last (its first pair if recs is empty)."""
    slots = heap.slots
    out, on_path, todo = [], set(), [value]
    while todo:
        v = todo.pop()
        if type(v) is tuple:
            if len(v) == 1:
                out.append(v[0])
                continue
            recs, cur = v
            if cur is None or isinstance(cur, Nil):
                out.append(")")
                on_path.difference_update(recs)
            elif (type(cur) is not LifetimeRecord or cur.address is None
                  or cur.kind != PAIR):
                out.append(" . ")
                todo += [(recs, None), cur]
            elif cur in on_path:
                out.append(" . #<cycle>")
                todo.append((recs, None))
            else:
                if recs:
                    out.append(" ")
                on_path.add(cur)
                recs.append(cur)
                todo += [(recs, slots[cur.address + 1]), slots[cur.address]]
        elif type(v) is LifetimeRecord:
            if v.address is None:
                out.append(f"#<collected {v.obj_id}>")
            elif v in on_path:
                out.append("#<cycle>")
            elif v.kind == VECTOR:
                on_path.add(v)
                out.append("#(")
                todo.append(([v], None))
                for i in range(v.size_slots - 1, -1, -1):
                    todo.append(slots[v.address + i])
                    if i:
                        todo.append((" ",))
            else:
                out.append("(")
                todo.append(([], v))
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
    return "".join(out)


def _record_of(v):
    """v if it is a reference; None if it is not.  DanglingRef if its
    object was collected."""
    if type(v) is not LifetimeRecord:
        return None
    if v.address is None:
        raise DanglingRef(f"object #{v.obj_id} was collected")
    return v


_KIND_NAMES = {PAIR: "a pair", VECTOR: "a vector"}

# The types of the values a cons stores as they are, with no use.
IMMEDIATE = frozenset((int, bool, str, Nil))
# The types of the values a heap slot may hold: no procedure.
_STORABLE = IMMEDIATE | {LifetimeRecord}


def _type_name(v):
    if type(v) is LifetimeRecord:
        return _KIND_NAMES[_record_of(v).kind]
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
        if type(v) is LifetimeRecord:
            record_use(v)


def _check_storable(v, name, pos):
    """The one check that v may live in a heap slot: an immediate or a
    reference, never a procedure.  The bodies of a fixed number of
    values test inline and call this only to raise."""
    if type(v) not in _STORABLE:
        raise rt_error(f"{name}: {_type_name(v)} cannot be stored in a "
                        f"heap object", pos)


def _require(v, kind, name, pos):
    """v if it is a live object of kind: DanglingRef for a collected
    object, else the type error."""
    rec = _record_of(v)
    if rec is None or rec.kind != kind:
        raise rt_error(f"{name}: expected {_KIND_NAMES[kind]}, got "
                        f"{_type_name(v)}", pos)
    return rec


def _require_number(v, name, pos):
    if type(v) is not int:
        raise rt_error(f"{name}: expected a number, got {_type_name(v)}",
                        pos)


def _prim_cons(interp, pos, a, b):
    if type(a) not in _STORABLE or type(b) not in _STORABLE:
        _check_storable(a, "cons", pos)
        _check_storable(b, "cons", pos)
    if type(a) is LifetimeRecord:
        interp.record_use(a)
    if type(b) is LifetimeRecord:
        interp.record_use(b)
    return interp.rt.alloc_pair(a, b)


def _prim_list(interp, pos, *args):
    for v in args:
        _check_storable(v, "list", pos)
    _use_refs(interp, args)
    return list_of(interp.rt, args)


def _prim_car(interp, pos, p):
    _require(p, PAIR, "car", pos)
    interp.record_use(p)
    return interp.heap.slots[p.address]


def _prim_cdr(interp, pos, p):
    _require(p, PAIR, "cdr", pos)
    interp.record_use(p)
    return interp.heap.slots[p.address + 1]


def _set_field(interp, pos, p, v, name, offset):
    _require(p, PAIR, name, pos)
    if type(v) not in _STORABLE:
        _check_storable(v, name, pos)
    interp.record_use(p)
    if type(v) is LifetimeRecord:
        interp.record_use(v)
    interp.heap.store(p.address + offset, v)
    return NIL


def _prim_set_car(interp, pos, p, v):
    return _set_field(interp, pos, p, v, "set-car!", 0)


def _prim_set_cdr(interp, pos, p, v):
    return _set_field(interp, pos, p, v, "set-cdr!", 1)


def _prim_null_p(interp, pos, v):
    if type(v) is LifetimeRecord:
        interp.record_use(v)
    return type(v) is Nil


def _prim_pair_p(interp, pos, v):
    if type(v) is LifetimeRecord:
        interp.record_use(v)
        return v.kind == PAIR
    return False


def _prim_number_p(interp, pos, v):
    if type(v) is LifetimeRecord:
        interp.record_use(v)
    return type(v) is int  # a bool is not a number


def _prim_vector(interp, pos, *args):
    for v in args:
        _check_storable(v, "vector", pos)
    _use_refs(interp, args)
    return _vector_of(interp, args)


def list_of(rt, items, tail=NIL):
    """A new list of items ending in tail; the caller keeps items pinned."""
    for v in reversed(items):
        tail = rt.alloc_pair(v, tail)
    return tail


def _vector_of(interp, items):
    """A new vector of items, which the caller keeps pinned."""
    rec = interp.rt.alloc_vector(len(items), NIL)
    for i, v in enumerate(items):
        interp.heap.store(rec.address + i, v)
    return rec


def _prim_make_vector(interp, pos, n, fill=NIL):
    _require_number(n, "make-vector", pos)
    if n < 0:
        raise rt_error(f"make-vector: negative length {int_text(n)}", pos)
    if type(fill) not in _STORABLE:
        _check_storable(fill, "make-vector", pos)
    if type(fill) is LifetimeRecord:
        interp.record_use(fill)
    return interp.rt.alloc_vector(n, fill)


def _vector_index(rec, i, name, pos):
    _require_number(i, name, pos)
    size = rec.size_slots
    if not 0 <= i < size:
        raise rt_error(f"{name}: index {int_text(i)} out of range for "
                        f"vector of length {size}", pos)


def _prim_vector_ref(interp, pos, v, i):
    _require(v, VECTOR, "vector-ref", pos)
    _vector_index(v, i, "vector-ref", pos)
    interp.record_use(v)
    return interp.heap.slots[v.address + i]


def _prim_vector_set(interp, pos, v, i, x):
    if type(v) is not LifetimeRecord or v.kind != VECTOR or v.address is None:
        _require(v, VECTOR, "vector-set!", pos)
    if type(i) is not int or not 0 <= i < v.size_slots:
        _vector_index(v, i, "vector-set!", pos)
    if type(x) not in _STORABLE:
        _check_storable(x, "vector-set!", pos)
    interp.record_use(v)
    if type(x) is LifetimeRecord:
        interp.record_use(x)
    interp.heap.store(v.address + i, x)
    return NIL


def _prim_vector_length(interp, pos, v):
    rec = _require(v, VECTOR, "vector-length", pos)
    interp.record_use(v)
    return rec.size_slots


def _prim_vector_to_list(interp, pos, v):
    _require(v, VECTOR, "vector->list", pos)
    interp.record_use(v)
    # a copy may move the pinned vector but never changes its slots' values
    a = v.address
    return list_of(interp.rt, interp.heap.slots[a:a + v.size_slots])


def _prim_list_to_vector(interp, pos, lst):
    heap = interp.heap
    # walk the spine first so an improper list records no events
    spine, items, cur = [], [], lst
    limit = len(heap.objects) + 1
    while (rec := _record_of(cur)) is not None and rec.kind == PAIR:
        if len(spine) == limit:
            raise rt_error("list->vector: cyclic list", pos)
        spine.append(cur)
        items.append(heap.slots[rec.address])
        cur = heap.slots[rec.address + 1]
    if not isinstance(cur, Nil):
        raise rt_error(f"list->vector: expected a proper list, got "
                        f"{_type_name(lst)}", pos)
    _use_refs(interp, spine)
    # items stay reachable through the pinned argument list
    return _vector_of(interp, items)


def _arith_args(args, name, pos):
    for v in args:
        if type(v) is not int:
            _require_number(v, name, pos)


def _prim_add(interp, pos, *args):
    _arith_args(args, "+", pos)
    return sum(args)


def _prim_sub(interp, pos, *args):
    _arith_args(args, "-", pos)
    return -args[0] if len(args) == 1 else args[0] - sum(args[1:])


def _prim_mul(interp, pos, *args):
    _arith_args(args, "*", pos)
    return math.prod(args)


def _prim_num_eq(interp, pos, *args):
    _arith_args(args, "=", pos)
    return all(map(operator.eq, args, args[1:]))


def _prim_lt(interp, pos, *args):
    _arith_args(args, "<", pos)
    return all(map(operator.lt, args, args[1:]))


def _prim_eq_p(interp, pos, a, b):
    if type(a) is LifetimeRecord:
        interp.record_use(a)
    if type(b) is LifetimeRecord:
        interp.record_use(b)
    # numbers and symbols by value; objects, booleans, () and procedures
    # by identity
    return a is b or (type(a) is type(b) and type(a) in (int, str)
                      and a == b)


def _prim_display(interp, pos, v):
    if type(v) is LifetimeRecord:
        interp.record_use(v)
    sys.stdout.write(write_value(interp.heap, v))
    return NIL


# name, fewest and most arguments (None: any number), whether the body
# allocates, body
PRIMITIVES = [
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
