"""The primitive table and the rendering of values.

A primitive's body takes the interpreter, the call's position and the
argument values, positionally.  The bodies are the one place the rules
on values are checked (no procedure in a heap slot, no negative vector
length, no index out of range): the runtime and the heap take the
values they are handed as given.  Each body that receives a heap
reference records a use of it, left to right, after its own validation,
so a type error never records a use.
"""

import math
import operator
import sys

from .errors import SchemeRuntimeError, int_text
from .heap import NIL, PAIR, VECTOR, Nil, Ref


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
    if pos is not None:
        return SchemeRuntimeError(f"{pos[0]}:{pos[1]}: {msg}")
    return SchemeRuntimeError(msg)


def write_value(heap, value) -> str:
    """Scheme-style rendering; cycles are cut with a #<cycle> marker.
    The values still to write wait on a stack, with the steps between
    them as tuples (no value is one), so nesting costs no Python frames:
    (text,) writes text; (ids, None) closes the list or vector of ids;
    (ids, cur) goes on with a list whose pairs so far are ids at cur, the
    cdr of the last (its first pair if ids is empty)."""
    objects = heap.objects
    out, on_path, todo = [], set(), [value]
    while todo:
        v = todo.pop()
        if type(v) is tuple:
            if len(v) == 1:
                out.append(v[0])
                continue
            ids, cur = v
            rec = objects.get(cur.obj_id) if type(cur) is Ref else None
            if cur is None or isinstance(cur, Nil):
                out.append(")")
                on_path.difference_update(ids)
            elif rec is None or rec.kind != PAIR:
                out.append(" . ")
                todo += [(ids, None), cur]
            elif cur.obj_id in on_path:
                out.append(" . #<cycle>")
                todo.append((ids, None))
            else:
                if ids:
                    out.append(" ")
                on_path.add(cur.obj_id)
                ids.append(cur.obj_id)
                todo += [(ids, heap.slot_value(cur.obj_id, 1)),
                         heap.slot_value(cur.obj_id, 0)]
        elif type(v) is Ref:
            meta = objects.get(v.obj_id)
            if meta is None:
                out.append(f"#<collected {v.obj_id}>")
            elif v.obj_id in on_path:
                out.append("#<cycle>")
            elif meta.kind == VECTOR:
                on_path.add(v.obj_id)
                out.append("#(")
                todo.append(([v.obj_id], None))
                for i in range(meta.size_slots - 1, -1, -1):
                    todo.append(heap.slot_value(v.obj_id, i))
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
        raise rt_error(f"{name}: {_type_name(interp.rt, v)} cannot be "
                        f"stored in a heap object", pos)


def _require(interp, v, kind, name, pos):
    """The record of v if it is an object of kind.  The hottest bodies
    look the record up inline and call this only to raise: DanglingRef
    for a Ref with no record, else the type error."""
    rec = _record_of(interp.rt, v)
    if rec is None or rec.kind != kind:
        raise rt_error(f"{name}: expected {_KIND_NAMES[kind]}, got "
                        f"{_type_name(interp.rt, v)}", pos)
    return rec


def _require_number(interp, v, name, pos):
    if type(v) is not int:
        raise rt_error(f"{name}: expected a number, got "
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


def _set_field(interp, pos, p, v, name, offset):
    rec = _require(interp, p, PAIR, name, pos)
    _check_storable(interp, v, name, pos)
    _use_refs(interp, (p, v))
    interp.heap.store(rec.address + offset, v)
    return NIL


def _prim_set_car(interp, pos, p, v):
    return _set_field(interp, pos, p, v, "set-car!", 0)


def _prim_set_cdr(interp, pos, p, v):
    return _set_field(interp, pos, p, v, "set-cdr!", 1)


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
    return _vector_of(interp, args)


def _vector_of(interp, items):
    """A new vector of items, which the caller keeps pinned."""
    ref = interp.rt.alloc_vector(len(items), NIL)
    addr = interp.objects[ref.obj_id].address
    for i, v in enumerate(items):
        interp.heap.store(addr + i, v)
    return ref


def _prim_make_vector(interp, pos, n, fill=NIL):
    _require_number(interp, n, "make-vector", pos)
    if n < 0:
        raise rt_error(f"make-vector: negative length {int_text(n)}", pos)
    _check_storable(interp, fill, "make-vector", pos)
    _use_refs(interp, (fill,))
    return interp.rt.alloc_vector(n, fill)


def _vector_index(interp, rec, i, name, pos):
    _require_number(interp, i, name, pos)
    size = rec.size_slots
    if not 0 <= i < size:
        raise rt_error(f"{name}: index {int_text(i)} out of range for "
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
    rt, heap = interp.rt, interp.heap
    # walk the spine first so an improper list records no events
    spine, items, cur = [], [], lst
    limit = len(heap.objects) + 1
    while (rec := _record_of(rt, cur)) is not None and rec.kind == PAIR:
        if len(spine) == limit:
            raise rt_error("list->vector: cyclic list", pos)
        spine.append(cur)
        items.append(heap.slots[rec.address])
        cur = heap.slots[rec.address + 1]
    if not isinstance(cur, Nil):
        raise rt_error(f"list->vector: expected a proper list, got "
                        f"{_type_name(rt, lst)}", pos)
    _use_refs(interp, spine)
    # items stay reachable through the pinned argument list
    return _vector_of(interp, items)


def _arith_args(interp, args, name, pos):
    for v in args:
        if type(v) is not int:
            _require_number(interp, v, name, pos)


def _prim_add(interp, pos, *args):
    _arith_args(interp, args, "+", pos)
    return sum(args)


def _prim_sub(interp, pos, *args):
    _arith_args(interp, args, "-", pos)
    return -args[0] if len(args) == 1 else args[0] - sum(args[1:])


def _prim_mul(interp, pos, *args):
    _arith_args(interp, args, "*", pos)
    return math.prod(args)


def _prim_num_eq(interp, pos, *args):
    _arith_args(interp, args, "=", pos)
    return all(map(operator.eq, args, args[1:]))


def _prim_lt(interp, pos, *args):
    _arith_args(interp, args, "<", pos)
    return all(map(operator.lt, args, args[1:]))


def _prim_eq_p(interp, pos, a, b):
    _use_refs(interp, (a, b))
    if type(a) is Ref:
        return type(b) is Ref and a.obj_id == b.obj_id
    # numbers and symbols by value; booleans, () and procedures by identity
    return type(a) is type(b) and (a == b if type(a) in (int, str) else
                                   a is b or type(a) is Nil)


def _prim_display(interp, pos, v):
    if type(v) is Ref:
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
