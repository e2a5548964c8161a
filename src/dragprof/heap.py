"""Object model, the object table and semispace storage for the profiled heap.

Profiled objects are pairs (exactly two slots) and vectors (one slot per
element, payload only; there is no header slot).  Slot values are
immediates or references:

* exact integers and booleans are plain Python ``int``/``bool``;
* the empty list is the ``NIL`` singleton and never touches the heap;
* symbols are interned Python strings kept in a side table outside the
  profiled heap;
* ``Ref`` carries only the stable object id.  Objects move during
  collections, but a Ref does not: every access resolves the current
  address through the object table, which is keyed by the id and never
  reuses one, so a slot keeps the same Ref object across collections.

The object table holds one LifetimeRecord per uncollected object: its
kind, size and current address for the heap, and its creation, last-use
and collection ticks for the profiler, which shares the same dict.
"""

from dataclasses import dataclass

from .defaults import DEFAULT_HEAP_SLOTS
from .errors import (
    DanglingRef,
    IndexOutOfBounds,
    NegativeLength,
    UnstorableValue,
)

PAIR = "P"
VECTOR = "V"


class Nil:
    """The empty list: an immediate value, not a heap object."""

    __slots__ = ()

    def __repr__(self):
        return "()"


NIL = Nil()


class Ref:
    """Reference to a heap object by its stable id."""

    __slots__ = ("obj_id",)

    def __init__(self, obj_id: int):
        self.obj_id = obj_id

    def __eq__(self, other):
        return type(other) is Ref and other.obj_id == self.obj_id

    def __hash__(self):
        return hash(self.obj_id)

    def __repr__(self):
        return f"<ref #{self.obj_id}>"


def is_storable(value) -> bool:
    """True if the value may live in a heap slot (immediate or Ref)."""
    return isinstance(value, (int, str, Nil, Ref))


class Forward:
    """Marker written over slot 0 of an evacuated object in from-space.
    FORWARDED is the one instance; the object table holds the new
    address."""

    __slots__ = ()

    def __repr__(self):
        return "<forwarded>"


FORWARDED = Forward()


@dataclass(slots=True)
class LifetimeRecord:
    """One object's entry in the object table.

    kind, size_slots and address serve the heap; the ticks serve the
    profiler.  last_use_tick stays None for an object never used, and
    collect_tick is set when the record is finalized: by a collection
    that did not copy the object, or (censored) at the end of the run.
    """

    obj_id: int
    kind: str
    size_slots: int
    create_tick: int | None = None
    last_use_tick: int | None = None
    collect_tick: int | None = None
    censored: bool = False
    address: int | None = None


class Semispace:
    """One half of the heap: a bump-allocated slot array."""

    __slots__ = ("capacity_slots", "used_slots", "slots")

    def __init__(self, capacity_slots: int):
        self.capacity_slots = capacity_slots
        self.used_slots = 0
        self.slots = [None] * capacity_slots

    @property
    def free_slots(self) -> int:
        return self.capacity_slots - self.used_slots

    def alloc(self, n: int):
        """Bump-allocate n slots; None when they do not fit."""
        if self.used_slots + n > self.capacity_slots:
            return None
        addr = self.used_slots
        self.used_slots += n
        return addr

    def reset(self):
        # The stale slot contents are discarded wholesale; they are never
        # read again because the object table points into the other space.
        self.used_slots = 0


class Heap:
    """Two equal semispaces plus the object table.

    This layer is pure storage: it never triggers a collection and never
    talks to the profiler.  Allocation policy lives in runtime.Runtime,
    the copying itself in gc.Collector.
    """

    def __init__(self, capacity_slots: int = DEFAULT_HEAP_SLOTS, *,
                 _standby_capacity: int | None = None):
        if capacity_slots < 1:
            raise ValueError("heap capacity must be positive")
        self._spaces = [
            Semispace(capacity_slots),
            Semispace(_standby_capacity
                      if _standby_capacity is not None else capacity_slots),
        ]
        self._active = 0
        self.objects: dict[int, LifetimeRecord] = {}
        self._next_id = 0

    @property
    def active(self) -> Semispace:
        return self._spaces[self._active]

    @property
    def standby(self) -> Semispace:
        return self._spaces[1 - self._active]

    @property
    def used_slots(self) -> int:
        return self.active.used_slots

    @property
    def free_slots(self) -> int:
        return self.active.free_slots

    def can_alloc(self, n: int) -> bool:
        return self.active.free_slots >= n

    def alloc_raw(self, kind: str, size_slots: int, values) -> int:
        """Allocate and initialize an object; the caller guarantees room.

        Returns its id, which is never reused.
        """
        if size_slots < 0:
            raise NegativeLength(f"negative object size {size_slots}")
        addr = self.active.alloc(size_slots)
        if addr is None:
            raise AssertionError("alloc_raw called without free space")
        slots = self.active.slots
        for i, v in enumerate(values):
            slots[addr + i] = v
        obj_id = self._next_id
        self._next_id += 1
        self.objects[obj_id] = LifetimeRecord(obj_id, kind, size_slots,
                                              address=addr)
        return obj_id

    def record(self, ref: Ref) -> LifetimeRecord:
        """The record of the object ref refers to."""
        rec = self.objects.get(ref.obj_id)
        if rec is None:
            raise DanglingRef(f"object #{ref.obj_id} was collected")
        return rec

    def read_slot(self, ref: Ref, index: int):
        rec = self.record(ref)
        if not 0 <= index < rec.size_slots:
            raise IndexOutOfBounds(
                f"slot {index} of object #{ref.obj_id} "
                f"(size {rec.size_slots})")
        return self.active.slots[rec.address + index]

    def write_slot(self, ref: Ref, index: int, value):
        if not is_storable(value):
            raise UnstorableValue(f"{value!r} cannot live in a heap slot")
        rec = self.record(ref)
        if not 0 <= index < rec.size_slots:
            raise IndexOutOfBounds(
                f"slot {index} of object #{ref.obj_id} "
                f"(size {rec.size_slots})")
        self.active.slots[rec.address + index] = value

    def slot_value(self, obj_id: int, index: int):
        """Raw slot read by id; used by traversals that already hold ids."""
        rec = self.objects[obj_id]
        return self.active.slots[rec.address + index]

    def swap_spaces(self):
        self.active.reset()
        self._active = 1 - self._active
