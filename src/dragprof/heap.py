"""Object model, the object table and the two slot lists of the profiled heap.

Profiled objects are pairs (exactly two slots) and vectors (one slot per
element, payload only; there is no header slot).  Slot values are
immediates or references:

* exact integers and booleans are plain Python ``int``/``bool``;
* the empty list is the ``NIL`` singleton and never touches the heap;
* symbols are interned Python strings kept in a side table outside the
  profiled heap;
* a reference is the object's LifetimeRecord itself: its kind, size and
  current address for the heap, and its creation, last-use and
  collection ticks for the runtime, which owns the run's clock.  A
  collection moves the object and updates the record's address, so a
  slot, frame or root keeps the same record across collections and
  ``eq?`` is identity.

The object table maps each uncollected object's id, never reused, to
its record, in creation order.  The runtime drops a dead record from
the table and sets its address to None, so a later use of it, or a
primitive's check of it (primitives.py), raises DanglingRef instead of
reading a reused slot.

Merlin stamps (Hertz et al., "Generating Object Lifetime Traces with
Merlin", TOPLAS 2006): while a record is in the table its collect_tick
holds a stamp that bounds how late the object was last reachable.  After
collection point i the heap's stamp is 2i+1 (-1 before the first).  A
new record starts at the heap's stamp, every collection point stamps
its roots with 2i, and the write barrier, store(), stamps the old
target of an overwritten reference with the heap's stamp.  The copy that
later finds the object dead turns the stamp into its collection tick
(see runtime.py).
"""

from .profiler import NEVER_USED, PAIR, VECTOR


class Nil:
    """The empty list: an immediate value, not a heap object."""

    __slots__ = ()

    def __repr__(self):
        return "()"


NIL = Nil()


class Forward:
    """Marker written over slot 0 of an evacuated object in from-space.
    FORWARDED is the one instance; the object table holds the new
    address."""

    __slots__ = ()

    def __repr__(self):
        return "<forwarded>"


FORWARDED = Forward()


class LifetimeRecord:
    """One object, and every reference to it; records compare by
    identity.

    kind, size_slots and address serve the heap; address is None once
    the object is collected.  The runtime sets the ticks: create_tick
    where the record is made, last_use_tick at each use (NEVER_USED,
    -1, as in a log, for an object never used).  While the object is in
    the table, collect_tick holds its Merlin stamp.  When the runtime
    dates the death a copy found, or censors the object at termination,
    the record's fields, with the collection tick and the censored
    flag, live on as its OBJ line in the run's log text
    (profiler.format_records), not in the record, which the runtime no
    longer keeps.  A log's records are rows of its columns
    (profiler.Columns), not LifetimeRecords.  A plain slotted
    class, not a dataclass, so a run does not load dataclasses and what
    it imports.
    """

    __slots__ = ("obj_id", "kind", "size_slots", "create_tick",
                 "last_use_tick", "collect_tick", "address")

    def __init__(self, obj_id, kind, size_slots, create_tick, last_use_tick,
                 collect_tick, address):
        self.obj_id = obj_id
        self.kind = kind
        self.size_slots = size_slots
        self.create_tick = create_tick
        self.last_use_tick = last_use_tick
        self.collect_tick = collect_tick
        self.address = address

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"LifetimeRecord({fields})"


class Heap:
    """Two slot lists, each at most capacity_slots long, plus the object
    table.

    slots is the active space, bump-allocated by runtime.Runtime, which
    makes the records and owns the allocation policy: an allocation
    appends its slots, so the list holds exactly used_slots slots and
    grows with use, and capacity_slots, not the list's length, bounds
    it.  Both lists start empty.  standby is the other half, which
    gc.Collector.collect clears and copies into before it swaps the two
    lists; until the next copy it holds the last from-space, whose
    stale contents are read only by that copy's flush: the records'
    addresses point into slots.  This layer is pure storage; values are
    checked by the primitives (primitives.py), so it checks no slot
    value, index or size.  It never triggers a collection and never
    reads the clock; its write barrier only sets stamps, whose value
    the runtime advances at each collection point.
    """

    def __init__(self, capacity_slots: int):
        self.capacity_slots = capacity_slots
        self.slots = []
        self.standby = []
        self.used_slots = 0
        self.objects: dict[int, LifetimeRecord] = {}
        self.allocated = 0  # objects allocated so far, so the next id
        self.stamp = -1  # 2i+1 after collection point i

    @property
    def free_slots(self) -> int:
        return self.capacity_slots - self.used_slots

    def store(self, addr: int, value):
        """Write the active slot at addr through the write barrier: an
        overwritten reference's target takes the heap's stamp, since it
        may have lost its last reference."""
        slots = self.slots
        old = slots[addr]
        if type(old) is LifetimeRecord:
            old.collect_tick = self.stamp
        slots[addr] = value

    def slot_value(self, obj_id: int, index: int):
        """Slot index of object obj_id, read through the object table."""
        rec = self.objects[obj_id]
        return self.slots[rec.address + index]
