"""Mutator facade and owner of the run's timeline.

A Runtime wires one Heap and one Collector together, owns the trigger
policy and the logical clock, and dates every death.  The clock advances
by one for every creation and every use; collections do not advance it.
A run's termination counts as one final clock step, so end_tick is
always strictly greater than the tick of the last recorded event.

Collection points are where the log says a collection ran: right after
every gc_interval-th allocation (the fresh object pinned), before an
allocation the heap could not hold had every point collected (an
exhaustion point; OutOfMemory if it still cannot after it), and on
demand (a manual point).  Setting gc_interval to 1 makes every
allocation a point, the regime in which drag measured from the log
approximates the program-determined part alone.

Only collection_point() opens a point, and open_point() stamps its roots
(see heap.py).  A point need not copy: the Cheney copy (gc.py) runs at a
manual point, at a point where the heap has doubled since the last copy
kept its slots (Appel, "Simple generational garbage collection and fast
allocation", SP&E 1989), and before an allocation when free_slots minus
the ghosts' slots is short of it.  That allocation is an exhaustion
point if it is still short after the copy.

A copy (or a point over an empty heap, with nothing to copy) calls
flush_unmarked(): it drops every record the copy did not keep and dates
its death.  An object whose stamp (spread through the dead subgraph,
largest first) is s was last reachable at point s // 2 or just after
it, so it died at point s // 2 + 1, or at the first open point if that
is later.  Every open point is then resolved: its dead take its tick and
its CollectionStats joins collections.  An object dead after the last
point is a ghost; its slots are free, but it counts as used, and waits
to be counted and ticked, until the next point.  A record dated to a
point before its last use was used after it died, which only a value
the interpreter forgot to root can cause: DanglingRef, as if the use
had come after a copy at that point.  So a run's log and
CollectionStats are those of a copy at every point, while the copying
costs a constant per allocated slot.  A dated death writes the batch's
OBJ lines (profiler.format_records) and keeps no reference to its
records, so a dead object costs the log its line of text.  The lines
are logged in (collect tick, id) order but for the rows of one tick: a
copy logs its dead point by point, each point's in creation order (the
object table's), and keeps the ghosts it finds as one batch in that
order, so every batch is in ascending id order and collect ticks never
fall from one batch to the next.  Only batches of one tick can break
the id order: the ghosts of two copies, the dead of two copies at
points of one tick, or the survivors after the last point's dead.  So
when the tick advances, the last tick's lines are sorted if a batch
broke their order, and the strings logged so far are joined into slabs
of _SLAB batch strings, so that batches of one or two records do not
cost a string each.  terminate() closes the run: it logs the objects
still in the table as censored, seals the last tick the same way, and
returns the lines as the run's TraceLog.  It also releases the heap's
two slot lists and its object table: every later event is a
ProtocolViolation, so nothing reads them again.

Roots come from one source, roots: a callable returning references,
which are the objects' records (heap.py); it returns none until a
client sets it.  The interpreter walks its global table and its root
stack; test drivers return plain lists.  Values handed to an allocation
are passed to gather_roots as pins, so a collection triggered by that
very allocation cannot reclaim them; so is the fresh object at its
interval point.  The primitives check the values (primitives.py): an
allocation takes them as given.  alloc_pair and alloc_vector each do a
whole allocation inline (room check, clock, slots, record), so a pair
costs one object and one call.
"""

from collections import defaultdict
from operator import attrgetter

from .defaults import DEFAULT_GC_INTERVAL, DEFAULT_HEAP_SLOTS
from .errors import DanglingRef, OutOfMemory, ProtocolViolation, int_text
from .gc import Collector
from .heap import NEVER_USED, NIL, PAIR, VECTOR, Heap, LifetimeRecord
from .profiler import (CollectionStats, TraceLog, format_records,
                       sorted_lines)

# Largest semispace a run may ask for.  The slot lists grow with use,
# so a run holds none of it before its first allocation; a full heap's
# two lists would take up to 2 x 8 bytes x 2**24 = 256 MiB.
MAX_HEAP_SLOTS = 2 ** 24
# Batch strings joined into one slab at a time.  Only a sealed tick's
# strings are joined, so a tick whose rows must be sorted holds whole
# strings of its own.
_SLAB = 64


class Runtime:
    def __init__(self, heap_slots: int = DEFAULT_HEAP_SLOTS,
                 gc_interval: int = DEFAULT_GC_INTERVAL,
                 source_name: str = "<memory>"):
        if gc_interval < 1:
            raise ValueError("gc_interval must be at least 1")
        if heap_slots < 16:
            raise ValueError("heap_slots must be at least 16")
        if heap_slots > MAX_HEAP_SLOTS:
            raise ValueError(f"heap_slots must be at most {MAX_HEAP_SLOTS}")
        self.gc_interval = gc_interval
        self.source = source_name
        self.heap = Heap(heap_slots)
        self.collector = Collector(self.heap, self.flush_unmarked)
        self.roots = _no_roots  # () -> the live records; a client sets it
        self.clock = 0
        self.created_slots = 0  # slots of the objects created so far
        # Resolved points, in order; _points holds the open ones, each
        # [trigger, tick, created, created_slots, died, died_slots].
        self.collections: list[CollectionStats] = []
        self._points = []
        self._died = 0          # objects and slots collected at resolved
        self._died_slots = 0    # points
        self._ghosts = []  # batches, one per copy that found ghosts
        self.ghost_slots = 0
        # The dead so far, as the log's OBJ lines: lines holds strings
        # of whole lines, the strings from _slab on are single batches,
        # and those from _group on hold the rows of the last tick.
        self.lines = []
        self._slab = 0
        self._group = 0
        self.logged = 0  # records in lines
        # _last_key is the largest (collect tick, id) logged so far;
        # _unsorted is set once a batch of its tick comes below it.
        self._last_key = (-1, -1)
        self._unsorted = False
        self.allocs_since_gc = 0
        self._kept_slots = 0  # slots the last copy kept
        self._terminated = False

    def gather_roots(self, pins=()) -> list[LifetimeRecord]:
        """The records roots() returns, then the records among pins, each
        once."""
        roots = dict.fromkeys(self.roots())
        for v in pins:
            if type(v) is LifetimeRecord:
                roots[v] = None
        return list(roots)

    def collect_now(self) -> CollectionStats:
        """A manual collection point; it copies, so its stats are final."""
        self.collection_point("manual", self.gather_roots())
        return self.collections[-1]

    def collection_point(self, trigger: str, roots: list[LifetimeRecord]):
        """Open the next collection point over these roots; copy if it
        is manual or the heap has doubled since the last copy.  Over an
        empty heap there is nothing to copy: resolve the open points."""
        heap = self.heap
        self.open_point(trigger, roots)
        if not heap.objects and trigger != "manual":
            self.flush_unmarked((), heap.slots)
        elif trigger == "manual" or heap.used_slots >= 2 * self._kept_slots:
            self._copy(roots, trigger)
        self.allocs_since_gc = 0

    def open_point(self, trigger: str, roots=()):
        """Open collection point i at the current tick: stamp its roots
        with 2i and the heap with 2i+1; the ghosts died at this point."""
        heap = self.heap
        stamp = heap.stamp + 1
        heap.stamp = stamp + 1
        for rec in roots:
            rec.collect_tick = stamp
        self._points.append([trigger, self.clock, heap.allocated,
                             self.created_slots, 0, 0])
        if self._ghosts:
            ghosts, self._ghosts, self.ghost_slots = self._ghosts, [], 0
            for recs in ghosts:
                self._bury(stamp // 2, recs)

    def _copy(self, roots, trigger):
        self._kept_slots = self.collector.collect(
            roots, self.clock, trigger).slots_copied

    def _make_room(self, n: int, pins):
        """Copy, then open an exhaustion point if n slots are still
        short; the pins are roots of both."""
        heap = self.heap
        roots = self.gather_roots(pins)
        self._copy(roots, "exhaustion")
        if heap.free_slots < n + self.ghost_slots:
            self.collection_point("exhaustion", roots)
            if heap.free_slots < n:
                raise OutOfMemory(f"need {int_text(n)} slots, only "
                                  f"{heap.free_slots} free after collection")

    def alloc_pair(self, car, cdr) -> LifetimeRecord:
        if self._terminated:
            raise ProtocolViolation("allocation after termination")
        heap = self.heap
        if heap.capacity_slots - heap.used_slots < 2 + self.ghost_slots:
            self._make_room(2, (car, cdr))
        clock = self.clock = self.clock + 1
        self.created_slots += 2
        addr = heap.used_slots
        heap.used_slots = addr + 2
        # the list holds used_slots slots, so appended slots go at addr
        slots = heap.slots
        slots.append(car)
        slots.append(cdr)
        # one call fewer than LifetimeRecord(...), whose __init__ is Python
        rec = _new(LifetimeRecord)
        rec.obj_id = obj_id = heap.allocated
        rec.kind, rec.size_slots, rec.create_tick = PAIR, 2, clock
        rec.last_use_tick, rec.collect_tick = NEVER_USED, heap.stamp
        rec.address = addr
        heap.objects[obj_id] = rec
        heap.allocated = obj_id + 1
        self.allocs_since_gc += 1
        if self.allocs_since_gc >= self.gc_interval:
            # the fresh object is a root of its own trigger
            self.collection_point("interval", self.gather_roots((rec,)))
        return rec

    def alloc_vector(self, length: int, fill=NIL) -> LifetimeRecord:
        if self._terminated:
            raise ProtocolViolation("allocation after termination")
        heap = self.heap
        if heap.capacity_slots - heap.used_slots < length + self.ghost_slots:
            self._make_room(length, (fill,))
        clock = self.clock = self.clock + 1
        self.created_slots += length
        addr = heap.used_slots
        heap.used_slots = addr + length
        heap.slots[addr:addr + length] = [fill] * length
        rec = _new(LifetimeRecord)
        rec.obj_id = obj_id = heap.allocated
        rec.kind, rec.size_slots, rec.create_tick = VECTOR, length, clock
        rec.last_use_tick, rec.collect_tick = NEVER_USED, heap.stamp
        rec.address = addr
        heap.objects[obj_id] = rec
        heap.allocated = obj_id + 1
        self.allocs_since_gc += 1
        if self.allocs_since_gc >= self.gc_interval:
            self.collection_point("interval", self.gather_roots((rec,)))
        return rec

    def record_use(self, rec: LifetimeRecord) -> int:
        if self._terminated:
            raise ProtocolViolation("event recorded after termination")
        if rec.address is None:
            raise DanglingRef(f"use of unregistered object #{rec.obj_id}")
        clock = self.clock = self.clock + 1
        rec.last_use_tick = clock
        return clock

    def flush_unmarked(self, marked, from_slots) -> list:
        """Drop every record whose id is not in marked (the ids a copy
        kept), in creation order, date each death and resolve every open
        point.  The dead are logged in point order, each point's in
        creation order, and those dead after the last point wait as one
        batch of ghosts.  from_slots is the space the dropped records'
        addresses point into, read to spread their stamps when they may
        have died at different points; then each dropped record's
        address becomes None.  Returns the dropped records, ghosts
        included."""
        if self._terminated:
            raise ProtocolViolation("flush after termination")
        live = self.heap.objects
        dead = [rec for obj_id, rec in live.items() if obj_id not in marked]
        # Every marked id must be in the table: |live - marked| is then
        # exactly |live| - |marked|.
        if len(live) - len(dead) != len(marked):
            raise DanglingRef("a marked object has no live record")
        # Every dead object was alive at the last resolved point, so it
        # died at the first open one or later.  If no stamp dates a death
        # past it, all died there.
        first = len(self.collections)
        if max(map(_stamp, dead), default=-1) // 2 < first:
            self._bury(first, dead)
        else:
            _spread_stamps(dead, from_slots)
            deaths = defaultdict(list)
            for rec in dead:
                deaths[max(first, rec.collect_tick // 2 + 1)].append(rec)
            for i in sorted(deaths):
                self._bury(i, deaths[i])
        for rec in dead:
            del live[rec.obj_id]
            rec.address = None
        for trigger, tick, created, created_slots, died, died_slots \
                in self._points:
            self._died += died
            self._died_slots += died_slots
            self.collections.append(CollectionStats(
                trigger, tick, created - self._died, died,
                created_slots - self._died_slots))
        self._points = []
        return dead

    def _bury(self, i: int, recs):
        """Records, in ascending id order, that died at point i: ticked
        and counted there if it is open, else a batch of ghosts."""
        size = sum(map(_size, recs))
        first = len(self.collections)
        if i == first + len(self._points):
            if recs:
                self._ghosts.append(recs)
                self.ghost_slots += size
            return
        point = self._points[i - first]
        tick = point[1]
        if max(map(_last_use, recs), default=NEVER_USED) > tick:
            rec = next(r for r in recs if r.last_use_tick > tick)
            raise DanglingRef(f"use of object #{rec.obj_id} at tick "
                              f"{rec.last_use_tick}, after it died at "
                              f"tick {tick}")
        point[4] += len(recs)
        point[5] += size
        self._log(recs, tick, False)

    def _log(self, recs, tick: int, censored: bool):
        """Write the records' OBJ lines, collected at tick, as one string;
        the records themselves are not kept.  The records are in
        ascending id order and tick is at least the last one logged, so
        only the rows of one tick can leave (collect tick, id) order:
        _unsorted marks a batch that comes below the last row."""
        if not recs:
            return
        last_tick, last_id = self._last_key
        if tick != last_tick:
            if tick < last_tick:
                raise AssertionError(f"rows collected at tick {tick} "
                                     f"logged after tick {last_tick}")
            self._seal()
            last_id = -1
        elif recs[0].obj_id < last_id:
            self._unsorted = True
        self._last_key = (tick, max(last_id, recs[-1].obj_id))
        self.lines.append(format_records(recs, tick, censored))
        self.logged += len(recs)

    def _seal(self):
        """Close the last tick: sort its lines if a batch broke their id
        order, then join each run of _SLAB single batches into a slab."""
        lines = self.lines
        if self._unsorted:
            lines[self._group:] = [sorted_lines("".join(lines[self._group:]))]
            self._unsorted = False
        start = self._slab
        while len(lines) - start >= _SLAB:
            lines[start:start + _SLAB] = ["".join(lines[start:start + _SLAB])]
            start += 1
        self._slab = start
        self._group = len(lines)

    def terminate(self) -> TraceLog:
        """Close the run: final clock step, one last collection over
        roots(), then log whatever survived it as censored and return
        the lines, in (collect tick, id) order, as the log.  Only the
        rows at end_tick can still need a sort (in a run with
        survivors, the last point's dead and the survivors after them).
        The heap's slots and object table are released, since every
        later event is a ProtocolViolation."""
        if self._terminated:
            raise ProtocolViolation("runtime already terminated")
        self.clock += 1
        end_tick = self.clock
        self.collect_now()
        self._terminated = True
        heap = self.heap
        self._log(list(heap.objects.values()), end_tick, True)
        self._seal()
        heap.slots, heap.standby, heap.objects = [], [], {}
        return TraceLog(self.gc_interval, heap.capacity_slots, self.source,
                        end_tick, lines=self.lines, record_count=self.logged)


_new = object.__new__
_no_roots = tuple
_stamp = attrgetter("collect_tick")
_size = attrgetter("size_slots")
_last_use = attrgetter("last_use_tick")


def _spread_stamps(dead, slots):
    """Give each dead record the largest stamp of any dead record that
    reaches it: take the stamps in descending order and spread each one
    depth-first through the dead records it reaches first."""
    unreached = set(dead)
    for rec in sorted(dead, key=_stamp, reverse=True):
        if rec not in unreached:
            continue
        unreached.remove(rec)
        stamp = rec.collect_tick
        stack = [rec]
        while stack:
            r = stack.pop()
            base = r.address
            for v in slots[base:base + r.size_slots]:
                if v in unreached:
                    unreached.remove(v)
                    v.collect_tick = stamp
                    stack.append(v)
