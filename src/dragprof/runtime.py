"""Mutator facade: allocation policy, GC triggering and run lifecycle.

A Runtime wires one Heap, one Profiler and one Collector together and
owns the trigger policy.  Collection points are where the log says a
collection ran: right after every gc_interval-th allocation (the fresh
object pinned), before an allocation the heap could not hold had every
point collected (an exhaustion point; OutOfMemory if it still cannot
after it), and on demand (a manual point).  Setting gc_interval to 1
makes every allocation a point, the regime in which drag measured from
the log approximates the program-determined part alone.

Only collection_point() opens a point, and every point stamps its roots
(see heap.py).  A point need not copy: the Cheney copy (gc.py) runs at a
manual point, at a point where the heap has doubled since the last copy
kept its slots (Appel, "Simple generational garbage collection and fast
allocation", SP&E 1989), and before an allocation when free_slots minus
the ghosts' slots is short of it.  The ghosts are the objects that such
a copy between points found dead after the last point: a heap that had
collected at every point would still hold them, so they count as used
until the next point.  That allocation is an exhaustion point if it is
still short after the copy.  Each copy dates the deaths of everything it
did not copy and resolves every open point (a point over an empty heap
resolves them without a copy), so a run's log and
CollectionStats are those of a copy at every point, while the copying
costs a constant per allocated slot.

Root enumeration is pluggable: clients register providers yielding Refs
(the interpreter walks its environments; test drivers expose plain
lists).  Values handed to an allocation in progress are pinned
internally so a collection triggered by that very allocation cannot
reclaim them.
"""

from .defaults import DEFAULT_GC_INTERVAL, DEFAULT_HEAP_SLOTS
from .errors import (
    NegativeLength,
    OutOfMemory,
    ProtocolViolation,
    UnstorableValue,
)
from .gc import Collector
from .heap import NIL, PAIR, VECTOR, Heap, Ref, is_storable
from .profiler import CollectionStats, Profiler, TraceLog

# Largest semispace a run may ask for: the two slot lists then take
# 2 x 8 bytes x 2**24 = 256 MiB before the first allocation.
MAX_HEAP_SLOTS = 2 ** 24


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
        self.heap = Heap(heap_slots)
        self.profiler = Profiler(self.heap, gc_interval, source_name)
        self.collector = Collector(self.heap, self.profiler)
        self.root_providers = []
        # the resolved points' stats, in order
        self.collections: list[CollectionStats] = self.profiler.collections
        self.allocs_since_gc = 0
        self._kept_slots = 0  # slots the last copy kept
        self._pins = []
        self._terminated = False

    def add_root_provider(self, provider):
        """Register a callable returning an iterable of live Refs."""
        self.root_providers.append(provider)

    def gather_roots(self) -> list[Ref]:
        seen = set()
        roots = []
        for provider in self.root_providers:
            for ref in provider():
                if ref.obj_id not in seen:
                    seen.add(ref.obj_id)
                    roots.append(ref)
        for v in self._pins:
            if type(v) is Ref and v.obj_id not in seen:
                seen.add(v.obj_id)
                roots.append(v)
        return roots

    def collect_now(self) -> CollectionStats:
        """A manual collection point; it copies, so its stats are final."""
        self.collection_point("manual", self.gather_roots())
        return self.collections[-1]

    def collection_point(self, trigger: str, roots: list[Ref]):
        """Open the next collection point over these roots; copy if it
        is manual or the heap has doubled since the last copy.  Over an
        empty heap there is nothing to copy: resolve the open points."""
        profiler, heap = self.profiler, self.heap
        profiler.open_point(trigger, profiler.clock, roots)
        if not heap.objects and trigger != "manual":
            profiler.flush_unmarked((), heap.slots)
        elif trigger == "manual" or heap.used_slots >= 2 * self._kept_slots:
            self._copy(roots, trigger)
        self.allocs_since_gc = 0

    def _copy(self, roots, trigger):
        self._kept_slots = self.collector.collect(
            roots, self.profiler.clock, trigger).slots_copied

    def _ensure_space(self, n: int):
        heap, profiler = self.heap, self.profiler
        if heap.free_slots < n + profiler.ghost_slots:
            roots = self.gather_roots()
            self._copy(roots, "exhaustion")
            if heap.free_slots < n + profiler.ghost_slots:
                self.collection_point("exhaustion", roots)
                if heap.free_slots < n:
                    raise OutOfMemory(
                        f"need {n} slots, only {heap.free_slots} free "
                        f"after collection")

    def _finish_alloc(self, obj_id: int) -> Ref:
        self.profiler.record_creation(obj_id)
        self.allocs_since_gc += 1
        ref = Ref(obj_id)
        if self.allocs_since_gc >= self.gc_interval:
            # The fresh object is pinned through its own trigger.
            self._pins.append(ref)
            try:
                self.collection_point("interval", self.gather_roots())
            finally:
                self._pins.pop()
        return ref

    def alloc_pair(self, car, cdr) -> Ref:
        if not is_storable(car) or not is_storable(cdr):
            raise UnstorableValue("pair slots must hold values")
        self._pins.append(car)
        self._pins.append(cdr)
        try:
            self._ensure_space(2)
            obj_id = self.heap.alloc_raw(PAIR, 2, (car, cdr))
        finally:
            self._pins.pop()
            self._pins.pop()
        return self._finish_alloc(obj_id)

    def alloc_vector(self, length: int, fill=NIL) -> Ref:
        if length < 0:
            raise NegativeLength(f"vector length {length}")
        if not is_storable(fill):
            raise UnstorableValue("vector slots must hold values")
        self._pins.append(fill)
        try:
            self._ensure_space(length)
            obj_id = self.heap.alloc_raw(VECTOR, length, [fill] * length)
        finally:
            self._pins.pop()
        return self._finish_alloc(obj_id)

    def record_use(self, ref: Ref) -> int:
        return self.profiler.record_use(ref.obj_id)

    def terminate(self) -> TraceLog:
        """Close the run: final clock step, one last collection with the
        registered roots, then censor whatever survived it."""
        if self._terminated:
            raise ProtocolViolation("runtime already terminated")
        end_tick = self.profiler.termination_tick()
        self.collect_now()
        self._terminated = True
        return self.profiler.finalize(end_tick)
