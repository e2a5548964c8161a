"""Mutator facade: allocation policy, GC triggering and run lifecycle.

A Runtime wires one Heap, one Profiler and one Collector together and
owns the trigger policy: a collection runs right after every
gc_interval-th allocation, and on demand when the active space cannot
satisfy a request (OutOfMemory if it still cannot afterwards).  Setting
gc_interval to 1 collects after every single allocation, the regime in
which drag measured from the log approximates the program-determined
part alone.

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
from .gc import CollectionStats, Collector
from .heap import NIL, PAIR, VECTOR, Heap, Ref, is_storable
from .profiler import Profiler, TraceLog

# Largest semispace a run may ask for: the two slot lists then take
# 2 x 8 bytes x 2**24 = 256 MiB before the first allocation.
MAX_HEAP_SLOTS = 2 ** 24


class Runtime:
    def __init__(self, heap_slots: int = DEFAULT_HEAP_SLOTS,
                 gc_interval: int = DEFAULT_GC_INTERVAL,
                 source_name: str = "<memory>", *,
                 _standby_capacity: int | None = None):
        if gc_interval < 1:
            raise ValueError("gc_interval must be at least 1")
        if heap_slots < 16:
            raise ValueError("heap_slots must be at least 16")
        if heap_slots > MAX_HEAP_SLOTS:
            raise ValueError(f"heap_slots must be at most {MAX_HEAP_SLOTS}")
        self.gc_interval = gc_interval
        self.heap = Heap(heap_slots, _standby_capacity=_standby_capacity)
        self.profiler = Profiler(self.heap.objects, gc_interval, heap_slots,
                                 source_name)
        self.collector = Collector(self.heap, self.profiler)
        self.on_collection = None  # if set: fn(stats, flushed records)
        self.root_providers = []
        self.collections: list[CollectionStats] = []
        self.total_allocations = 0
        self.allocs_since_gc = 0
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

    def collect_now(self, trigger: str = "manual") -> CollectionStats:
        before = len(self.profiler.finalized_records)
        stats = self.collector.collect(self.gather_roots(),
                                       self.profiler.clock, trigger)
        self.allocs_since_gc = 0
        self.collections.append(stats)
        if self.on_collection is not None:
            self.on_collection(stats,
                               self.profiler.finalized_records[before:])
        return stats

    def _ensure_space(self, n: int):
        if not self.heap.can_alloc(n):
            self.collect_now("exhaustion")
            if not self.heap.can_alloc(n):
                raise OutOfMemory(
                    f"need {n} slots, only {self.heap.free_slots} free "
                    f"after collection")

    def _finish_alloc(self, obj_id: int) -> Ref:
        self.profiler.record_creation(obj_id)
        self.total_allocations += 1
        self.allocs_since_gc += 1
        ref = Ref(obj_id)
        if self.allocs_since_gc >= self.gc_interval:
            # The fresh object is pinned through its own trigger.
            self._pins.append(ref)
            try:
                self.collect_now("interval")
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
        self.collect_now("manual")
        self._terminated = True
        return self.profiler.finalize(end_tick)
