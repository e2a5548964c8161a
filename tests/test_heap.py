import random

import pytest

from dragprof.errors import (
    DanglingRef,
    OutOfMemory,
    ToSpaceOverflow,
)
from dragprof.gc import Collector, canonical_serialization
from dragprof.heap import NIL, LifetimeRecord
from dragprof import runtime
from dragprof.runtime import MAX_HEAP_SLOTS, Runtime

from support import HeapDriver, Roots


def make_runtime(heap_slots=64, gc_interval=10 ** 9):
    return Runtime(heap_slots=heap_slots, gc_interval=gc_interval)


def test_oversized_heap_rejected_before_allocation(monkeypatch):
    monkeypatch.setattr(runtime, "Heap",
                        lambda *a, **k: pytest.fail("heap allocated"))
    with pytest.raises(ValueError, match="heap_slots must be at most"):
        Runtime(heap_slots=MAX_HEAP_SLOTS + 1)


def test_first_allocation_on_empty_heap():
    rt = make_runtime()
    ref = rt.alloc_pair(NIL, NIL)
    assert ref.obj_id == 0
    assert rt.heap.used_slots == 2


def test_an_allocation_returns_the_record_in_the_table():
    rt = make_runtime()
    assert rt.alloc_pair(1, 2) is rt.heap.objects[0]
    assert rt.alloc_vector(3) is rt.heap.objects[1]


def test_a_collected_record_is_unknown_to_uses_and_dangling_to_reads():
    rt = make_runtime()
    p = rt.alloc_pair(1, 2)
    rt.collect_now()  # nothing rooted
    assert p.address is None and p.obj_id not in rt.heap.objects
    with pytest.raises(DanglingRef, match="use of unregistered object #0"):
        rt.record_use(p)
    with pytest.raises(DanglingRef, match="collected object #0"):
        rt.collector.collect([p], rt.clock)


def test_eleventh_alloc_triggers_collection_and_succeeds():
    # 20 slots hold exactly 10 pairs; nothing is rooted, so the 11th
    # allocation exhausts the space, collects all 10, then succeeds.
    rt = make_runtime(heap_slots=20)
    for i in range(10):
        rt.alloc_pair(i, i)
    assert rt.heap.used_slots == 20
    ref = rt.alloc_pair(10, 10)
    assert [s.trigger for s in rt.collections] == ["exhaustion"]
    stats = rt.collections[0]
    assert stats.collected == 10
    assert stats.survivors == 0
    # the collection runs before the 11th creation advances the clock
    assert stats.tick == 10
    assert ref.create_tick == 11
    assert rt.heap.used_slots == 2


def test_pair_with_reference_slot():
    # a fresh pair whose car refers to another heap object
    rt = make_runtime()
    roots = Roots(rt)
    o2 = rt.alloc_pair(2, NIL)
    o1 = rt.alloc_pair(o2, NIL)
    roots.refs.append(o1)
    car = rt.heap.slot_value(o1.obj_id, 0)
    assert type(car) is LifetimeRecord
    assert car.obj_id == o2.obj_id


def test_alloc_vector_zero_length():
    rt = make_runtime()
    v = rt.alloc_vector(0, NIL)
    assert rt.heap.objects[v.obj_id].size_slots == 0
    assert rt.heap.used_slots == 0


def test_alloc_vector_fill():
    rt = make_runtime()
    v = rt.alloc_vector(3, 7)
    assert [rt.heap.slot_value(v.obj_id, i) for i in range(3)] == [7, 7, 7]


def test_sixth_vector_forces_collection():
    # five length-4 vectors fill a 20-slot space; the sixth collects
    rt = make_runtime(heap_slots=20)
    for _ in range(5):
        rt.alloc_vector(4, 0)
    assert rt.heap.used_slots == 20
    rt.alloc_vector(4, 0)
    assert [s.trigger for s in rt.collections] == ["exhaustion"]
    assert rt.collections[0].collected == 5


def test_out_of_memory_when_rooted():
    rt = make_runtime(heap_slots=16)
    roots = Roots(rt)
    for _ in range(8):
        roots.refs.append(rt.alloc_pair(1, 2))
    with pytest.raises(OutOfMemory):
        rt.alloc_pair(3, 4)


def test_write_then_read_roundtrip():
    rt = make_runtime()
    p = rt.alloc_pair(NIL, NIL)
    rt.heap.store(p.address, 1)
    assert rt.heap.slot_value(p.obj_id, 0) == 1


def test_dangling_ref_after_collection():
    rt = make_runtime()
    p = rt.alloc_pair(1, 2)
    rt.collect_now()  # nothing rooted
    with pytest.raises(DanglingRef):
        rt.collector.collect([p], rt.clock)


def test_read_after_move_preserves_values():
    rt = make_runtime()
    roots = Roots(rt)
    inner = rt.alloc_pair(1, 2)
    outer = rt.alloc_pair(inner, NIL)
    roots.refs.append(outer)
    before = canonical_serialization(rt.heap, roots.refs)
    old_addr = rt.heap.objects[outer.obj_id].address
    # garbage in front of the live objects forces them to move
    for _ in range(5):
        rt.alloc_pair(0, 0)
    rt.collect_now()
    assert rt.heap.objects[outer.obj_id].address != old_addr
    assert canonical_serialization(rt.heap, roots.refs) == before
    inner_now = rt.heap.slot_value(outer.obj_id, 0)
    assert rt.heap.slot_value(inner_now.obj_id, 0) == 1


def test_identity_stable_across_collections():
    rt = make_runtime()
    roots = Roots(rt)
    p = rt.alloc_pair(1, 2)
    roots.refs.append(p)
    addresses = set()
    for _ in range(4):
        # rooted in front of p, so p's copy target shifts every cycle
        roots.refs.insert(0, rt.alloc_pair(0, 0))
        rt.collect_now()
        assert p.obj_id in rt.heap.objects
        addresses.add(rt.heap.objects[p.obj_id].address)
    assert len(addresses) > 1  # it moved, identity stayed


def test_slot_accounting_invariant_random():
    # used_slots always equals the summed size of uncollected objects,
    # and the active slot list holds exactly that many slots
    rng = random.Random(20260810)
    rt = make_runtime(heap_slots=4096)
    driver = HeapDriver(rt, rng)
    for step in range(600):
        driver.step()
        if step % 97 == 0:
            rt.collect_now()
        expected = sum(m.size_slots for m in rt.heap.objects.values())
        assert rt.heap.used_slots == expected
        assert len(rt.heap.slots) == rt.heap.used_slots


def test_to_space_overflow_aborts():
    # the copy checks the heap's capacity, not the to-space list's length
    rt = Runtime(heap_slots=20, gc_interval=10 ** 9)
    roots = Roots(rt)
    for _ in range(3):
        roots.refs.append(rt.alloc_pair(1, 2))
    rt.heap.capacity_slots = 4
    with pytest.raises(ToSpaceOverflow):
        rt.collect_now()


def test_heap_standalone_semispace_roles():
    # the runtime allocates; a Collector of the heap's own then copies
    rt = make_runtime(heap_slots=32)
    heap = rt.heap
    assert heap.slots == heap.standby == [] and heap.capacity_slots == 32
    obj_id = rt.alloc_pair(1, 2).obj_id
    assert heap.used_slots == 2 and heap.allocated == 1
    assert len(heap.slots) == heap.used_slots
    assert heap.slot_value(obj_id, 0) == 1
    from_space, to_space = heap.slots, heap.standby
    collector = Collector(heap, lambda marked, from_slots: [])
    collector.collect([heap.objects[obj_id]], clock=0)
    assert heap.slots is to_space and heap.standby is from_space
    assert heap.used_slots == 2
    assert len(heap.slots) == heap.used_slots
    assert heap.slot_value(obj_id, 1) == 2


def test_a_large_heap_holds_no_slots_before_its_first_allocation():
    rt = Runtime(heap_slots=2 ** 20)
    assert rt.heap.slots == rt.heap.standby == []
    rt.alloc_vector(3, 7)
    assert rt.heap.slots == [7, 7, 7] and rt.heap.standby == []
