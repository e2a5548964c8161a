import random

import pytest

from dragprof.errors import DanglingRef
from dragprof.gc import canonical_serialization, reachability_oracle
from dragprof.heap import NIL
from dragprof.runtime import Runtime

from support import (
    HeapDriver,
    Roots,
    checked_collect,
    logged_rows,
    run_gc_correctness_session,
)


def make_runtime(heap_slots=2048):
    return Runtime(heap_slots=heap_slots, gc_interval=10 ** 9)


def test_empty_roots_collect_everything():
    rt = make_runtime()
    for i in range(5):
        rt.alloc_pair(i, i)
    clock = rt.clock
    stats = rt.collect_now()
    assert stats.survivors == 0
    assert stats.collected == 5
    assert stats.slots_copied == 0
    dead = logged_rows(rt)
    assert list(dead.obj_id) == [0, 1, 2, 3, 4]
    assert list(dead.collect_tick) == [clock] * 5


def test_memory_graph_roots_x_and_y_then_y_only():
    # x -> o1 -> o2 -> o3 -> ..., y -> o2: with both roots everything
    # survives; with y alone the head cell is collected.
    rt = make_runtime()
    roots = Roots(rt)
    o3 = rt.alloc_pair(3, NIL)
    o2 = rt.alloc_pair(2, o3)
    o1 = rt.alloc_pair(1, o2)
    x, y = o1, o2
    roots.refs[:] = [x, y]
    stats = rt.collect_now()
    assert stats.survivors == 3
    assert stats.collected == 0

    roots.refs[:] = [y]
    stats = rt.collect_now()
    assert stats.collected == 1
    assert set(rt.heap.objects) == {o2.obj_id, o3.obj_id}
    assert logged_rows(rt).obj_id == [o1.obj_id]


def test_oracle_empty_roots():
    rt = make_runtime()
    rt.alloc_pair(1, 2)
    assert reachability_oracle(rt.heap, []) == set()


def test_oracle_self_cycle_terminates():
    rt = make_runtime()
    p = rt.alloc_pair(NIL, NIL)
    rt.heap.store(p.address, p)
    assert reachability_oracle(rt.heap, [p]) == {p.obj_id}


def test_oracle_chain():
    rt = make_runtime()
    head = NIL
    ids = []
    for i in range(50):
        head = rt.alloc_pair(i, head)
        ids.append(head.obj_id)
    assert reachability_oracle(rt.heap, [head]) == set(ids)


def test_random_heap_survivors_match_oracle():
    # ~100 pairs with random interlinks; roots chosen to reach a subset
    rng = random.Random(99)
    rt = make_runtime()
    roots = Roots(rt)
    refs = []
    for i in range(100):
        car = rng.choice(refs) if refs and rng.random() < 0.5 else i
        cdr = rng.choice(refs) if refs and rng.random() < 0.5 else NIL
        refs.append(rt.alloc_pair(car, cdr))
    roots.refs[:] = rng.sample(refs, 8)
    expected = reachability_oracle(rt.heap, roots.refs)
    assert 0 < len(expected) < 100
    rt.collect_now()
    assert set(rt.heap.objects) == expected


def test_cycles_survive_and_serialize_identically():
    rt = make_runtime()
    roots = Roots(rt)
    a = rt.alloc_pair(1, NIL)
    b = rt.alloc_pair(2, a)
    rt.heap.store(a.address + 1, b)  # a <-> b cycle
    roots.refs.append(a)
    before = canonical_serialization(rt.heap, roots.refs)
    assert "@" in before  # the back-reference marker
    checked_collect(rt)
    assert canonical_serialization(rt.heap, roots.refs) == before


def test_serialization_is_order_sensitive_but_stable():
    rt = make_runtime()
    a = rt.alloc_pair(1, NIL)
    b = rt.alloc_pair(2, NIL)
    s1 = canonical_serialization(rt.heap, [a, b])
    s2 = canonical_serialization(rt.heap, [a, b])
    assert s1 == s2
    assert canonical_serialization(rt.heap, [b, a]) != s1


def test_oracle_on_dangling_root_raises():
    rt = make_runtime()
    p = rt.alloc_pair(1, 2)
    rt.collect_now()
    with pytest.raises(DanglingRef):
        reachability_oracle(rt.heap, [p])


def test_forwarding_markers_left_in_from_space():
    rt = make_runtime()
    roots = Roots(rt)
    p = rt.alloc_pair(1, 2)
    roots.refs.append(p)
    from_space = rt.heap.slots
    rt.collect_now()
    # the evacuated cell's first slot was overwritten with a marker
    assert type(from_space[0]).__name__ == "Forward"


def test_slot_ref_kept_across_copy():
    # a slot holds its target's record: the same object after the
    # target moved, and still resolves to that target.
    rt = make_runtime()
    roots = Roots(rt)
    inner = rt.alloc_pair(7, NIL)
    outer = rt.alloc_pair(inner, NIL)
    roots.refs[:] = [outer]
    stored = rt.heap.slot_value(outer.obj_id, 0)
    old_addr = rt.heap.objects[inner.obj_id].address
    rt.collect_now()  # outer is copied first, so inner moves behind it
    assert rt.heap.objects[inner.obj_id].address != old_addr
    assert rt.heap.slot_value(outer.obj_id, 0) is stored
    assert rt.heap.slot_value(stored.obj_id, 0) == 7


def test_a_slot_holds_the_record_in_the_table():
    rt = make_runtime()
    roots = Roots(rt)
    for _ in range(3):  # garbage in front, so the copy moves both
        rt.alloc_pair(0, 0)
    inner = rt.alloc_pair(7, NIL)
    outer = rt.alloc_pair(inner, NIL)
    roots.refs[:] = [outer]
    heap = rt.heap
    assert heap.slot_value(outer.obj_id, 0) is heap.objects[inner.obj_id]
    rt.collect_now()
    assert heap.objects[inner.obj_id].address == 2
    assert heap.slot_value(outer.obj_id, 0) is heap.objects[inner.obj_id]
    assert heap.objects[inner.obj_id] is inner


def test_randomized_sessions_oracle_equivalence():
    # a smaller in-module version of the acceptance suite
    for seed in range(40):
        run_gc_correctness_session(seed, objects_budget=80)


def test_monotone_flush_ids_never_reappear():
    rng = random.Random(7)
    rt = make_runtime(heap_slots=4096)
    driver = HeapDriver(rt, rng)
    seen = set()
    for step in range(400):
        driver.step()
        if step % 60 == 0:
            before = len(logged_rows(rt).obj_id)
            rt.collect_now()
            for obj_id in logged_rows(rt).obj_id[before:]:
                assert obj_id not in seen
                seen.add(obj_id)
                assert obj_id not in rt.heap.objects
