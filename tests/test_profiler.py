import random

import pytest

from dragprof.errors import (
    DraglogFormatError,
    ProtocolViolation,
    UnknownId,
)
from dragprof.heap import NIL, PAIR, VECTOR, Ref
from dragprof.profiler import (
    CollectionStats,
    format_draglog,
    parse_draglog,
)
from dragprof.runtime import Runtime


def make_runtime(gc_interval=10 ** 9, heap_slots=256, source="test"):
    """A runtime whose points the test opens and resolves by hand."""
    return Runtime(heap_slots=heap_slots, gc_interval=gc_interval,
                   source_name=source)


def flush(rt, marked):
    """A manual collection point at the current tick that keeps marked."""
    rt.open_point("manual")
    return rt.flush_unmarked(marked, rt.heap.slots)


def create(rt, kind=PAIR, size=2):
    """Allocate an object; returns its id."""
    ref = rt.alloc_pair(NIL, NIL) if kind == PAIR else rt.alloc_vector(size)
    return ref.obj_id


def test_first_creation_tick_is_one():
    rt = make_runtime()
    rec = rt.heap.record(rt.alloc_pair(NIL, NIL))
    assert rt.clock == rec.create_tick == 1
    assert rec.last_use_tick is None


def test_creations_strictly_increasing():
    rt = make_runtime()
    first, second = create(rt), create(rt)
    objects = rt.heap.objects
    assert objects[first].create_tick < objects[second].create_tick


def test_use_most_recent_wins():
    rt = make_runtime()
    ref = Ref(create(rt))
    first = rt.record_use(ref)
    second = rt.record_use(ref)
    assert rt.heap.record(ref).last_use_tick == second > first


def test_use_of_unknown_id():
    rt = make_runtime()
    with pytest.raises(UnknownId):
        rt.record_use(Ref(7))


def test_never_used_survives_to_the_log_as_sentinel():
    rt = make_runtime()
    create(rt)
    log = rt.terminate()
    assert log.records[0].last_use_tick is None
    assert " -1 " in format_draglog(log).splitlines()[1]


def test_flush_rejects_unrecorded_mark_and_closed_run():
    rt = make_runtime()
    create(rt)
    with pytest.raises(UnknownId):
        flush(rt, {0, 7})
    rt.terminate()
    with pytest.raises(ProtocolViolation):
        flush(rt, set())


def test_flush_with_none_marked_collects_everything():
    rt = make_runtime()
    for _ in range(5):
        create(rt)
    flushed = flush(rt, set())
    assert [r.obj_id for r in flushed] == list(range(5))  # creation order
    assert all(r.collect_tick == 5 and not r.censored for r in flushed)
    assert rt.heap.objects == {}


def test_mark_all_then_flush_is_empty():
    rt = make_runtime()
    for _ in range(5):
        create(rt)
    assert flush(rt, set(range(5))) == []
    assert len(rt.heap.objects) == 5


def test_flush_returns_exactly_the_unmarked():
    # oracle: plain set difference over a random marked subset
    rng = random.Random(12)
    rt = make_runtime()
    ids = [create(rt) for _ in range(100)]
    marked = set(rng.sample(ids, 40))
    flushed = [r.obj_id for r in flush(rt, marked)]
    assert set(flushed) == set(ids) - marked
    assert len(flushed) == 60
    assert flushed == sorted(flushed)  # creation order
    assert set(rt.heap.objects) == marked


def test_point_stamps_the_heap_and_its_roots():
    rt = make_runtime()
    heap = rt.heap
    root, other = create(rt), create(rt)
    assert heap.stamp == -1
    rt.open_point("interval", [Ref(root)])
    assert heap.stamp == 1
    assert heap.objects[root].collect_tick == 0
    assert heap.objects[other].collect_tick == -1  # unreached: died here
    assert heap.objects[create(rt)].collect_tick == 1


def test_use_after_a_dated_death_is_unknown_id():
    # the object is unreached at the first point, used after it, and a
    # later copy dates its death to that point
    rt = make_runtime()
    obj_id = create(rt)
    rt.open_point("interval")
    rt.record_use(Ref(obj_id))
    with pytest.raises(UnknownId, match="after it died at tick 1"):
        flush(rt, set())


def test_dead_stamped_before_the_first_open_point_die_there():
    # no stamp dates a death past the first open point, so every dead
    # record is buried at it, not at a later one
    rt = make_runtime()
    for _ in range(2):
        create(rt)
    rt.open_point("interval")  # reaches neither
    kept = create(rt)
    rt.open_point("interval", [Ref(kept)])
    flushed = rt.flush_unmarked({kept}, rt.heap.slots)
    assert [r.collect_tick for r in flushed] == [2, 2]
    assert rt.collections == [CollectionStats("interval", 2, 0, 2, 0),
                              CollectionStats("interval", 3, 1, 0, 2)]


def test_dead_stamped_after_the_last_point_is_a_ghost():
    # a copy between points: the record created after the last point
    # died after it, so its slots are freed now and it is counted and
    # ticked at the next point
    rt = make_runtime()
    dead, kept = create(rt), create(rt)
    rt.open_point("interval", [Ref(kept)])
    ghost = create(rt)
    flushed = rt.flush_unmarked({kept}, rt.heap.slots)
    assert [r.obj_id for r in flushed] == [dead, ghost]
    assert flushed[0].collect_tick == 2
    assert rt.collections == [CollectionStats("interval", 2, 1, 1, 2)]
    assert rt.ghost_slots == 2 and ghost not in rt.heap.objects
    rt.open_point("exhaustion", [Ref(kept)])
    assert rt.ghost_slots == 0 and flushed[1].collect_tick == 3
    rt.flush_unmarked({kept}, rt.heap.slots)
    assert rt.collections[1] == CollectionStats("exhaustion", 3, 1, 1, 2)


def test_finalize_censors_remaining_and_sorts():
    rt = make_runtime()
    for i in range(4):
        create(rt, PAIR if i % 2 else VECTOR)
    rt.add_root_provider(lambda: [Ref(1), Ref(3)])
    flush(rt, {1, 3})  # collects 0 and 2 at tick 4
    log = rt.terminate()
    assert [r.obj_id for r in log.records] == [0, 2, 1, 3]
    assert [r.censored for r in log.records] == [False, False, True, True]
    # exactly-once: every creation appears once, as collected or censored
    assert len(log.records) == 4
    keys = [(r.collect_tick, r.obj_id) for r in log.records]
    assert keys == sorted(keys)
    assert all(r.collect_tick <= log.end_tick for r in log.records)


def test_refinalize_is_a_protocol_violation():
    rt = make_runtime()
    rt.terminate()
    with pytest.raises(ProtocolViolation):
        rt.terminate()


def test_events_after_finalize_rejected():
    rt = make_runtime()
    rt.terminate()
    with pytest.raises(ProtocolViolation):
        rt.alloc_pair(NIL, NIL)


def test_every_step_after_terminate_is_a_protocol_violation():
    rt = make_runtime()
    ref = rt.alloc_pair(NIL, NIL)
    rt.add_root_provider(lambda: [ref])
    rt.terminate()
    for step in (lambda: rt.alloc_pair(NIL, NIL),
                 lambda: rt.record_use(ref),
                 lambda: rt.flush_unmarked({ref.obj_id}, rt.heap.slots),
                 rt.terminate):
        with pytest.raises(ProtocolViolation):
            step()


def test_draglog_roundtrip():
    rt = make_runtime(gc_interval=4, heap_slots=128, source="roundtrip.scm")
    for kind, size in ((VECTOR, 5), (PAIR, 2), (PAIR, 2)):
        create(rt, kind, size)
    rt.record_use(Ref(1))
    rt.add_root_provider(lambda: [Ref(2)])
    flush(rt, {2})
    log = rt.terminate()
    parsed = parse_draglog(format_draglog(log))
    assert parsed.gc_interval == 4
    assert parsed.heap_slots == 128
    assert parsed.source == "roundtrip.scm"
    assert parsed.end_tick == log.end_tick
    # the address is heap state and is not serialized
    serialized_fields = [
        (r.obj_id, r.kind, r.size_slots, r.create_tick, r.last_use_tick,
         r.collect_tick, r.censored)
        for r in log.records]
    parsed_fields = [
        (r.obj_id, r.kind, r.size_slots, r.create_tick, r.last_use_tick,
         r.collect_tick, r.censored)
        for r in parsed.records]
    assert parsed_fields == serialized_fields


@pytest.mark.parametrize("mutate, bad_line", [
    (lambda lines: lines[:-1], 3),                      # truncated: no END
    (lambda lines: ["BOGUS"] + lines[1:], 1),           # bad header
    (lambda lines: [lines[0], "OBJ x P 2 1 -1 2 F", lines[-1]], 2),
    (lambda lines: [lines[0], "OBJ 0 Q 2 1 -1 2 F", lines[-1]], 2),
    (lambda lines: [lines[0], "OBJ 0 P 2 1 -1 2 Z", lines[-1]], 2),
    (lambda lines: [lines[0], "junk", lines[-1]], 2),
    (lambda lines: lines + ["END 9"], 4),               # duplicate END
    (lambda lines: lines + ["OBJ 1 P 2 1 -1 2 F"], 4),  # record after END
    # Semantic checks.  The base log is one record collected at tick 1:
    # "OBJ 0 P 2 1 -1 1 F" and "END 2".
    pytest.param(lambda lines: lines[:2] + lines[1:], 3, id="duplicate-id"),
    pytest.param(lambda lines: [lines[0], "OBJ 0 P 2 2 -1 1 F", lines[-1]],
                 2, id="collect-before-create"),
    pytest.param(lambda lines: [lines[0], "OBJ 0 P 2 1 2 1 F", lines[-1]],
                 2, id="use-after-collect"),
    pytest.param(lambda lines: [lines[0], "OBJ 0 P 2 1 -1 3 F", lines[-1]],
                 2, id="collect-after-end"),
    pytest.param(lambda lines: [lines[0], "OBJ 0 P 2 -3 -2 1 F", lines[-1]],
                 2, id="negative-create"),
    pytest.param(lambda lines: [lines[0], "OBJ 1 P 2 1 -1 2 F", lines[1],
                                lines[-1]], 3, id="unsorted"),
    pytest.param(lambda lines: [lines[0], "OBJ 0 P 2 1 -1 1 C", lines[-1]],
                 2, id="censored-before-end"),
    pytest.param(lambda lines: [lines[0].replace("gc_interval=1",
                                                 "gc_interval=-1")]
                 + lines[1:], 1, id="negative-gc-interval"),
    pytest.param(lambda lines: [lines[0].replace("gc_interval=1",
                                                 "gc_interval=0")]
                 + lines[1:], 1, id="zero-gc-interval"),
    pytest.param(lambda lines: [lines[0].replace("heap_slots=256",
                                                 "heap_slots=-5")]
                 + lines[1:], 1, id="negative-heap-slots"),
    pytest.param(lambda lines: [lines[0], "OBJ 0 P -2 1 -1 1 F", lines[-1]],
                 2, id="pair-of-size-minus-2"),
    pytest.param(lambda lines: [lines[0], "OBJ 0 V -1 1 -1 1 F", lines[-1]],
                 2, id="vector-of-size-minus-1"),
    # Spellings int() accepts but format_draglog never writes.
    pytest.param(lambda lines: [lines[0].replace("gc_interval=1",
                                                 "gc_interval=1_6")]
                 + lines[1:], 1, id="underscore-in-gc-interval"),
    pytest.param(lambda lines: [lines[0].replace("heap_slots=256",
                                                 "heap_slots=+256")]
                 + lines[1:], 1, id="plus-in-heap-slots"),
    pytest.param(lambda lines: [lines[0], "OBJ 0 P 2 1 -1 \u0661 F",
                                lines[-1]], 2, id="non-ascii-digit"),
    pytest.param(lambda lines: [lines[0], "OBJ 0 P +2 1 -1 1 F", lines[-1]],
                 2, id="plus-in-size"),
    pytest.param(lambda lines: [lines[0], "OBJ 0_0 P 2 1 -1 1 F",
                                lines[-1]], 2, id="underscore-in-id"),
    pytest.param(lambda lines: [lines[0], "OBJ 0 P 2 1\t -1 1 F",
                                lines[-1]], 2, id="tab-in-create"),
    pytest.param(lambda lines: lines[:2] + ["END 0_2"], 3,
                 id="underscore-in-end"),
    pytest.param(lambda lines: lines[:2] + ["END 2\x0c"], 3,
                 id="form-feed-in-end"),
])
def test_draglog_malformed_reports_line(mutate, bad_line):
    rt = make_runtime(gc_interval=1)
    create(rt)
    flush(rt, set())
    lines = format_draglog(rt.terminate()).splitlines()
    text = "\n".join(mutate(lines)) + "\n"
    with pytest.raises(DraglogFormatError) as err:
        parse_draglog(text)
    assert err.value.line_no == bad_line


def test_parse_empty_file():
    with pytest.raises(DraglogFormatError):
        parse_draglog("")
