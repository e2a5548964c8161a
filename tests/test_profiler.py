import random

import pytest

from dragprof.errors import (
    DraglogFormatError,
    DuplicateId,
    ProtocolViolation,
    UnknownId,
)
from dragprof.heap import NIL, PAIR, VECTOR, Heap, Ref
from dragprof.profiler import (
    CollectionStats,
    Profiler,
    format_draglog,
    parse_draglog,
)


def make_profiler(gc_interval=1, heap_slots=256, source="test"):
    """A profiler over the object table of a fresh heap."""
    heap = Heap(heap_slots)
    return heap, Profiler(heap, gc_interval, source)


def flush(heap, prof, marked):
    """A manual collection point at the current tick that keeps marked."""
    prof.open_point("manual", prof.clock)
    return prof.flush_unmarked(marked, heap.slots)


def create(heap, prof, kind=PAIR, size=2):
    """Allocate an object and record its creation; returns its id."""
    obj_id = heap.alloc_raw(kind, size, [NIL] * size)
    prof.record_creation(obj_id)
    return obj_id


def test_first_creation_tick_is_one():
    heap, prof = make_profiler()
    obj_id = heap.alloc_raw(PAIR, 2, (NIL, NIL))
    assert prof.record_creation(obj_id) == 1
    assert prof.record(obj_id).create_tick == 1
    assert prof.record(obj_id).last_use_tick is None


def test_creations_strictly_increasing():
    heap, prof = make_profiler()
    t1 = prof.record_creation(heap.alloc_raw(PAIR, 2, (NIL, NIL)))
    t2 = prof.record_creation(heap.alloc_raw(PAIR, 2, (NIL, NIL)))
    assert t1 < t2


def test_duplicate_id_rejected():
    heap, prof = make_profiler()
    obj_id = create(heap, prof)
    with pytest.raises(DuplicateId):
        prof.record_creation(obj_id)


def test_use_most_recent_wins():
    heap, prof = make_profiler()
    obj_id = create(heap, prof)
    first = prof.record_use(obj_id)
    second = prof.record_use(obj_id)
    assert prof.record(obj_id).last_use_tick == second > first


def test_use_of_unknown_id():
    _, prof = make_profiler()
    with pytest.raises(UnknownId):
        prof.record_use(7)


def test_never_used_survives_to_the_log_as_sentinel():
    heap, prof = make_profiler()
    create(heap, prof)
    log = prof.finalize(prof.termination_tick())
    assert log.records[0].last_use_tick is None
    assert " -1 " in format_draglog(log).splitlines()[1]


def test_flush_rejects_unrecorded_mark_and_closed_run():
    heap, prof = make_profiler()
    create(heap, prof)
    with pytest.raises(UnknownId):
        flush(heap, prof, {0, 7})
    prof.finalize(prof.termination_tick())
    with pytest.raises(ProtocolViolation):
        flush(heap, prof, set())


def test_flush_with_none_marked_collects_everything():
    heap, prof = make_profiler()
    for _ in range(5):
        create(heap, prof)
    flushed = flush(heap, prof, set())
    assert [r.obj_id for r in flushed] == list(range(5))  # creation order
    assert all(r.collect_tick == 5 and not r.censored for r in flushed)
    assert prof.live_count == 0
    assert heap.objects == {}  # the heap's table is the profiler's


def test_mark_all_then_flush_is_empty():
    heap, prof = make_profiler()
    for _ in range(5):
        create(heap, prof)
    assert flush(heap, prof, set(range(5))) == []
    assert prof.live_count == 5


def test_flush_returns_exactly_the_unmarked():
    # oracle: plain set difference over a random marked subset
    rng = random.Random(12)
    heap, prof = make_profiler()
    ids = [create(heap, prof) for _ in range(100)]
    marked = set(rng.sample(ids, 40))
    flushed = [r.obj_id for r in flush(heap, prof, marked)]
    assert set(flushed) == set(ids) - marked
    assert len(flushed) == 60
    assert flushed == sorted(flushed)  # creation order
    assert set(heap.objects) == marked


def test_point_stamps_the_heap_and_its_roots():
    heap, prof = make_profiler()
    root, other = create(heap, prof), create(heap, prof)
    assert heap.stamp == -1
    prof.open_point("interval", prof.clock, [Ref(root)])
    assert heap.stamp == 1
    assert prof.record(root).collect_tick == 0
    assert prof.record(other).collect_tick == -1  # unreached: died here
    assert heap.objects[create(heap, prof)].collect_tick == 1


def test_use_after_a_dated_death_is_unknown_id():
    # the object is unreached at the first point, used after it, and a
    # later copy dates its death to that point
    heap, prof = make_profiler()
    obj_id = create(heap, prof)
    prof.open_point("interval", prof.clock)
    prof.record_use(obj_id)
    with pytest.raises(UnknownId, match="after it died at tick 1"):
        flush(heap, prof, set())


def test_dead_stamped_before_the_first_open_point_die_there():
    # no stamp dates a death past the first open point, so every dead
    # record is buried at it, not at a later one
    heap, prof = make_profiler()
    for _ in range(2):
        create(heap, prof)
    prof.open_point("interval", prof.clock)  # reaches neither
    kept = create(heap, prof)
    prof.open_point("interval", prof.clock, [Ref(kept)])
    flushed = prof.flush_unmarked({kept}, heap.slots)
    assert [r.collect_tick for r in flushed] == [2, 2]
    assert prof.collections == [CollectionStats("interval", 2, 0, 2, 0),
                                CollectionStats("interval", 3, 1, 0, 2)]


def test_dead_stamped_after_the_last_point_is_a_ghost():
    # a copy between points: the record created after the last point
    # died after it, so its slots are freed now and it is counted and
    # ticked at the next point
    heap, prof = make_profiler()
    dead, kept = create(heap, prof), create(heap, prof)
    prof.open_point("interval", prof.clock, [Ref(kept)])
    ghost = create(heap, prof)
    flushed = prof.flush_unmarked({kept}, heap.slots)
    assert [r.obj_id for r in flushed] == [dead, ghost]
    assert flushed[0].collect_tick == 2
    assert prof.collections == [CollectionStats("interval", 2, 1, 1, 2)]
    assert prof.ghost_slots == 2 and ghost not in heap.objects
    prof.open_point("exhaustion", prof.clock, [Ref(kept)])
    assert prof.ghost_slots == 0 and flushed[1].collect_tick == 3
    prof.flush_unmarked({kept}, heap.slots)
    assert prof.collections[1] == CollectionStats("exhaustion", 3, 1, 1, 2)


def test_finalize_censors_remaining_and_sorts():
    heap, prof = make_profiler()
    for i in range(4):
        create(heap, prof, PAIR if i % 2 else VECTOR)
    flush(heap, prof, {1, 3})  # collects 0 and 2 at tick 4
    log = prof.finalize(prof.termination_tick())
    assert [r.obj_id for r in log.records] == [0, 2, 1, 3]
    assert [r.censored for r in log.records] == [False, False, True, True]
    # exactly-once: every creation appears once, as collected or censored
    assert len(log.records) == 4
    keys = [(r.collect_tick, r.obj_id) for r in log.records]
    assert keys == sorted(keys)
    assert all(r.collect_tick <= log.end_tick for r in log.records)


def test_refinalize_is_a_protocol_violation():
    _, prof = make_profiler()
    end = prof.termination_tick()
    prof.finalize(end)
    with pytest.raises(ProtocolViolation):
        prof.finalize(end)


def test_events_after_finalize_rejected():
    heap, prof = make_profiler()
    prof.finalize(prof.termination_tick())
    with pytest.raises(ProtocolViolation):
        prof.record_creation(heap.alloc_raw(PAIR, 2, (NIL, NIL)))


def test_draglog_roundtrip():
    heap, prof = make_profiler(gc_interval=4, heap_slots=128,
                               source="roundtrip.scm")
    for kind, size in ((VECTOR, 5), (PAIR, 2), (PAIR, 2)):
        create(heap, prof, kind, size)
    prof.record_use(1)
    flush(heap, prof, {2})
    log = prof.finalize(prof.termination_tick())
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
])
def test_draglog_malformed_reports_line(mutate, bad_line):
    heap, prof = make_profiler()
    create(heap, prof)
    flush(heap, prof, set())
    lines = format_draglog(prof.finalize(prof.termination_tick())) \
        .splitlines()
    text = "\n".join(mutate(lines)) + "\n"
    with pytest.raises(DraglogFormatError) as err:
        parse_draglog(text)
    assert err.value.line_no == bad_line


def test_parse_empty_file():
    with pytest.raises(DraglogFormatError):
        parse_draglog("")
