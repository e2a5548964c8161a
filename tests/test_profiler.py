import gc
import random
import tracemalloc

import pytest
from hypothesis import given, settings

import dragprof
from dragprof import analyzer, atomic, profiler, runtime
from dragprof.errors import (
    DanglingRef,
    DraglogFormatError,
    ProtocolViolation,
)
from dragprof.heap import NEVER_USED, NIL, PAIR, VECTOR, LifetimeRecord
from dragprof.interp import Interpreter, parse, run_source
from dragprof.profiler import (
    CollectionStats,
    Columns,
    draglog_end,
    draglog_header,
    format_draglog,
    parse_draglog,
)
from dragprof.runtime import Runtime
from support import (
    counted_sorts,
    in_key_order,
    log_text,
    logged_rows,
    make_log,
    nullified_source,
    read_back,
    trace_logs,
)


def make_runtime(gc_interval=10 ** 9, heap_slots=256, source="test",
                 write=None):
    """A runtime whose points the test opens and resolves by hand."""
    return Runtime(heap_slots=heap_slots, gc_interval=gc_interval,
                   source_name=source, write=write)


def logged_keys(rt):
    """The ids and the collect ticks of the rows rt has logged."""
    rows = logged_rows(rt)
    return rows.obj_id, rows.collect_tick


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
    rec = rt.alloc_pair(NIL, NIL)
    assert rt.clock == rec.create_tick == 1
    assert rec.last_use_tick == NEVER_USED


def test_creations_strictly_increasing():
    rt = make_runtime()
    first, second = create(rt), create(rt)
    objects = rt.heap.objects
    assert objects[first].create_tick < objects[second].create_tick


def test_use_most_recent_wins():
    rt = make_runtime()
    ref = rt.heap.objects[create(rt)]
    first = rt.record_use(ref)
    second = rt.record_use(ref)
    assert ref.last_use_tick == second > first


def test_use_of_unknown_id():
    rt = make_runtime()
    with pytest.raises(DanglingRef):
        # not in the table
        rt.record_use(LifetimeRecord(7, PAIR, 2, 0, NEVER_USED, -1, None))


def test_never_used_survives_to_the_log_as_sentinel():
    rt = make_runtime()
    create(rt)
    log = rt.terminate()
    [rec] = read_back(log).records
    assert rec.last_use_tick == NEVER_USED
    assert " -1 " in format_draglog(log).splitlines()[1]


def test_flush_rejects_unrecorded_mark_and_closed_run():
    rt = make_runtime()
    create(rt)
    with pytest.raises(DanglingRef):
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
    rows = logged_rows(rt)
    assert rows.obj_id == list(range(5))
    assert rows.collect_tick == [5] * 5
    assert rows.censored == [False] * 5
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
    rt.open_point("interval", [heap.objects[root]])
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
    rt.record_use(rt.heap.objects[obj_id])
    with pytest.raises(DanglingRef, match="after it died at tick 1"):
        flush(rt, set())


def test_dead_stamped_before_the_first_open_point_die_there():
    # no stamp dates a death past the first open point, so every dead
    # record is buried at it, not at a later one
    rt = make_runtime()
    for _ in range(2):
        create(rt)
    rt.open_point("interval")  # reaches neither
    kept = create(rt)
    rt.open_point("interval", [rt.heap.objects[kept]])
    rt.flush_unmarked({kept}, rt.heap.slots)
    assert logged_rows(rt).collect_tick == [2, 2]
    assert rt.collections == [CollectionStats("interval", 2, 0, 2, 0),
                              CollectionStats("interval", 3, 1, 0, 2)]


def test_dead_stamped_after_the_last_point_is_a_ghost():
    # a copy between points: the record created after the last point
    # died after it, so its slots are freed now and it is counted and
    # ticked at the next point
    rt = make_runtime()
    dead, kept = create(rt), create(rt)
    rt.open_point("interval", [rt.heap.objects[kept]])
    ghost = create(rt)
    flushed = rt.flush_unmarked({kept}, rt.heap.slots)
    assert [r.obj_id for r in flushed] == [dead, ghost]
    assert logged_keys(rt) == ([dead], [2])
    assert rt.collections == [CollectionStats("interval", 2, 1, 1, 2)]
    assert rt.ghost_slots == 2 and ghost not in rt.heap.objects
    rt.open_point("exhaustion", [rt.heap.objects[kept]])
    assert rt.ghost_slots == 0
    assert logged_keys(rt) == ([dead, ghost], [2, 3])
    rt.flush_unmarked({kept}, rt.heap.slots)
    assert rt.collections[1] == CollectionStats("exhaustion", 3, 1, 1, 2)


def test_finalize_censors_remaining_and_sorts():
    rt = make_runtime()
    for i in range(4):
        create(rt, PAIR if i % 2 else VECTOR)
    roots = [rt.heap.objects[1], rt.heap.objects[3]]
    rt.roots = lambda: roots
    flush(rt, {1, 3})  # collects 0 and 2 at tick 4
    log = read_back(rt.terminate())
    assert [r.obj_id for r in log.records] == [0, 2, 1, 3]
    assert [r.censored for r in log.records] == [False, False, True, True]
    # exactly-once: every creation appears once, as collected or censored
    assert len(log.records) == 4
    keys = [(r.collect_tick, r.obj_id) for r in log.records]
    assert keys == sorted(keys)
    assert all(r.collect_tick <= log.end_tick for r in log.records)


def test_a_collected_objects_record_is_freed():
    # the log's lines keep a dead object's fields, not its record: with
    # the runtime and its log alive, only the heap's slots could still
    # reach a record, and terminate releases those too
    rt = Runtime(heap_slots=64, gc_interval=16)
    Interpreter(rt).eval_program(parse(nullified_source(5000)))
    log = rt.terminate()
    assert len(log.records) == 5000
    gc.collect()
    records = sum(type(o) is LifetimeRecord for o in gc.get_objects())
    assert records <= rt.heap.capacity_slots


@pytest.mark.parametrize("gc_interval", [1, 16])
def test_a_run_log_holds_at_most_48_bytes_a_record(gc_interval):
    # a run's log is its text: at K=1 a batch holds one or two records,
    # so a string per batch would cost more than the line itself
    src = nullified_source(20_000)
    tracemalloc.start()
    try:
        log = run_source(src, gc_interval=gc_interval).trace_log
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(log.records) >= 20_000
    assert held <= 48 * len(log.records)


def test_writing_a_run_log_never_holds_its_text(tmp_path):
    # a run with the file's writer writes its log a sealed tick at a
    # time, so its log holds no text and the whole run, compiling and
    # collecting included, peaks below half of it: the text itself, or
    # one join of it, would take all of it
    src = nullified_source(20_000)
    path = tmp_path / "stream.draglog"
    tracemalloc.start()
    try:
        with atomic.opened(path) as write:
            log = run_source(src, gc_interval=16, write=write).trace_log
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert log.text is None
    assert path.stat().st_size > 500_000
    assert peak < path.stat().st_size // 2


@pytest.mark.parametrize("source, gc_interval", [
    ("1", 1),  # no records at all
    ("(define keep (list 1 2 3)) keep", 1),  # survivors, censored
    (nullified_source(300), 1),
    (nullified_source(3000), 16),
], ids=["empty", "survivors", "stream-k1", "stream-k16"])
def test_a_written_run_log_is_its_formatted_text(source, gc_interval,
                                                 tmp_path):
    path = tmp_path / "written.draglog"
    with atomic.opened(path) as write:
        run_source(source, gc_interval=gc_interval,
                   source_name="\u03bb.scm", write=write)
    log = run_source(source, gc_interval=gc_interval,
                     source_name="\u03bb.scm").trace_log
    assert path.read_bytes() == format_draglog(log).encode("utf-8")


@pytest.mark.parametrize("gc_interval", [1, 16])
@pytest.mark.parametrize("name", ["motiv.scm", "motiv-nullified.scm",
                                  "list-stress.scm", "vector-stress.scm"])
def test_a_run_writes_its_header_first_and_end_last(name, gc_interval):
    # the runtime is the log's one writer: a run with a writer of its own
    # writes the very text its in-memory twin keeps
    source = dragprof.bundled_program(name)
    written = []
    rt = Runtime(gc_interval=gc_interval, source_name=name,
                 write=written.append)
    assert written == [draglog_header(gc_interval, rt.heap.capacity_slots,
                                      name)]
    Interpreter(rt).eval_program(parse(source))
    log = rt.terminate()
    assert written[-1] == draglog_end(log.end_tick)
    assert "".join(written) == format_draglog(
        run_source(source, gc_interval=gc_interval,
                   source_name=name).trace_log)


def test_a_run_log_is_never_read_back(monkeypatch):
    # nothing an in-process run or its log offers parses the text again
    def refuse(*args):
        raise AssertionError("a run's log was read back")

    monkeypatch.setattr(profiler, "_read_columns", refuse)
    monkeypatch.setattr(profiler, "parse_draglog", refuse)
    log = run_source(nullified_source(300), gc_interval=16).trace_log
    text = format_draglog(log)
    assert text.startswith("DRAGLOG 1 ")
    assert text.endswith(f"\nEND {log.end_tick}\n")
    assert len(log.records) == text.count("\nOBJ ") == 300
    assert log.end_tick > 600
    assert log.columns is None


def batch(first_id, n):
    """n records with ids from first_id on, as a batch the runtime logs."""
    return [LifetimeRecord(first_id + i, PAIR, 2, 0, NEVER_USED, 0, None)
            for i in range(n)]


def test_a_row_logged_below_the_last_tick_is_refused():
    rt = make_runtime()
    rt._log(batch(0, 2), 5, False)
    with pytest.raises(AssertionError, match="tick 4 logged after tick 5"):
        rt._log(batch(2, 1), 4, False)


def test_an_early_break_sorts_only_its_own_tick(monkeypatch):
    # the ghosts of two copies come out of id order at the first tick;
    # the 5,000 pairs after them are logged in order, so only the
    # ghosts' two rows are sorted, once a later tick is logged
    counts = counted_sorts(monkeypatch)
    rt = make_runtime()
    ghosts_of_two_copies(rt)
    rt.open_point("interval")
    rt.gc_interval = 16
    for _ in range(5000):
        rt.alloc_pair(NIL, NIL)
    log = rt.terminate()
    assert counts == [2]
    assert len(log.records) == 5002
    assert in_key_order(read_back(log))


def test_a_broken_tick_is_written_alone_once_sorted(monkeypatch):
    # ticks 1 to 62 log a batch each, then tick 63 four batches in
    # descending id order: none of its rows reaches the writer while the
    # tick is open, and once the next tick is logged its rows alone are
    # sorted and written, as one string.  The header comes first, and
    # END last.
    counts = counted_sorts(monkeypatch)
    written = []
    rt = make_runtime(write=written.append)
    for tick in range(1, 63):
        rt._log(batch(2 * tick, 2), tick, False)
    tick = 63
    for j in range(4):
        rt._log(batch(2 * tick + 2 * (3 - j), 2), tick, False)
        assert len(written) == 63
        assert [s.count("\n") for s in rt._open] == [2] * (j + 1)
    rt._log(batch(2 * 64 + 6, 2), 64, False)
    assert counts == [8]
    assert len(written) == 64 and written[-1].count(" 63 F\n") == 8
    for tick in range(65, 192):
        rt._log(batch(2 * tick + 6, 2), tick, False)
    rt.clock = tick
    log = rt.terminate()
    assert counts == [8]
    assert log.text is None and len(written) == 193
    assert [len({line.split(" ")[6] for line in s.splitlines()})
            for s in written[1:-1]] == [1] * 191
    log = parse_draglog("".join(written))
    assert sorted(log.columns.obj_id) == list(range(2, 390))
    assert in_key_order(log)


def test_terminate_checks_order_in_place_and_releases_the_heap():
    # stream's lines are written in (collect, id) order: terminate
    # makes no per-row key list, and frees the heap
    written = []
    rt = Runtime(gc_interval=16, write=written.append)
    Interpreter(rt).eval_program(parse(nullified_source(20_000)))
    tracemalloc.start()
    try:
        log = rt.terminate()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    rows = "".join(written).count("\nOBJ ")
    assert rows == len(log.records) >= 20_000
    assert peak < 4 * rows
    assert rt.heap.slots == []
    assert rt.heap.objects == {}
    with pytest.raises(ProtocolViolation):
        rt.alloc_pair(NIL, NIL)


def test_an_in_order_run_computes_no_sort_key(monkeypatch):
    # each point logs its dead after the last point's, in id order
    def refuse(*args):
        raise AssertionError("terminate sorted rows already in order")

    monkeypatch.setattr(runtime, "sorted_lines", refuse)
    rt = Runtime(gc_interval=16)
    Interpreter(rt).eval_program(parse(nullified_source(2000)))
    log = read_back(rt.terminate())
    assert len(log.records) == 2000
    assert in_key_order(log)


def test_a_survivor_sorts_only_the_rows_at_end_tick(monkeypatch):
    # keep (id 0) is censored at end_tick after the last point's dead,
    # which have higher ids: only those rows are permuted
    counts = counted_sorts(monkeypatch)
    src = f"(define keep (cons 1 2))\n{nullified_source(20_000)}\nkeep"
    rt = Runtime(gc_interval=16)
    Interpreter(rt).eval_program(parse(src))
    log = read_back(rt.terminate())
    assert len(log.records) == 20_001
    assert in_key_order(log)
    at_end = list(log.columns.collect_tick).count(log.end_tick)
    assert counts == [at_end]
    assert 2 <= at_end <= 17
    cols = log.columns
    assert [i for i, c in zip(cols.obj_id, cols.censored) if c] == [0]
    assert cols.obj_id[-at_end] == 0  # first of the rows at end_tick


def test_death_groups_out_of_point_order_are_sorted(monkeypatch):
    # x0 is a root of the first point, x1 of none: the copy after the
    # second point dates x0's death there and x1's at the first, so in
    # creation order the later tick comes first.  The copy logs its
    # dead in point order, so nothing is left to sort.
    counts = counted_sorts(monkeypatch)
    rt = make_runtime()
    x0 = rt.heap.objects[create(rt)]
    create(rt)
    rt.open_point("interval", [x0])
    rt.record_use(x0)
    rt.open_point("interval")
    rt.flush_unmarked(set(), rt.heap.slots)
    assert logged_keys(rt) == ([1, 0], [2, 3])
    log = read_back(rt.terminate())
    assert [(r.collect_tick, r.obj_id) for r in log.records] == [
        (2, 1), (3, 0)]
    assert counts == []


def ghosts_of_two_copies(rt):
    """Two copies after a point at which a and b were roots: the first
    keeps a, the second nothing.  Both died after the point, so they
    wait as ghosts, b before a."""
    a, b = (rt.heap.objects[create(rt)] for _ in range(2))
    rt.open_point("interval", [a, b])
    rt.flush_unmarked({a.obj_id}, rt.heap.slots)
    rt.flush_unmarked(set(), rt.heap.slots)
    return a, b


def test_ghosts_of_two_copies_are_sorted():
    rt = make_runtime()
    a, b = ghosts_of_two_copies(rt)
    rt.open_point("interval")
    assert logged_rows(rt).obj_id == [b.obj_id, a.obj_id]
    log = read_back(rt.terminate())
    assert [r.obj_id for r in log.records] == [a.obj_id, b.obj_id]
    assert in_key_order(log)


def test_a_ghost_used_after_its_death_is_named_in_ghost_order():
    # record_use refuses a record a copy dropped, so only a use the
    # runtime never saw can follow a ghost's death: set it by hand.
    # The ghosts are checked in the order they died in, not by id.
    rt = make_runtime()
    a, b = ghosts_of_two_copies(rt)
    a.last_use_tick = b.last_use_tick = 9
    with pytest.raises(DanglingRef, match=f"object #{b.obj_id} at tick 9"):
        rt.open_point("interval")


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
    rt.roots = lambda: [ref]
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
    rt.record_use(rt.heap.objects[1])
    root = rt.heap.objects[2]
    rt.roots = lambda: [root]
    flush(rt, {2})
    log = rt.terminate()
    parsed = parse_draglog(format_draglog(log))
    assert parsed.gc_interval == 4
    assert parsed.heap_slots == 128
    assert parsed.source == "roundtrip.scm"
    assert parsed.end_tick == log.end_tick == 5
    assert list(parsed.records) == [(0, VECTOR, 5, 1, NEVER_USED, 4, False),
                                    (1, PAIR, 2, 2, 4, 4, False),
                                    (2, PAIR, 2, 3, NEVER_USED, 5, True)]


def test_a_parsed_log_makes_records_only_when_they_are_read(monkeypatch):
    # a log's records are its rows, each a Columns tuple made as it is
    # read and not kept
    made = []
    make = Columns._make

    def counted(fields):
        row = make(fields)
        made.append(row.obj_id)
        return row

    monkeypatch.setattr(Columns, "_make", counted)
    text = ("DRAGLOG 1 gc_interval=1 heap_slots=64 source=t\n"
            "OBJ 1 V 3 1 -1 2 F\nOBJ 0 P 2 2 3 4 C\nEND 4\n")
    log = parse_draglog(text)
    assert len(log.records) == 2
    analyzer.build_report(log)
    assert made == []
    rows = list(log.records)
    assert rows == [(1, VECTOR, 3, 1, NEVER_USED, 2, False),
                    (0, PAIR, 2, 2, 3, 4, True)]
    assert all(type(row) is Columns for row in rows)
    assert list(log.records) == rows
    assert made == [1, 0, 1, 0]


@settings(max_examples=300)
@given(trace_logs())
def test_every_log_a_run_could_write_parses_as_written(log):
    # sorted by (collect, id), as a run writes them, the records pass
    # the one record check and parse back to the same columns
    rows = sorted(log.records, key=lambda r: (r.collect_tick, r.obj_id))
    log = make_log(rows, log.end_tick)
    parsed = parse_draglog(log_text(log))
    assert parsed.columns == log.columns
    assert parsed.end_tick == log.end_tick


def test_a_log_read_in_slices_reads_as_a_whole(monkeypatch):
    rt = make_runtime(gc_interval=3, heap_slots=64)
    keep = []
    rt.roots = lambda: keep
    for i in range(40):
        ref = rt.alloc_pair(NIL, NIL) if i % 3 else rt.alloc_vector(i % 5)
        if i % 4 == 0:
            keep.append(ref)
        if i % 2:
            rt.record_use(ref)
    text = format_draglog(rt.terminate())
    lines = text.splitlines()
    faulty = "\n".join(lines[:9] + [lines[20]] + lines[10:-1]
                       + ["OBJ 1 Q 2 1 -1 1 F", lines[-1]]) + "\n"
    whole = parse_draglog(text).columns
    with pytest.raises(DraglogFormatError) as whole_error:
        parse_draglog(faulty)
    for chars in (1, 10, 100):
        monkeypatch.setattr(profiler, "_SLICE", chars)
        assert parse_draglog(text).columns == whole
        with pytest.raises(DraglogFormatError) as err:
            parse_draglog(faulty)
        assert str(err.value) == str(whole_error.value)


def test_the_log_kinds_are_the_heaps():
    assert (profiler.PAIR, profiler.VECTOR) == (PAIR, VECTOR)


TICKS_OUT_OF_ORDER = ("ticks out of order: need 0 <= create <= last_use <= "
                      "collect <= end (2)")


@pytest.mark.parametrize("mutate, bad_line, message", [
    # ids as pytest named these cases when they had no message
    pytest.param(lambda lines: lines[:-1], 3, "missing END line",
                 id="<lambda>-3"),                           # truncated
    pytest.param(lambda lines: ["BOGUS"] + lines[1:], 1, "bad header",
                 id="<lambda>-1"),
    pytest.param(lambda lines: [lines[0], "OBJ x P 2 1 -1 2 F", lines[-1]],
                 2, "bad obj_id 'x'", id="<lambda>-2_0"),
    pytest.param(lambda lines: [lines[0], "OBJ 0 Q 2 1 -1 2 F", lines[-1]],
                 2, "bad kind 'Q'", id="<lambda>-2_1"),
    pytest.param(lambda lines: [lines[0], "OBJ 0 P 2 1 -1 2 Z", lines[-1]],
                 2, "bad censored flag 'Z'", id="<lambda>-2_2"),
    pytest.param(lambda lines: [lines[0], "junk", lines[-1]], 2,
                 "unrecognized line 'junk'", id="<lambda>-2_3"),
    pytest.param(lambda lines: lines + ["END 9"], 4, "duplicate END line",
                 id="<lambda>-4_0"),
    pytest.param(lambda lines: lines + ["OBJ 1 P 2 1 -1 2 F"], 4,
                 "record after END line", id="<lambda>-4_1"),
    # Semantic checks.  The base log is one record collected at tick 1:
    # "OBJ 0 P 2 1 -1 1 F" and "END 2".
    pytest.param(lambda lines: lines[:2] + lines[1:], 3,
                 "duplicate object id 0", id="duplicate-id"),
    pytest.param(lambda lines: [lines[0], "OBJ 0 P 2 2 -1 1 F", lines[-1]],
                 2, TICKS_OUT_OF_ORDER, id="collect-before-create"),
    pytest.param(lambda lines: [lines[0], "OBJ 0 P 2 1 2 1 F", lines[-1]],
                 2, TICKS_OUT_OF_ORDER, id="use-after-collect"),
    pytest.param(lambda lines: [lines[0], "OBJ 0 P 2 1 -1 3 F", lines[-1]],
                 2, TICKS_OUT_OF_ORDER, id="collect-after-end"),
    pytest.param(lambda lines: [lines[0], "OBJ 0 P 2 -3 -2 1 F", lines[-1]],
                 2, TICKS_OUT_OF_ORDER, id="negative-create"),
    pytest.param(lambda lines: [lines[0], "OBJ 1 P 2 1 -1 2 F", lines[1],
                                lines[-1]], 3,
                 "records not sorted by (collect, id)", id="unsorted"),
    pytest.param(lambda lines: [lines[0], "OBJ 0 P 2 1 -1 1 C", lines[-1]],
                 2, "censored record collected at 1, not at end (2)",
                 id="censored-before-end"),
    pytest.param(lambda lines: [lines[0].replace("gc_interval=1",
                                                 "gc_interval=-1")]
                 + lines[1:], 1, "gc_interval -1 is not positive",
                 id="negative-gc-interval"),
    pytest.param(lambda lines: [lines[0].replace("gc_interval=1",
                                                 "gc_interval=0")]
                 + lines[1:], 1, "gc_interval 0 is not positive",
                 id="zero-gc-interval"),
    pytest.param(lambda lines: [lines[0].replace("heap_slots=256",
                                                 "heap_slots=-5")]
                 + lines[1:], 1, "heap_slots -5 is not positive",
                 id="negative-heap-slots"),
    pytest.param(lambda lines: [lines[0], "OBJ 0 P -2 1 -1 1 F", lines[-1]],
                 2, "bad size_slots -2 for kind P", id="pair-of-size-minus-2"),
    pytest.param(lambda lines: [lines[0], "OBJ 0 V -1 1 -1 1 F", lines[-1]],
                 2, "bad size_slots -1 for kind V",
                 id="vector-of-size-minus-1"),
    # Spellings int() accepts but format_draglog never writes.
    pytest.param(lambda lines: [lines[0].replace("gc_interval=1",
                                                 "gc_interval=1_6")]
                 + lines[1:], 1, "bad gc_interval '1_6'",
                 id="underscore-in-gc-interval"),
    pytest.param(lambda lines: [lines[0].replace("heap_slots=256",
                                                 "heap_slots=+256")]
                 + lines[1:], 1, "bad heap_slots '+256'",
                 id="plus-in-heap-slots"),
    pytest.param(lambda lines: [lines[0], "OBJ 0 P 2 1 -1 \u0661 F",
                                lines[-1]], 2, "bad collect_tick '\u0661'",
                 id="non-ascii-digit"),
    pytest.param(lambda lines: [lines[0], "OBJ 0 P +2 1 -1 1 F", lines[-1]],
                 2, "bad size_slots '+2'", id="plus-in-size"),
    pytest.param(lambda lines: [lines[0], "OBJ 0_0 P 2 1 -1 1 F",
                                lines[-1]], 2, "bad obj_id '0_0'",
                 id="underscore-in-id"),
    pytest.param(lambda lines: [lines[0], "OBJ 0 P 2 1\t -1 1 F",
                                lines[-1]], 2, "bad create_tick '1\\t'",
                 id="tab-in-create"),
    pytest.param(lambda lines: lines[:2] + ["END 0_2"], 3,
                 "bad end_tick '0_2'", id="underscore-in-end"),
    pytest.param(lambda lines: lines[:2] + ["END 2\x0c"], 3,
                 "bad end_tick '2\\x0c'", id="form-feed-in-end"),
    pytest.param(lambda lines: lines[:2] + ["END  2"], 3,
                 "bad end_tick ' 2'", id="space-before-end"),
    pytest.param(lambda lines: lines[:2] + ["END 2 "], 3,
                 "bad end_tick '2 '", id="space-after-end"),
])
def test_draglog_malformed_reports_line(mutate, bad_line, message):
    rt = make_runtime(gc_interval=1)
    create(rt)
    flush(rt, set())
    lines = format_draglog(rt.terminate()).splitlines()
    text = "\n".join(mutate(lines)) + "\n"
    with pytest.raises(DraglogFormatError) as err:
        parse_draglog(text)
    assert err.value.line_no == bad_line
    assert str(err.value) == f"line {bad_line}: {message}"


# A log of several faults reports the one the line-by-line reading meets
# first: any fault of a line's format before any fault of a record's
# values, the first record's fault among those, and within one record
# duplicate id, size, ticks, censored, sort.
@pytest.mark.parametrize("records, end, error", [
    pytest.param(["OBJ 1 P 2 1 -1 1 F", "OBJ 1 P 2 2 -1 2 F",
                  "OBJ 2 Q 2 3 -1 3 F"], 4, "line 4: bad kind 'Q'",
                 id="format-beats-an-earlier-record-fault"),
    pytest.param(["junk", "OBJ 0 P 2 1 -1 1 F"], "x",
                 "line 2: unrecognized line 'junk'",
                 id="format-beats-a-later-format-fault"),
    pytest.param(["OBJ x P 2 1 y 1 F"], 4, "line 2: bad last_use 'y'",
                 id="last-use-is-read-first"),
    pytest.param(["OBJ 0 P 2 1 -1 1 C", "OBJ 1 P 3 2 -1 2 F"], 4,
                 "line 2: censored record collected at 1, not at end (4)",
                 id="first-record-wins"),
    pytest.param(["OBJ 1 P 2 1 -1 1 F", "OBJ 1 P 2 5 -1 2 F"], 4,
                 "line 3: duplicate object id 1",
                 id="duplicate-before-ticks"),
    pytest.param(["OBJ 1 P 2 1 -1 1 F", "OBJ 1 P 3 2 -1 2 F"], 4,
                 "line 3: duplicate object id 1",
                 id="duplicate-before-size"),
    pytest.param(["OBJ 0 P 3 5 -1 1 F"], 4,
                 "line 2: bad size_slots 3 for kind P",
                 id="size-before-ticks"),
    pytest.param(["OBJ 0 P 2 3 -1 1 C"], 4,
                 "line 2: ticks out of order: need 0 <= create <= last_use "
                 "<= collect <= end (4)", id="ticks-before-censored"),
    pytest.param(["OBJ 1 P 2 1 -1 2 F", "OBJ 0 P 2 1 -1 1 C"], 4,
                 "line 3: censored record collected at 1, not at end (4)",
                 id="censored-before-sort"),
    pytest.param(["OBJ 1 P 2 1 -1 1 F", "OBJ 01 P 2 2 -1 2 F"], 4,
                 "line 3: duplicate object id 1", id="01-is-1"),
    pytest.param(["OBJ 0 P 2 1 -1 2 F", "OBJ 1 P 2 1 -1 1 F",
                  "OBJ 2 P 2 1 -1 3 C"], 4,
                 "line 3: records not sorted by (collect, id)",
                 id="unsorted-before-a-later-censored"),
])
def test_draglog_of_several_faults_reports_the_first(records, end, error):
    text = "\n".join(["DRAGLOG 1 gc_interval=1 heap_slots=256 source=t",
                      *records, f"END {end}"]) + "\n"
    with pytest.raises(DraglogFormatError) as err:
        parse_draglog(text)
    assert str(err.value) == error


def test_parse_empty_file():
    with pytest.raises(DraglogFormatError):
        parse_draglog("")
