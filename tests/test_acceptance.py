"""Acceptance suite: one test per criterion, each printing a PASS line
with its headline numbers once its assertions hold.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import io

import pytest

import dragprof
from dragprof import analyzer
from dragprof.analyzer import (
    build_report,
    curves,
    dead_objects,
    drag_summary,
    drags_of,
    histogram,
    savings_pct,
    space_time,
)
from dragprof.interp import run_source
from dragprof.profiler import format_draglog
from support import run_delta_gc_session, run_gc_correctness_session

# Reference space-time rows: (name, reachable integral, live
# integral, savings %).
SPACE_TIME_ROWS = [
    ("silex", 409442730, 141309450, 65.48),
    ("lalr", 109380, 58450, 46.56),
    ("eopl", 373865300, 217799490, 41.74),
    ("prolog", 175096720, 72172390, 58.78),
    ("sudoku", 496456510, 450879850, 9.18),
    ("cipher", 208383570, 184187520, 11.61),
]

# Reference drag rows: (name, runtime, max drag, max %, avg drag
# x100, avg %).  Averages carry two decimals, so they are kept as integer
# hundredths to reconstruct exact-mean inputs.
DRAG_ROWS = [
    ("silex", 27950, 27110, 96.99, 792894, 28.36),
    ("lalr", 480, 250, 52.08, 17996, 37.49),
    ("eopl", 109060, 108620, 99.59, 540356, 4.95),
    ("prolog", 39970, 39700, 99.32, 241981, 6.05),
    ("sudoku", 82730, 82610, 99.85, 222923, 2.69),
    ("cipher", 27250, 13440, 49.32, 63025, 2.31),
]


@pytest.fixture(scope="module")
def motiv_k1():
    return run_source(dragprof.bundled_program("motiv.scm"),
                      gc_interval=1, source_name="motiv.scm")


@pytest.fixture(scope="module")
def nullified_k1():
    return run_source(dragprof.bundled_program("motiv-nullified.scm"),
                      gc_interval=1, source_name="motiv-nullified.scm")


def test_space_time_savings_replication():
    for name, reachable, live, expected in SPACE_TIME_ROWS:
        computed = savings_pct(reachable, live)
        assert computed == pytest.approx(expected, abs=0.01), name
    print("PASS space-time savings replication: 6/6 rows within 0.01")


def test_drag_statistics_replication():
    for name, runtime, max_drag, max_pct, avg_hundredths, avg_pct \
            in DRAG_ROWS:
        # one record carrying the maximum
        _, computed_max_pct, _, _ = drag_summary([max_drag], runtime)
        assert computed_max_pct == pytest.approx(max_pct, abs=0.01), name
        # 100 integer drags averaging exactly the reference value
        base, extra = divmod(avg_hundredths, 100)
        drags = [base + (1 if i < extra else 0) for i in range(100)]
        _, _, computed_avg, computed_avg_pct = drag_summary(drags, runtime)
        assert computed_avg == pytest.approx(avg_hundredths / 100, abs=1e-9)
        assert computed_avg_pct == pytest.approx(avg_pct, abs=0.01), name
    print("PASS drag statistics replication: 6/6 rows within 0.01")


def test_gc_correctness_randomized():
    # every collection in every session asserts survivor set == oracle
    # and identical pre/post serialization (see support.checked_collect)
    sessions = 1000
    total_objects = 0
    for seed in range(sessions):
        budget = 60 + (seed % 7) * 55  # up to 390 objects per program
        log = run_gc_correctness_session(seed, objects_budget=budget)
        total_objects += len(log.records)
    print(f"PASS gc correctness: {sessions} randomized programs, "
          f"{total_objects} objects, survivors == oracle throughout")


def test_collection_lag_bound():
    checked_total = 0
    for k in (1, 4, 16):
        objects = 0
        for seed in range(6):
            allocs, checked = run_delta_gc_session(seed, k, ops=2000)
            objects += allocs
            checked_total += checked
        assert objects <= 10 ** 4  # desk scale
    print(f"PASS collection lag bound: K in (1, 4, 16), "
          f"{checked_total} collected objects all within K allocations "
          f"of becoming unreachable")


def test_lingering_list_narrative(motiv_k1, nullified_k1):
    n = 1000
    log = motiv_k1.trace_log
    assert len(log.records) == n + 3
    drags = {r.obj_id: d for r, d in zip(log.records, drags_of(log))}
    # (a) every list cell drags, and exactly the cells count as dead
    cell_ids = range(1, n + 1)  # scratch is id 0, the tail pair ids n+1..
    assert all(drags[i] > 0 for i in cell_ids)
    allocated, dead, _ = dead_objects(list(drags.values()), 1)
    assert allocated == n + 3
    assert dead == n
    # (b) reachable plateau at >= n, live monotone after its peak
    series = curves(log)
    reach = [p[1] for p in series.points]
    live = [p[2] for p in series.points]
    assert max(reach) >= n
    assert sum(1 for v in reach if v >= n) >= 0.3 * len(reach)
    peak = live.index(max(live))
    assert all(b <= a for a, b in zip(live[peak:], live[peak + 1:]))
    # (c) nullifying the binding recovers > 40 percentage points
    motiv_report, _ = build_report(log)
    nullified_report, _ = build_report(nullified_k1.trace_log)
    gap = motiv_report.savings_pct - nullified_report.savings_pct
    assert gap > 40
    # (d) the nullified variant's drag mass sits in the first bin
    nullified_drags = drags_of(nullified_k1.trace_log)
    bins = histogram(nullified_drags, nullified_k1.trace_log.end_tick)
    assert bins[0] >= 0.95 * len(nullified_drags)
    print(f"PASS lingering-list narrative: dead {dead}/{n}, savings gap "
          f"{gap:.2f} points, nullified bin0 share "
          f"{bins[0] / len(nullified_drags):.3f}")


def test_determinism(motiv_k1, nullified_k1):
    def csv_bytes(log):
        report, series = build_report(log)
        bufs = []
        for writer, arg in ((analyzer.write_report_csv, report),
                            (analyzer.write_curves_csv, series),
                            (analyzer.write_histogram_csv,
                             report.histogram)):
            buf = io.StringIO()
            writer(arg, buf)
            bufs.append(buf.getvalue())
        return bufs

    compared = 0
    for name, k, first in (("motiv.scm", 1, motiv_k1),
                           ("motiv-nullified.scm", 1, nullified_k1),
                           ("list-stress.scm", 16, None),
                           ("vector-stress.scm", 16, None)):
        source = dragprof.bundled_program(name)
        if first is None:
            first = run_source(source, gc_interval=k, source_name=name)
        second = run_source(source, gc_interval=k, source_name=name)
        assert format_draglog(first.trace_log) == \
            format_draglog(second.trace_log), name
        assert csv_bytes(first.trace_log) == csv_bytes(second.trace_log), \
            name
        compared += 1
    print(f"PASS determinism: {compared} bundled programs, repeated runs "
          f"byte-identical (log and CSVs)")


def test_invariant_suite(motiv_k1, nullified_k1):
    logs = [motiv_k1.trace_log, nullified_k1.trace_log]
    for name in ("list-stress.scm", "vector-stress.scm"):
        logs.append(run_source(dragprof.bundled_program(name),
                               source_name=name).trace_log)
    for seed in (3, 11, 42):
        logs.append(run_gc_correctness_session(seed, objects_budget=150))
    points_checked = 0
    for log in logs:
        drags = drags_of(log)
        assert all(d >= 0 for d in drags)
        assert sum(histogram(drags, log.end_tick)) == len(log.records)
        series = curves(log)
        for _, reach, live in series.points:
            assert 0 <= live <= reach
            points_checked += 1
        reachable, live_integral, savings = space_time(series)
        assert live_integral <= reachable
        assert 0.0 <= savings <= 100.0
    print(f"PASS invariant suite: {len(logs)} logs, {points_checked} "
          f"curve samples, live <= reachable and savings within bounds")
