import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from dragprof.heap import NEVER_USED, PAIR
from dragprof.interp import run_source
from dragprof.profiler import Columns

from support import make_log, motiv_source, nullified_source, \
    run_gc_correctness_session, trace_logs


def rec(obj_id, create, last_use, collect, censored=False):
    return Columns(obj_id, PAIR, 2, create, last_use, collect, censored)


# ---------------------------------------------------------------------------
# drag

def drag(record):
    return drags_of(make_log([record], end_tick=200))[0]


def test_drag_is_collect_minus_last_use():
    assert drag(rec(0, 10, 40, 100)) == 60


def test_drag_of_never_used_runs_from_creation():
    assert drag(rec(0, 10, NEVER_USED, 100)) == 90


def test_drag_zero_when_used_at_collection():
    assert drag(rec(0, 10, 100, 100)) == 0


def test_drag_pct_relative_to_runtime():
    _, max_pct, _, avg_pct = drag_summary([drag(rec(0, 0, 50, 150))], 200)
    assert max_pct == pytest.approx(50.0)
    assert avg_pct == pytest.approx(50.0)


def test_drags_of_in_record_order():
    log = make_log([rec(3, 0, 5, 9), rec(1, 2, NEVER_USED, 9), rec(2, 4, 9, 9)],
                   end_tick=10)
    assert drags_of(log) == [4, 7, 0]


# ---------------------------------------------------------------------------
# curves

def test_curves_single_record_between_use_and_collection():
    log = make_log([rec(0, 0, 5, 10)], end_tick=12)
    series = curves(log, 1)
    points = {t: (r, l) for t, r, l in series.points}
    assert points[7] == (1, 0)   # reachable but no longer live
    assert points[3] == (1, 1)
    assert points[10] == (0, 0)  # collected


def test_curves_empty_log_all_zero():
    series = curves(make_log([], end_tick=50), 5)
    assert all(r == 0 and l == 0 for _, r, l in series.points)
    assert len(series.points) == 11


def test_curves_censored_reachable_through_end():
    log = make_log([rec(0, 1, 2, 9, censored=True)], end_tick=9)
    series = curves(log, 1)
    assert series.points[-1] == (9, 1, 0)


def bruteforce_points(log, s):
    """Independent oracle: a per-record membership test at every sample."""
    expected = []
    for t in range(0, log.end_tick + 1, s):
        reach = live = 0
        for record in log.records:
            hi = record.collect_tick + (1 if record.censored else 0)
            if record.create_tick <= t < hi:
                reach += 1
            if (record.last_use_tick != NEVER_USED
                    and record.create_tick <= t <= record.last_use_tick):
                live += 1
        expected.append((t, reach, live))
    return expected


def test_curves_match_bruteforce_replay():
    r = run_source(motiv_source(40, 100), gc_interval=2,
                   source_name="motiv.scm")
    log = r.trace_log
    for s in (1, 7, 50):
        assert curves(log, s).points == bruteforce_points(log, s)


@settings(max_examples=300)
@given(trace_logs(), st.integers(1, 400))
def test_curves_match_bruteforce_on_random_logs(log, s):
    # s ranges past end and over intervals that do not divide it
    assert curves(log, s).points == bruteforce_points(log, s)


def test_curves_default_interval_gives_about_500_points():
    r = run_source(motiv_source(100, 500), gc_interval=1,
                   source_name="motiv.scm")
    series = curves(r.trace_log)
    assert 400 <= len(series.points) <= 1010


# ---------------------------------------------------------------------------
# space-time product and savings

def test_savings_formula_reference_extremes():
    assert savings_pct(409442730, 141309450) == pytest.approx(65.48,
                                                              abs=0.01)
    assert savings_pct(496456510, 450879850) == pytest.approx(9.18,
                                                              abs=0.01)


def test_savings_zero_when_reachable_equals_live():
    assert savings_pct(1000, 1000) == 0.0


def test_savings_zero_on_empty():
    assert savings_pct(0, 0) == 0.0


def test_space_time_left_sum():
    log = make_log([rec(0, 0, 4, 8)], end_tick=10)
    series = curves(log, 2)
    reachable, live, savings = space_time(series)
    # reachable at t=0,2,4,6 (4 samples x step 2), live at t=0,2,4
    assert reachable == 8
    assert live == 6
    assert savings == pytest.approx(25.0)


# ---------------------------------------------------------------------------
# drag summary

def test_drag_summary_reference_row():
    # runtime 480: max drag 250 -> 52.08%, average 179.96 -> 37.49%
    max_d, max_pct, _, _ = drag_summary([250], 480)
    assert max_d == 250
    assert max_pct == pytest.approx(52.08, abs=0.01)
    assert 179.96 / 480 * 100 == pytest.approx(37.49, abs=0.01)


def test_drag_summary_single_zero_record():
    assert drag_summary([0], 100) == (0, 0.0, 0.0, 0.0)


def test_drag_summary_small_set():
    max_d, max_pct, avg_d, avg_pct = drag_summary([10, 20, 30], 100)
    assert (max_d, max_pct) == (30, pytest.approx(30.0))
    assert (avg_d, avg_pct) == (pytest.approx(20.0), pytest.approx(20.0))


def test_drag_summary_empty():
    assert drag_summary([], 100) == (0, 0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# dead objects

def test_dead_objects_none_when_all_zero():
    assert dead_objects([0] * 5, 0) == (5, 0, 0.0)


def test_dead_objects_threshold_strictly_exceeded():
    allocated, dead, pct = dead_objects([5, 6], 5)
    assert (allocated, dead) == (2, 1)
    assert pct == pytest.approx(50.0)


def test_motiv_every_cell_dead_at_threshold_k():
    r = run_source(motiv_source(100, 500), gc_interval=1,
                   source_name="motiv.scm")
    drags = drags_of(r.trace_log)
    allocated, dead, _ = dead_objects(drags, 1)
    assert allocated == 103  # the cells plus the three scaffold objects
    assert dead == 100


def test_nullified_no_dead_at_threshold_k():
    r = run_source(nullified_source(100), gc_interval=1,
                   source_name="motiv-nullified.scm")
    drags = drags_of(r.trace_log)
    allocated, dead, _ = dead_objects(drags, 1)
    assert allocated == 100
    assert dead == 0


# ---------------------------------------------------------------------------
# histogram

def test_histogram_full_runtime_drag_lands_in_last_bin():
    bins = histogram([100], 100)
    assert bins[19] == 1 and sum(bins) == 1


def test_histogram_zero_drag_lands_in_first_bin():
    bins = histogram([0], 100)
    assert bins[0] == 1


def test_histogram_shapes_of_the_two_variants():
    motiv = run_source(motiv_source(100, 500), gc_interval=1,
                       source_name="motiv.scm")
    bins = histogram(drags_of(motiv.trace_log), motiv.trace_log.end_tick)
    # the cells' drag spreads over mid-range bins, none above 90%
    assert sum(bins[9:17]) >= 90
    nullified = run_source(nullified_source(100), gc_interval=1,
                           source_name="motiv-nullified.scm")
    nbins = histogram(drags_of(nullified.trace_log),
                      nullified.trace_log.end_tick)
    assert nbins[0] / sum(nbins) >= 0.95


@given(st.lists(st.integers(0, 1000), max_size=60),
       st.integers(min_value=1, max_value=1000))
def test_histogram_mass_conservation(entries, end):
    drags = [min(d, end) for d in entries]
    assert sum(histogram(drags, end)) == len(drags)


# ---------------------------------------------------------------------------
# invariants and properties

@given(st.integers(0, 10 ** 9), st.integers(0, 10 ** 9))
def test_savings_bounded_when_live_at_most_reachable(reachable, extra):
    live = max(0, reachable - extra)
    s = savings_pct(reachable, live)
    assert 0.0 <= s <= 100.0


record_strategy = st.integers(1, 400).flatmap(
    lambda end: st.tuples(
        st.just(end),
        st.lists(
            st.tuples(st.integers(1, end), st.integers(0, end),
                      st.booleans()),
            max_size=25)))


@settings(max_examples=60)
@given(record_strategy, st.integers(1, 25))
def test_riemann_refinement_stability(data, half_step):
    # halving the sample interval moves each integral by at most
    # (number of records) x (old interval)
    end, raw = data
    records = []
    for i, (create, extent, used) in enumerate(raw):
        collect = min(end, create + extent)
        last = min(create + extent // 2, collect) if used else NEVER_USED
        records.append(rec(i, create, last, collect))
    log = make_log(records, end)
    s = 2 * half_step
    r1, l1, _ = space_time(curves(log, s))
    r2, l2, _ = space_time(curves(log, half_step))
    bound = len(records) * s
    assert abs(r1 - r2) <= bound
    assert abs(l1 - l2) <= bound


def test_live_never_exceeds_reachable_on_real_runs():
    for source, name in ((motiv_source(60, 200), "motiv.scm"),
                         (nullified_source(60), "motiv-nullified.scm")):
        result = run_source(source, gc_interval=1, source_name=name)
        for s in (1, 3, 17):
            for _, reach, live in curves(result.trace_log, s).points:
                assert 0 <= live <= reach
    log = run_gc_correctness_session(5, objects_budget=90)
    for _, reach, live in curves(log, 3).points:
        assert 0 <= live <= reach


def test_nullified_reachable_curve_stays_flat():
    # the contrast behind the two curve plots: the nullified variant
    # never accumulates reachable objects
    r = run_source(nullified_source(100), gc_interval=1,
                   source_name="motiv-nullified.scm")
    series = curves(r.trace_log, 1)
    assert max(p[1] for p in series.points) <= 2


def test_motiv_reachable_plateau_and_live_decline():
    r = run_source(motiv_source(100, 500), gc_interval=1,
                   source_name="motiv.scm")
    series = curves(r.trace_log, 1)
    reach = [p[1] for p in series.points]
    live = [p[2] for p in series.points]
    n = 100
    assert max(reach) >= n
    plateau = sum(1 for v in reach if v >= n)
    assert plateau >= 0.5 * len(reach)  # held for most of the run
    peak = live.index(max(live))
    for a, b in zip(live[peak:], live[peak + 1:]):
        assert b <= a  # monotone decline after the peak


# ---------------------------------------------------------------------------
# report assembly and serialization

def test_build_report_histogram_covers_dead_only():
    r = run_source(motiv_source(50, 150), gc_interval=1,
                   source_name="motiv.scm")
    report, series = build_report(r.trace_log)
    assert sum(report.histogram) == report.dead_count
    assert report.allocated == 53
    assert report.end_tick == r.trace_log.end_tick
    assert 0.0 <= report.savings_pct <= 100.0
    assert report.live_integral <= report.reachable_integral


def test_report_csv_layout():
    r = run_source(motiv_source(20, 60), gc_interval=1,
                   source_name="motiv.scm")
    report, series = build_report(r.trace_log)
    buf = io.StringIO()
    analyzer.write_report_csv(report, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0].split(",") == analyzer.REPORT_FIELDS
    row = lines[1].split(",")
    assert row[0] == "motiv.scm"
    assert row[4].count(".") == 1 and len(row[4].split(".")[1]) == 2


def test_curves_and_histogram_csv_layout():
    r = run_source(motiv_source(20, 60), gc_interval=1,
                   source_name="motiv.scm")
    report, series = build_report(r.trace_log)
    buf = io.StringIO()
    analyzer.write_curves_csv(series, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "tick,reachable,live"
    assert len(lines) == len(series.points) + 1
    buf = io.StringIO()
    analyzer.write_histogram_csv(report.histogram, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "bin_lo,bin_hi,count"
    assert len(lines) == 21
    assert lines[1].startswith("0,5,")
    assert lines[20].startswith("95,100,")


def test_text_report_mentions_headline_numbers():
    r = run_source(motiv_source(20, 60), gc_interval=1,
                   source_name="motiv.scm")
    report, _ = build_report(r.trace_log)
    text = analyzer.format_text_report(report, 1)
    assert "potential-savings-%" in text
    assert f"{report.savings_pct:.2f}" in text
    assert "max-drag" in text
    assert str(report.max_drag) in text
