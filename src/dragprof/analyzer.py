"""Post-processing of trace logs into drag statistics and plot series.

Everything here is a pure function over a TraceLog's columns
(profiler.Columns: one sequence per record field), never its records:
per-object drag, reachable/live curves, space-time integrals with the
potential savings percentage, dead-object counts against a threshold,
the drag summary and the drag distribution histogram.  A parsed log's
columns are lists, and a run's log reads its lines into such lists when
first asked for its columns, so nothing here makes a record.

Conventions: runtime is the log's end_tick; percentages are computed at
full precision and rendered with two decimals in the reports.  An object
is counted as dead when its drag exceeds the threshold, which defaults
to the run's collection interval so that objects reclaimed by the very
next collection after their last use are not flagged.
"""

import csv
from collections import Counter, namedtuple
from itertools import accumulate, compress, repeat
from operator import add, gt, sub

from .profiler import NEVER_USED, TraceLog

HISTOGRAM_BINS = 20
BIN_WIDTH_PCT = 100 // HISTOGRAM_BINS

# points: (tick, reachable_count, live_count) triples
CurveSeries = namedtuple("CurveSeries", "sample_interval points")

# histogram: dead objects per drag-percentage bin
DragReport = namedtuple(
    "DragReport", "source end_tick allocated dead_count dead_pct max_drag "
                  "max_drag_pct avg_drag avg_drag_pct reachable_integral "
                  "live_integral savings_pct histogram")


def drags_of(log: TraceLog) -> list:
    """The drag of every record of log, in record order, in ticks:
    collection minus last use, or minus creation when the object was
    never used."""
    c = log.columns
    drags = list(map(sub, c.collect_tick, c.last_use_tick))
    for i in _indices(c.last_use_tick, NEVER_USED):
        drags[i] = c.collect_tick[i] - c.create_tick[i]
    return drags


def _indices(values: list, x):
    """The indices at which x occurs in values, in order."""
    i = -1
    try:
        while True:
            i = values.index(x, i + 1)
            yield i
    except ValueError:
        return


def curves(log: TraceLog, sample_interval: int | None = None) -> CurveSeries:
    """Sample reachable and live object counts across the run.

    At sample tick t an object is reachable when create <= t < collect
    (censored records stay reachable through end_tick) and live when
    create <= t <= last_use; never-used objects are never live.

    Each record adds +1 to the first sample at or after the tick it
    starts and -1 to the first sample at or after the tick it ends,
    index ceil(tick / s); an index past the final sample lands in a
    spare bucket that is never summed.  The counts are prefix sums of
    those buckets.  Ticks are non-negative, as parse_draglog checks.
    More samples than memory can hold are a ValueError.
    """
    end = log.end_tick
    if sample_interval is None:
        sample_interval = max(1, end // 500)
    if sample_interval < 1:
        raise ValueError("sample_interval must be at least 1")
    s = sample_interval
    n = end // s + 1  # samples at 0, s, ..., the last one <= end
    try:
        reach = [0] * (n + 1)
        live = [0] * (n + 1)
    except (MemoryError, OverflowError):
        raise ValueError(f"{n} samples at interval {s} do not fit in "
                         "memory") from None
    c = log.columns
    for create, last_use, gone in zip(c.create_tick, c.last_use_tick,
                                      map(add, c.collect_tick, c.censored)):
        first = -(-create // s)
        if first > n:
            first = n
        reach[first] += 1
        gone = -(-gone // s)
        reach[gone if gone < n else n] -= 1
        if last_use != NEVER_USED:
            live[first] += 1
            dead = -(-(last_use + 1) // s)
            live[dead if dead < n else n] -= 1
    points = list(zip(range(0, end + 1, s), accumulate(reach),
                      accumulate(live)))
    return CurveSeries(sample_interval, points)


def savings_pct(reachable_integral, live_integral) -> float:
    """Potential savings: the dead share of the reachable space-time
    product, as a percentage.  Zero when nothing was reachable."""
    if reachable_integral <= 0:
        return 0.0
    return (reachable_integral - live_integral) / reachable_integral * 100


def space_time(series: CurveSeries):
    """Left-sum space-time integrals of the two curves, in object-ticks,
    plus the savings percentage."""
    s = series.sample_interval
    reachable = sum(p[1] for p in series.points) * s
    live = sum(p[2] for p in series.points) * s
    return reachable, live, savings_pct(reachable, live)


def drag_summary(drags, end_tick: int):
    """(max, max %, average, average %) of drag over all records,
    censored included; zeros for an empty input."""
    if not drags:
        return 0, 0.0, 0.0, 0.0
    max_drag = max(drags)
    avg_drag = sum(drags) / len(drags)
    if end_tick > 0:
        return (max_drag, max_drag / end_tick * 100,
                avg_drag, avg_drag / end_tick * 100)
    return max_drag, 0.0, avg_drag, 0.0


def dead_objects(drags, threshold_ticks: int):
    """(allocated, dead count, dead %) where dead means drag strictly
    above the threshold."""
    if threshold_ticks < 0:
        raise ValueError("threshold_ticks must be non-negative")
    allocated = len(drags)
    dead = sum(map(gt, drags, repeat(threshold_ticks)))
    pct = (dead / allocated * 100) if allocated else 0.0
    return allocated, dead, pct


def histogram(drags, end_tick: int) -> list:
    """Counts per drag-percentage bin: bin b covers [wb, w(b+1)), w
    being BIN_WIDTH_PCT, with 100 percent landing in the last bin.  Sums
    to len(drags)."""
    bins = [0] * HISTOGRAM_BINS
    for d, count in Counter(drags).items():
        pct = (d / end_tick * 100) if end_tick > 0 else 0.0
        bins[min(int(pct // BIN_WIDTH_PCT), HISTOGRAM_BINS - 1)] += count
    return bins


def build_report(log: TraceLog, sample_interval: int | None = None,
                 dead_threshold: int | None = None):
    """Aggregate one log into (DragReport, CurveSeries).

    The report's histogram covers dead objects only, so its bin counts
    sum to dead_count; the histogram() function itself is total and can
    be applied to any drag list.
    """
    if dead_threshold is None:
        dead_threshold = log.gc_interval
    all_drags = drags_of(log)
    series = curves(log, sample_interval)
    reachable, live, savings = space_time(series)
    max_drag, max_pct, avg_drag, avg_pct = drag_summary(all_drags,
                                                        log.end_tick)
    allocated, dead_count, dead_pct = dead_objects(all_drags, dead_threshold)
    dead_drags = list(compress(all_drags,
                               map(gt, all_drags, repeat(dead_threshold))))
    report = DragReport(
        source=log.source,
        end_tick=log.end_tick,
        allocated=allocated,
        dead_count=dead_count,
        dead_pct=dead_pct,
        max_drag=max_drag,
        max_drag_pct=max_pct,
        avg_drag=avg_drag,
        avg_drag_pct=avg_pct,
        reachable_integral=reachable,
        live_integral=live,
        savings_pct=savings,
        histogram=histogram(dead_drags, log.end_tick),
    )
    return report, series


# ---------------------------------------------------------------------------
# Output files

# report.csv's columns: every DragReport field but the histogram
REPORT_FIELDS = [name for name in DragReport._fields if name != "histogram"]
_FLOAT_FIELDS = {"dead_pct", "max_drag_pct", "avg_drag", "avg_drag_pct",
                 "savings_pct"}


def write_curves_csv(series: CurveSeries, fh):
    w = csv.writer(fh, lineterminator="\n")
    w.writerow(["tick", "reachable", "live"])
    for t, reach, live in series.points:
        w.writerow([t, reach, live])


def write_histogram_csv(bins, fh):
    w = csv.writer(fh, lineterminator="\n")
    w.writerow(["bin_lo", "bin_hi", "count"])
    for b, count in enumerate(bins):
        w.writerow([b * BIN_WIDTH_PCT, (b + 1) * BIN_WIDTH_PCT, count])


def write_report_csv(report: DragReport, fh):
    w = csv.writer(fh, lineterminator="\n")
    w.writerow(REPORT_FIELDS)
    w.writerow([f"{getattr(report, name):.2f}" if name in _FLOAT_FIELDS
                else getattr(report, name) for name in REPORT_FIELDS])


def format_text_report(report: DragReport, dead_threshold: int) -> str:
    lines = [
        f"drag report: source={report.source}  "
        f"runtime={report.end_tick} ticks",
        "",
        "space-time product",
        "  reachable-integral  live-integral  potential-savings-%",
        f"  {report.reachable_integral:<18}  {report.live_integral:<13}  "
        f"{report.savings_pct:.2f}",
        "",
        f"dead objects (drag > {dead_threshold} ticks)",
        "  allocated  dead  dead-%",
        f"  {report.allocated:<9}  {report.dead_count:<4}  "
        f"{report.dead_pct:.2f}",
        "",
        "drag vs runtime",
        "  max-drag  max-drag-%  avg-drag  avg-drag-%",
        f"  {report.max_drag:<8}  {report.max_drag_pct:<10.2f}  "
        f"{report.avg_drag:<8.2f}  {report.avg_drag_pct:.2f}",
        "",
        "drag distribution (dead objects, drag as % of runtime)",
    ]
    for b, count in enumerate(report.histogram):
        lo, hi = b * BIN_WIDTH_PCT, (b + 1) * BIN_WIDTH_PCT
        closer = "]" if hi == 100 else ")"
        lines.append(f"  [{lo:3d},{hi:4d}{closer}  {count}")
    return "\n".join(lines) + "\n"
