"""In-process spans around the public entry points of each dragprof layer.

Nothing under src/ is changed: the tracer replaces module functions and
class methods where callers look them up, for the duration of a `with`
block, and restores them afterwards.  Each call becomes a span; a span's
self time is its duration minus the durations of the spans it called,
so the self times of all spans, including the root span around the CLI
entry point, add up to the traced wall time.  The root span's self time
is the part no wrapped layer accounts for.
"""

import contextlib
import math
import time
from collections import Counter, defaultdict

from dragprof import analyzer, cli, interp, plot, profiler
from dragprof.gc import Collector, reachability_oracle
from dragprof.interp import Interpreter
from dragprof.runtime import Runtime

ROOT = "cli"

# (owner, attribute, layer): every entry point a span is recorded around.
ENTRY_POINTS = [
    (interp, "parse", "interp.parse"),
    (Interpreter, "eval_program", "interp.eval"),
    (Runtime, "alloc_pair", "runtime.alloc"),
    (Runtime, "alloc_vector", "runtime.alloc"),
    (Runtime, "gather_roots", "runtime.gather_roots"),
    (Runtime, "record_use", "profiler.use"),
    (Collector, "collect", "gc.collect"),
    (profiler, "format_draglog", "profiler.format"),
    (profiler, "parse_draglog", "profiler.parse"),
    (analyzer, "build_report", "analyzer.build_report"),
    (analyzer, "curves", "analyzer.curves"),
    (analyzer, "write_report_csv", "analyzer.csv"),
    (analyzer, "write_curves_csv", "analyzer.csv"),
    (analyzer, "write_histogram_csv", "analyzer.csv"),
    (plot, "read_curves_csv", "plot.read_csv"),
    (plot, "read_histogram_csv", "plot.read_csv"),
    (plot, "curves_svg", "plot.render"),
    (plot, "histogram_svg", "plot.render"),
]


@contextlib.contextmanager
def replaced(replacements):
    """Set (owner, attribute, value) triples, restoring them on exit."""
    saved = [(owner, attr, getattr(owner, attr))
             for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


class Tracer:
    """Spans and counters of one traced pipeline (run, analyze, plot)."""

    def __init__(self):
        self.self_s = defaultdict(float)   # layer -> self seconds
        # (command, layer, parent layer) -> self seconds: where it sits
        self.where = defaultdict(float)
        self.calls = Counter()
        self.command = "-"
        self.wall_s = 0.0
        self.command_wall = defaultdict(float)
        self._stack = []                   # [layer, child seconds]
        # Collection counters, one entry per collection.
        self.pauses = []
        self.roots = []
        self.stats = []
        self.peak_used_slots = 0
        self.log_bytes = 0
        self.records = 0

    def span(self, layer, fn):
        """Wrap fn so that every call is recorded as a span of layer."""
        stack = self._stack
        clock = time.perf_counter
        self_s = self.self_s
        calls = self.calls
        where = self.where

        def traced(*args, **kwargs):
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                own = dt - frame[1]
                self_s[layer] += own
                calls[layer] += 1
                parent = stack[-1][0] if stack else "-"
                where[self.command, layer, parent] += own
                if stack:
                    stack[-1][1] += dt

        return traced

    def _replacements(self):
        out = []
        for owner, attr, layer in ENTRY_POINTS:
            timed = self.span(layer, getattr(owner, attr))
            if attr == "collect":
                timed = self._collect(timed)
            elif attr == "format_draglog":
                timed = self._format(timed)
            elif attr == "build_report":
                timed = self._build_report(timed)
            out.append((owner, attr, timed))
        return out

    def _collect(self, timed):
        clock = time.perf_counter

        def collect(collector, roots, clock_tick, trigger="manual"):
            self.peak_used_slots = max(self.peak_used_slots,
                                       collector.heap.used_slots)
            self.roots.append(len(roots))
            t0 = clock()
            stats = timed(collector, roots, clock_tick, trigger)
            self.pauses.append(clock() - t0)
            self.stats.append(stats)
            return stats

        return collect

    def _format(self, timed):
        def format_draglog(log):
            text = timed(log)
            self.log_bytes += len(text.encode("utf-8"))
            return text

        return format_draglog

    def _build_report(self, timed):
        def build_report(log, *args, **kwargs):
            self.records += len(log.records)
            return timed(log, *args, **kwargs)

        return build_report

    @contextlib.contextmanager
    def active(self):
        with replaced(self._replacements()):
            yield

    def cli_main(self, command, argv):
        """Run one CLI command under the root span; returns its exit code."""
        self.command = command
        t0 = time.perf_counter()
        try:
            return self.span(ROOT, cli.main)([command, *argv])
        finally:
            dt = time.perf_counter() - t0
            self.wall_s += dt
            self.command_wall[command] += dt

    def metrics(self):
        """Per-layer metrics of this pipeline, by name."""
        s = self.self_s
        stats = self.stats
        survivors = sum(st.survivors for st in stats)
        collected = sum(st.collected for st in stats)
        pauses_ms = sorted(p * 1000 for p in self.pauses)
        return {
            "interp.parse_s": s["interp.parse"],
            "interp.eval_self_s": s["interp.eval"],
            "runtime.allocs": self.calls["runtime.alloc"],
            "runtime.alloc_self_s": s["runtime.alloc"],
            "runtime.gather_roots_s": s["runtime.gather_roots"],
            "runtime.roots_per_gc": (sum(self.roots) / len(self.roots)
                                     if self.roots else 0.0),
            "heap.peak_used_slots": self.peak_used_slots,
            "profiler.uses": self.calls["profiler.use"],
            "profiler.use_s": s["profiler.use"],
            "profiler.format_s": s["profiler.format"],
            "profiler.parse_s": s["profiler.parse"],
            "profiler.log_bytes": self.log_bytes,
            "gc.collect_s": s["gc.collect"],
            "gc.collections": len(stats),
            "gc.collections_exhaustion": sum(
                1 for st in stats if st.trigger == "exhaustion"),
            "gc.pause_max_ms": pauses_ms[-1] if pauses_ms else 0.0,
            "gc.pause_p99_ms": nearest_rank(pauses_ms, 0.99),
            "gc.slots_copied": sum(st.slots_copied for st in stats),
            "gc.reclaim_ratio": (collected / (survivors + collected)
                                 if survivors + collected else 0.0),
            "analyzer.build_report_s": s["analyzer.build_report"],
            "analyzer.curves_s": s["analyzer.curves"],
            "analyzer.csv_s": s["analyzer.csv"],
            "analyzer.records": self.records,
            "plot.read_csv_s": s["plot.read_csv"],
            "plot.render_s": s["plot.render"],
            "trace.unaccounted_s": s[ROOT],
        }


def where_table(tracers):
    """Self time per (command, layer, parent), summed over the traced
    pipelines, largest first, with its share of the traced wall time."""
    total = defaultdict(float)
    for t in tracers:
        for key, s in t.where.items():
            total[key] += s
    wall = sum(t.wall_s for t in tracers)
    rows = sorted(total.items(), key=lambda kv: -kv[1])
    return [{"command": c, "layer": layer, "parent": parent, "self_s": s,
             "share": s / wall if wall else 0.0}
            for (c, layer, parent), s in rows]


def unaccounted_share(tracers):
    """Share of the traced wall time that no wrapped layer accounts for."""
    wall = sum(t.wall_s for t in tracers)
    return sum(t.self_s[ROOT] for t in tracers) / wall if wall else 0.0


def nearest_rank(sorted_values, q):
    """The q-quantile of sorted values by the nearest-rank rule."""
    if not sorted_values:
        return 0.0
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


class OracleCheck:
    """Cross-checks every collection against gc.reachability_oracle: the
    survivors must be exactly the objects reachable from the roots the
    collection was given."""

    def __init__(self):
        self.collections = 0
        self.mismatches = []

    @contextlib.contextmanager
    def active(self):
        original = Collector.collect

        def collect(collector, roots, clock, trigger="manual"):
            expected = reachability_oracle(collector.heap, roots)
            stats = original(collector, roots, clock, trigger)
            self.collections += 1
            survivors = set(collector.heap.objects)
            if survivors != expected:
                self.mismatches.append(
                    (clock, trigger, len(survivors ^ expected)))
            return stats

        with replaced([(Collector, "collect", collect)]):
            yield
