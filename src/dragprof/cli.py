"""Batch front-end: run instrumented programs, analyze logs, emit plots.

Exit codes for run: 0 success, 1 unreadable source or syntax error,
2 runtime error, 3 out of memory.  analyze and plot exit 1 on malformed
input.  Every output file is written to a temp name and renamed, so a
failed command never leaves a partial file behind.

Each command imports only the layers it uses: `run` the interpreter and
runtime, `analyze` the log parser and the analyzer, `plot` the plot
emitters.
"""

import argparse
import io
import sys
from collections import Counter
from pathlib import Path

from . import atomic
from .defaults import DEFAULT_GC_INTERVAL, DEFAULT_HEAP_SLOTS
from .errors import (
    CsvFormatError,
    DraglogFormatError,
    OutOfMemory,
    SchemeRuntimeError,
    SchemeSyntaxError,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_RUNTIME = 2
EXIT_OOM = 3

# Python recursion limit for the duration of `run`.  A non-tail Scheme
# call takes three or four Python frames of the evaluator, so this
# allows non-tail recursion about ten thousand deep; deeper recursion is
# the runtime error "recursion too deep".  The limit is safe only because
# Python 3.11 and later run a Python-to-Python call without C stack; on
# 3.10 each frame also nests a C eval frame and this many would overflow
# the main thread's stack, which is why the package needs Python 3.11.
RUN_RECURSION_LIMIT = 40_000


def _fail(message: str, code: int) -> int:
    print(f"dragprof: {message}", file=sys.stderr)
    return code


def cmd_run(args) -> int:
    from .interp import run_source
    from .profiler import write_draglog

    source_path = Path(args.source)
    try:
        source_text = source_path.read_text(encoding="utf-8")
    except OSError as exc:
        return _fail(f"cannot read {source_path}: {exc.strerror}", EXIT_INPUT)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, RUN_RECURSION_LIMIT))
    try:
        result = run_source(source_text,
                            gc_interval=args.gc_interval,
                            heap_slots=args.heap_slots,
                            source_name=source_path.name)
    except ValueError as exc:  # configuration out of range
        return _fail(str(exc), EXIT_INPUT)
    except SchemeSyntaxError as exc:
        return _fail(f"syntax error in {source_path.name}: {exc}", EXIT_INPUT)
    except SchemeRuntimeError as exc:
        return _fail(f"runtime error in {source_path.name}: {exc}",
                     EXIT_RUNTIME)
    except OutOfMemory as exc:
        return _fail(f"out of memory in {source_path.name}: {exc}", EXIT_OOM)
    finally:
        sys.setrecursionlimit(limit)

    log_path = (Path(args.log) if args.log
                else Path(source_path.stem + ".draglog"))
    write_draglog(result.trace_log, log_path)

    triggers = Counter(s.trigger for s in result.collections)
    survivors = sum(s.survivors for s in result.collections)
    collected = sum(s.collected for s in result.collections)
    copied = sum(s.slots_copied for s in result.collections)
    print(f"result: {result.value_repr}")
    print(f"collections: {len(result.collections)} "
          f"(interval {triggers.get('interval', 0)}, "
          f"exhaustion {triggers.get('exhaustion', 0)}, "
          f"manual {triggers.get('manual', 0)}); "
          f"survivors {survivors}, collected {collected}; "
          f"slots copied {copied}")
    print(f"log: {log_path} ({len(result.trace_log.records)} records, "
          f"end tick {result.trace_log.end_tick})")
    return EXIT_OK


def cmd_analyze(args) -> int:
    from . import analyzer
    from .profiler import read_draglog

    log_path = Path(args.log)
    try:
        log = read_draglog(log_path)
    except OSError as exc:
        return _fail(f"cannot read {log_path}: {exc.strerror}", EXIT_INPUT)
    except DraglogFormatError as exc:
        return _fail(f"malformed log {log_path}: {exc}", EXIT_INPUT)

    threshold = (args.dead_threshold if args.dead_threshold is not None
                 else log.gc_interval)
    report, series = analyzer.build_report(log, args.sample_interval,
                                           threshold)
    out_dir = Path(args.out_dir) if args.out_dir else log_path.parent
    out_dir.mkdir(parents=True, exist_ok=True)

    buf = io.StringIO()
    analyzer.write_report_csv(report, buf)
    atomic.write_text(out_dir / "report.csv", buf.getvalue())
    buf = io.StringIO()
    analyzer.write_curves_csv(series, buf)
    atomic.write_text(out_dir / "curves.csv", buf.getvalue())
    buf = io.StringIO()
    analyzer.write_histogram_csv(report.histogram, buf)
    atomic.write_text(out_dir / "histogram.csv", buf.getvalue())
    text = analyzer.format_text_report(report, threshold)
    atomic.write_text(out_dir / "report.txt", text)

    sys.stdout.write(text)
    print(f"wrote report.csv, curves.csv, histogram.csv, report.txt "
          f"to {out_dir}")
    return EXIT_OK


def cmd_plot(args) -> int:
    from . import plot

    curves_path = Path(args.curves_csv)
    hist_path = Path(args.histogram_csv)
    try:
        points = plot.read_curves_csv(curves_path)
        bins = plot.read_histogram_csv(hist_path)
    except OSError as exc:
        return _fail(f"cannot read csv: {exc.strerror}", EXIT_INPUT)
    except CsvFormatError as exc:
        return _fail(str(exc), EXIT_INPUT)

    out_dir = Path(args.out_dir) if args.out_dir else curves_path.parent
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.plot_format == "svg":
        curves_out = out_dir / (curves_path.stem + ".svg")
        hist_out = out_dir / (hist_path.stem + ".svg")
        atomic.write_text(curves_out, plot.curves_svg(points))
        atomic.write_text(hist_out, plot.histogram_svg(bins))
    else:
        curves_out = out_dir / (curves_path.stem + ".gp")
        hist_out = out_dir / (hist_path.stem + ".gp")
        atomic.write_text(curves_out, plot.curves_gnuplot(args.curves_csv))
        atomic.write_text(hist_out, plot.histogram_gnuplot(args.histogram_csv))
    print(f"wrote {curves_out} and {hist_out}")
    return EXIT_OK


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _non_negative_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be non-negative")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dragprof",
        description="Run mini-Scheme programs under an instrumented "
                    "copying collector and analyze how long dead objects "
                    "linger on the heap.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a program, writing a trace log")
    p_run.add_argument("source", help="program file (.scm)")
    p_run.add_argument("--gc-interval", type=_positive_int,
                       default=DEFAULT_GC_INTERVAL, metavar="K",
                       help="collect after every K allocations "
                            "(default %(default)s)")
    p_run.add_argument("--heap-slots", type=_positive_int,
                       default=DEFAULT_HEAP_SLOTS, metavar="N",
                       help="semispace capacity in slots "
                            "(default %(default)s)")
    p_run.add_argument("--log", metavar="PATH",
                       help="trace log path (default <source stem>.draglog)")
    p_run.set_defaults(fn=cmd_run)

    p_an = sub.add_parser("analyze",
                          help="turn a trace log into reports and CSVs")
    p_an.add_argument("log", help="trace log produced by run")
    p_an.add_argument("--sample-interval", type=_positive_int, default=None,
                      metavar="T",
                      help="curve sampling step in ticks "
                           "(default runtime/500)")
    p_an.add_argument("--dead-threshold", type=_non_negative_int,
                      default=None, metavar="T",
                      help="drag above which an object counts as dead "
                           "(default: the log's gc interval)")
    p_an.add_argument("--out-dir", metavar="DIR",
                      help="output directory (default: alongside the log)")
    p_an.set_defaults(fn=cmd_analyze)

    p_pl = sub.add_parser("plot", help="render analyze CSVs as plots")
    p_pl.add_argument("curves_csv", help="curves.csv from analyze")
    p_pl.add_argument("histogram_csv", help="histogram.csv from analyze")
    p_pl.add_argument("--plot-format", choices=("svg", "gnuplot"),
                      default="svg")
    p_pl.add_argument("--out-dir", metavar="DIR",
                      help="output directory (default: alongside the CSVs)")
    p_pl.set_defaults(fn=cmd_plot)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
