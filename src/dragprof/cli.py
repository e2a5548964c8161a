"""Batch front-end: run instrumented programs, analyze logs, emit plots.

Exit codes for run: 0 success, 1 unreadable source, unwritable log or
syntax error, 2 runtime error, 3 out of memory.  run hands the log
file's writer to the run, which writes the whole log as it goes (its
header, a sealed tick at a time, its END line), so a log path that
cannot be written is reported before the program runs.  analyze and
plot exit 1 on input that is unreadable, not UTF-8 or malformed, and on
output they cannot write.  A usage error (an unknown command, a missing
or malformed argument) exits 1 with the usage message.  Every output
that is missing or a regular file is written to a temp name and
renamed, so a failed command never leaves a partial file behind (see
atomic.py).

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
# call takes one Python frame, its callee's generated function (plus one
# for each function that branches nested past interp._SPLIT are moved
# into), so this allows non-tail recursion nearly forty thousand deep;
# deeper recursion is the runtime error "recursion too deep".  Compiling
# takes three frames per level of nesting, so a form about thirteen
# thousand deep is the deepest that compiles.  The limit is safe only
# because Python 3.11 and later run a Python-to-Python call without C
# stack; on 3.10 each frame also nests a C eval frame and this many would
# overflow the main thread's stack, which is why the package needs
# Python 3.11.
RUN_RECURSION_LIMIT = 40_000


def _fail(message: str, code: int) -> int:
    print(f"dragprof: {message}", file=sys.stderr)
    return code


def _cannot(verb: str, path, exc) -> int:
    """Exit 1 for a file that could not be read (OSError or text that is
    not UTF-8) or written."""
    why = (f"not UTF-8 text (byte {exc.start})"
           if isinstance(exc, UnicodeDecodeError) else exc.strerror)
    return _fail(f"cannot {verb} {path}: {why}", EXIT_INPUT)


def _write_outputs(out_dir: Path, texts) -> int | None:
    """Write each text to out_dir / its name, making out_dir if needed;
    the exit code if that fails, else None."""
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, text in texts.items():
            atomic.write_text(out_dir / name, text)
    except OSError as exc:
        return _cannot("write", out_dir, exc)
    return None


def cmd_run(args) -> int:
    from .interp import run_source

    source_path = Path(args.source)
    # the name goes on the log's header line, in UTF-8; a \n would end
    # that line, and a lone surrogate (a byte of the file name that is
    # not UTF-8) cannot be encoded
    if any(c == "\n" or "\ud800" <= c <= "\udfff"
           for c in source_path.name):
        return _fail(f"cannot log {str(source_path)!r}: its name is not "
                     "one line of UTF-8 text", EXIT_INPUT)
    try:
        source_text = source_path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return _cannot("read", source_path, exc)
    log_path = (Path(args.log) if args.log
                else Path(source_path.stem + ".draglog"))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, RUN_RECURSION_LIMIT))
    try:
        # the run writes its whole log to the file as it goes
        with atomic.opened(log_path) as write:
            result = run_source(source_text,
                                gc_interval=args.gc_interval,
                                heap_slots=args.heap_slots,
                                source_name=source_path.name, write=write)
    except OSError as exc:
        return _cannot("write", log_path, exc)
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
    trace = result.trace_log
    print(f"log: {log_path} ({trace.record_count} records, "
          f"end tick {trace.end_tick})")
    return EXIT_OK


def cmd_analyze(args) -> int:
    from . import analyzer
    from .profiler import read_draglog

    log_path = Path(args.log)
    try:
        log = read_draglog(log_path)
    except (OSError, UnicodeDecodeError) as exc:
        return _cannot("read", log_path, exc)
    except DraglogFormatError as exc:
        return _fail(f"malformed log {log_path}: {exc}", EXIT_INPUT)

    threshold = (args.dead_threshold if args.dead_threshold is not None
                 else log.gc_interval)
    try:
        report, series = analyzer.build_report(log, args.sample_interval,
                                               threshold)
    except ValueError as exc:  # too many samples to hold
        return _fail(f"cannot analyze {log_path}: {exc}", EXIT_INPUT)
    outputs = {}
    for name, write_csv, data in [
            ("report.csv", analyzer.write_report_csv, report),
            ("curves.csv", analyzer.write_curves_csv, series),
            ("histogram.csv", analyzer.write_histogram_csv, report.histogram)]:
        buf = io.StringIO()
        write_csv(data, buf)
        outputs[name] = buf.getvalue()
    text = outputs["report.txt"] = analyzer.format_text_report(report,
                                                               threshold)
    out_dir = Path(args.out_dir) if args.out_dir else log_path.parent
    if (code := _write_outputs(out_dir, outputs)) is not None:
        return code

    sys.stdout.write(text)
    print(f"wrote report.csv, curves.csv, histogram.csv, report.txt "
          f"to {out_dir}")
    return EXIT_OK


def cmd_plot(args) -> int:
    from . import plot

    curves_path = Path(args.curves_csv)
    hist_path = Path(args.histogram_csv)
    path = curves_path
    try:
        points = plot.read_curves_csv(path)
        path = hist_path
        bins = plot.read_histogram_csv(path)
    except (OSError, UnicodeDecodeError) as exc:
        return _cannot("read", path, exc)
    except CsvFormatError as exc:
        return _fail(str(exc), EXIT_INPUT)

    if args.plot_format == "svg":
        suffix, texts = ".svg", [plot.curves_svg(points),
                                 plot.histogram_svg(bins)]
    else:
        suffix, texts = ".gp", [plot.curves_gnuplot(args.curves_csv),
                                plot.histogram_gnuplot(args.histogram_csv)]
    out_dir = Path(args.out_dir) if args.out_dir else curves_path.parent
    names = [curves_path.stem + suffix, hist_path.stem + suffix]
    if (code := _write_outputs(out_dir, dict(zip(names, texts)))) is not None:
        return code
    print(f"wrote {out_dir / names[0]} and {out_dir / names[1]}")
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


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1, not argparse's 2,
    which is the exit code of a Scheme runtime error."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
