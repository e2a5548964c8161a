"""Differential check of two checkouts: same programs, same outputs.

    python3 tools/differential.py OLD_ROOT NEW_ROOT

Generates the sources once, in this process: the ProgramGenerator corpus
of tests/support.py (seeds 0-199), its LIMIT_PROGRAMS (programs at
Python's static limits, which the generated code must split or keep out
of its text), its RULE_PROGRAMS (tail calls at the edges of the run-time
test that runs a call of a body's own code as a loop, the cases the
inline primitive bodies leave to the primitives, the order operands
are read in, each where it stands, and ghosts logged out of id order
before the last point) and the bundled
programs of this checkout's src/dragprof/programs.  Each source runs at
every gc_interval K in KS and every heap size in HEAPS, where most
bundled and limit programs run out of memory; the bundled, limit and
rule programs also run at every K at the default heap, where they run to
the end.  The benchmark's workload programs (perfbench/workloads.py) run
in full at every seed in WORKLOAD_SEEDS, each at its own K and heap
size.  Each checkout runs them all in its own child process, with only
that checkout's src on PYTHONPATH, through dragprof.interp.run_source
under the CLI's recursion limit.  Per run, the two must agree on the
result (the value's rendering or the exception's type and text), the
run's DRAGLOG text (dragprof.profiler.format_draglog, the bytes
`dragprof run` writes), the CollectionStats list, what the
program displayed, the root set of every collection point (as sorted
object ids, so the order the interpreter walks its roots in may change)
and the analysis of the log: the four outputs of `dragprof analyze`
(parse_draglog, build_report, the three CSV writers and
format_text_report), and how the log parses with one or two of its
lines changed, as the run's index picks (mutate_lines): its columns,
or the error's line and message; a log that does not parse at all is
compared by its parse error.

Exits 0 when every run agrees, 1 listing the first differing runs
otherwise.  Takes a few minutes on two cores.
"""

import hashlib
import importlib.util
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEEDS = range(200)
KS = (1, 3, 16, 1000)
HEAPS = (16, 24, 40, 64, 128, 512)
FULL_HEAP = 2 ** 16  # dragprof.defaults.DEFAULT_HEAP_SLOTS
WORKLOAD_SEEDS = (0, 1)
FIELDS = ("result", "draglog", "collections", "display", "roots",
          "analysis")
SHOWN = 10  # differing runs listed
# What mutate_lines may put in a field: a value no field of a DRAGLOG
# line takes.
BAD_VALUES = ["x", "", "+1", "1_0", "Q"]
# The other valid token of a record's kind or censored flag, which
# mutate_line may put in its place.
OTHER_TOKEN = {"P": "V", "V": "P", "C": "F", "F": "C"}


def corpus():
    """([(name, source)] of the generated programs, the same of the
    bundled, limit and rule ones)."""
    root = HERE.parent
    sys.path[:0] = [str(root / "src"), str(root / "tests")]
    from support import LIMIT_PROGRAMS, RULE_PROGRAMS, ProgramGenerator
    generated = [(f"seed-{seed}", ProgramGenerator(seed).program())
                 for seed in SEEDS]
    bundled = [(path.name, path.read_text(encoding="utf-8"))
               for path in sorted((root / "src" / "dragprof" / "programs")
                                  .glob("*.scm"))]
    return generated, (bundled + sorted(LIMIT_PROGRAMS.items())
                       + sorted(RULE_PROGRAMS.items()))


def workload_jobs():
    """A job per benchmark workload and seed in WORKLOAD_SEEDS, at the
    workload's own K and heap size.  perfbench is no package, so its
    workloads module is loaded by path."""
    path = HERE.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    jobs = []
    for name in workloads.NAMES:
        for seed in WORKLOAD_SEEDS:
            w = workloads.make(name, seed)
            jobs.append((f"{name}-seed-{seed}", w.source, w.gc_interval,
                         w.heap_slots))
    return jobs


def _digest(text):
    return hashlib.sha256(text.encode("utf-8", "surrogatepass")) \
        .hexdigest()[:16]


def child():
    """Run the jobs read from stdin; print dragprof's location, then
    one JSON line of field digests per run."""
    import contextlib

    import dragprof
    from dragprof.cli import RUN_RECURSION_LIMIT
    from dragprof.interp import run_source
    from dragprof.profiler import format_draglog
    from dragprof.runtime import Runtime

    points = []
    open_point = Runtime.open_point

    def recording_open_point(rt, trigger, roots=()):
        points.append(sorted(ref.obj_id for ref in roots))
        open_point(rt, trigger, roots)
    Runtime.open_point = recording_open_point

    sys.setrecursionlimit(RUN_RECURSION_LIMIT)
    print(json.dumps(dragprof.__file__), flush=True)
    for index, (name, source, k, heap) in enumerate(json.load(sys.stdin)):
        shown = io.StringIO()
        log = collections = ""
        points.clear()
        try:
            with contextlib.redirect_stdout(shown):
                r = run_source(source, gc_interval=k, heap_slots=heap,
                               source_name=name)
            result = "value " + r.value_repr
            log = format_draglog(r.trace_log)
            collections = repr(r.collections)
        except Exception as exc:  # every outcome is compared, not judged
            result = f"error {type(exc).__name__}: {exc}"
        print(json.dumps([_digest(t) for t in
                          (result, log, collections, shown.getvalue(),
                           repr(points), analysis(log, index))]),
              flush=True)


def analysis(text, index):
    """What analyze makes of a DRAGLOG text, and how the text parses with
    its lines mutated as the run's index picks; the parse error if the
    text itself does not parse."""
    if not text:
        return ""
    from dragprof import analyzer
    from dragprof.profiler import parse_draglog
    try:
        log = parse_draglog(text)
    except Exception as exc:  # compared, not judged
        return _digest(f"{type(exc).__name__}: {exc}")
    report, series = analyzer.build_report(log)
    out = io.StringIO()
    analyzer.write_report_csv(report, out)
    analyzer.write_curves_csv(series, out)
    analyzer.write_histogram_csv(report.histogram, out)
    out.write(analyzer.format_text_report(report, log.gc_interval))
    try:
        mutated = parse_draglog(mutate_lines(text, index))
        outcome = repr((mutated.gc_interval, mutated.heap_slots,
                        mutated.source, mutated.end_tick, columns(mutated)))
    except Exception as exc:  # compared, not judged
        outcome = f"{type(exc).__name__}: {exc}"
    return _digest(out.getvalue()) + " " + _digest(outcome)


def mutate_lines(text, index):
    """text with a line changed as mutate_line does, and for index % 4 == 1
    a later line too; for index % 4 == 3 two fields of one line are
    replaced by bad values instead.  Two faults show which one the
    parser reports first: across lines, and within one."""
    rng = random.Random(index)
    lines = text.split("\n")[:-1]
    i = rng.randrange(len(lines))
    if index % 4 == 3:
        fields = lines[i].split(" ")
        for j in rng.sample(range(len(fields)), min(2, len(fields))):
            fields[j] = rng.choice(BAD_VALUES)
        lines[i] = " ".join(fields)
    else:
        i = mutate_line(lines, i, rng)
        if index % 4 == 1 and i < len(lines):
            mutate_line(lines, rng.randrange(i, len(lines)), rng)
    return "\n".join(lines) + "\n"


def mutate_line(lines, i, rng):
    """Change lines[i]: a field replaced by a bad or a shifted value or
    respelled with a leading zero, a kind or censored flag replaced by
    the other one, a field added, or the line emptied, dropped, doubled
    or swapped with the next.  Returns the index of the first line after
    the change."""
    fields = lines[i].split(" ")
    j = rng.randrange(len(fields))
    how = rng.randrange(9)
    if how == 0:
        fields[j] = rng.choice(BAD_VALUES)
    elif how == 1:
        if fields[j].lstrip("-").isdigit():
            fields[j] = str(int(fields[j]) + rng.choice([-2, -1, 1, 2]))
    elif how == 2:
        fields[j] = "0" + fields[j]
    elif how == 3:
        fields.insert(j, "0")
    elif how == 4:
        fields = [""]
    elif how == 5:
        tokens = [k for k, f in enumerate(fields) if f in OTHER_TOKEN]
        if tokens:
            k = rng.choice(tokens)
            fields[k] = OTHER_TOKEN[fields[k]]
    if how < 6:
        lines[i] = " ".join(fields)
    elif how == 6:
        del lines[i]
        return i
    elif how == 7:
        lines.insert(i, lines[i])
    else:
        lines[i:i + 2] = reversed(lines[i:i + 2])
    return i + 1


def columns(log):
    """A parsed log's columns, as lists."""
    return [list(c) for c in log.columns]


def start(root, jobs):
    env = dict(os.environ, PYTHONPATH=str(Path(root).resolve() / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    # a file, not a pipe, so neither child waits for the other's reader
    out = tempfile.TemporaryFile("w+", encoding="utf-8")
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--child"],
        stdin=subprocess.PIPE, stdout=out, env=env, text=True)
    proc.stdin.write(json.dumps(jobs))
    proc.stdin.close()
    proc.out = out
    return proc


def results(proc, root):
    """The child's per-run digests; exits 1 if it imported dragprof from
    anywhere but root/src or did not finish."""
    src = Path(root).resolve() / "src"
    proc.wait()
    proc.out.seek(0)
    lines = proc.out.read().splitlines()
    proc.out.close()
    if proc.returncode != 0 or not lines:
        sys.exit(f"differential: the run of {root} failed "
                 f"(exit {proc.returncode})")
    if src not in Path(json.loads(lines[0])).parents:
        sys.exit(f"differential: {root} imported dragprof from "
                 f"{json.loads(lines[0])}")
    return [json.loads(line) for line in lines[1:]]


def main(argv):
    if argv == ["--child"]:
        child()
        return 0
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    generated, bundled = corpus()
    jobs = [(name, source, k, heap) for name, source in generated + bundled
            for k in KS for heap in HEAPS]
    jobs += [(name, source, k, FULL_HEAP) for name, source in bundled
             for k in KS]
    workload = workload_jobs()
    jobs += workload
    procs = [start(root, jobs) for root in argv]
    old, new = (results(proc, root) for proc, root in zip(procs, argv))
    if len(old) != len(jobs) or len(new) != len(jobs):
        print(f"differential: expected {len(jobs)} runs, got "
              f"{len(old)} and {len(new)}", file=sys.stderr)
        return 1
    differing = [(job, [f for f, a, b in zip(FIELDS, x, y) if a != b])
                 for job, x, y in zip(jobs, old, new) if x != y]
    print(f"{len(jobs)} runs ({len(generated) + len(bundled)} programs x "
          f"K {list(KS)} x heap {list(HEAPS)}, {len(bundled)} bundled, "
          f"limit and rule x K {list(KS)} x heap {FULL_HEAP}, {len(workload)} "
          f"workload runs): {len(differing)} differences")
    for (name, _, k, heap), fields in differing[:SHOWN]:
        print(f"  {name} K={k} heap={heap}: {', '.join(fields)} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
