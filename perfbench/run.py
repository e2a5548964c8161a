"""Benchmark of the dragprof pipeline: run, analyze and plot.

    python3 perfbench/run.py --workload retain-k1 --seed 0 --seconds 30 \
        --trace 0

Run from the root of a checkout; the package is imported from src/.
One invocation does, in order:

1. set-up (timed, repeated, median reported as setup_s): make the
   workload's program from the seed, compute the result it must print
   in plain Python, write it to a work directory and start the CLI once
   so that no timed command pays for compiling bytecode;
2. a verify pass (untimed): the program runs in-process with every
   collection cross-checked against dragprof.gc.reachability_oracle;
3. the measurement, for --seconds seconds, one pipeline at a time.
   With --trace 0 each `dragprof run`, `analyze` and `plot` is its own
   child process, timed from spawn to exit, with the run's peak RSS
   as the kernel reports it at exit.  With --trace 1 the commands run in-process, alternating
   an untraced `run` with a traced pipeline whose layer entry points
   are wrapped (see tracer.py).

End-to-end times (set-up included) are scaled to a nominal machine
speed measured alongside them; see "Machine speed" below.  Per-layer
times are raw: they split one traced run.

Every pipeline's outputs are checked: exit codes, the printed result,
the trace log's shape and invariants, and at the default seed the
sha256 of the log, the CSVs and the SVGs against digests.json.  The last
line of standard output is one JSON object: correct, attempted, failed
and the metrics (end-to-end ones with --trace 0, per-layer ones with
--trace 1).  The lines before it give each metric's quartiles and
sample count, the machine, the commit and the per-layer self times.

    python3 perfbench/run.py --workload retain-k1 --record-digests

records the default-seed digests of a workload in digests.json.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
DIGESTS = HERE / "digests.json"

SETUP_REPEATS = 7
# Times are scaled to a machine on which reference_work() takes this long.
REFERENCE_SECONDS = 0.15
# The root span's self time (CLI glue no layer accounts for) may be at
# most this share of the traced wall time before a warning is printed.
UNACCOUNTED_TOLERANCE = 0.05
OUTPUT_FILES = ("trace.draglog", "report.csv", "curves.csv",
                "histogram.csv", "curves.svg", "histogram.svg")

END_TO_END_UNITS = {
    "run_s": "s", "report_s": "s", "pipeline_s": "s",
    "ticks_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s",
}


# ---------------------------------------------------------------------------
# Children

def _child_env():
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return env


# Runs the CLI as `python -m dragprof.cli` would, then writes the peak
# resident set of the process (VmHWM, KiB) to the file named by argv[1].
# wait4's ru_maxrss cannot stand in: it also counts the resident set the
# parent had when it forked the child.
_CLI = """\
import atexit, runpy, sys
def _peak(path=sys.argv.pop(1)):
    with open('/proc/self/status') as status, open(path, 'w') as out:
        out.write(next(l for l in status if l.startswith('VmHWM:')).split()[1])
atexit.register(_peak)
runpy.run_module('dragprof.cli', run_name='__main__', alter_sys=True)
"""


def run_child(args, out_path, cwd):
    """Run the dragprof CLI with ARGS in a child process, stdout and
    stderr to out_path.  Returns (exit code, wall seconds, peak RSS in
    KiB)."""
    peak_path = Path(str(out_path) + ".peak")
    cmd = [sys.executable, "-c", _CLI, peak_path, *args]
    with open(out_path, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(list(map(str, cmd)), stdout=out,
                                stderr=subprocess.STDOUT, cwd=cwd,
                                env=_child_env())
        try:
            code = proc.wait()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    peak = int(peak_path.read_text()) if peak_path.is_file() else 0
    return code, wall, peak


def warm_cli(cwd):
    code = subprocess.run([sys.executable, "-c", "import dragprof.cli"],
                          cwd=cwd, env=_child_env()).returncode
    if code != 0:
        raise RuntimeError("cannot import dragprof.cli from src/")


# ---------------------------------------------------------------------------
# Machine speed
#
# The speed of a shared host drifts by a quarter or more over minutes.
# Every timed step is therefore bracketed by two runs of a fixed piece of
# plain Python, and its wall time is scaled by REFERENCE_SECONDS over
# their mean: what the step would take on a machine running the
# reference at its nominal speed.  The raw wall times are reported too.

class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


def reference_work():
    """Fixed work of the kind the runtime does: calls, small objects,
    dict stores and a list of some 30k live objects."""
    table = {}
    live = []
    for i in range(250_000):
        cell = _Cell(i, i * 3 + 1)
        table[i & 2047] = cell
        live.append(cell)
        if len(live) > 30_000:
            live = live[15_000:]


def reference_seconds():
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


class SpeedScale:
    """Brackets timed steps with reference runs; consecutive steps share
    the reference run between them."""

    def __init__(self):
        self._before = None

    def around(self, step):
        """Run step(); returns (its result, its scale), where a wall time
        measured in it times the scale is the time at reference speed."""
        if self._before is None:
            self._before = reference_seconds()
        result = step()
        after = reference_seconds()
        scale = REFERENCE_SECONDS / ((self._before + after) / 2)
        self._before = after
        return result, scale


# ---------------------------------------------------------------------------
# Output checks

def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def read_log_shape(text):
    """Check a DRAGLOG without the dragprof parser.  Returns
    (records, end tick, problems)."""
    problems = []
    lines = text.splitlines()
    if not lines or not lines[0].startswith("DRAGLOG 1 "):
        return 0, None, ["missing DRAGLOG 1 header"]
    if not lines[-1].startswith("END ") or not lines[-1][4:].isdigit():
        return 0, None, ["missing END line"]
    end = int(lines[-1][4:])
    ids = set()
    for line in lines[1:-1]:
        parts = line.split(" ")
        try:
            if len(parts) != 8 or parts[0] != "OBJ":
                raise ValueError
            obj_id = int(parts[1])
            create, last_use, collect = map(int, parts[4:7])
        except ValueError:
            problems.append(f"bad record line {line!r}")
            continue
        if obj_id in ids:
            problems.append(f"duplicate id {obj_id}")
        ids.add(obj_id)
        if not create <= collect <= end:
            problems.append(f"#{obj_id}: not create <= collect <= end")
        if last_use != -1 and not create <= last_use <= collect:
            problems.append(f"#{obj_id}: not create <= last_use <= collect")
        if parts[7] == "C" and collect != end:
            problems.append(f"#{obj_id}: censored but collect != end")
        if len(problems) > 5:
            break
    return len(lines) - 2, end, problems


def check_outputs(wl, out_dir, run_stdout, digests):
    """Check one pipeline's outputs.  Returns (checks made, one message
    per failed check, end tick)."""
    failures = []
    result = next((line[len("result: "):] for line in run_stdout.splitlines()
                   if line.startswith("result: ")), None)
    if result != wl.expected_result:
        failures.append(f"result {result!r}, expected "
                        f"{wl.expected_result!r}")
    records, end, problems = read_log_shape(
        (out_dir / "trace.draglog").read_text(encoding="utf-8"))
    if records != wl.records:
        problems.append(f"{records} records, expected {wl.records}")
    if wl.end_tick is not None and end != wl.end_tick:
        problems.append(f"end tick {end}, expected {wl.end_tick}")
    if problems:
        failures.append("log: " + "; ".join(problems))
    checks = 2
    if digests is not None:
        checks += 1
        differ = [name for name in OUTPUT_FILES
                  if _sha256(out_dir / name) != digests[name]]
        if differ:
            failures.append(f"sha256 differs from digests.json: "
                            f"{', '.join(differ)}")
    return checks, failures, end


# ---------------------------------------------------------------------------
# Phases

class Bench:
    def __init__(self, name, seed, tiny):
        self.name = name
        self.seed = seed
        self.tiny = tiny
        self.work = WORK / f"{name}-{os.getpid()}"
        self.attempted = 0
        self.failures = []
        self.wl = None
        self.speed = SpeedScale()

    def count(self, checks, failures):
        self.attempted += checks
        self.failures += failures

    @property
    def source_path(self):
        return self.work / "input" / self.wl.file_name

    def expected_digests(self):
        if self.tiny or self.seed != workloads.DEFAULT_SEED:
            return None
        if not DIGESTS.is_file():
            return None
        return json.loads(DIGESTS.read_text()).get(self.name)

    def setup_once(self):
        self.wl = workloads.make(self.name, self.seed, self.tiny)
        inputs = self.work / "input"
        inputs.mkdir(parents=True, exist_ok=True)
        self.source_path.write_text(self.wl.source, encoding="utf-8")
        warm_cli(self.work)

    def setup(self):
        """Set up SETUP_REPEATS times: (scaled times, raw times)."""
        scaled, raw = [], []
        for _ in range(SETUP_REPEATS):
            wall, scale = self.speed.around(self.setup_once_timed)
            scaled.append(wall * scale)
            raw.append(wall)
        return scaled, raw

    def setup_once_timed(self):
        t0 = time.perf_counter()
        self.setup_once()
        return time.perf_counter() - t0

    def verify(self):
        """Run in-process with every collection checked by the oracle."""
        from dragprof.errors import DragProfError
        from dragprof.interp import run_source
        from tracer import OracleCheck

        oracle = OracleCheck()
        failures = []
        try:
            with oracle.active():
                result = run_source(self.wl.source,
                                    gc_interval=self.wl.gc_interval,
                                    heap_slots=self.wl.heap_slots,
                                    source_name=self.wl.file_name)
        except DragProfError as exc:
            failures.append(f"verify pass raised {exc!r}")
        else:
            if result.value_repr != self.wl.expected_result:
                failures.append(f"verify pass result {result.value_repr!r}")
        failures += [f"oracle: survivors differ at tick {tick} ({trigger}, "
                     f"{n} objects)" for tick, trigger, n in oracle.mismatches]
        if oracle.collections == 0:
            failures.append("oracle: no collection was checked")
        self.count(1, ["; ".join(failures[:5])] if failures else [])
        return oracle.collections

    def run_args(self, log):
        return ["run", self.source_path,
                "--gc-interval", self.wl.gc_interval,
                "--heap-slots", self.wl.heap_slots, "--log", log]

    def fresh_out_dir(self):
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        return out

    def pipeline_children(self, digests):
        """One pipeline as child processes.  Returns (sample, raw sample):
        the metrics with times at reference speed and as measured, or
        None when a command or a check failed."""
        out = self.fresh_out_dir()
        log = out / "trace.draglog"
        commands = [
            ("run", self.run_args(log)),
            ("analyze", ["analyze", log, "--out-dir", out]),
            ("plot", ["plot", out / "curves.csv", out / "histogram.csv",
                      "--out-dir", out]),
        ]
        walls, scaled = {}, {}
        rss_kib = 0
        for i, (cmd, args) in enumerate(commands):
            (code, wall, rss), scale = self.speed.around(
                lambda: run_child(args, out / f"{cmd}.stdout", self.work))
            if code != 0:
                text = (out / f"{cmd}.stdout").read_text(errors="replace")
                # The commands after a failed one cannot run: all failed.
                skipped = [f"{later} not run" for later, _ in commands[i + 1:]]
                self.count(len(commands) - i,
                           [f"{cmd} exited {code}: {text.strip()[-300:]}",
                            *skipped])
                return None
            self.count(1, [])
            walls[cmd] = wall
            scaled[cmd] = wall * scale
            if cmd == "run":
                rss_kib = rss
        checks, failures, end = check_outputs(
            self.wl, out, (out / "run.stdout").read_text(), digests)
        self.count(checks, failures)
        if failures:
            return None

        def sample(t):
            run_s = t["run"]
            report_s = t["analyze"] + t["plot"]
            return {"run_s": run_s, "report_s": report_s,
                    "pipeline_s": run_s + report_s,
                    "ticks_per_s": end / run_s,
                    "peak_rss_mb": rss_kib / 1024}

        return sample(scaled), sample(walls)

    def measure(self, seconds, digests):
        """Child-process pipelines for `seconds`.  Returns the samples by
        metric, with times at reference speed, and the raw samples."""
        samples, raw = [], []
        deadline = time.perf_counter() + seconds
        while True:
            one = self.pipeline_children(digests)
            if one is not None:
                samples.append(one[0])
                raw.append(one[1])
            if time.perf_counter() >= deadline:
                break
        if not samples:
            self.count(1, ["no pipeline completed"])
        names = [n for n in END_TO_END_UNITS if n != "setup_s"]
        return ({n: [s[n] for s in samples] for n in names},
                {n: [s[n] for s in raw] for n in names})

    def pipeline_traced(self, digests):
        """One untraced in-process run, then one traced pipeline.
        Returns (untraced run wall, tracer) or None on a failure."""
        from dragprof import cli
        from tracer import Tracer

        out = self.fresh_out_dir()
        log = out / "trace.draglog"
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            code = cli.main([str(a) for a in self.run_args(log)])
            untraced_s = time.perf_counter() - t0
        self.count(1, [] if code == 0 else [f"untraced run exited {code}"])
        if code != 0:
            return None

        out = self.fresh_out_dir()
        tracer = Tracer()
        commands = [
            ("run", self.run_args(log)[1:]),
            ("analyze", [log, "--out-dir", out]),
            ("plot", [out / "curves.csv", out / "histogram.csv",
                      "--out-dir", out]),
        ]
        stdout = {}
        with tracer.active():
            for cmd, args in commands:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = tracer.cli_main(cmd, [str(a) for a in args])
                stdout[cmd] = buf.getvalue()
                self.count(1, [] if code == 0
                           else [f"traced {cmd} exited {code}"])
                if code != 0:
                    return None
        checks, failures, _ = check_outputs(self.wl, out, stdout["run"],
                                            digests)
        self.count(checks, failures)
        if failures:
            return None
        return untraced_s, tracer

    def measure_traced(self, seconds, digests, detail):
        """Traced pipelines for `seconds`; the per-layer samples by
        metric.  Adds where the self time sits to detail."""
        from tracer import unaccounted_share, where_table

        untraced, tracers = [], []
        deadline = time.perf_counter() + seconds
        while True:
            one = self.pipeline_traced(digests)
            if one is not None:
                untraced.append(one[0])
                tracers.append(one[1])
            if time.perf_counter() >= deadline:
                break
        if not tracers:
            self.count(1, ["no pipeline completed"])
            return {}
        series = {}
        for t in tracers:
            for name, value in t.metrics().items():
                series.setdefault(name, []).append(value)
        series["trace.overhead_s"] = [
            statistics.median(t.command_wall["run"] for t in tracers)
            - statistics.median(untraced)]
        detail["where"] = where_table(tracers)
        share = detail["unaccounted_share"] = unaccounted_share(tracers)
        if share > UNACCOUNTED_TOLERANCE:
            print(f"perfbench: warning: {share:.1%} of the traced wall time "
                  f"is outside every wrapped layer (tolerance "
                  f"{UNACCOUNTED_TOLERANCE:.0%})", file=sys.stderr)
        return series


# ---------------------------------------------------------------------------
# Reporting

def summary(values):
    values = sorted(values)
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def machine():
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError):
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True)
            if done.returncode == 0:
                commit = done.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((SRC / "dragprof").rglob("*")):
        if path.suffix in (".py", ".scm"):
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return {"nproc": os.cpu_count(), "platform": platform.platform(),
            "python": platform.python_version(), "commit": commit,
            "src_sha256": digest.hexdigest()}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smoke-test sizes (no digests are checked)")
    p.add_argument("--record-digests", action="store_true",
                   help="write the default-seed output digests of the "
                        "workload to digests.json and exit")
    return p.parse_args(argv)


def record_digests(bench):
    bench.setup_once()
    if not bench.pipeline_children(None):
        print("\n".join(bench.failures), file=sys.stderr)
        return 1
    out = bench.work / "out"
    table = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    table[bench.name] = {name: _sha256(out / name) for name in OUTPUT_FILES}
    DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(json.dumps(table[bench.name], indent=2))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "dragprof" / "cli.py").is_file():
        print(f"perfbench: no dragprof sources at {SRC}; run from the "
              f"root of a dragprof checkout", file=sys.stderr)
        return 2
    if args.record_digests and (args.tiny
                                or args.seed != workloads.DEFAULT_SEED):
        print("perfbench: digests are recorded at full size and the "
              "default seed", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # On SIGTERM, unwind so that the running child is killed and reaped
    # and the work directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    bench = Bench(args.workload, args.seed, args.tiny)
    try:
        if args.record_digests:
            return record_digests(bench)
        setup_times, setup_raw = bench.setup()
        digests = bench.expected_digests()
        collections_checked = bench.verify()
        detail = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "digests_checked": digests is not None,
                  "oracle_collections": collections_checked,
                  "setup_repeats": SETUP_REPEATS, "machine": machine()}
        if args.trace == 0:
            series, raw = bench.measure(args.seconds, digests)
            series["setup_s"] = setup_times
            raw["setup_s"] = setup_raw
            detail["raw_wall"] = {n: summary(v) for n, v in raw.items() if v}
            units = END_TO_END_UNITS
        else:
            series = bench.measure_traced(args.seconds, digests, detail)
            units = {name: unit_of(name) for name in series}
        stats = {name: summary(values) for name, values in series.items()
                 if values}
        detail["metrics"] = stats
        detail["failed_ops"] = len(bench.failures) / max(bench.attempted, 1)
        detail["failures"] = bench.failures[:20]
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    print(json.dumps(detail, indent=1))
    for message in bench.failures[:20]:
        print(f"perfbench: check failed: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": not bench.failures,
        "attempted": max(bench.attempted, 1),
        "failed": len(bench.failures),
        "metrics": {name: {"value": s["median"], "unit": units[name]}
                    for name, s in stats.items()},
    }))
    return 0


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith("_slots"):
        return "slots"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
