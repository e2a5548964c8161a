"""Smoke test of the benchmark harness at tiny sizes.

    python3 -m pytest -q perfbench

Runs every workload through both measurement modes with 50 cells or a
single cipher round, so the harness cannot rot unnoticed.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys

import pytest

import run
import workloads

sys.path.insert(0, str(run.SRC))

from dragprof.interp import run_source  # noqa: E402
from tracer import ROOT, Tracer  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _main(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(list(argv))
    assert code == 0
    return json.loads(out.getvalue().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_tiny_workload_passes_its_checks(name, trace):
    result = _main("--workload", name, "--seed", "7", "--seconds", "0",
                   "--trace", str(trace), "--tiny")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(
        workloads.NAMES)
    assert [w["why"] for w in BENCHMARK["workloads"]] == [
        workloads.WHY[n] for n in workloads.NAMES]


def test_cipher_file_holds_the_default_seed_constants():
    text = workloads.CIPHER_TEMPLATE.read_text()
    assert workloads.cipher(workloads.DEFAULT_SEED).source == text


@pytest.mark.parametrize("name", workloads.NAMES)
def test_seeds_change_constants_not_sizes(name):
    a = workloads.make(name, 1, tiny=True)
    b = workloads.make(name, 2, tiny=True)
    assert a.source != b.source
    assert (a.records, a.end_tick) == (b.records, b.end_tick)
    for wl in (a, b):
        result = run_source(wl.source, gc_interval=wl.gc_interval,
                            heap_slots=wl.heap_slots)
        assert result.value_repr == wl.expected_result
        assert len(result.trace_log.records) == wl.records
        assert wl.end_tick in (None, result.trace_log.end_tick)


def test_log_checker_rejects_broken_invariants():
    good = "DRAGLOG 1 gc_interval=1 heap_slots=64 source=x\n" \
           "OBJ 0 P 2 1 2 3 F\nEND 4\n"
    assert run.read_log_shape(good) == (1, 4, [])
    late_use = good.replace("OBJ 0 P 2 1 2 3 F", "OBJ 0 P 2 1 5 3 F")
    assert run.read_log_shape(late_use)[2]
    censored_early = good.replace("3 F", "3 C")
    assert run.read_log_shape(censored_early)[2]


def test_self_times_add_up_to_the_traced_wall_time(tmp_path):
    wl = workloads.make("cipher-k16", 0, tiny=True)
    source = tmp_path / wl.file_name
    source.write_text(wl.source)
    tracer = Tracer()
    with tracer.active(), contextlib.redirect_stdout(io.StringIO()):
        assert tracer.cli_main("run", [str(source), "--heap-slots",
                                       str(wl.heap_slots), "--log",
                                       str(tmp_path / "t.draglog")]) == 0
    assert tracer.self_s[ROOT] > 0
    assert sum(tracer.self_s.values()) == pytest.approx(tracer.wall_s,
                                                        rel=1e-3)


def test_fails_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "retain-k1",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
    assert not (tmp_path / ".perfbench").exists()
