"""Every input ends in a documented exit code, never a traceback.

Hypothesis drives `run` with generated programs over a range of heap
sizes and intervals (exit 0-3), and `analyze` with byte-mutated trace
logs (exit 0 or 1).  A generated program's log, written by `run` or
kept by an in-process run, reads back through the one reader as the
same columns and the same report.  The examples are
derandomized, so a run of the suite checks the same inputs every time.
"""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dragprof.analyzer import build_report
from dragprof.cli import main
from dragprof.errors import DragProfError
from dragprof.interp import run_source
from dragprof.profiler import format_draglog, parse_draglog

from support import ProgramGenerator

SETTINGS = settings(derandomize=True, deadline=None, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


def quiet_main(argv):
    """cli.main with its output swallowed; returns the exit code."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main([str(a) for a in argv])


@settings(SETTINGS, max_examples=60)
@given(seed=st.integers(0, 10 ** 6),
       k=st.sampled_from([1, 2, 3, 16, 1000]),
       heap=st.sampled_from([16, 24, 40, 64, 512]))
def test_run_of_a_generated_program_ends_in_0_to_3(seed, k, heap):
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "gen.scm"
        src.write_text(ProgramGenerator(seed).program(), encoding="utf-8")
        code = quiet_main(["run", src, "--gc-interval", k,
                           "--heap-slots", heap, "--log",
                           Path(tmp) / "gen.draglog"])
    assert code in (0, 1, 2, 3)


@settings(SETTINGS, max_examples=40)
@given(seed=st.integers(0, 10 ** 6),
       k=st.sampled_from([1, 3, 16]),
       heap=st.sampled_from([64, 512]))
def test_a_log_reads_back_as_the_runs_columns_and_report(seed, k, heap):
    program = ProgramGenerator(seed).program()
    try:
        log = run_source(program, gc_interval=k, heap_slots=heap,
                         source_name="gen.scm").trace_log
    except DragProfError:  # a runtime error or out of memory: no log
        return
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "gen.scm"
        src.write_text(program, encoding="utf-8")
        written = Path(tmp) / "gen.draglog"
        assert quiet_main(["run", src, "--gc-interval", k, "--heap-slots",
                           heap, "--log", written]) == 0
        text = written.read_bytes().decode("utf-8")
    # the file's bytes and the in-memory text go through one reader
    parsed, kept = parse_draglog(text), parse_draglog(format_draglog(log))
    assert (parsed.gc_interval, parsed.heap_slots, parsed.source,
            parsed.end_tick) == (kept.gc_interval, kept.heap_slots,
                                 kept.source, kept.end_tick)
    assert parsed.columns == kept.columns
    assert build_report(parsed) == build_report(kept)


def _base_log():
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "base.scm"
        src.write_text(ProgramGenerator(3).program(), encoding="utf-8")
        log = Path(tmp) / "base.draglog"
        assert quiet_main(["run", src, "--gc-interval", 1,
                           "--log", log]) == 0
        return log.read_bytes()


BASE_LOG = _base_log()

# (offset, action, byte): replace, insert before or delete the byte at
# offset modulo the log's length
MUTATIONS = st.lists(
    st.tuples(st.integers(0, 10 ** 6),
              st.sampled_from(["replace", "insert", "delete"]),
              st.one_of(st.sampled_from(b"0123456789"),
                        st.integers(0, 255))),
    min_size=1, max_size=4)


def mutate(data: bytes, mutations) -> bytes:
    out = bytearray(data)
    for offset, action, byte in mutations:
        i = offset % (len(out) + 1)
        if action == "insert":
            out.insert(i, byte)
        elif i < len(out):
            if action == "replace":
                out[i] = byte
            else:
                del out[i]
    return bytes(out)


@settings(SETTINGS, max_examples=200)
@given(mutations=MUTATIONS)
def test_analyze_of_a_mutated_log_ends_in_0_or_1(mutations):
    with tempfile.TemporaryDirectory() as tmp:
        log = Path(tmp) / "mutated.draglog"
        log.write_bytes(mutate(BASE_LOG, mutations))
        code = quiet_main(["analyze", log, "--out-dir", Path(tmp) / "out"])
    assert code in (0, 1)
