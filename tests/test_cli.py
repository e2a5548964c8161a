import contextlib
import io
import json
import os
import shutil
import stat
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import dragprof
from dragprof import atomic, profiler
from dragprof.cli import main
from dragprof.errors import DraglogFormatError
from dragprof.profiler import parse_draglog, read_draglog
from dragprof.runtime import MAX_HEAP_SLOTS

SMALL_PROGRAM = """
(define xs (list 1 2 3))
(let loop ((rest xs) (total 0))
  (if (null? rest)
      total
      (loop (cdr rest) (+ total (car rest)))))
"""


@pytest.fixture
def workdir(tmp_path):
    src = tmp_path / "small.scm"
    src.write_text(SMALL_PROGRAM, encoding="utf-8")
    return tmp_path


def run_cli(*argv):
    return main([str(a) for a in argv])


def test_run_writes_log_and_reports(workdir, capsys, monkeypatch):
    def refuse(rest):
        raise AssertionError("run read its log's lines back")

    log = workdir / "small.draglog"
    with monkeypatch.context() as patch:
        # the record count is the run's, not one read from its lines
        patch.setattr(profiler, "_read_columns", refuse)
        code = run_cli("run", workdir / "small.scm", "--gc-interval", "1",
                       "--log", log)
    assert code == 0
    out = capsys.readouterr().out
    assert "result: 6" in out
    assert "collections:" in out
    assert log.read_text().startswith("DRAGLOG 1 gc_interval=1 ")
    assert out.endswith(f"log: {log} (3 records, end tick 13)\n")
    assert len(read_draglog(log).records) == 3


def test_run_missing_source_exits_1_without_log(workdir, capsys):
    code = run_cli("run", workdir / "missing.scm",
                   "--log", workdir / "missing.draglog")
    assert code == 1
    assert not (workdir / "missing.draglog").exists()
    assert "missing.scm" in capsys.readouterr().err


def test_run_syntax_error_exits_1(workdir, capsys):
    bad = workdir / "bad.scm"
    bad.write_text("(car", encoding="utf-8")
    assert run_cli("run", bad, "--log", workdir / "bad.draglog") == 1
    assert "syntax error" in capsys.readouterr().err
    assert not (workdir / "bad.draglog").exists()
    # a syntax error is reported before a heap size out of range
    bad.write_text("(define x (if))", encoding="utf-8")
    assert run_cli("run", bad, "--heap-slots", 8,
                   "--log", workdir / "bad.draglog") == 1
    assert ("syntax error in bad.scm: 1:11: if takes a test and one or two "
            "branches") in capsys.readouterr().err
    assert not (workdir / "bad.draglog").exists()


def test_run_runtime_error_exits_2_naming_the_form(workdir, capsys):
    bad = workdir / "boom.scm"
    bad.write_text("(car 5)", encoding="utf-8")
    assert run_cli("run", bad, "--log", workdir / "boom.draglog") == 2
    err = capsys.readouterr().err
    assert "runtime error" in err and "car" in err


POW = "(define (pow b n) (if (= n 0) 1 (* b (pow b (- n 1)))))\n"


@pytest.mark.parametrize("source, code, complaint", [
    ("(define x 1)\n" + "7" * 5000,
     1, "syntax error in huge.scm: 2:1: integer literal too long"),
    (POW + "(pow 10 5000)",
     2, "runtime error in huge.scm: integer of 16610 bits too long"),
    (POW + "(display (pow 10 5000))\n1",
     2, "runtime error in huge.scm: integer of 16610 bits too long"),
    (POW + "(vector-ref (vector 1) (pow 10 5000))",
     2, "runtime error in huge.scm: 2:1: vector-ref: index integer of "
        "16610 bits out of range"),
    (POW + "(make-vector (- 0 (pow 10 5000)))",
     2, "runtime error in huge.scm: 2:1: make-vector: negative length "
        "integer of 16610 bits"),
    (POW + "(make-vector (pow 10 5000))",
     3, "out of memory in huge.scm: 2:1: make-vector: need integer of "
        "16610 bits slots"),
], ids=["literal", "result", "display", "index", "negative-length",
        "length"])
def test_run_integer_too_long_for_text_names_the_file(workdir, capsys,
                                                      source, code,
                                                      complaint):
    # CPython converts at most 4300 digits between int and str
    huge = workdir / "huge.scm"
    huge.write_text(source, encoding="utf-8")
    assert run_cli("run", huge, "--log", workdir / "huge.draglog") == code
    err = capsys.readouterr().err
    assert complaint in err
    assert "Exceeds the limit" not in err
    assert not (workdir / "huge.draglog").exists()


def test_run_out_of_memory_exits_3(workdir, capsys):
    grow = workdir / "grow.scm"
    grow.write_text(
        "(define xs '())\n"
        "(let loop ((i 0))\n"
        "  (if (= i 1000) 'done\n"
        "      (begin (set! xs (cons i xs)) (loop (+ i 1)))))\n",
        encoding="utf-8")
    assert run_cli("run", grow, "--heap-slots", 32,
                   "--log", workdir / "grow.draglog") == 3
    assert "out of memory" in capsys.readouterr().err


BUILD = ("(define (build n) (if (= n 0) '() (cons n (build (- n 1)))))\n"
         "(car (build {n}))\n")


def test_run_deep_non_tail_recursion_exits_0(workdir, capsys):
    limit = sys.getrecursionlimit()
    deep = workdir / "deep.scm"
    # the depth RUN_RECURSION_LIMIT's comment promises
    deep.write_text(BUILD.format(n=10_000), encoding="utf-8")
    assert run_cli("run", deep, "--log", workdir / "deep.draglog") == 0
    assert "result: 10000" in capsys.readouterr().out
    assert sys.getrecursionlimit() == limit
    # nesting as deep as this compiles and runs too
    deep.write_text("(+ 1 " * 13_000 + "1" + ")" * 13_000, encoding="utf-8")
    assert run_cli("run", deep, "--log", workdir / "deep.draglog") == 0
    assert "result: 13001" in capsys.readouterr().out
    assert sys.getrecursionlimit() == limit


def test_run_non_tail_recursion_takes_one_python_frame_per_call(workdir,
                                                                capsys):
    # the budget RUN_RECURSION_LIMIT's comment states: 35,000 calls deep
    # needs fewer than 40,000 Python frames; a root walk per collection
    # point would cost as much as the whole stack, hence few points
    deep = workdir / "deep.scm"
    deep.write_text(BUILD.format(n=35_000), encoding="utf-8")
    assert run_cli("run", deep, "--heap-slots", 2 ** 17, "--gc-interval",
                   10_000, "--log", workdir / "deep.draglog") == 0
    assert "result: 35000" in capsys.readouterr().out


@pytest.mark.parametrize("wrap, opening", [("(cons acc '())", "("),
                                           ("(vector acc)", "#(")])
def test_run_writes_a_value_nested_50000_deep(workdir, capsys, wrap,
                                              opening):
    # writing a value takes no Python frame per level of nesting
    deep = workdir / "deep.scm"
    deep.write_text("(define v (let loop ((i 0) (acc '()))\n"
                    f"  (if (= i 50000) acc (loop (+ i 1) {wrap}))))\n"
                    "(display v)\nv\n", encoding="utf-8")
    assert run_cli("run", deep, "--heap-slots", 200_000,
                   "--log", workdir / "deep.draglog") == 0
    text = opening * 50_000 + "()" + ")" * 50_000
    out = capsys.readouterr().out
    assert out.startswith(text)
    assert f"result: {text}\n" in out


def test_run_unbounded_recursion_exits_2_without_traceback(workdir, capsys):
    limit = sys.getrecursionlimit()
    deep = workdir / "deep.scm"
    deep.write_text(BUILD.format(n=10 ** 6), encoding="utf-8")
    assert run_cli("run", deep, "--log", workdir / "deep.draglog") == 2
    err = capsys.readouterr().err
    assert "recursion too deep" in err
    assert "Traceback" not in err
    assert not (workdir / "deep.draglog").exists()
    assert sys.getrecursionlimit() == limit


@pytest.mark.parametrize("source", [
    "'" + "(" * 100_000 + ")" * 100_000,  # too deep to read
    "(+ 1 " * 15_000 + "1" + ")" * 15_000,  # read, but too deep to compile
])
def test_run_too_deeply_nested_source_exits_1(workdir, capsys, source):
    nested = workdir / "nested.scm"
    nested.write_text(source, encoding="utf-8")
    assert run_cli("run", nested, "--log", workdir / "nested.draglog") == 1
    err = capsys.readouterr().err
    assert "syntax error" in err and "nesting too deep" in err
    assert "Traceback" not in err


def test_run_default_log_path_is_source_stem(workdir, capsys,
                                             monkeypatch):
    monkeypatch.chdir(workdir)
    assert run_cli("run", workdir / "small.scm") == 0
    assert (workdir / "small.draglog").exists()
    assert "small.draglog" in capsys.readouterr().out


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        run_cli("--help")
    assert exc.value.code == 0


def test_run_rejects_undersized_heap(workdir, capsys):
    code = run_cli("run", workdir / "small.scm", "--heap-slots", 8,
                   "--log", workdir / "small.draglog")
    assert code == 1
    assert "heap_slots" in capsys.readouterr().err
    assert not (workdir / "small.draglog").exists()


def test_run_rejects_oversized_heap(workdir, capsys):
    code = run_cli("run", workdir / "small.scm", "--heap-slots",
                   MAX_HEAP_SLOTS + 1, "--log", workdir / "small.draglog")
    assert code == 1
    assert f"heap_slots must be at most {MAX_HEAP_SLOTS}" in \
        capsys.readouterr().err
    assert not (workdir / "small.draglog").exists()


def test_run_twice_is_byte_identical(workdir):
    a = workdir / "a.draglog"
    b = workdir / "b.draglog"
    assert run_cli("run", workdir / "small.scm", "--log", a) == 0
    assert run_cli("run", workdir / "small.scm", "--log", b) == 0
    assert a.read_bytes() == b.read_bytes()


def test_atomic_write_replaces_target_with_default_mode(workdir):
    target = workdir / "out.txt"
    atomic.write_text(target, "old\n")
    atomic.write_text(target, "new\n")
    assert target.read_text(encoding="utf-8") == "new\n"
    mask = os.umask(0)
    os.umask(mask)
    assert stat.S_IMODE(target.stat().st_mode) == 0o666 & ~mask
    assert not list(workdir.glob("*.tmp"))


@pytest.mark.parametrize("text", [
    "x" * (atomic.SLICE - 1),
    "x" * atomic.SLICE,
    "x" * (atomic.SLICE + 1),
    "x" * (atomic.SLICE - 1) + "\u03bb\n" * 3,
], ids=["short", "exact", "long", "multibyte-at-edge"])
def test_atomic_write_slices_give_the_texts_bytes(workdir, text):
    target = workdir / "out.txt"
    atomic.write_text(target, text)
    assert target.read_bytes() == text.encode("utf-8")


def test_atomic_write_holds_no_encoded_copy_of_the_text(workdir):
    text = "0123456789abcde\n" * (1 << 18)  # 4 MiB
    tracemalloc.start()
    try:
        atomic.write_text(workdir / "big.txt", text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert (workdir / "big.txt").stat().st_size == len(text)


def test_atomic_write_to_a_fifo_writes_in_place(workdir):
    # a path that is not a regular file is written, not replaced
    fifo = workdir / "pipe"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        atomic.write_text(fifo, "DRAGLOG \u03bb\n")
        assert os.read(reader, 1024) == "DRAGLOG \u03bb\n".encode("utf-8")
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert not list(workdir.glob("*.tmp"))


def test_failed_atomic_write_leaves_no_temp_and_target_unchanged(
        workdir, monkeypatch):
    target = workdir / "report.csv"
    target.write_text("old\n", encoding="utf-8")
    # A file of that name is not the writer's to touch.
    stranger = workdir / "report.csv.tmp"
    stranger.write_text("keep\n", encoding="utf-8")
    before = sorted(p.name for p in workdir.iterdir())
    with pytest.raises(UnicodeEncodeError):  # the write fails
        atomic.write_text(target, "new \ud800\n")

    def failing_replace(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="rename failed"):
        atomic.write_text(target, "new\n")
    assert sorted(p.name for p in workdir.iterdir()) == before
    assert target.read_text(encoding="utf-8") == "old\n"
    assert stranger.read_text(encoding="utf-8") == "keep\n"


def test_a_piece_that_fails_after_others_were_written_leaves_the_target(
        workdir):
    target = workdir / "out.draglog"
    target.write_text("old\n", encoding="utf-8")
    before = sorted(p.name for p in workdir.iterdir())
    written = []

    def pieces():
        yield "x" * (atomic.SLICE + 1)
        yield "y\n"
        # the first slice has reached the temp file by now
        (tmp,) = workdir.glob("out.draglog.*.tmp")
        written.append(tmp.stat().st_size)
        yield "bad \ud800\n"

    with pytest.raises(UnicodeEncodeError):
        atomic.write_pieces(target, pieces())
    assert written and written[0] >= atomic.SLICE
    assert sorted(p.name for p in workdir.iterdir()) == before
    assert target.read_text(encoding="utf-8") == "old\n"


def test_analyze_outputs_and_reruns_identically(workdir, capsys):
    log = workdir / "small.draglog"
    run_cli("run", workdir / "small.scm", "--gc-interval", "1", "--log", log)
    out1 = workdir / "out1"
    out2 = workdir / "out2"
    assert run_cli("analyze", log, "--out-dir", out1) == 0
    assert run_cli("analyze", log, "--out-dir", out2) == 0
    for name in ("report.csv", "curves.csv", "histogram.csv", "report.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    assert "potential-savings-%" in capsys.readouterr().out


def test_analyze_empty_body_log_is_all_zero(workdir, capsys):
    log = workdir / "empty.draglog"
    log.write_text("DRAGLOG 1 gc_interval=4 heap_slots=64 source=e.scm\n"
                   "END 1\n", encoding="utf-8")
    assert run_cli("analyze", log, "--out-dir", workdir / "out") == 0
    report = (workdir / "out" / "report.csv").read_text().splitlines()[1]
    fields = report.split(",")
    assert fields[2] == "0"              # allocated
    assert fields[3] == "0"              # dead
    assert fields[11] == "0.00"          # savings


@pytest.mark.parametrize("end", [
    2_000_000_000_000_000_000,   # a sample list too large to allocate
    10_000_000_000_000_000_000,  # a sample count past sys.maxsize
])
def test_analyze_too_many_samples_exits_1(workdir, capsys, end):
    log = workdir / "long.draglog"
    log.write_text("DRAGLOG 1 gc_interval=4 heap_slots=64 source=e.scm\n"
                   f"END {end}\n", encoding="utf-8")
    assert run_cli("analyze", log, "--sample-interval", 1,
                   "--out-dir", workdir / "o") == 1
    err = capsys.readouterr().err
    assert err == (f"dragprof: cannot analyze {log}: {end + 1} samples at "
                   "interval 1 do not fit in memory\n")
    assert not (workdir / "o").exists()


def test_analyze_truncated_log_exits_1_with_line(workdir, capsys):
    log = workdir / "small.draglog"
    run_cli("run", workdir / "small.scm", "--log", log)
    lines = log.read_text().splitlines()
    truncated = workdir / "truncated.draglog"
    truncated.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
    assert run_cli("analyze", truncated) == 1
    err = capsys.readouterr().err
    assert "line" in err


def test_analyze_log_no_run_could_write_exits_1_naming_line_1(workdir,
                                                              capsys):
    log = workdir / "small.draglog"
    run_cli("run", workdir / "small.scm", "--log", log)
    text = log.read_text(encoding="utf-8")
    bad = workdir / "negative.draglog"
    bad.write_text(text.replace("gc_interval=16 ", "gc_interval=-1 ", 1),
                   encoding="utf-8")
    capsys.readouterr()
    assert run_cli("analyze", bad, "--out-dir", workdir / "o") == 1
    err = capsys.readouterr().err
    assert "line 1:" in err and "Traceback" not in err
    assert not (workdir / "o").exists()


def test_analyze_integer_spelling_no_run_writes_exits_1(workdir, capsys):
    # int() reads every field of this log, but format_draglog writes
    # neither "_", nor "+", nor a non-ASCII digit
    bad = workdir / "odd.draglog"
    bad.write_text("DRAGLOG 1 gc_interval=1_6 heap_slots=+64 source=x.scm\n"
                   "OBJ 0 P 2 1 -1 ٣ F\nEND 1_0\n", encoding="utf-8")
    assert run_cli("analyze", bad, "--out-dir", workdir / "o") == 1
    assert "line 1: bad gc_interval '1_6'" in capsys.readouterr().err
    assert not (workdir / "o").exists()


@pytest.mark.parametrize("char", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                                  "\x85", "\u2028", "\u2029", "\r", "\n",
                                  "\udcff"])
def test_log_of_any_source_name_parses(workdir, capsys, char):
    # a line break other than \n stays inside the header line; \n would
    # split it, and a byte that is not UTF-8 (\udcff) cannot be written,
    # so run refuses such a name before reading it
    source = workdir / f"a{char}b.scm"
    log = workdir / "named.draglog"
    capsys.readouterr()
    if char in "\n\udcff":
        assert run_cli("run", source, "--log", log) == 1
        err = capsys.readouterr().err
        assert repr(str(source)) in err and "not one line of UTF-8" in err
        assert not log.exists()
        return
    source.write_text(SMALL_PROGRAM, encoding="utf-8")
    assert run_cli("run", source, "--log", log) == 0
    assert run_cli("analyze", log, "--out-dir", workdir / "o") == 0
    assert read_draglog(log).source == source.name


@pytest.mark.parametrize("text", [
    # a CRLF log: each "\r" ends a record's flag or the END tick
    "DRAGLOG 1 gc_interval=1 heap_slots=64 source=x.scm\r\n"
    "OBJ 0 P 2 1 -1 2 F\r\nEND 2\r\n",
    # a lone "\r" in the source name, which the header line holds
    "DRAGLOG 1 gc_interval=1 heap_slots=64 source=a\rb\n"
    "OBJ 0 P 2 1 -1 2 F\nEND 2\n",
], ids=["crlf", "cr-in-source"])
def test_analyze_judges_a_log_as_parse_draglog_does(workdir, capsys, text):
    log = workdir / "raw.draglog"
    log.write_bytes(text.encode("utf-8"))
    try:
        parse_draglog(log.read_bytes().decode("utf-8"))
        verdict = (0, "")
    except DraglogFormatError as exc:
        verdict = (1, f"dragprof: malformed log {log}: {exc}\n")
    capsys.readouterr()
    code = run_cli("analyze", log, "--out-dir", workdir / "o")
    assert (code, capsys.readouterr().err) == verdict


def test_analyze_respects_dead_threshold_flag(workdir):
    log = workdir / "small.draglog"
    run_cli("run", workdir / "small.scm", "--gc-interval", "1", "--log", log)
    out = workdir / "thr"
    assert run_cli("analyze", log, "--dead-threshold", 10 ** 6,
                   "--out-dir", out) == 0
    row = (out / "report.csv").read_text().splitlines()[1].split(",")
    assert row[3] == "0"  # nothing exceeds an absurd threshold


def test_plot_svg_structure(workdir):
    log = workdir / "small.draglog"
    run_cli("run", workdir / "small.scm", "--gc-interval", "1", "--log", log)
    out = workdir / "out"
    run_cli("analyze", log, "--out-dir", out)
    assert run_cli("plot", out / "curves.csv", out / "histogram.csv",
                   "--out-dir", out) == 0
    svg = (out / "curves.svg").read_text()
    assert svg.count("<polyline") == 2
    assert "stroke-dasharray" in svg      # the live line is dashed
    assert "reachable" in svg and "live" in svg  # legend labels
    hist = (out / "histogram.svg").read_text()
    assert hist.count('fill="black"') == 20  # one bar per bin
    assert "log scale" in hist


def test_plot_five_hundred_point_series(workdir):
    from support import motiv_source

    src = workdir / "motiv.scm"
    src.write_text(motiv_source(100, 500), encoding="utf-8")
    log = workdir / "motiv.draglog"
    run_cli("run", src, "--gc-interval", "1", "--log", log)
    out = workdir / "out"
    run_cli("analyze", log, "--out-dir", out)
    rows = (out / "curves.csv").read_text().splitlines()
    assert 400 <= len(rows) - 1 <= 1010  # about 500 samples
    assert run_cli("plot", out / "curves.csv", out / "histogram.csv",
                   "--out-dir", out) == 0
    svg = (out / "curves.svg").read_text()
    polylines = [line for line in svg.splitlines()
                 if line.startswith("<polyline")]
    assert len(polylines) == 2
    for poly in polylines:  # one x,y pair per csv row
        assert poly.count(",") == len(rows) - 1


def test_plot_empty_bins_render_at_floor(workdir):
    log = workdir / "empty.draglog"
    log.write_text("DRAGLOG 1 gc_interval=4 heap_slots=64 source=e.scm\n"
                   "END 1\n", encoding="utf-8")
    out = workdir / "out"
    run_cli("analyze", log, "--out-dir", out)
    assert run_cli("plot", out / "curves.csv", out / "histogram.csv",
                   "--out-dir", out) == 0
    hist = (out / "histogram.svg").read_text()
    assert hist.count('height="0.00"') == 20
    assert "0.5" in hist  # the log-axis floor label


def test_plot_gnuplot_scripts(workdir):
    log = workdir / "small.draglog"
    run_cli("run", workdir / "small.scm", "--log", log)
    out = workdir / "out"
    run_cli("analyze", log, "--out-dir", out)
    assert run_cli("plot", out / "curves.csv", out / "histogram.csv",
                   "--plot-format", "gnuplot", "--out-dir", out) == 0
    assert "with lines" in (out / "curves.gp").read_text()
    assert "set logscale y" in (out / "histogram.gp").read_text()


def test_plot_malformed_csv_exits_1(workdir, capsys):
    bad = workdir / "curves.csv"
    bad.write_text("tick,reachable,live\n1,2,x\n", encoding="utf-8")
    hist = workdir / "histogram.csv"
    hist.write_text("bin_lo,bin_hi,count\n0,5,0\n", encoding="utf-8")
    assert run_cli("plot", bad, hist) == 1
    assert "bad row" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["run-source", "run-log", "run-log-dir",
                                  "analyze-log", "analyze-out-dir",
                                  "plot-csv"])
def test_unusable_files_exit_1_naming_the_file(workdir, capsys, case):
    # text that is not UTF-8, and outputs that cannot be written, end in
    # exit 1 with a message naming the file, not in a traceback
    log = workdir / "small.draglog"
    out = workdir / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        assert run_cli("run", workdir / "small.scm", "--log", log) == 0
        assert run_cli("analyze", log, "--out-dir", out) == 0
    bad = workdir / "latin1.txt"
    bad.write_bytes(b"(car '(caf\xe9))\n")
    plain = workdir / "plain.txt"
    plain.write_text("a file, not a directory\n", encoding="utf-8")
    missing_dir_log = workdir / "missing" / "small.draglog"
    argv, named = {
        "run-source": (["run", bad, "--log", workdir / "x.draglog"], bad),
        "run-log": (["run", workdir / "small.scm", "--log", missing_dir_log],
                    missing_dir_log),
        "run-log-dir": (["run", workdir / "small.scm", "--log", out], out),
        "analyze-log": (["analyze", bad, "--out-dir", workdir / "o"], bad),
        "analyze-out-dir": (["analyze", log, "--out-dir", plain / "sub"],
                            plain / "sub"),
        "plot-csv": (["plot", out / "curves.csv", bad, "--out-dir",
                      workdir / "o"], bad),
    }[case]
    before = sorted(workdir.rglob("*"))
    capsys.readouterr()
    assert run_cli(*argv) == 1
    stdout, err = capsys.readouterr()
    assert err.startswith("dragprof: cannot ") and str(named) in err, err
    assert "Traceback" not in err
    assert stdout == ""
    assert sorted(workdir.rglob("*")) == before  # no partial output


def test_pipeline_reproducible_end_to_end(workdir):
    # run -> analyze -> plot twice and compare every byte
    outputs = []
    for tag in ("x", "y"):
        d = workdir / tag
        d.mkdir()
        shutil.copy(workdir / "small.scm", d / "small.scm")
        run_cli("run", d / "small.scm", "--gc-interval", "2",
                "--log", d / "small.draglog")
        run_cli("analyze", d / "small.draglog", "--out-dir", d)
        run_cli("plot", d / "curves.csv", d / "histogram.csv",
                "--out-dir", d)
        outputs.append(d)
    x, y = outputs
    for name in ("small.draglog", "report.csv", "curves.csv",
                 "histogram.csv", "curves.svg", "histogram.svg"):
        assert (x / name).read_bytes() == (y / name).read_bytes()


def test_bundled_programs_run_through_cli(workdir):
    for name in ("motiv.scm", "motiv-nullified.scm", "list-stress.scm",
                 "vector-stress.scm"):
        src = workdir / name
        src.write_text(dragprof.bundled_program(name), encoding="utf-8")
        assert run_cli("run", src, "--log", workdir / (name + ".draglog")) \
            == 0


def modules_after(workdir, command):
    """The modules a fresh interpreter holds after it imports the CLI and
    runs at most one command on a small program's log."""
    log = workdir / "small.draglog"
    out = workdir / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        assert run_cli("run", workdir / "small.scm", "--log", log) == 0
        assert run_cli("analyze", log, "--out-dir", out) == 0
    argv = {"plot": ["plot", str(out / "curves.csv"),
                     str(out / "histogram.csv"), "--out-dir", str(out)],
            "analyze": ["analyze", str(log), "--out-dir", str(out)],
            "run": ["run", str(workdir / "small.scm"), "--log",
                    str(workdir / "again.draglog")],
            }.get(command, [])
    script = ("import contextlib, io, json, sys\n"
              "from dragprof.cli import main\n"
              f"argv = {argv!r}\n"
              "if argv:\n"
              "    with contextlib.redirect_stdout(io.StringIO()):\n"
              "        assert main(argv) == 0\n"
              "print(json.dumps(sorted(sys.modules)))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(dragprof.__file__).parents[1]), env.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    return set(json.loads(proc.stdout))


@pytest.mark.parametrize("command, forbidden", [
    (None, {"interp", "runtime", "gc", "heap", "profiler", "analyzer",
            "plot"}),
    ("plot", {"interp", "runtime", "analyzer", "profiler"}),
    ("analyze", {"interp", "runtime", "plot"}),
], ids=["import", "plot", "analyze"])
def test_commands_load_only_their_own_layers(workdir, command, forbidden):
    loaded = {name.split(".", 1)[1] for name in modules_after(workdir, command)
              if name.startswith("dragprof.")}
    assert "cli" in loaded
    assert not loaded & forbidden


def test_analyze_makes_no_record_and_loads_no_dataclasses(workdir):
    # LifetimeRecord lives in dragprof.heap, so no record was made
    loaded = modules_after(workdir, "analyze")
    assert "dragprof.analyzer" in loaded
    assert not loaded & {"dataclasses", "dragprof.heap"}


def test_run_loads_no_dataclasses(workdir):
    # a record is a plain slotted class and RunResult a namedtuple, so a
    # run pays for neither dataclasses nor the inspect it imports
    loaded = modules_after(workdir, "run")
    assert "dragprof.interp" in loaded
    assert not loaded & {"dataclasses", "inspect"}


def test_bundled_programs_load_no_importlib_resources():
    # a bundled program is found by its path; -S keeps site from loading
    # importlib.resources through a .pth file
    script = ("import sys, dragprof, dragprof.cli\n"
              "assert dragprof.bundled_program('motiv.scm')\n"
              "print('importlib.resources' in sys.modules)\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(dragprof.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-S", "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "False\n"


@pytest.mark.parametrize("argv, complaint", [
    (["bogus"], "invalid choice: 'bogus'"),
    (["run"], "the following arguments are required: source"),
    (["run", "small.scm", "--gc-interval", "x"],
     "argument --gc-interval: invalid _positive_int value: 'x'"),
])
def test_usage_errors_exit_1_with_the_usage(argv, complaint, capsys):
    # exit 2 is a Scheme runtime error's, so argparse's own 2 is not used
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: dragprof")
    assert complaint in err
