"""The trace log: its types and the DRAGLOG format.

A run's log (runtime.Runtime.terminate) is a TraceLog: one
LifetimeRecord per object the run created, sorted by (collect tick, id),
and the end tick.  CollectionStats describe one collection point, or one
copy.  This module only writes, reads and checks logs; it imports neither
the runtime nor the collector, so `dragprof analyze` loads neither.

Serialized log format (lines end in "\n" only; UTF-8, bit exact):

    DRAGLOG 1 gc_interval=<K> heap_slots=<C> source=<name>
    OBJ <id> <P|V> <size_slots> <create> <last_use|-1> <collect> <C|F>
    END <end_tick>

``C`` marks a censored record (object still reachable at termination),
``F`` one that was collected by the garbage collector.  K and C are at
least 1, and a P record's size is 2.  Every integer is ASCII digits
after an optional minus sign.
"""

from dataclasses import dataclass, field
from typing import NamedTuple

from . import atomic
from .errors import DraglogFormatError
from .heap import PAIR, VECTOR, LifetimeRecord

NEVER_USED = -1  # wire-format sentinel; in-memory records use None


class CollectionStats(NamedTuple):
    """One collection point, or (returned by gc.Collector.collect) one
    copy: survivors and slots_copied count what it kept."""

    trigger: str  # "interval" | "exhaustion" | "manual"
    tick: int
    survivors: int
    collected: int
    slots_copied: int


@dataclass
class TraceLog:
    gc_interval: int
    heap_slots: int
    source: str
    records: list[LifetimeRecord] = field(default_factory=list)
    end_tick: int = 0


def format_draglog(log: TraceLog) -> str:
    lines = [f"DRAGLOG 1 gc_interval={log.gc_interval} "
             f"heap_slots={log.heap_slots} source={log.source}"]
    for r in log.records:
        last_use = NEVER_USED if r.last_use_tick is None else r.last_use_tick
        flag = "C" if r.censored else "F"
        lines.append(f"OBJ {r.obj_id} {r.kind} {r.size_slots} "
                     f"{r.create_tick} {last_use} {r.collect_tick} {flag}")
    lines.append(f"END {log.end_tick}")
    return "\n".join(lines) + "\n"


def write_draglog(log: TraceLog, path):
    """Write the log atomically (see atomic.write_text)."""
    atomic.write_text(path, format_draglog(log))


def _plain(text: str) -> bool:
    """False if text holds a character that int() accepts but
    format_draglog never writes: a non-ASCII digit, whitespace, "_" or
    "+"."""
    return (text.isascii() and text.isprintable()
            and "_" not in text and "+" not in text)


def _parse_int(text: str, what: str, line_no: int) -> int:
    try:
        if _plain(text):
            return int(text)
    except ValueError:
        pass
    raise DraglogFormatError(f"bad {what} {text!r}", line_no)


def parse_draglog(text: str) -> TraceLog:
    # format_draglog ends each line with "\n", and a source name may hold
    # any other line break that str.splitlines would split at
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    if not lines:
        raise DraglogFormatError("empty file", 1)
    head = lines[0].split(" ", 4)
    if (len(head) != 5 or head[0] != "DRAGLOG" or head[1] != "1"
            or not head[2].startswith("gc_interval=")
            or not head[3].startswith("heap_slots=")
            or not head[4].startswith("source=")):
        raise DraglogFormatError("bad header", 1)
    gc_interval = _parse_int(head[2][len("gc_interval="):], "gc_interval", 1)
    heap_slots = _parse_int(head[3][len("heap_slots="):], "heap_slots", 1)
    for what, value in (("gc_interval", gc_interval),
                        ("heap_slots", heap_slots)):
        if value < 1:
            raise DraglogFormatError(f"{what} {value} is not positive", 1)
    source = head[4][len("source="):]

    records = []
    end_tick = None
    for i, line in enumerate(lines[1:], start=2):
        if line.startswith("OBJ "):
            if end_tick is not None:
                raise DraglogFormatError("record after END line", i)
            parts = line.split(" ")
            if len(parts) != 8:
                raise DraglogFormatError(
                    f"expected 8 fields, got {len(parts)}", i)
            _, obj_id, kind, size, create, last_use, collect, flag = parts
            if kind not in (PAIR, VECTOR):
                raise DraglogFormatError(f"bad kind {kind!r}", i)
            if flag not in ("C", "F"):
                raise DraglogFormatError(f"bad censored flag {flag!r}", i)
            try:
                if not (line.isascii() and line.isprintable()) \
                        or "_" in line or "+" in line:  # _plain, inline
                    raise ValueError
                rec = LifetimeRecord(int(obj_id), kind, int(size),
                                     int(create), int(last_use),
                                     int(collect), flag == "C")
            except ValueError:
                for field_text, what in (
                        (last_use, "last_use"), (obj_id, "obj_id"),
                        (size, "size_slots"), (create, "create_tick"),
                        (collect, "collect_tick")):
                    _parse_int(field_text, what, i)
                raise
            if rec.last_use_tick == NEVER_USED:
                rec.last_use_tick = None
            records.append(rec)
        elif line.startswith("END "):
            if end_tick is not None:
                raise DraglogFormatError("duplicate END line", i)
            end_tick = _parse_int(line[4:], "end_tick", i)
        else:
            raise DraglogFormatError(f"unrecognized line {line!r}", i)
    if end_tick is None:
        raise DraglogFormatError("missing END line", len(lines) + 1)
    _check_records(records, end_tick)
    return TraceLog(gc_interval, heap_slots, source, records, end_tick)


def _check_records(records, end_tick: int):
    """Reject a log that no run could have written.  The records sit on
    lines 2, 3, ... in order, since any other line before END fails."""
    seen = set()
    prev_key = None
    for line_no, r in enumerate(records, start=2):
        if r.obj_id in seen:
            raise DraglogFormatError(f"duplicate object id {r.obj_id}",
                                     line_no)
        seen.add(r.obj_id)
        if r.size_slots < 0 or (r.kind == PAIR and r.size_slots != 2):
            raise DraglogFormatError(
                f"bad size_slots {r.size_slots} for kind {r.kind}", line_no)
        last_use = (r.create_tick if r.last_use_tick is None
                    else r.last_use_tick)
        if not 0 <= r.create_tick <= last_use <= r.collect_tick <= end_tick:
            raise DraglogFormatError(
                "ticks out of order: need 0 <= create <= last_use <= "
                f"collect <= end ({end_tick})", line_no)
        if r.censored and r.collect_tick != end_tick:
            raise DraglogFormatError(
                f"censored record collected at {r.collect_tick}, "
                f"not at end ({end_tick})", line_no)
        key = (r.collect_tick, r.obj_id)
        if prev_key is not None and key < prev_key:
            raise DraglogFormatError(
                "records not sorted by (collect, id)", line_no)
        prev_key = key


def read_draglog(path) -> TraceLog:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_draglog(fh.read())
