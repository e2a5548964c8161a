"""Logical clock, lifetime stamps and the trace log format.

The profiler stamps the records of the object table it shares with the
heap: a record's creation tick, its most recent use tick (never-used
objects keep the sentinel) and, once finalized, its collection tick.
The logical clock advances by one for every creation and every use;
collections do not advance it.  A run's termination counts as one final
clock step, so end_tick is always strictly greater than the tick of the
last recorded event.

After a collection, flush_unmarked() finalizes and drops every record
the collection did not copy.  finalize() closes the run, emitting the
records still in the table as censored.

Serialized log format (line oriented, UTF-8, bit exact):

    DRAGLOG 1 gc_interval=<K> heap_slots=<C> source=<name>
    OBJ <id> <P|V> <size_slots> <create> <last_use|-1> <collect> <C|F>
    END <end_tick>

``C`` marks a censored record (object still reachable at termination),
``F`` one that was collected by the garbage collector.
"""

from dataclasses import dataclass, field

from . import atomic
from .errors import (
    DraglogFormatError,
    DuplicateId,
    ProtocolViolation,
    UnknownId,
)
from .heap import PAIR, VECTOR, LifetimeRecord

NEVER_USED = -1  # wire-format sentinel; in-memory records use None


@dataclass
class TraceLog:
    gc_interval: int
    heap_slots: int
    source: str
    records: list[LifetimeRecord] = field(default_factory=list)
    end_tick: int = 0


class Profiler:
    """Owns the clock; stamps the records of a heap's object table."""

    def __init__(self, objects: dict[int, LifetimeRecord], gc_interval: int,
                 heap_slots: int, source: str = "<memory>", on_event=None):
        self.objects = objects
        self.gc_interval = gc_interval
        self.heap_slots = heap_slots
        self.source = source
        self.on_event = on_event
        self.clock = 0
        self._finalized: list[LifetimeRecord] = []
        self._finished = False

    @property
    def live_count(self) -> int:
        return len(self.objects)

    @property
    def finalized_records(self) -> list[LifetimeRecord]:
        return self._finalized

    def record(self, obj_id: int) -> LifetimeRecord:
        rec = self.objects.get(obj_id)
        if rec is None:
            raise UnknownId(f"no live record for object #{obj_id}")
        return rec

    def record_creation(self, obj_id: int) -> int:
        """Stamp the creation tick of an object just added to the table."""
        if self._finished:
            raise ProtocolViolation("event recorded after finalize")
        rec = self.record(obj_id)
        if rec.create_tick is not None:
            raise DuplicateId(f"object #{obj_id} already registered")
        self.clock += 1
        rec.create_tick = self.clock
        if self.on_event is not None:
            self.on_event("create", obj_id, self.clock)
        return self.clock

    def record_use(self, obj_id: int) -> int:
        if self._finished:
            raise ProtocolViolation("event recorded after finalize")
        rec = self.objects.get(obj_id)
        if rec is None:
            raise UnknownId(f"use of unregistered object #{obj_id}")
        self.clock += 1
        rec.last_use_tick = self.clock
        if self.on_event is not None:
            self.on_event("use", obj_id, self.clock)
        return self.clock

    def flush_unmarked(self, marked, clock: int) -> list[LifetimeRecord]:
        """Finalize and drop every record whose id is not in marked (the
        ids a collection copied), in creation order, with clock as its
        collection tick.  Returns the flushed records."""
        if self._finished:
            raise ProtocolViolation("flush after finalize")
        live = self.objects
        dead_ids = live.keys() - marked
        # Every marked id must be in the table: |live - marked| is then
        # exactly |live| - |marked|.
        if len(live) - len(dead_ids) != len(marked):
            raise UnknownId("a marked object has no live record")
        flushed = [live.pop(obj_id) for obj_id in sorted(dead_ids)]
        for rec in flushed:
            rec.collect_tick = clock
        self._finalized.extend(flushed)
        return flushed

    def termination_tick(self) -> int:
        """Count the run's termination as one final clock step."""
        if self._finished:
            raise ProtocolViolation("termination after finalize")
        self.clock += 1
        return self.clock

    def finalize(self, end_tick: int) -> TraceLog:
        if self._finished:
            raise ProtocolViolation("finalize called twice")
        self._finished = True
        for rec in self.objects.values():
            rec.collect_tick = end_tick
            rec.censored = True
            self._finalized.append(rec)
        self._finalized.sort(key=lambda r: (r.collect_tick, r.obj_id))
        return TraceLog(self.gc_interval, self.heap_slots, self.source,
                        self._finalized, end_tick)


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


def _parse_int(text: str, what: str, line_no: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise DraglogFormatError(f"bad {what} {text!r}", line_no) from None


def parse_draglog(text: str) -> TraceLog:
    lines = text.splitlines()
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
