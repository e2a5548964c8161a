"""Logical clock, lifetime stamps and the trace log format.

The profiler stamps the records of the object table it shares with the
heap: a record's creation tick, its most recent use tick (never-used
objects keep the sentinel) and, once finalized, its collection tick.
It also owns the heap's Merlin stamp (see heap.py), which it advances at
every collection point.
The logical clock advances by one for every creation and every use;
collections do not advance it.  A run's termination counts as one final
clock step, so end_tick is always strictly greater than the tick of the
last recorded event.

Collection points and copies (see runtime.py): the runtime opens every
point with open_point(), and the profiler keeps the points no copy has
resolved yet.  A copy (or a point over an empty heap, with nothing to
copy) calls flush_unmarked(), which opens none: it drops every record
the copy did not keep and dates its death.  An object
whose stamp (spread through the dead subgraph, largest first) is s was
last reachable at point s // 2 or just after it, so it died at point
s // 2 + 1, or at the first open point if that is later.  Every open
point is then resolved: its dead take its tick and its CollectionStats
joins collections.  An object dead after the last point is a ghost; its
slots are free, but it waits to be counted and ticked at the next
point.  A record dated to a point before its last use was used after it
died, which only a value the interpreter forgot to root can cause:
UnknownId, as if the use had come after a copy at that point.
finalize() closes the run, emitting the records still in the table as
censored.

Serialized log format (lines end in "\n" only; UTF-8, bit exact):

    DRAGLOG 1 gc_interval=<K> heap_slots=<C> source=<name>
    OBJ <id> <P|V> <size_slots> <create> <last_use|-1> <collect> <C|F>
    END <end_tick>

``C`` marks a censored record (object still reachable at termination),
``F`` one that was collected by the garbage collector.  K and C are at
least 1, and a P record's size is 2.
"""

from collections import defaultdict
from dataclasses import dataclass, field
from operator import attrgetter
from typing import NamedTuple

from . import atomic
from .errors import (
    DraglogFormatError,
    DuplicateId,
    ProtocolViolation,
    UnknownId,
)
from .heap import PAIR, VECTOR, Heap, LifetimeRecord, Ref

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


class Profiler:
    """Owns the clock and the heap's stamp; stamps the records of the
    heap's object table."""

    def __init__(self, heap: Heap, gc_interval: int,
                 source: str = "<memory>"):
        self.heap = heap
        self.objects = heap.objects
        self.gc_interval = gc_interval
        self.source = source
        self.clock = 0
        self._finalized: list[LifetimeRecord] = []
        self._finished = False
        self.created_slots = 0  # slots of the objects created so far
        # Resolved points, in order; _points holds the open ones, each
        # [trigger, tick, created, created_slots, died, died_slots].
        self.collections: list[CollectionStats] = []
        self._points = []
        self._died = 0          # objects and slots collected at resolved
        self._died_slots = 0    # points
        self._ghosts: list[LifetimeRecord] = []
        self.ghost_slots = 0

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
        self.created_slots += rec.size_slots
        return self.clock

    def record_use(self, obj_id: int) -> int:
        if self._finished:
            raise ProtocolViolation("event recorded after finalize")
        rec = self.objects.get(obj_id)
        if rec is None:
            raise UnknownId(f"use of unregistered object #{obj_id}")
        self.clock += 1
        rec.last_use_tick = self.clock
        return self.clock

    def open_point(self, trigger: str, tick: int, roots=()):
        """Open collection point i at tick: stamp its roots with 2i and
        the heap with 2i+1; the ghosts died at this point."""
        objects = self.objects
        stamp = self.heap.stamp + 1
        self.heap.stamp = stamp + 1
        for ref in roots:
            objects[ref.obj_id].collect_tick = stamp
        self._points.append([trigger, tick, self.heap.allocated,
                             self.created_slots, 0, 0])
        if self._ghosts:
            ghosts, self._ghosts, self.ghost_slots = self._ghosts, [], 0
            self._bury(stamp // 2, ghosts)

    def flush_unmarked(self, marked, from_slots) -> list[LifetimeRecord]:
        """Drop every record whose id is not in marked (the ids a copy
        kept), in creation order, date each death and resolve every open
        point.  from_slots is the space the dropped records' addresses
        point into, read to spread their stamps when they may have died
        at different points.  Returns the dropped records, ghosts
        included."""
        if self._finished:
            raise ProtocolViolation("flush after finalize")
        live = self.objects
        dead = [rec for obj_id, rec in live.items() if obj_id not in marked]
        # Every marked id must be in the table: |live - marked| is then
        # exactly |live| - |marked|.
        if len(live) - len(dead) != len(marked):
            raise UnknownId("a marked object has no live record")
        for rec in dead:
            del live[rec.obj_id]
        # Every dead object was alive at the last resolved point, so it
        # died at the first open one or later.  If no stamp dates a death
        # past it, all died there.
        first = len(self.collections)
        if max(map(_stamp, dead), default=-1) // 2 < first:
            self._bury(first, dead)
        else:
            _spread_stamps(dead, from_slots)
            deaths = defaultdict(list)
            for rec in dead:
                deaths[max(first, rec.collect_tick // 2 + 1)].append(rec)
            for i, recs in deaths.items():
                self._bury(i, recs)
        for trigger, tick, created, created_slots, died, died_slots \
                in self._points:
            self._died += died
            self._died_slots += died_slots
            self.collections.append(CollectionStats(
                trigger, tick, created - self._died, died,
                created_slots - self._died_slots))
        self._points = []
        return dead

    def _bury(self, i: int, recs):
        """Records that died at point i: ticked and counted there if it
        is open, else ghosts."""
        size = sum(map(_size, recs))
        first = len(self.collections)
        if i == first + len(self._points):
            self._ghosts.extend(recs)
            self.ghost_slots += size
            return
        point = self._points[i - first]
        tick = point[1]
        for rec in recs:
            last_use = rec.last_use_tick
            if last_use is not None and last_use > tick:
                raise UnknownId(f"use of object #{rec.obj_id} at tick "
                                f"{last_use}, after it died at tick {tick}")
            rec.collect_tick = tick
        point[4] += len(recs)
        point[5] += size
        self._finalized.extend(recs)

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
        return TraceLog(self.gc_interval, self.heap.capacity_slots,
                        self.source, self._finalized, end_tick)


_stamp = attrgetter("collect_tick")
_size = attrgetter("size_slots")


def _spread_stamps(dead, slots):
    """Give each dead record the largest stamp of any dead record that
    reaches it: take the stamps in descending order and spread each one
    depth-first through the dead records it reaches first."""
    unreached = {rec.obj_id: rec for rec in dead}
    for rec in sorted(dead, key=_stamp, reverse=True):
        if unreached.pop(rec.obj_id, None) is None:
            continue
        stamp = rec.collect_tick
        stack = [rec]
        while stack:
            r = stack.pop()
            base = r.address
            for v in slots[base:base + r.size_slots]:
                if type(v) is Ref:
                    t = unreached.pop(v.obj_id, None)
                    if t is not None:
                        t.collect_tick = stamp
                        stack.append(t)


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
