"""The trace log: its types and the DRAGLOG format.

A run's log (runtime.Runtime.terminate) is a TraceLog: one
LifetimeRecord per object the run created, sorted by (collect tick, id),
and the end tick.  A parsed log (parse_draglog) is columns instead: one
list per record field, in record order (Columns), and it makes its
LifetimeRecords only when a caller iterates them.  A run's log derives
its columns once, when first asked, so the analyzer reads columns of
either.  CollectionStats describe one collection point, or one copy.
This module only writes, reads and checks logs; it imports neither the
runtime nor the collector, and the heap only to make a parsed log's
records, so `dragprof analyze` loads none of them.

Serialized log format (lines end in "\\n" only; UTF-8, bit exact):

    DRAGLOG 1 gc_interval=<K> heap_slots=<C> source=<name>
    OBJ <id> <P|V> <size_slots> <create> <last_use|-1> <collect> <C|F>
    END <end_tick>

``C`` marks a censored record (object still reachable at termination),
``F`` one that was collected by the garbage collector.  K and C are at
least 1, and a P record's size is 2.  Every integer is ASCII digits
after an optional minus sign.

Reading and checking.  parse_draglog splits the records' lines into
fields once, a slice of lines at a time, and makes each integer column
with map(int, ...).  It accepts the log through checks over whole
columns: of the lines' shape, then of the records' values (_records_ok).
Only when such a check fails does it read the log line by line
(_check_lines), then record by record (_check_records), to raise the
first fault with its line: a fault of a line's format beats any fault
of a record's values, the first record's fault wins among those, and
within one record the order is duplicate id, size, ticks, censored,
sort.  This diagnosis makes no records and no second set of columns.
"""

from collections import namedtuple
from itertools import compress, islice
from operator import attrgetter, le

from . import atomic
from .errors import DraglogFormatError

# The kinds a record holds, and its last_use_tick for an object never
# used, in a record, a column and a log line alike.  The heap imports
# them from here, so that reading a log does not import the heap.
PAIR = "P"
VECTOR = "V"
NEVER_USED = -1

CollectionStats = namedtuple(
    "CollectionStats", "trigger tick survivors collected slots_copied")
CollectionStats.__doc__ = """One collection point, or (returned by
gc.Collector.collect) one copy: survivors and slots_copied count what
it kept.  trigger is "interval", "exhaustion" or "manual"."""

# One list per LifetimeRecord field but the address, named after it.
Columns = namedtuple("Columns", "obj_id kind size_slots create_tick "
                                "last_use_tick collect_tick censored")


class TraceLog:
    """A log's header fields, its records and its end tick.

    A run makes it from its records; parse_draglog from columns, when
    records is a ParsedRecords.  columns is derived from the records
    the first time it is read."""

    def __init__(self, gc_interval: int, heap_slots: int, source: str,
                 records=None, end_tick: int = 0, columns=None):
        self.gc_interval = gc_interval
        self.heap_slots = heap_slots
        self.source = source
        if records is None:
            records = [] if columns is None else ParsedRecords(columns)
        self.records = records
        self.end_tick = end_tick
        self._columns = columns

    @property
    def columns(self) -> Columns:
        if self._columns is None:
            self._columns = _columns_of(self.records)
        return self._columns


_fields = attrgetter(*Columns._fields)


def _columns_of(records) -> Columns:
    return Columns(*([list(c) for c in zip(*map(_fields, records))]
                     or [[] for _ in Columns._fields]))


class ParsedRecords:
    """A parsed log's records: len() is the columns' length, and the
    LifetimeRecords (without an address) are made when first read."""

    def __init__(self, columns: Columns):
        self.columns = columns
        self._made = None

    def __len__(self):
        return len(self.columns.obj_id)

    def __iter__(self):
        if self._made is None:
            from .heap import LifetimeRecord
            self._made = [LifetimeRecord(*row) for row in zip(*self.columns)]
        return iter(self._made)


def format_draglog(log: TraceLog) -> str:
    lines = [f"DRAGLOG 1 gc_interval={log.gc_interval} "
             f"heap_slots={log.heap_slots} source={log.source}"]
    for r in log.records:
        flag = "C" if r.censored else "F"
        lines.append(f"OBJ {r.obj_id} {r.kind} {r.size_slots} "
                     f"{r.create_tick} {r.last_use_tick} {r.collect_tick} "
                     f"{flag}")
    lines.append(f"END {log.end_tick}")
    return "\n".join(lines) + "\n"


def write_draglog(log: TraceLog, path):
    """Write the log atomically (see atomic.write_text)."""
    atomic.write_text(path, format_draglog(log))


# What int() accepts in an ASCII number besides digits and "-", apart
# from the space and the line break that separate the fields; any other
# ASCII character makes int() fail.
_NOT_PLAIN = "_+\t\x0b\x0c\r"


def _parse_int(text: str, what: str, line_no: int) -> int:
    """The integer text spells as format_draglog writes it: ASCII digits
    after an optional minus sign."""
    if text.isascii() and " " not in text and not any(
            c in text for c in _NOT_PLAIN):
        try:
            return int(text)
        except ValueError:
            pass
    raise DraglogFormatError(f"bad {what} {text!r}", line_no)


def parse_draglog(text: str) -> TraceLog:
    if not text:
        raise DraglogFormatError("empty file", 1)
    # format_draglog ends each line with "\n", and a source name may hold
    # any other line break that str.splitlines would split at
    header, _, rest = text.partition("\n")
    head = header.split(" ", 4)
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

    read = _read_columns(rest)
    if read is None:
        _check_lines(rest)
        raise AssertionError("a column check rejected lines that pass")
    columns, end_tick = read
    if not _records_ok(columns, end_tick):
        _check_records(columns, end_tick)
        raise AssertionError("a column check rejected records that pass")
    return TraceLog(gc_interval, heap_slots, source, end_tick=end_tick,
                    columns=columns)


# Characters of records split into fields at a time, so that one slice's
# fields are freed, and their memory reused, before the next is split.
_SLICE = 1 << 16


def _read_columns(rest: str):
    """(Columns, end tick) of the lines after the header, or None if a
    line is not an OBJ line followed, last, by the END line."""
    stop = len(rest) - rest.endswith("\n")
    last = rest.rfind("\n", 0, stop) + 1  # where the last line starts
    # Each line before it starts with the field OBJ, which no other
    # column can hold once the kinds, flags and integers are checked, so
    # n such lines in 8n fields have eight fields each.
    if (not rest.startswith("END ", last, stop) or not rest.isascii()
            or any(c in rest for c in _NOT_PLAIN)
            or " " in rest[last + 4:stop]
            or last and not (rest.startswith("OBJ ")
                             and rest.count("\nOBJ ", 0, last)
                             == rest.count("\n", 0, last) - 1)):
        return None
    columns = Columns(*([] for _ in Columns._fields))
    ids, kinds, sizes, creates, uses, collects, censored = columns
    start = 0
    try:
        while start < last:
            cut = rest.find("\n", min(start + _SLICE, last - 1))
            n = rest.count("\n", start, cut) + 1
            fields = rest[start:cut].replace("\n", " ").split(" ")
            start = cut + 1
            kind, flag = fields[2::8], fields[7::8]
            if (len(fields) != 8 * n
                    or kind.count(PAIR) + kind.count(VECTOR) != n
                    or flag.count("C") + flag.count("F") != n):
                return None
            kinds += kind
            censored += map("C".__eq__, flag)
            for column, i in ((ids, 1), (sizes, 3), (creates, 4),
                              (uses, 5), (collects, 6)):
                column += map(int, fields[i::8])
        return columns, int(rest[last + 4:stop])
    except ValueError:
        return None


def _check_lines(rest: str):
    """Raise the first fault of a line's format after the header."""
    lines = rest.split("\n")
    if not lines[-1]:
        lines.pop()
    end_seen = False
    for i, line in enumerate(lines, start=2):
        if line.startswith("OBJ "):
            if end_seen:
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
            for field_text, what in (
                    (last_use, "last_use"), (obj_id, "obj_id"),
                    (size, "size_slots"), (create, "create_tick"),
                    (collect, "collect_tick")):
                _parse_int(field_text, what, i)
        elif line.startswith("END "):
            if end_seen:
                raise DraglogFormatError("duplicate END line", i)
            _parse_int(line[4:], "end_tick", i)
            end_seen = True
        else:
            raise DraglogFormatError(f"unrecognized line {line!r}", i)
    if not end_seen:
        raise DraglogFormatError("missing END line", len(lines) + 2)


def _records_ok(c: Columns, end_tick: int) -> bool:
    """Whether every record passes _check_records, checked per column."""
    n = len(c.obj_id)
    if not n:
        return True
    creates, uses, collects = c.create_tick, c.last_use_tick, c.collect_tick
    return (len(set(c.obj_id)) == n
            and min(c.size_slots) >= 0
            and {*compress(c.size_slots, map(PAIR.__eq__, c.kind))} <= {2}
            and min(creates) >= 0
            # each record is never used or used no earlier than created,
            and uses.count(NEVER_USED) + sum(map(le, creates, uses)) == n
            # and collected no earlier than either
            and all(map(le, creates, collects))
            and all(map(le, uses, collects))
            and max(collects) <= end_tick
            and {*compress(collects, c.censored)} <= {end_tick}
            and all(map(le, zip(collects, c.obj_id),
                        zip(islice(collects, 1, None),
                            islice(c.obj_id, 1, None)))))


def _check_records(c: Columns, end_tick: int):
    """Reject a log that no run could have written.  The records sit on
    lines 2, 3, ... in order, since any other line before END fails."""
    seen = set()
    prev_key = None
    for line_no, (obj_id, kind, size, create, last_use, collect,
                  censored) in enumerate(zip(*c), start=2):
        if obj_id in seen:
            raise DraglogFormatError(f"duplicate object id {obj_id}",
                                     line_no)
        seen.add(obj_id)
        if size < 0 or (kind == PAIR and size != 2):
            raise DraglogFormatError(
                f"bad size_slots {size} for kind {kind}", line_no)
        if last_use == NEVER_USED:
            last_use = create
        if not 0 <= create <= last_use <= collect <= end_tick:
            raise DraglogFormatError(
                "ticks out of order: need 0 <= create <= last_use <= "
                f"collect <= end ({end_tick})", line_no)
        if censored and collect != end_tick:
            raise DraglogFormatError(
                f"censored record collected at {collect}, "
                f"not at end ({end_tick})", line_no)
        key = (collect, obj_id)
        if prev_key is not None and key < prev_key:
            raise DraglogFormatError(
                "records not sorted by (collect, id)", line_no)
        prev_key = key


def read_draglog(path) -> TraceLog:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_draglog(fh.read())
