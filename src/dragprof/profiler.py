"""The trace log: its types and the DRAGLOG format.

A log is a TraceLog: its header fields, the end tick and its records,
one per object, in (collect tick, id) order.  A log has one writer and
one reader.  The writer is a run (runtime.Runtime): it writes the
draglog_header line when it starts, each batch of dead objects' OBJ
lines (format_records) when their deaths are dated, a sealed collect
tick at a time, and the draglog_end line when it terminates, all to its
writer.  `dragprof run` hands it the log file's writer; an in-process
run writes to a text buffer, and its log's text is that buffer's whole
DRAGLOG, the very bytes the file would get.  format_draglog returns
that text.  The reader is parse_draglog, with all its checks: a parsed
log holds one list per record field (Columns), which the analyzer
reads.  A run's log holds its text, never columns; a parsed log holds
columns, never text.  len(log.records) is the log's record count for
both, and iterating a parsed log's records zips its columns into
Columns tuples, one per object, as it goes.
CollectionStats describe one collection point, or one copy.
This module only writes, reads and checks logs; it imports neither the
runtime, nor the collector, nor the heap, so `dragprof analyze` loads
none of them.

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
with map(int, ...).  It accepts the lines' shape through checks over
whole columns; only when such a check fails does it read the log line
by line (_check_lines) to raise the first fault of a line's format with
its line.  Then one pass over the rows (_check_records) checks every
record's values and raises the first fault with its line: a fault of a
line's format beats any fault of a record's values, the first record's
fault wins among those, and within one record the order is duplicate
id, size, ticks, censored, sort.  Neither check keeps a second copy of
the records.
"""

from collections import namedtuple

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

# One column per LifetimeRecord field but the address, named after it.
Columns = namedtuple("Columns", "obj_id kind size_slots create_tick "
                                "last_use_tick collect_tick censored")


class TraceLog:
    """A log's header fields, its end tick and its records: a run's as
    text, its whole DRAGLOG (None if the run had a writer of its own),
    and record_count; a parsed log's as columns.  records is a
    ParsedRecords over the log."""

    def __init__(self, gc_interval: int, heap_slots: int, source: str,
                 end_tick: int, columns: Columns = None, text: str = None,
                 record_count: int = 0):
        self.gc_interval = gc_interval
        self.heap_slots = heap_slots
        self.source = source
        self.end_tick = end_tick
        self.text = text
        self.columns = columns
        self.record_count = (record_count if columns is None
                             else len(columns.obj_id))

    @property
    def records(self):
        return ParsedRecords(self)


class ParsedRecords:
    """A log's records: len() is its record count, and iterating a
    parsed log's yields its columns' rows, each a Columns tuple of one
    record's fields."""

    def __init__(self, log: TraceLog):
        self.log = log

    def __len__(self):
        return self.log.record_count

    def __iter__(self):
        return map(Columns._make, zip(*self.log.columns))


_FLAGS = ("F", "C")  # indexed by the censored flag


def format_records(recs, tick: int, censored: bool) -> str:
    """The OBJ lines, each ending in "\\n", of records collected at tick,
    in the order given: each record's obj_id, kind, size_slots,
    create_tick and last_use_tick, then tick and the censored flag."""
    end = f" {tick} {_FLAGS[censored]}\n"
    return "".join([f"OBJ {r.obj_id} {r.kind} {r.size_slots} "
                    f"{r.create_tick} {r.last_use_tick}{end}"
                    for r in recs])


def sorted_lines(text: str) -> str:
    """Whole OBJ lines sorted by (collect tick, id)."""
    return "".join(sorted(text.splitlines(True), key=_line_key))


def _line_key(line: str):
    fields = line.split(" ", 7)
    return int(fields[6]), int(fields[1])


def draglog_header(gc_interval: int, heap_slots: int, source: str) -> str:
    """A log's first line."""
    return (f"DRAGLOG 1 gc_interval={gc_interval} heap_slots={heap_slots} "
            f"source={source}\n")


def draglog_end(end_tick: int) -> str:
    """A log's last line."""
    return f"END {end_tick}\n"


def format_draglog(log: TraceLog) -> str:
    """A run's DRAGLOG text, as its run wrote it."""
    return log.text


# What int() accepts in an ASCII number besides digits and "-", apart
# from the space and the line break that separate the fields; any other
# ASCII character makes int() fail.
_NOT_PLAIN = "_+\t\x0b\x0c\r"


def _parse_int(text: str, what: str, line_no: int) -> int:
    """The integer text spells as a run writes it: ASCII digits
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
    # a run ends each line with "\n", and a source name may hold
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
    _check_records(columns, end_tick)
    return TraceLog(gc_interval, heap_slots, source, end_tick, columns)


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
    # newline="" reads the characters parse_draglog checks: a "\r" is a
    # fault of a record's line, or part of the header's source name
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return parse_draglog(fh.read())
