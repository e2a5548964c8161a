"""Exception types shared across the runtime and the tools, and the one
rendering of a program's integer that their messages use.

The primitives (interp.py) check every language rule, so the heap and
the runtime raise only what a program can still cause (OutOfMemory) or
what signals a bug in dragprof itself (DanglingRef, ToSpaceOverflow,
UnknownId, ProtocolViolation).
"""


def int_text(n: int) -> str:
    """n in decimal, or "integer of N bits" when it is longer than
    str() converts (sys.get_int_max_str_digits())."""
    try:
        return str(n)
    except ValueError:
        return f"integer of {n.bit_length()} bits"


class DragProfError(Exception):
    """Base class for every error this package raises on purpose."""


class OutOfMemory(DragProfError):
    """Allocation still does not fit after a collection."""


class DanglingRef(DragProfError):
    """A Ref whose object was collected.  Signals a runtime/GC bug, not a
    user error."""


class ToSpaceOverflow(DragProfError):
    """Survivor volume exceeded the standby space; the run is aborted
    rather than dropping objects."""


class UnknownId(DragProfError):
    pass


class ProtocolViolation(DragProfError):
    """An allocation, a use, a flush or a second terminate after the
    runtime terminated, or a second program compiled by one
    Interpreter."""


class DraglogFormatError(DragProfError):
    """Malformed trace log file.  Carries the 1-based offending line."""

    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class CsvFormatError(DragProfError):
    """Malformed CSV handed to the plot command."""


class SchemeError(DragProfError):
    pass


class SchemeSyntaxError(SchemeError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class SchemeRuntimeError(SchemeError):
    pass
