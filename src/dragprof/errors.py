"""Exception types shared across the runtime and the tools."""


class DragProfError(Exception):
    """Base class for every error this package raises on purpose."""


class HeapError(DragProfError):
    pass


class OutOfMemory(HeapError):
    """Allocation still does not fit after a collection."""


class NegativeLength(HeapError):
    """Vector allocation with a negative length, rejected up front."""


class IndexOutOfBounds(HeapError):
    pass


class DanglingRef(HeapError):
    """A Ref whose object was collected.  Signals a runtime/GC bug, not a
    user error."""


class UnstorableValue(HeapError):
    """Attempt to store something that is not a slot value (for example a
    procedure) in a heap object."""


class ToSpaceOverflow(HeapError):
    """Survivor volume exceeded the standby space; the run is aborted
    rather than dropping objects."""


class ProfilerError(DragProfError):
    pass


class UnknownId(ProfilerError):
    pass


class ProtocolViolation(ProfilerError):
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
