"""dragprof: a mini-Scheme runtime whose copying collector records every
object's creation, last use and collection tick, plus the analytics that
turn those logs into drag statistics, curves and plots.

Importing the package gives only the bundled-program helpers below; each
layer is imported by its module name (dragprof.interp, dragprof.analyzer,
...), so a command loads just the layers it uses.
"""

from importlib import resources

__version__ = "0.1.0"


def bundled_program(name: str) -> str:
    """Source text of a bundled example program, e.g. "motiv.scm"."""
    return (resources.files(__package__) / "programs" / name).read_text(
        encoding="utf-8")


def bundled_program_path(name: str):
    """Filesystem path of a bundled example program."""
    return resources.files(__package__) / "programs" / name
