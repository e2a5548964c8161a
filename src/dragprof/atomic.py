"""Output files for every writer: atomic replacement, in bounded slices.

A missing or regular target is replaced atomically: the text goes to a
unique temp file in its directory, which is then renamed over it.  A
target that exists and is not a regular file (a FIFO, a device) is
written in place, not atomically, since renaming over it would replace
the node itself.  Either way the text arrives as pieces, strings written
in order as they come, and each piece is encoded and written SLICE
characters at a time, so neither the writer nor the encoder ever holds
a second copy of the whole text.  write_text writes one string as a
single piece.
"""

import contextlib
import os
import stat
import tempfile

SLICE = 65536  # characters encoded and written at a time


def write_text(path, text: str):
    """Write text to path (see write_pieces)."""
    write_pieces(path, (text,))


def write_pieces(path, pieces):
    """Write the strings pieces yields, in order, to path (UTF-8, LF
    newlines).  A missing or regular path gets a unique temp file in its
    directory, renamed over it; if a piece cannot be made or encoded, or
    the write or the rename fails, the temp file is removed and path is
    left as it was.  Any other existing path is opened and written in
    place."""
    path = os.fspath(path)
    try:
        in_place = not stat.S_ISREG(os.stat(path).st_mode)
    except FileNotFoundError:
        in_place = False
    if in_place:
        with open(path, "wb") as fh:
            _write_slices(fh, pieces)
        return
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".",
                               prefix=os.path.basename(path) + ".",
                               suffix=".tmp")
    try:
        with open(fd, "wb") as fh:
            # mkstemp makes the file private; give it the mode a plain
            # open() would have.
            mask = os.umask(0)
            os.umask(mask)
            os.chmod(tmp, 0o666 & ~mask)
            _write_slices(fh, pieces)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _write_slices(fh, pieces):
    for text in pieces:
        for start in range(0, len(text), SLICE):
            fh.write(text[start:start + SLICE].encode("utf-8"))
