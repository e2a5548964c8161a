"""Output files for every writer: atomic replacement, in bounded slices.

opened(path) is the one writer: a context manager that yields a write
callable taking strings, which reach the file in order as they come.  A
missing or regular target is replaced atomically: the strings go to a
unique temp file in its directory, which is renamed over it when the
block ends without an exception, and removed otherwise.  A target that
exists and is not a regular file (a FIFO, a device) is written in place,
not atomically, since renaming over it would replace the node itself;
its strings are kept until the block ends, and written only if it ends
without an exception, so a failed command sends it nothing.  Each string
is encoded and written SLICE characters at a time, so neither the writer
nor the encoder ever holds a second copy of a whole text, and the file's
buffer gathers small strings into large writes.  `dragprof run` hands
opened's writer to the run, which writes its whole log through it;
write_text writes one string, an output of analyze or plot.
"""

import contextlib
import errno
import os
import stat
import tempfile

SLICE = 65536  # characters encoded and written at a time


def write_text(path, text: str):
    """Write text to path (see opened)."""
    with opened(path) as write:
        write(text)


@contextlib.contextmanager
def opened(path):
    """A write callable for path (UTF-8, LF newlines).  A missing or
    regular path gets a unique temp file in its directory, made before
    the block runs and renamed over path after it; if the block raises,
    or a write or the rename fails, the temp file is removed and path
    is left as it was.  A directory is refused before the block runs.
    Any other existing path gets the strings when the block ends, and
    only if it ends without an exception."""
    path = os.fspath(path)
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        mode = stat.S_IFREG
    if stat.S_ISDIR(mode):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if not stat.S_ISREG(mode):
        pieces = []
        yield pieces.append
        with open(path, "wb") as fh:
            write = _encoder(fh)
            for text in pieces:
                write(text)
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
            yield _encoder(fh)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _encoder(fh):
    """A callable that writes a string to the binary file fh as UTF-8,
    SLICE characters at a time."""
    def write(text):
        for start in range(0, len(text), SLICE):
            fh.write(text[start:start + SLICE].encode("utf-8"))
    return write
