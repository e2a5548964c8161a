"""Atomic replacement of output files, shared by every writer."""

import contextlib
import os
import tempfile


def write_text(path, text: str):
    """Write text (UTF-8, LF newlines) to a unique temp file in path's
    directory, then rename it over path.  If the write or the rename
    fails, the temp file is removed and path is left as it was."""
    path = os.fspath(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".",
                               prefix=os.path.basename(path) + ".",
                               suffix=".tmp")
    try:
        with open(fd, "w", encoding="utf-8", newline="\n") as fh:
            # mkstemp makes the file private; give it the mode a plain
            # open() would have.
            mask = os.umask(0)
            os.umask(mask)
            os.chmod(tmp, 0o666 & ~mask)
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
