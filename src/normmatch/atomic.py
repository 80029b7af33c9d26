"""Atomic file output: every file the package writes goes through atomic_write."""

import contextlib
import os

__all__ = ["atomic_write"]


@contextlib.contextmanager
def atomic_write(path, mode: str):
    """A temporary file beside ``path``, open in ``mode`` ("w" for UTF-8 text or "wb").

    On a clean exit it is flushed to disk and renamed over ``path``, so a
    reader sees the previous file or the whole new one. If the body raises,
    the temporary file is removed and ``path`` is left as it was.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    fh = open(tmp, mode, encoding=None if "b" in mode else "utf-8")
    try:
        with fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
