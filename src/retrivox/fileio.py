"""Crash-safe file replacement shared by the RFDB, RFC1 and RFG1 writers."""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_write(path):
    """Yield a binary file beside path; on a clean exit fsync it and rename it
    over path, so a reader of path sees the old file or the new one, never a
    part of either.  On any failure the temp file is removed and path is left
    as it was."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            yield f
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
