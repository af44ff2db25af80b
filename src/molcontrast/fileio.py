"""Crash-safe file output.

Every file the package writes (checkpoints, trace CSVs, the CLI's CSV and
text outputs) goes through :func:`atomic_write`: the bytes go to a sibling
temporary file, which replaces the target only once it is complete.  A run
that fails or is killed mid-write leaves the previous file untouched.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator

__all__ = ["atomic_write"]


@contextmanager
def atomic_write(path: str | Path, mode: str = "w", **open_kwargs) -> Iterator[IO]:
    """Open a temporary sibling of ``path`` for writing; on a clean exit,
    ``os.replace`` it onto ``path``, otherwise delete it.

    ``mode`` is ``"w"`` or ``"wb"``; ``open_kwargs`` go to :func:`open`.
    The temporary file is created like ``open`` would create ``path``
    (same directory, default permissions), so the rename keeps both.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
