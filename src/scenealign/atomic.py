"""Atomic file replacement for every file the package writes."""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator, Union


@contextmanager
def atomic_open(path: Union[str, Path]) -> Iterator[IO[str]]:
    """Write text to a temporary file that replaces ``path`` once complete.

    Readers see the old file or the whole new one.  The temporary name is
    private to the process and thread, so concurrent writers never share one.
    If the body raises, the temporary file is removed and ``path`` is kept.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with tmp.open("w", encoding="utf-8", newline="\n") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
