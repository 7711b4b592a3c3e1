"""Every file the package reads or writes: atomic writes, checked reads.

A JSONL file splits at ``\\n`` only: ``json.dumps(..., ensure_ascii=False)``
writes U+0085, U+2028 and U+2029 raw, and each is a line break to Python.
"""

from __future__ import annotations

import json
import os
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterable, Iterator, Union

from .errors import CorpusError


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


def write_lines(path: Union[str, Path], lines: Iterable[str]) -> int:
    """Write each line, ended by ``\\n``, as it arrives, through :func:`atomic_open`; returns the count."""
    count = 0
    with atomic_open(path) as fh:
        for line in lines:
            fh.write(line + "\n")
            count += 1
    return count


def read_text(path: Union[str, Path], what: str) -> str:
    """The text of a UTF-8 file; one that cannot be read or decoded is a corpus error naming ``what``."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise CorpusError(None, f"cannot read {what}: {exc}") from exc


def read_lines(path: Union[str, Path], what: str) -> Iterator[tuple[int, str]]:
    """The non-blank lines of a JSONL file as (line number, text) pairs, numbered from 1, as they are read.

    A file that cannot be opened or decoded is a corpus error naming ``what``
    when the iteration reaches it, after the lines before it were yielded.
    """
    try:
        with open(path, encoding="utf-8", newline="\n") as fh:
            for n, line in enumerate(fh, start=1):
                if line.strip():
                    yield n, line.removesuffix("\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise CorpusError(None, f"cannot read {what}: {exc}") from exc


def loads_object(line: str) -> dict:
    """The JSON object on one JSONL line; invalid JSON or another type is a corpus error."""
    try:
        obj = json.loads(line)
    except ValueError as exc:
        raise CorpusError(None, f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise CorpusError(None, f"expected an object, got {type(obj).__name__}")
    return obj
