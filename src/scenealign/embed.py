"""Text embeddings for diversity selection.

The default provider is a fully offline, deterministic signed n-gram hasher;
an HTTP provider speaks the common ``{model, input} -> {data: [{embedding}]}``
wire shape for drop-in use of hosted embedding models.
"""

from __future__ import annotations

import logging
import math
import threading
from dataclasses import dataclass
from typing import Sequence

# _blake2.blake2b is the very class that hashlib.blake2b names; importing it
# alone keeps OpenSSL, which hashlib loads, out of an offline process
from _blake2 import blake2b

import numpy as np

from .errors import ConfigError, DimensionMismatch, EmptyText, RemoteError

logger = logging.getLogger(__name__)

_HTTP_BATCH = 16
_NGRAM_LENGTHS = range(3, 6)  # character n-grams the offline provider hashes
_WINDOW = _NGRAM_LENGTHS[-1]
# windows each per-dimension table keeps; past it a window is hashed every time
_SLOT_TABLE_CAP = 1 << 16


class _WindowTable:
    """One dimension's memo: a text window to the codes of its n-gram prefixes.

    A window is ``folded[i:i+5]``, or shorter at the end of the text; row
    ``ids[window]`` of ``codes`` holds ``bucket << 1 | sign`` for its 3-, 4- and
    5-character prefixes, with bucket ``dimension`` for a prefix the window is
    too short for.  Lookups take no lock: a dict get is atomic under the GIL.
    A store takes the lock, writes the row and publishes any grown array
    before it stores the key, so a reader that finds a key and then reads
    ``codes`` finds the row; a store happens once per distinct window.
    """

    def __init__(self, dimension: int):
        self.dimension = dimension
        self.ids: dict[str, int] = {}
        self.codes = np.empty((1024, len(_NGRAM_LENGTHS)), dtype=np.int64)

    def __len__(self) -> int:
        return len(self.ids)

    def rows(self, windows: list[str]) -> list[int] | None:
        """The row of each window, storing new ones; None when one is past the cap."""
        try:
            return list(map(self.ids.__getitem__, windows))
        except KeyError:
            self._store(windows)
        try:
            return list(map(self.ids.__getitem__, windows))
        except KeyError:
            return None

    def codes_of(self, window: str):
        """One window's codes, from its row or, past the cap, hashed inline."""
        row = self.ids.get(window)
        return _window_codes(window, self.dimension) if row is None else self.codes[row]

    def _store(self, windows: list[str]) -> None:
        if len(self.ids) >= _SLOT_TABLE_CAP:
            return
        new = [w for w in dict.fromkeys(windows) if w not in self.ids]
        hashed = [_window_codes(w, self.dimension) for w in new]
        with _window_store_lock:
            for window, codes in zip(new, hashed):
                row = len(self.ids)
                if row >= _SLOT_TABLE_CAP:
                    return
                if window in self.ids:  # another thread stored it first
                    continue
                if row == len(self.codes):
                    grown = np.empty((2 * row, len(_NGRAM_LENGTHS)), dtype=np.int64)
                    grown[:row] = self.codes
                    self.codes = grown
                self.codes[row] = codes
                self.ids[window] = row


# dimension -> its window table, made on the first text of that dimension
_window_tables: dict[int, _WindowTable] = {}
_window_store_lock = threading.Lock()


@dataclass(frozen=True)
class EmbedConfig:
    """Provider choice plus hashing / endpoint parameters."""

    provider: str = "hashed-ngram"  # or "http"
    dimension: int = 256
    endpoint: str | None = None
    model: str | None = None

    def __post_init__(self):
        if self.provider not in ("hashed-ngram", "http"):
            raise ConfigError(f"unknown embedding provider {self.provider!r}")
        if self.dimension < 2:
            raise ConfigError("embedding dimension must be at least 2")
        if self.provider == "http":
            from . import transport  # loads the HTTP stack during set-up

            transport.check_endpoint(self.endpoint, "http embedding provider")


@dataclass(frozen=True)
class Embedding:
    values: tuple[float, ...]

    @property
    def dimension(self) -> int:
        return len(self.values)


def stable_hash(data: str) -> int:
    """Stable 64-bit hash of a string: its UTF-8 bytes' 8-byte blake2b digest, big-endian."""
    digest = blake2b(data.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _window_codes(window: str, dimension: int) -> list[int]:
    """``bucket << 1 | sign`` of each n-gram prefix of a window, padded with bucket ``dimension``.

    A text shorter than the smallest n-gram is its own window, hashed whole.
    """
    codes = []
    for n in _NGRAM_LENGTHS:
        if n <= len(window) or n == _NGRAM_LENGTHS[0]:
            h = stable_hash(window[:n])
            codes.append(((h >> 1) % dimension) << 1 | (h & 1))
        else:
            codes.append(dimension << 1)
    return codes


def _window_table(dimension: int) -> _WindowTable:
    table = _window_tables.get(dimension)
    if table is None:  # setdefault is atomic, so racing threads share one table
        table = _window_tables.setdefault(dimension, _WindowTable(dimension))
    return table


def _hashed_ngram_vector(text: str, cfg: EmbedConfig) -> np.ndarray:
    folded = text.casefold()
    # every 3-, 4- and 5-gram is a prefix of exactly one window
    windows = [folded[i : i + _WINDOW] for i in range(len(folded) - _NGRAM_LENGTHS[0] + 1)] or [folded]
    dim = cfg.dimension
    table = _window_table(dim)
    rows = table.rows(windows)
    if rows is not None:
        packed = table.codes.take(rows, axis=0).ravel()  # read the array after the keys
    else:
        packed = np.array([table.codes_of(w) for w in windows], dtype=np.int64).ravel()
    # code 2b + 1 counts bucket b's +1 grams and 2b its -1 grams; bucket
    # ``dim`` holds the padding.  Integer counts are exact in float64.
    counts = np.bincount(packed, minlength=2 * dim + 2)
    vec = (counts[1::2] - counts[0::2])[:dim].astype(np.float64)
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        # signed counts cancelled out completely; fall back to a one-hot
        vec[stable_hash(folded) % dim] = 1.0
        norm = 1.0
    return vec / norm


def _http_embed_batch(texts: Sequence[str], cfg: EmbedConfig) -> list[Embedding]:
    payload: dict = {"input": list(texts)}
    if cfg.model:
        payload["model"] = cfg.model
    from . import transport

    body = transport.post_json(payload, cfg.endpoint, transport.EMBED_TIMEOUT_S)
    try:
        # a row that is not a list of numbers is a malformed reply, not a crash
        vectors = [tuple(float(x) for x in row["embedding"]) for row in body["data"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise RemoteError(None, f"unexpected response shape: {exc}") from exc
    # JSON's NaN and Infinity read as floats, but no distance can be taken from them
    if not all(math.isfinite(x) for vec in vectors for x in vec):
        raise RemoteError(None, "an embedding holds a non-finite value")
    if len(vectors) != len(texts):
        raise RemoteError(None, f"expected {len(texts)} embeddings, got {len(vectors)}")
    for vec in vectors:
        if len(vec) != cfg.dimension:
            raise DimensionMismatch(
                f"endpoint returned dimension {len(vec)}, configured {cfg.dimension}"
            )
    return [Embedding(vec) for vec in vectors]


def embed_texts(texts: Sequence[str], cfg: EmbedConfig = EmbedConfig()) -> list[Embedding]:
    """Embed a batch, preserving input order.

    The HTTP provider sends the batch in chunks of 16 texts, one request
    after another.
    """
    for text in texts:
        if not text or not text.strip():
            raise EmptyText("cannot embed empty text")
    if cfg.provider == "hashed-ngram":
        return [Embedding(tuple(_hashed_ngram_vector(t, cfg).tolist())) for t in texts]
    return [emb for i in range(0, len(texts), _HTTP_BATCH) for emb in _http_embed_batch(texts[i : i + _HTTP_BATCH], cfg)]


def pairwise_distance(a: Embedding, b: Embedding) -> float:
    """Euclidean distance between two embeddings of equal dimension."""
    if a.dimension != b.dimension:
        raise DimensionMismatch(f"dimensions differ: {a.dimension} vs {b.dimension}")
    return math.dist(a.values, b.values)


def distance_matrix(embeddings: Sequence[Embedding]) -> np.ndarray:
    """Symmetric matrix of pairwise Euclidean distances.

    Computed pairwise with :func:`pairwise_distance` so results are
    bit-identical to naive per-pair evaluation; candidate sets are small.
    """
    n = len(embeddings)
    out = np.zeros((n, n), dtype=np.float64)
    for i in range(n):
        for j in range(i + 1, n):
            out[i, j] = out[j, i] = pairwise_distance(embeddings[i], embeddings[j])
    return out
