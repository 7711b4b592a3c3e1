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
from operator import mul
from typing import Sequence

# _blake2.blake2b is the very class that hashlib.blake2b names; importing it
# alone keeps OpenSSL, which hashlib loads, out of an offline process
from _blake2 import blake2b

from .errors import ConfigError, DimensionMismatch, EmptyText, RemoteError

logger = logging.getLogger(__name__)

_HTTP_BATCH = 16
_NGRAM_LENGTHS = range(3, 6)  # character n-grams the offline provider hashes
_WINDOW = _NGRAM_LENGTHS[-1]
# windows each per-dimension table keeps; past it a window is hashed every time
_SLOT_TABLE_CAP = 1 << 16

# dimension -> its window table, made on the first text of that dimension.  A
# table maps a window, ``folded[i:i+5]`` or shorter at the end of the text, to
# the ``(bucket, sign)`` codes of its 3-, 4- and 5-character prefixes.  Lookups
# take no lock: a dict get is atomic under the GIL.  Stores take the lock, so
# a table never holds more than _SLOT_TABLE_CAP windows.
_window_tables: dict[int, dict[str, tuple[tuple[int, int], ...]]] = {}
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
        if type(self.dimension) is not int or self.dimension < 2:  # a bool or a float is no dimension
            raise ConfigError(f"embedding dimension must be an integer of at least 2, got {self.dimension!r}")
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


def _window_codes(window: str, dimension: int) -> tuple[tuple[int, int], ...]:
    """``(bucket, sign)`` of each n-gram prefix of a window that is long enough for it.

    A text shorter than the smallest n-gram is its own window, hashed whole.
    """
    codes = []
    for n in _NGRAM_LENGTHS:
        if n > len(window) and n > _NGRAM_LENGTHS[0]:
            break
        h = stable_hash(window[:n])
        codes.append(((h >> 1) % dimension, 1 if h & 1 else -1))
    return tuple(codes)


def _stored_codes(table: dict, window: str, dimension: int) -> tuple[tuple[int, int], ...]:
    """Hash a window the table lacks, and store it while the table is below the cap."""
    codes = _window_codes(window, dimension)
    with _window_store_lock:
        if len(table) < _SLOT_TABLE_CAP:
            table[window] = codes
    return codes


def _hashed_ngram_vector(text: str, cfg: EmbedConfig) -> tuple[float, ...]:
    folded = text.casefold()
    dim = cfg.dimension
    table = _window_tables.get(dim)
    if table is None:  # setdefault is atomic, so racing threads share one table
        table = _window_tables.setdefault(dim, {})
    counts = [0] * dim
    # every 3-, 4- and 5-gram is a prefix of exactly one window; few windows
    # of a text repeat, so counting them first costs more than it saves
    for window in [folded[i : i + _WINDOW] for i in range(len(folded) - _NGRAM_LENGTHS[0] + 1)] or [folded]:
        codes = table.get(window) or _stored_codes(table, window, dim)
        for bucket, sign in codes:
            counts[bucket] += sign
    # the counts are integers and their sum of squares is exact, so the norm
    # and each quotient are the correctly rounded doubles of the exact values
    norm = math.sqrt(sum(map(mul, counts, counts)))
    if norm == 0.0:
        # signed counts cancelled out completely; fall back to a one-hot
        counts[stable_hash(folded) % dim] = 1
        norm = 1.0
    return tuple([count / norm for count in counts])


def _http_embed_batch(texts: Sequence[str], cfg: EmbedConfig) -> list[Embedding]:
    payload: dict = {"input": list(texts)}
    if cfg.model:
        payload["model"] = cfg.model
    from . import transport

    body = transport.post_json(payload, cfg.endpoint, transport.EMBED_TIMEOUT_S)
    try:
        rows = [row["embedding"] for row in body["data"]]
    except (KeyError, TypeError) as exc:
        raise RemoteError(None, f"unexpected response shape: {exc}") from exc
    # a row that is not a list of numbers is a malformed reply, not a crash:
    # a string, an object or a list of JSON booleans would convert item by item
    if not all(type(row) is list and all(type(x) in (int, float) for x in row) for row in rows):
        raise RemoteError(None, "an embedding is not a list of numbers")
    try:
        vectors = [tuple(map(float, row)) for row in rows]
    except OverflowError as exc:  # an integer no double can hold
        raise RemoteError(None, f"an embedding holds a number out of range: {exc}") from exc
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
        return [Embedding(_hashed_ngram_vector(t, cfg)) for t in texts]
    return [emb for i in range(0, len(texts), _HTTP_BATCH) for emb in _http_embed_batch(texts[i : i + _HTTP_BATCH], cfg)]


def pairwise_distance(a: Embedding, b: Embedding) -> float:
    """Euclidean distance between two embeddings of equal dimension."""
    if a.dimension != b.dimension:
        raise DimensionMismatch(f"dimensions differ: {a.dimension} vs {b.dimension}")
    return math.dist(a.values, b.values)


def distance_matrix(embeddings: Sequence[Embedding]) -> list[list[float]]:
    """Symmetric matrix of pairwise Euclidean distances.

    Computed pairwise with :func:`pairwise_distance` so results are
    bit-identical to naive per-pair evaluation; candidate sets are small.
    """
    n = len(embeddings)
    out = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            out[i][j] = out[j][i] = pairwise_distance(embeddings[i], embeddings[j])
    return out
