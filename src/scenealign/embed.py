"""Text embeddings for diversity selection.

The default provider is a fully offline, deterministic signed n-gram hasher;
an HTTP provider speaks the common ``{model, input} -> {data: [{embedding}]}``
wire shape for drop-in use of hosted embedding models.
"""

from __future__ import annotations

import hashlib
import logging
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, DimensionMismatch, EmptyText, RemoteError
from .transport import post_json

logger = logging.getLogger(__name__)

_HTTP_BATCH = 16
_MAX_IN_FLIGHT = 4  # concurrent requests per batch on the http provider
_NGRAM_LENGTHS = range(3, 6)  # character n-grams the offline provider hashes
# grams each per-dimension slot table keeps; past it a gram is hashed every time
_SLOT_TABLE_CAP = 1 << 16

# dimension -> {gram: bucket << 1 | sign}, filled as grams are first seen.
# Lookups take no lock: a dict get is atomic under the GIL, and two threads
# that miss on one gram compute and store the same code.  Only a store takes
# the lock, so that the size check and the insert cannot interleave and the
# table never outgrows its cap; a store happens once per distinct gram.
_slot_tables: dict[int, dict[str, int]] = {}
_slot_store_lock = threading.Lock()


@dataclass(frozen=True)
class EmbedConfig:
    """Provider choice plus hashing / transport parameters."""

    provider: str = "hashed-ngram"  # or "http"
    dimension: int = 256
    endpoint: str | None = None
    model: str | None = None
    timeout: float = 30.0
    max_retries: int = 3
    backoff_base: float = 0.5

    def __post_init__(self):
        if self.provider not in ("hashed-ngram", "http"):
            raise ConfigError(f"unknown embedding provider {self.provider!r}")
        if self.dimension < 2:
            raise ConfigError("embedding dimension must be at least 2")
        if self.provider == "http" and not self.endpoint:
            raise ConfigError("http embedding provider requires an endpoint")


@dataclass(frozen=True)
class Embedding:
    values: tuple[float, ...]

    @property
    def dimension(self) -> int:
        return len(self.values)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=np.float64)


def _stable_hash(data: str) -> int:
    digest = hashlib.blake2b(data.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _new_slot_code(gram: str, dimension: int, table: dict[str, int]) -> int:
    """Hash a gram the table lacks into ``bucket << 1 | sign``; store it below the cap."""
    h = _stable_hash(gram)
    code = ((h >> 1) % dimension) << 1 | (h & 1)
    if len(table) < _SLOT_TABLE_CAP:
        with _slot_store_lock:
            if len(table) < _SLOT_TABLE_CAP:
                table[gram] = code
    return code


def _hashed_ngram_vector(text: str, cfg: EmbedConfig) -> np.ndarray:
    folded = text.casefold()
    grams = [folded[i : i + n] for n in _NGRAM_LENGTHS for i in range(len(folded) - n + 1)]
    if not grams:
        grams = [folded]  # text shorter than the smallest n-gram
    dim = cfg.dimension
    table = _slot_tables.setdefault(dim, {})
    try:
        codes = list(map(table.__getitem__, grams))
    except KeyError:  # a gram seen for the first time, or one past the cap
        codes = [table[g] if g in table else _new_slot_code(g, dim, table) for g in grams]
    packed = np.array(codes, dtype=np.int64)
    # each entry is a sum of +-1.0, exact in float64 whatever the order
    vec = np.bincount(packed >> 1, weights=(packed & 1) * 2.0 - 1.0, minlength=dim)
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        # signed counts cancelled out completely; fall back to a one-hot
        vec[_stable_hash(folded) % dim] = 1.0
        norm = 1.0
    return vec / norm


def _http_embed_batch(texts: Sequence[str], cfg: EmbedConfig) -> list[Embedding]:
    payload: dict = {"input": list(texts)}
    if cfg.model:
        payload["model"] = cfg.model
    body = post_json(payload, cfg)
    try:
        # a row that is not a list of numbers is a malformed reply, not a crash
        vectors = [tuple(float(x) for x in row["embedding"]) for row in body["data"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise RemoteError(None, f"unexpected response shape: {exc}") from exc
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

    The HTTP provider chunks the batch and issues bounded concurrent requests;
    results are reassembled by request index.
    """
    for text in texts:
        if not text or not text.strip():
            raise EmptyText("cannot embed empty text")
    if cfg.provider == "hashed-ngram":
        return [Embedding(tuple(_hashed_ngram_vector(t, cfg))) for t in texts]
    chunks = [texts[i : i + _HTTP_BATCH] for i in range(0, len(texts), _HTTP_BATCH)]
    if len(chunks) <= 1:
        return _http_embed_batch(texts, cfg) if texts else []
    with ThreadPoolExecutor(max_workers=_MAX_IN_FLIGHT) as pool:
        results = list(pool.map(lambda chunk: _http_embed_batch(chunk, cfg), chunks))
    return [emb for chunk in results for emb in chunk]


def embed_text(text: str, cfg: EmbedConfig = EmbedConfig()) -> Embedding:
    """Embed one text; deterministic for the hashed n-gram provider."""
    return embed_texts([text], cfg)[0]


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
