import hashlib
import math
import random
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenealign import embed as embed_module
from scenealign import transport
from scenealign.embed import (
    EmbedConfig,
    Embedding,
    distance_matrix,
    embed_texts,
    pairwise_distance,
)
from scenealign.errors import ConfigError, DimensionMismatch, EmptyText, RemoteError, RequestTimeout

from .helpers import naive_distance_matrix, random_unit_vectors


class TestConfig:
    def test_unknown_provider(self):
        with pytest.raises(ConfigError):
            EmbedConfig(provider="magic")

    def test_dimension_too_small(self):
        with pytest.raises(ConfigError):
            EmbedConfig(dimension=1)

    @pytest.mark.parametrize("dimension", [2.5, 64.0, "64", True, None])
    def test_dimension_that_is_not_an_integer(self, dimension):
        with pytest.raises(ConfigError):
            EmbedConfig(dimension=dimension)

    def test_http_requires_endpoint(self):
        with pytest.raises(ConfigError):
            EmbedConfig(provider="http")


class TestHashedProvider:
    def test_deterministic(self):
        a = embed_texts(["the silver motorcycle"])[0]
        b = embed_texts(["the silver motorcycle"])[0]
        assert a == b

    def test_unit_norm(self):
        v = np.array(embed_texts(["a man holds a white paper"])[0].values)
        assert math.isclose(float(np.linalg.norm(v)), 1.0, rel_tol=0, abs_tol=1e-12)

    def test_dimension_follows_config(self):
        cfg = EmbedConfig(dimension=64)
        assert embed_texts(["anything"], cfg)[0].dimension == 64

    def test_distinct_texts_differ(self):
        assert embed_texts(["red car parked"])[0] != embed_texts(["blue sky above"])[0]

    def test_case_folded(self):
        assert embed_texts(["Silver Motorcycle"])[0] == embed_texts(["silver motorcycle"])[0]

    def test_text_shorter_than_smallest_ngram(self):
        v = np.array(embed_texts(["ab"])[0].values)
        assert math.isclose(float(np.linalg.norm(v)), 1.0, abs_tol=1e-12)

    def test_unicode_text(self):
        assert embed_texts(["café à côté"])[0].dimension == 256

    def test_empty_text_rejected(self):
        with pytest.raises(EmptyText):
            embed_texts([""])
        with pytest.raises(EmptyText):
            embed_texts(["fine", "   "])

    def test_empty_batch(self):
        assert embed_texts([]) == []

    def test_batch_matches_single(self):
        texts = ["one sentence", "another sentence", "a third"]
        assert embed_texts(texts) == [embed_texts([t])[0] for t in texts]


def _reference_hash(data: str) -> int:
    return int.from_bytes(hashlib.blake2b(data.encode("utf-8"), digest_size=8).digest(), "big")


def _reference_counts(text: str, dimension: int) -> tuple[str, np.ndarray]:
    """Signed n-gram counts, hashing every gram with its own blake2b call."""
    folded = text.casefold()
    grams = []
    for n in range(3, 6):
        grams.extend(folded[i : i + n] for i in range(len(folded) - n + 1))
    if not grams:
        grams = [folded]
    counts = np.zeros(dimension, dtype=np.float64)
    for gram in grams:
        h = _reference_hash(gram)
        counts[(h >> 1) % dimension] += 1.0 if h & 1 else -1.0
    return folded, counts


def _reference_vector(text: str, dimension: int) -> np.ndarray:
    folded, vec = _reference_counts(text, dimension)
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        vec[_reference_hash(folded) % dimension] = 1.0
        norm = 1.0
    return vec / norm


def _cancelling_text(dimension: int) -> str:
    """The first ``cancel-N`` text whose signed counts are all zero."""
    for i in range(10_000):
        text = f"cancel-{i}"
        if not _reference_counts(text, dimension)[1].any():
            return text
    raise AssertionError("no text with cancelling counts among the candidates")


def _assert_matches_reference(texts, dimension):
    got = embed_texts(texts, EmbedConfig(dimension=dimension))
    for text, emb in zip(texts, got):
        # bit for bit, not merely close
        assert np.array(emb.values).tobytes() == _reference_vector(text, dimension).tobytes(), text


def _assert_tables_within_cap():
    for table in embed_module._window_tables.values():
        assert len(table) <= embed_module._SLOT_TABLE_CAP


def _random_words(rng: random.Random, n: int) -> str:
    return " ".join("".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(rng.randint(3, 9))) for _ in range(n))


_SHORT = st.text(min_size=1, max_size=2).filter(str.strip)
_NON_ASCII = st.text(alphabet="ßﬁﬂİΣσςæøåéü日本語 ab", min_size=1, max_size=24).filter(str.strip)
_ANY = st.text(min_size=1, max_size=60).filter(str.strip)


class TestMemoizedSlots:
    """The memoized window table gives exactly the per-gram blake2b loop's vectors."""

    @given(st.lists(st.one_of(_SHORT, _NON_ASCII, _ANY), min_size=1, max_size=6), st.integers(2, 1024))
    @settings(max_examples=200, deadline=None)
    def test_bit_identical_to_the_per_gram_hash(self, texts, dimension):
        _assert_matches_reference(texts, dimension)
        _assert_tables_within_cap()

    @pytest.mark.parametrize(
        "text", ["ß", "ﬁ", "Straße", "ﬁﬂ", "ßß", "İstanbul", "ab", "x", "abc", "abcd", "abcde", "car ", "İx"]
    )
    def test_texts_casefolding_lengthens_or_shorter_than_a_gram(self, text):
        for dimension in (2, 3, 256, 1024):
            _assert_matches_reference([text], dimension)

    def test_cancelled_counts_fall_back_to_one_hot(self):
        text = _cancelling_text(2)
        _assert_matches_reference([text], 2)
        vec = np.array(embed_texts([text], EmbedConfig(dimension=2))[0].values)
        assert sorted(vec.tolist()) == [0.0, 1.0]

    def test_past_the_cap_grams_are_hashed_without_storing(self, monkeypatch):
        monkeypatch.setattr(embed_module, "_SLOT_TABLE_CAP", 16)
        monkeypatch.setattr(embed_module, "_window_tables", {})
        texts = [f"a longer sentence number {i} about the silver motorcycle" for i in range(20)]
        for dimension in (2, 97, 256):
            _assert_matches_reference(texts, dimension)
            _assert_matches_reference(texts, dimension)  # second pass: hits and misses mixed
        assert sorted(embed_module._window_tables) == [2, 97, 256]
        assert all(len(table) == 16 for table in embed_module._window_tables.values())
        _assert_tables_within_cap()

    def test_a_second_pass_is_served_from_the_table(self, monkeypatch):
        monkeypatch.setattr(embed_module, "_window_tables", {})
        rng = random.Random(3)
        texts = [_random_words(rng, 60) for _ in range(12)]
        _assert_matches_reference(texts, 256)
        hashed = []
        monkeypatch.setattr(embed_module, "stable_hash", lambda data: hashed.append(data) or _reference_hash(data))
        _assert_matches_reference(texts, 256)  # all hits: no window is hashed again
        assert hashed == []
        _assert_tables_within_cap()

    def test_threads_match_the_serial_run(self, monkeypatch):
        rng = random.Random(0)
        words = ["man", "silver", "motorcycle", "looks", "at", "the", "paved", "ground", "Straße", "ﬁne"]
        texts = [" ".join(rng.choice(words) for _ in range(rng.randint(1, 12))) for _ in range(400)]
        # 296 distinct windows: the table fills to its cap inside its first array
        _assert_threads_match_the_serial_run(monkeypatch, 200, texts)
        assert len(embed_module._window_tables[256]) == 200

    def test_threads_match_the_serial_run_while_the_table_grows(self, monkeypatch):
        rng = random.Random(1)
        texts = [_random_words(rng, 8) for _ in range(300)]  # several thousand windows
        _assert_threads_match_the_serial_run(monkeypatch, 3000, texts)
        assert len(embed_module._window_tables[256]) == 3000


def _assert_threads_match_the_serial_run(monkeypatch, cap: int, texts: list[str]) -> None:
    monkeypatch.setattr(embed_module, "_SLOT_TABLE_CAP", cap)
    monkeypatch.setattr(embed_module, "_window_tables", {})
    chunks = [texts[i : i + 10] for i in range(0, len(texts), 10)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside the check-then-store too
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(embed_texts, chunk) for chunk in chunks]
            threaded = [emb for future in futures for emb in future.result(timeout=120)]
    finally:
        sys.setswitchinterval(interval)
    assert len(threaded) == len(texts)
    _assert_tables_within_cap()
    monkeypatch.setattr(embed_module, "_window_tables", {})
    assert threaded == embed_texts(texts)
    _assert_tables_within_cap()


class TestDistances:
    def _embeddings(self, n=8, dim=16, seed=1):
        rng = random.Random(seed)
        return [Embedding(tuple(v)) for v in random_unit_vectors(rng, n, dim)]

    def test_metric_axioms(self):
        embs = self._embeddings()
        for a in embs:
            assert pairwise_distance(a, a) == 0.0
            for b in embs:
                d = pairwise_distance(a, b)
                assert d >= 0.0
                assert d == pairwise_distance(b, a)
                for c in embs:
                    assert d <= pairwise_distance(a, c) + pairwise_distance(c, b) + 1e-12

    def test_matrix_matches_naive_oracle_exactly(self):
        embs = self._embeddings(n=10, dim=24, seed=7)
        got = distance_matrix(embs)
        expected = naive_distance_matrix([e.values for e in embs])
        assert len(got) == 10 and all(len(row) == 10 for row in got)
        for i in range(10):
            for j in range(10):
                assert got[i][j] == expected[i][j]

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            pairwise_distance(Embedding((1.0, 0.0)), Embedding((1.0, 0.0, 0.0)))

    def test_known_distance(self):
        a = Embedding((0.0, 0.0, 0.0))
        b = Embedding((3.0, 4.0, 0.0))
        assert pairwise_distance(a, b) == 5.0


def _echo_embedding(text: str, dim: int) -> list[float]:
    # deterministic per-text vector so order mixups are detectable
    base = [float(len(text)), float(ord(text[0])), float(ord(text[-1]))]
    return (base + [0.0] * dim)[:dim]


class TestHttpProvider:
    def _cfg(self, api, **kw):
        defaults = dict(
            provider="http",
            endpoint=f"{api.url}/embed",
            dimension=4,
            model="embedder-1",
        )
        defaults.update(kw)
        return EmbedConfig(**defaults)

    def _serve_embeddings(self, payload):
        return 200, {"data": [{"embedding": _echo_embedding(t, 4)} for t in payload["input"]]}

    def test_round_trip_preserves_order(self, mock_api):
        mock_api.handler = self._serve_embeddings
        texts = [f"text number {i}" for i in range(5)]
        out = embed_texts(texts, self._cfg(mock_api))
        assert [e.values for e in out] == [tuple(_echo_embedding(t, 4)) for t in texts]
        assert mock_api.requests[0]["payload"]["model"] == "embedder-1"

    def test_large_batch_is_chunked_and_reassembled(self, mock_api):
        mock_api.handler = self._serve_embeddings
        texts = [f"item {i:03d}" for i in range(40)]
        out = embed_texts(texts, self._cfg(mock_api))
        assert len(mock_api.requests) == 3  # 16 + 16 + 8
        sizes = sorted(len(r["payload"]["input"]) for r in mock_api.requests)
        assert sizes == [8, 16, 16]
        assert [e.values for e in out] == [tuple(_echo_embedding(t, 4)) for t in texts]

    def test_retries_on_throttle_then_succeeds(self, mock_api):
        state = {"n": 0}

        def handler(payload):
            state["n"] += 1
            if state["n"] <= 2:
                return 429, {"error": "slow down"}
            return self._serve_embeddings(payload)

        mock_api.handler = handler
        out = embed_texts(["hello world"], self._cfg(mock_api))
        assert len(out) == 1
        assert state["n"] == 3

    def test_retries_exhausted(self, mock_api, monkeypatch):
        monkeypatch.setattr(transport, "MAX_ATTEMPTS", 2)
        mock_api.handler = lambda payload: (503, {"error": "down"})
        with pytest.raises(RemoteError) as err:
            embed_texts(["hello"], self._cfg(mock_api))
        assert err.value.status == 503
        assert len(mock_api.requests) == 2

    def test_client_errors_do_not_retry(self, mock_api):
        mock_api.handler = lambda payload: (401, {"error": "bad key"})
        with pytest.raises(RemoteError) as err:
            embed_texts(["hello"], self._cfg(mock_api))
        assert err.value.status == 401
        assert len(mock_api.requests) == 1

    def test_timeout_raises_dedicated_error(self, mock_api, monkeypatch):
        def handler(payload):
            time.sleep(0.5)
            return self._serve_embeddings(payload)

        mock_api.handler = handler
        monkeypatch.setattr(transport, "EMBED_TIMEOUT_S", 0.05)
        monkeypatch.setattr(transport, "MAX_ATTEMPTS", 2)
        with pytest.raises(RequestTimeout):
            embed_texts(["hello"], self._cfg(mock_api))

    def test_dimension_mismatch_detected(self, mock_api):
        mock_api.handler = lambda payload: (
            200,
            {"data": [{"embedding": [1.0, 2.0]} for _ in payload["input"]]},
        )
        with pytest.raises(DimensionMismatch):
            embed_texts(["hello"], self._cfg(mock_api))

    def test_malformed_response_shape(self, mock_api):
        mock_api.handler = lambda payload: (200, {"results": []})
        with pytest.raises(RemoteError):
            embed_texts(["hello"], self._cfg(mock_api))

    def test_wrong_row_count(self, mock_api):
        mock_api.handler = lambda payload: (200, {"data": []})
        with pytest.raises(RemoteError):
            embed_texts(["hello"], self._cfg(mock_api))

    @pytest.mark.parametrize(
        "row",
        [
            None,
            ["x", "y", "z", "w"],
            [0.5, float("nan"), 0.5, 0.5],
            [float("inf")] * 4,
            [0.0, 0.0, 0.0, -float("inf")],
            "1234",
            [True, False, True, 1],
            {"1": 0, "2": 0, "3": 0, "4": 0},
            [10**400, 0, 0, 0],
        ],
        ids=["null", "strings", "nan", "inf", "minus-inf", "string", "booleans", "object", "integer-past-double"],
    )
    def test_row_that_is_not_a_list_of_numbers(self, mock_api, row):
        mock_api.handler = lambda payload: (200, {"data": [{"embedding": row}]})
        with pytest.raises(RemoteError) as err:
            embed_texts(["hello"], self._cfg(mock_api))
        assert err.value.status is None
        assert len(mock_api.requests) == 1  # a malformed reply is not retried

    def test_api_key_sent_as_bearer(self, mock_api, monkeypatch):
        monkeypatch.setenv("SCENEALIGN_API_KEY", "sk-test-123")
        mock_api.handler = self._serve_embeddings
        embed_texts(["hello"], self._cfg(mock_api))
        assert mock_api.requests[0]["headers"].get("Authorization") == "Bearer sk-test-123"

    def test_no_key_no_header(self, mock_api, monkeypatch):
        monkeypatch.delenv("SCENEALIGN_API_KEY", raising=False)
        mock_api.handler = self._serve_embeddings
        embed_texts(["hello"], self._cfg(mock_api))
        assert "Authorization" not in mock_api.requests[0]["headers"]
