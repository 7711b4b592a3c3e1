import itertools
import logging
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenealign.embed import Embedding
from scenealign.errors import ConfigError
from scenealign.perturb import EditTrace, NegativeCandidate, PerturbationOp, apply_operator, recompose
from scenealign.scene_graph import SceneGraph
from scenealign.selection import (
    SelectionConfig,
    filter_with_shortfall,
    select_diverse,
)

from .helpers import brute_force_max_min, naive_distance_matrix, naive_jaccard_counts, random_unit_vectors, scene_graphs


def _candidate(graph: SceneGraph, *ops: PerturbationOp) -> NegativeCandidate:
    trace = EditTrace(tuple(ops) or (PerturbationOp("swap", "relation", None, None),), 0)
    return NegativeCandidate(graph=graph, trace=trace)


def _attr_graph(n_shared: int, n_extra: int, tag: str = "w") -> SceneGraph:
    """Graph whose universe has ``n_shared`` common and ``n_extra`` private members."""
    attrs = [["e", f"v{i}"] for i in range(n_shared)] + [["e", f"{tag}{i}"] for i in range(n_extra)]
    return SceneGraph.from_parts(["e"], attrs, [])


class TestConfig:
    def test_band_must_be_ordered(self):
        with pytest.raises(ConfigError):
            SelectionConfig(gamma_lower=0.8, gamma_upper=0.2)
        with pytest.raises(ConfigError):
            SelectionConfig(gamma_lower=-0.1)
        with pytest.raises(ConfigError):
            SelectionConfig(gamma_upper=1.5)

    def test_m_positive(self):
        with pytest.raises(ConfigError):
            SelectionConfig(m=0)

    @pytest.mark.parametrize("m", [2.5, 3.0, "3", True, None])
    def test_m_that_is_not_an_integer(self, m):
        with pytest.raises(ConfigError):
            SelectionConfig(m=m)

    def test_unknown_shortfall_policy(self):
        with pytest.raises(ConfigError):
            SelectionConfig(on_shortfall="give-up")


class TestBandFilter:
    def test_case_swap_negative_is_excluded(self, case_graph, case_subgraph, case_pool):
        negative = recompose(apply_operator(case_subgraph, case_pool, "swap", index=0)[0], case_pool)
        kept = filter_with_shortfall([_candidate(negative)], case_graph)[0]
        # J = 12/14 sits above the 0.7 ceiling
        assert kept == []

    def test_annotates_jaccard(self, case_graph, case_subgraph, case_pool):
        cand = _candidate(recompose(apply_operator(case_subgraph, case_pool, "swap", index=0)[0], case_pool))
        filter_with_shortfall([cand], case_graph)
        assert cand.jaccard == pytest.approx(12 / 14)

    def test_lower_bound_is_inclusive(self):
        positive = _attr_graph(3, 7)  # union 10 against the 3-shared candidate
        cand = _candidate(_attr_graph(3, 0))
        assert cand.graph.attributes == positive.attributes[:3]
        kept = filter_with_shortfall([cand], positive, SelectionConfig(gamma_lower=0.3, gamma_upper=0.7))[0]
        assert kept == [0]  # J == 0.3 exactly

    def test_upper_bound_is_inclusive(self):
        positive = _attr_graph(7, 3)
        cand = _candidate(_attr_graph(7, 0))
        kept = filter_with_shortfall([cand], positive, SelectionConfig(gamma_lower=0.3, gamma_upper=0.7))[0]
        assert kept == [0]  # J == 0.7 exactly

    def test_just_outside_bounds_excluded(self):
        positive = _attr_graph(3, 7)
        low = _candidate(_attr_graph(2, 0))  # J = 2/11
        positive_hi = _attr_graph(8, 3)
        high = _candidate(_attr_graph(8, 0))  # J = 8/11 > 0.7
        assert filter_with_shortfall([low], positive)[0] == []
        assert filter_with_shortfall([high], positive_hi)[0] == []

    def test_order_and_indices_preserved(self):
        positive = _attr_graph(2, 2)  # universe size 4
        inside = _candidate(_attr_graph(2, 0))  # J = 2/4 = 0.5
        outside = _candidate(_attr_graph(0, 1, tag="z"))  # J = 0
        kept = filter_with_shortfall([outside, inside, outside, inside], positive)[0]
        assert kept == [1, 3]

    def test_predicate_only_candidates_are_dropped_by_the_band(self, case_graph):
        op = PerturbationOp("replace", "predicate", ("a", "on", "b"), ("a", "near", "b"))
        cand = _candidate(case_graph, op)  # same universe as positive: J = 1.0
        assert filter_with_shortfall([cand], case_graph)[0] == []
        assert cand.jaccard == 1.0

    def test_empty_candidate_list(self, case_graph):
        assert filter_with_shortfall([], case_graph)[0] == []


class TestShortfall:
    def test_emit_fewer_returns_survivors_without_a_warning(self, case_graph, caplog):
        cand = _candidate(case_graph)  # J = 1.0, outside band
        with caplog.at_level(logging.WARNING):
            kept, used, steps = filter_with_shortfall([cand], case_graph)
        assert kept == []
        assert steps == 0
        assert used.gamma_lower == 0.3 and used.gamma_upper == 0.7
        assert caplog.records == []  # stage_select logs the shortfall, naming the instance

    def test_relax_bounds_widens_until_enough(self):
        positive = _attr_graph(8, 2)  # |U| = 10
        # J values: 8/10 = 0.8 for both candidates; need two steps to reach 0.8
        cands = [
            _candidate(_attr_graph(8, 0)),
            _candidate(_attr_graph(8, 1, tag="x")),  # J = 8/11 ~ 0.727, one step
        ]
        cfg = SelectionConfig(m=2, on_shortfall="relax-bounds")
        kept, used, steps = filter_with_shortfall(cands, positive, cfg)
        assert steps == 2
        assert used.gamma_upper == pytest.approx(0.8)
        assert used.gamma_lower == pytest.approx(0.2)
        assert kept == [0, 1]

    def test_relax_stops_at_full_interval(self, case_graph):
        # nothing can ever match an empty candidate list
        cfg = SelectionConfig(m=1, on_shortfall="relax-bounds")
        kept, used, steps = filter_with_shortfall([], case_graph, cfg)
        assert kept == []
        assert used.gamma_lower == 0.0
        assert used.gamma_upper == 1.0
        assert steps == 6  # 0.3 -> 0 in 0.05 steps

    def test_relaxed_band_keeps_decimal_inclusivity(self):
        positive = _attr_graph(3, 1)  # |U| = 4
        cand = _candidate(_attr_graph(3, 0))  # J = 3/4 = 0.75
        cfg = SelectionConfig(m=1, on_shortfall="relax-bounds")
        kept, used, steps = filter_with_shortfall([cand], positive, cfg)
        assert steps == 1
        assert used.gamma_upper == pytest.approx(0.75)
        assert kept == [0]  # 0.75 == widened bound, inclusive


def _oracle_band(values: list[Fraction], lo: float, hi: float) -> list[int]:
    return [i for i, value in enumerate(values) if Fraction(str(lo)) <= value <= Fraction(str(hi))]


def _oracle_bands(cfg: SelectionConfig, values: list[Fraction]) -> list[tuple[float, float]]:
    """Every band ``filter_with_shortfall`` tries, first to last, by the documented rule."""
    bands = [(cfg.gamma_lower, cfg.gamma_upper)]
    if cfg.on_shortfall == "relax-bounds":
        lo, hi = bands[0]
        while len(_oracle_band(values, lo, hi)) < cfg.m and (lo > 0.0 or hi < 1.0):
            lo, hi = max(0.0, round(lo - 0.05, 10)), min(1.0, round(hi + 0.05, 10))
            bands.append((lo, hi))
    return bands


# attribute-only graphs over a small range hit J = 0.3 and 0.7 exactly
# (3/10, 7/10, 6/20, ...) and empty universes; random graphs cover the rest
_ATTR_GRAPHS = st.builds(_attr_graph, st.integers(0, 10), st.integers(0, 10), st.sampled_from(["w", "z"]))
_GRAPHS = st.one_of(_ATTR_GRAPHS, scene_graphs())
_BOUNDS = st.sampled_from([0.0, 0.05, 0.1, 0.25, 0.3, 0.35, 0.5, 0.65, 0.7, 0.75, 0.9, 1.0])


class TestBandOracle:
    """The integer band test keeps what the exact ratio of the naive counts keeps."""

    @given(
        _GRAPHS,
        st.lists(_GRAPHS, max_size=10),
        st.tuples(_BOUNDS, _BOUNDS).map(sorted),
        st.integers(1, 6),
        st.sampled_from(["emit-fewer", "relax-bounds"]),
    )
    @settings(max_examples=300, deadline=None)
    def test_indices_and_jaccard_match_the_fraction_oracle(self, positive, graphs, bounds, m, policy):
        cfg = SelectionConfig(gamma_lower=bounds[0], gamma_upper=bounds[1], m=m, on_shortfall=policy)
        values = [Fraction(*naive_jaccard_counts(graph, positive)) for graph in graphs]
        bands = _oracle_bands(cfg, values)
        for lo, hi in bands:  # every relaxation step on its own
            candidates = [_candidate(graph) for graph in graphs]
            step_cfg = SelectionConfig(gamma_lower=lo, gamma_upper=hi, m=m)  # emit-fewer: no further steps
            assert filter_with_shortfall(candidates, positive, step_cfg)[0] == _oracle_band(values, lo, hi)
            assert [type(c.jaccard) for c in candidates] == [float] * len(graphs)
            assert [c.jaccard for c in candidates] == [float(value) for value in values]
        candidates = [_candidate(graph) for graph in graphs]
        kept, used, steps = filter_with_shortfall(candidates, positive, cfg)
        assert kept == _oracle_band(values, *bands[-1])
        assert (used.gamma_lower, used.gamma_upper) == bands[-1]
        assert steps == len(bands) - 1
        assert [c.jaccard for c in candidates] == [float(value) for value in values]

    @pytest.mark.parametrize("lo,hi,kept", [(0.3, 0.7, [1, 2, 3]), (0.31, 0.69, [2]), (0.0, 0.29, [0])])
    def test_boundary_and_empty_universe_cases(self, lo, hi, kept):
        positive = _attr_graph(0, 10)  # ten members, ("e", "w0") to ("e", "w9")
        # J = 0 (an empty universe against a full one), 3/10, 5/10 and 7/10
        graphs = [SceneGraph()] + [_attr_graph(0, n) for n in (3, 5, 7)]
        candidates = [_candidate(graph) for graph in graphs]
        assert filter_with_shortfall(candidates, positive, SelectionConfig(gamma_lower=lo, gamma_upper=hi))[0] == kept
        assert [c.jaccard for c in candidates] == [0.0, 0.3, 0.5, 0.7]

    def test_both_universes_empty_is_one(self):
        cand = _candidate(SceneGraph.from_parts(["e"], [], []))
        assert filter_with_shortfall([cand], SceneGraph(), SelectionConfig(gamma_lower=1.0, gamma_upper=1.0))[0] == [0]
        assert cand.jaccard == 1.0


class TestSelectDiverse:
    def _embed(self, vectors):
        return [Embedding(tuple(v)) for v in vectors]

    def test_fewer_candidates_than_m_returns_all(self):
        embs = self._embed([[0.0, 1.0], [1.0, 0.0]])
        assert select_diverse(embs, 3) == [0, 1]

    def test_m_one_picks_first(self):
        embs = self._embed([[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]])
        assert select_diverse(embs, 1) == [0]

    def test_m_below_one_rejected(self):
        with pytest.raises(ConfigError):
            select_diverse(self._embed([[0.0], [1.0]]), 0)

    def test_one_dimensional_example(self):
        # min gaps per size-3 subset: {0,1,2}->1, {0,1,10}->1, {0,2,10}->2,
        # {1,2,10}->1; winner {0,2,10} = indices [0, 2, 3]
        embs = self._embed([[0.0], [1.0], [2.0], [10.0]])
        assert select_diverse(embs, 3) == [0, 2, 3]

    def test_tie_breaks_lexicographically(self):
        # unit square: both diagonals tie for m=2; {0,2} wins over {1,3}
        embs = self._embed([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        assert select_diverse(embs, 2) == [0, 2]

    def test_exact_matches_brute_force(self):
        rng = random.Random(4242)
        for _ in range(200):
            n = rng.randint(3, 12)
            m = rng.randint(2, min(4, n - 1))
            vectors = random_unit_vectors(rng, n, rng.randint(2, 6))
            embs = self._embed(vectors)
            got = select_diverse(embs, m)
            expected = brute_force_max_min(naive_distance_matrix(vectors), m)
            assert tuple(got) == expected

    def test_permutation_of_duplicate_free_input_is_consistent(self):
        rng = random.Random(9)
        vectors = random_unit_vectors(rng, 8, 4)
        embs = self._embed(vectors)
        base = select_diverse(embs, 3)
        perm = list(range(8))
        rng.shuffle(perm)
        permuted = [embs[i] for i in perm]
        out = select_diverse(permuted, 3)
        assert sorted(perm[i] for i in out) == sorted(base)

    def test_greedy_used_above_threshold(self):
        rng = random.Random(12)
        vectors = random_unit_vectors(rng, 18, 4)
        embs = self._embed(vectors)
        got = select_diverse(embs, 3)
        assert len(got) == 3
        assert got == sorted(got)

    def test_greedy_achieves_half_of_optimum(self):
        # classic 2-approximation bound for max-min dispersion
        rng = random.Random(77)
        for _ in range(50):
            n = rng.randint(16, 19)  # above the exact-search threshold of 15
            m = rng.randint(2, 4)
            vectors = random_unit_vectors(rng, n, 3)
            matrix = naive_distance_matrix(vectors)
            embs = self._embed(vectors)
            greedy = select_diverse(embs, m)
            optimum = brute_force_max_min(matrix, m)

            def score(subset):
                return min(matrix[i][j] for i, j in itertools.combinations(subset, 2))

            assert score(greedy) >= 0.5 * score(optimum) - 1e-12

    def test_exact_threshold_boundary_still_exact(self):
        rng = random.Random(31)
        vectors = random_unit_vectors(rng, 15, 4)
        embs = self._embed(vectors)
        got = select_diverse(embs, 3)
        expected = brute_force_max_min(naive_distance_matrix(vectors), 3)
        assert tuple(got) == expected
