"""End-to-end acceptance checks.

Each test covers one headline guarantee of the package and prints a single
verdict line (visible under ``pytest -s tests/test_acceptance.py``).  Runtime
budgets are asserted alongside correctness so regressions in either fail
loudly.  Oracles live in ``helpers`` and are independent re-implementations,
not calls back into the package.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from scenealign.dpo import (
    DpoConfig,
    PreferenceRecord,
    ToyPolicy,
    dpo_loss,
    toy_policy_gradient,
)
from scenealign.embed import Embedding
from scenealign.errors import NoApplicableOperator
from scenealign.generate import (
    render_negative_cot_prompt,
    render_positive_cot_prompt,
    render_scene_graph_prompt,
)
from scenealign.grounding import residual_pool
from scenealign.perturb import (
    EditTrace,
    NegativeCandidate,
    PerturbationOp,
    apply_operator,
    generate_negatives,
    recompose,
)
from scenealign.pipeline import PipelineConfig, run_pipeline
from scenealign.scene_graph import element_universe, jaccard_overlap, universe_overlap
from scenealign.selection import filter_with_shortfall, select_diverse
from tests.helpers import _golden

from .helpers import (
    assert_valid_graph,
    brute_force_max_min,
    finite_difference_gradient,
    graph_subset,
    naive_distance_matrix,
    naive_jaccard,
    naive_jaccard_counts,
    random_scene_graph,
    synthetic_corpus_lines,
)

LN2 = 0.6931471805599453


@contextmanager
def _verdict(name: str, budget_seconds: float):
    started = time.perf_counter()
    yield
    elapsed = time.perf_counter() - started
    assert elapsed < budget_seconds, f"{name}: {elapsed:.2f}s over {budget_seconds:.0f}s budget"
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.2f}s < {budget_seconds:.0f}s)")


def _swap_candidate(case_subgraph, case_pool) -> NegativeCandidate:
    graph = recompose(apply_operator(case_subgraph, case_pool, "swap", index=0)[0], case_pool)
    trace = EditTrace((PerturbationOp("swap", "relation", None, None),), 0)
    return NegativeCandidate(graph=graph, trace=trace)


def test_worked_example_operators(case_subgraph, case_pool):
    with _verdict("worked-example-operators", 1.0):
        swapped = apply_operator(case_subgraph, case_pool, "swap", index=0)[0]
        assert swapped.relations[0] == ("motorcycle", "look at", "man")
        assert_valid_graph(swapped)

        replaced = apply_operator(
            case_subgraph, case_pool, "replace", kind="entity", index=2, replacement="window"
        )[0]
        assert "paper" not in replaced.entities
        assert ("man", "hold", "window") in replaced.relations
        assert ("man", "hold", "paper") not in replaced.relations
        assert_valid_graph(replaced)

        shortened = apply_operator(case_subgraph, case_pool, "shorten", kind="entity", index=0)[0]
        assert "man" not in shortened.entities
        assert len(case_subgraph.relations) - len(shortened.relations) == 3
        assert shortened.relations == (("motorcycle", "stand on", "ground"),)
        assert_valid_graph(shortened)

        grown = apply_operator(case_subgraph, case_pool, "overthink", element=("building", "behind", "motorcycle"))[0]
        assert ("building", "behind", "motorcycle") in grown.relations
        assert "building" in grown.entities
        assert_valid_graph(grown)


def test_overlap_oracle(case_graph, case_subgraph, case_pool):
    with _verdict("overlap-oracle", 5.0):
        rng = random.Random(20260825)
        for _ in range(1000):
            a = random_scene_graph(rng)
            b = random_scene_graph(rng)
            assert universe_overlap(element_universe(a), element_universe(b)) == naive_jaccard_counts(a, b)
            assert jaccard_overlap(a, b) == naive_jaccard(a, b)
            assert jaccard_overlap(a, a) == 1.0

        negative = _swap_candidate(case_subgraph, case_pool)
        assert universe_overlap(element_universe(negative.graph), element_universe(case_graph)) == (12, 14)
        assert Fraction(12, 14) > Fraction("0.7")
        assert filter_with_shortfall([negative], case_graph)[0] == []


def test_diverse_selection_exactness():
    with _verdict("diverse-selection-exactness", 30.0):
        rng = random.Random(4712)
        for _ in range(500):
            m = rng.choice((2, 3, 4))
            n = rng.randint(m, 12)
            dim = rng.randint(2, 4)
            vectors = [[rng.uniform(-1.0, 1.0) for _ in range(dim)] for _ in range(n)]
            # duplicated points force exact tie-breaking to matter
            if n > 1 and rng.random() < 0.3:
                vectors[rng.randrange(n)] = list(vectors[rng.randrange(n)])
            matrix = naive_distance_matrix(vectors)
            expected = brute_force_max_min(matrix, m)
            got = select_diverse([Embedding(tuple(v)) for v in vectors], m)
            assert tuple(got) == expected
            if m <= n:
                score = min(matrix[i][j] for i, j in itertools.combinations(got, 2))
                best = min(matrix[i][j] for i, j in itertools.combinations(expected, 2))
                assert score == best


VOCAB = ("the", "man", "holds", "paper", "bike", "stands", "red", "ground")


def _toy_records(rng: random.Random, count: int) -> list[PreferenceRecord]:
    records = []
    for i in range(count):
        records.append(
            PreferenceRecord(
                id=f"r{i}",
                images=("img.jpg",),
                prompt='What is shown?\n\nScene Graph: {"entity": [], "attribute pairs": [], "relationships": []}',
                chosen=" ".join(rng.choices(VOCAB, k=rng.randint(3, 8))),
                rejected=" ".join(rng.choices(VOCAB, k=rng.randint(3, 8))),
                meta={"instance_id": f"i{i % 3}"},
            )
        )
    return records


class _Shifted:
    """Wraps a provider, adding a constant to every log-probability."""

    def __init__(self, base, delta: float):
        self.base = base
        self.delta = delta

    def log_prob(self, context: str, response: str) -> float:
        return self.base.log_prob(context, response) + self.delta


def test_preference_loss_and_gradient():
    with _verdict("preference-loss-and-gradient", 10.0):
        rng = random.Random(777)

        # identical policy and reference always mean ln 2, whatever the records
        for _ in range(20):
            weights = np.array([rng.gauss(0.0, 1.0) for _ in VOCAB])
            policy = ToyPolicy(VOCAB, weights)
            records = _toy_records(rng, rng.randint(1, 8))
            loss, margins = dpo_loss(records, policy, policy)
            assert loss == pytest.approx(LN2, abs=1e-12)
            assert all(m == 0.0 for m in margins)

        # analytic gradient against central finite differences
        reference = ToyPolicy.uniform(VOCAB)
        cfg = DpoConfig()
        for _ in range(100):
            weights = np.array([rng.gauss(0.0, 1.0) for _ in VOCAB])
            policy = ToyPolicy(VOCAB, weights)
            records = _toy_records(rng, rng.randint(1, 6))
            analytic = toy_policy_gradient(policy, records, reference, cfg)
            numeric = finite_difference_gradient(policy, records, reference, cfg)
            err = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)
            assert err <= 1e-5

        # shifting both responses of one provider by a constant cancels out
        records = _toy_records(rng, 6)
        weights = np.array([rng.gauss(0.0, 1.0) for _ in VOCAB])
        policy = ToyPolicy(VOCAB, weights)
        base, _ = dpo_loss(records, policy, reference)
        for delta in (0.37, -2.5, 7.5):
            shifted_policy, _ = dpo_loss(records, _Shifted(policy, delta), reference)
            shifted_reference, _ = dpo_loss(records, policy, _Shifted(reference, delta))
            assert shifted_policy == pytest.approx(base, abs=1e-12)
            assert shifted_reference == pytest.approx(base, abs=1e-12)


def test_pipeline_determinism(tmp_path):
    with _verdict("pipeline-determinism", 60.0):
        rng = random.Random(99)
        lines = synthetic_corpus_lines(200, rng)

        def _run(name: str, corpus_lines) -> bytes:
            corpus = tmp_path / f"{name}.jsonl"
            corpus.write_text(
                "".join(json.dumps(line) + "\n" for line in corpus_lines), encoding="utf-8"
            )
            out = tmp_path / f"{name}.out.jsonl"
            run_pipeline(
                PipelineConfig(
                    input_path=str(corpus), output_path=str(out), seed=5, workers=1
                )
            )
            return out.read_bytes()

        first = _run("a", lines)
        second = _run("b", lines)
        assert first == second

        permuted = list(lines)
        rng.shuffle(permuted)
        third = _run("c", permuted)
        assert third != first  # line order follows corpus order
        assert sorted(third.splitlines()) == sorted(first.splitlines())


def test_negative_well_formedness_fuzz():
    with _verdict("negative-well-formedness-fuzz", 60.0):
        rng = random.Random(1234)
        emitted = 0
        for _ in range(10_000):
            parent = random_scene_graph(rng, max_entities=6)
            sub = graph_subset(parent, rng)
            pool = residual_pool(parent, sub)
            lo = rng.randint(1, 3)
            try:
                out = generate_negatives(
                    parent,
                    sub,
                    pool,
                    k=rng.randint(1, 3),
                    edit_range=(lo, rng.randint(lo, 3)),
                    seed=rng.randrange(2**32),
                )
            except NoApplicableOperator:
                continue
            for candidate in out:
                assert_valid_graph(candidate.graph)
                assert candidate.graph.signature() != parent.signature()
                emitted += 1
        assert emitted > 10_000  # the sweep actually exercised the operators


def test_prompt_goldens(case_graph, case_subgraph, case_pool, case_instance):
    with _verdict("prompt-goldens", 5.0):
        assert render_scene_graph_prompt(case_instance) == _golden("scene_graph_prompt.txt")
        assert render_positive_cot_prompt(case_graph, case_instance) == _golden(
            "positive_cot_prompt.txt"
        )

        negative = recompose(apply_operator(case_subgraph, case_pool, "swap", index=0)[0], case_pool)
        rendered = render_negative_cot_prompt(negative, case_instance)
        assert rendered == _golden("negative_cot_prompt.txt")
        assert case_instance.answer not in rendered
        assert "image" not in rendered.casefold()
