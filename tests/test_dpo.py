import json
import logging
import math
import random

import numpy as np
import pytest

from scenealign import dpo
from scenealign.dpo import (
    DpoConfig,
    PreferenceRecord,
    ToyPolicy,
    build_preference_records,
    dpo_loss,
    export_jsonl,
    import_jsonl,
    record_from_json,
    record_to_json,
    toy_policy_gradient,
)
from scenealign.errors import (
    ConfigError,
    MissingRationale,
    NonFiniteLogProb,
    OutOfVocabulary,
)
from scenealign.perturb import generate_negatives
from scenealign.rationale import Rationale
from scenealign.scene_graph import serialize_scene_graph

from .helpers import finite_difference_gradient

LN2 = 0.6931471805599453
SOFTPLUS_NEG_01 = 0.6443966600735709  # softplus(-0.1) == -log(sigmoid(0.1))


class FixedProvider:
    """Log-probs looked up by response text; context is ignored."""

    def __init__(self, scores):
        self.scores = scores

    def log_prob(self, context, response):
        return self.scores[response]


def _record(rec_id="r1", chosen="good text", rejected="bad text", instance_id=None):
    meta = {"instance_id": instance_id} if instance_id else {}
    return PreferenceRecord(
        id=rec_id,
        images=("img.jpg",),
        prompt='What is shown?\n\nScene Graph: {"entity": [], "attribute pairs": [], "relationships": []}',
        chosen=chosen,
        rejected=rejected,
        meta=meta,
    )


class TestRecordBuilding:
    def _negatives(self, case_graph, case_subgraph, case_pool, k=3):
        negatives = generate_negatives(case_graph, case_subgraph, case_pool, k=k, seed=5)
        for i, cand in enumerate(negatives):
            cand.jaccard = 0.5
            cand.rationale = Rationale.from_steps([f"Wrong step {i}."], "Wrong.")
        return negatives

    def test_builds_one_record_per_negative(
        self, case_instance, case_graph, case_subgraph, case_pool, case_rationale
    ):
        negatives = self._negatives(case_graph, case_subgraph, case_pool)
        records = build_preference_records(case_instance, case_graph, case_rationale, negatives)
        assert len(records) == 3
        assert [r.id for r in records] == ["case-1#1", "case-1#2", "case-1#3"]
        for rank, (record, cand) in enumerate(zip(records, negatives), start=1):
            assert record.chosen == case_rationale.raw_text
            assert record.rejected == cand.rationale.raw_text
            assert record.meta["instance_id"] == "case-1"
            assert record.meta["operator"] == cand.operator
            assert record.meta["jaccard"] == 0.5
            assert record.meta["diversity_rank"] == rank
            assert record.meta["trace"] == cand.trace.to_dict()

    def test_prompt_concatenates_question_and_graph(
        self, case_instance, case_graph, case_subgraph, case_pool, case_rationale
    ):
        negatives = self._negatives(case_graph, case_subgraph, case_pool, k=2)
        records = build_preference_records(case_instance, case_graph, case_rationale, negatives)
        prompt = case_instance.question + "\n\nScene Graph: " + serialize_scene_graph(case_graph)
        assert [(r.images, r.prompt) for r in records] == [((case_instance.image_ref,), prompt)] * 2

    def test_missing_rationale_raises(
        self, case_instance, case_graph, case_subgraph, case_pool, case_rationale
    ):
        negatives = generate_negatives(case_graph, case_subgraph, case_pool, k=1, seed=5)
        with pytest.raises(MissingRationale):
            build_preference_records(case_instance, case_graph, case_rationale, negatives)

    def test_equal_rationale_dropped_with_warning(
        self, case_instance, case_graph, case_subgraph, case_pool, case_rationale, caplog
    ):
        negatives = self._negatives(case_graph, case_subgraph, case_pool, k=2)
        negatives[0].rationale = case_rationale
        with caplog.at_level(logging.WARNING):
            records = build_preference_records(case_instance, case_graph, case_rationale, negatives)
        assert len(records) == 1
        assert records[0].id == "case-1#1"
        assert any("equals the positive" in rec.message for rec in caplog.records)


class TestJsonl:
    def test_line_shape(self):
        line = record_to_json(_record())
        obj = json.loads(line)
        assert set(obj) == {"id", "images", "prompt", "chosen", "rejected", "meta"}
        assert obj["images"] == ["img.jpg"]
        assert obj["prompt"].startswith("What is shown?\n\nScene Graph: ")

    def test_round_trip_is_lossless(self):
        rec = _record(instance_id="inst-1")
        assert record_from_json(record_to_json(rec)) == rec

    def test_a_prompt_without_a_scene_graph_is_all_question(self):
        fields = {"id": "r1", "images": [], "prompt": "What is shown?", "chosen": "a", "rejected": "b", "meta": {}}
        line = json.dumps(fields)
        rec = record_from_json(line)
        assert rec.prompt == "What is shown?"
        assert record_to_json(rec) == line

    @pytest.mark.parametrize(
        "images, prompt",
        [
            ([], "q\n\nScene Graph: {}"),
            (["a.jpg", "b.jpg"], "q\n\nScene Graph: {}"),
            (["a.jpg"], "q\n\nScene Graph: one\n\nScene Graph: two"),
        ],
        ids=["no-image", "two-images", "two-separators"],
    )
    def test_a_line_reads_back_byte_for_byte(self, images, prompt):
        fields = {"id": "r1", "images": images, "prompt": prompt, "chosen": "a", "rejected": "b", "meta": {"k": 1}}
        line = json.dumps(fields, ensure_ascii=False)
        assert record_to_json(record_from_json(line)) == line

    def test_unicode_survives(self):
        rec = _record(chosen="l'éléphant est là", rejected="non")
        line = record_to_json(rec)
        assert "éléphant" in line
        assert record_from_json(line).chosen == rec.chosen

    def test_file_round_trip(self, tmp_path):
        records = [_record(f"r{i}") for i in range(4)]
        path = tmp_path / "pairs.jsonl"
        assert export_jsonl(records, path) == 4
        text = path.read_text(encoding="utf-8")
        assert text.count("\n") == 4
        assert text.endswith("\n")
        assert import_jsonl(path) == records

    def test_unicode_line_breaks_stay_inside_a_record(self, tmp_path):
        records = [_record("a", chosen="one\u2028two"), _record("b", rejected="three\u0085four\u2029")]
        path = tmp_path / "pairs.jsonl"
        export_jsonl(records, path)
        assert import_jsonl(path) == records

    def test_failed_export_leaves_the_old_file_and_no_temporary(self, tmp_path, monkeypatch):
        path = tmp_path / "out.jsonl"
        path.write_text("earlier dataset\n", encoding="utf-8")
        records = [_record(f"r{i}") for i in range(3)]
        calls = []

        def failing(record):
            calls.append(record)
            if len(calls) == 2:
                raise RuntimeError("disk full")
            return record_to_json(record)

        monkeypatch.setattr(dpo, "record_to_json", failing)
        with pytest.raises(RuntimeError):
            export_jsonl(records, path)
        assert path.read_bytes() == b"earlier dataset\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl"]

    def test_blank_lines_ignored_on_import(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        path.write_text(record_to_json(_record()) + "\n\n\n", encoding="utf-8")
        assert len(import_jsonl(path)) == 1


class TestLoss:
    def test_policy_equal_to_reference_gives_ln2(self):
        policy = FixedProvider({"good text": -1.0, "bad text": -3.0})
        records = [_record()]
        loss, margins = dpo_loss(records, policy, policy)
        assert loss == pytest.approx(LN2, abs=1e-12)
        assert margins == [0.0]

    def test_each_response_is_scored_under_the_prompt_the_file_holds(self):
        contexts = []

        class Recording(FixedProvider):
            def log_prob(self, context, response):
                contexts.append(context)
                return super().log_prob(context, response)

        line = json.dumps({"id": "r1", "prompt": "What is shown?", "chosen": "good text", "rejected": "bad text"})
        policy = Recording({"good text": -1.0, "bad text": -3.0})
        dpo_loss([record_from_json(line)], policy, policy)
        assert contexts == ["What is shown?"] * 4

    def test_worked_scalar_example(self):
        # policy log-ratio 1.0, reference log-ratio 0.0, beta 0.1 -> margin 0.1
        policy = FixedProvider({"good text": -1.0, "bad text": -2.0})
        reference = FixedProvider({"good text": -2.0, "bad text": -2.0})
        loss, margins = dpo_loss([_record()], policy, reference)
        assert margins == [pytest.approx(0.1)]
        assert loss == pytest.approx(SOFTPLUS_NEG_01, abs=1e-12)

    def test_loss_decreases_as_margin_grows(self):
        reference = FixedProvider({"good text": 0.0, "bad text": 0.0})
        losses = []
        for gap in (0.0, 1.0, 2.0, 4.0):
            policy = FixedProvider({"good text": 0.0, "bad text": -gap})
            loss, _ = dpo_loss([_record()], policy, reference)
            losses.append(loss)
        assert losses == sorted(losses, reverse=True)

    def test_loss_is_positive_and_beta_scales_margins(self):
        policy = FixedProvider({"good text": 0.0, "bad text": -2.0})
        reference = FixedProvider({"good text": 0.0, "bad text": 0.0})
        _, m1 = dpo_loss([_record()], policy, reference, DpoConfig(beta=0.1))
        _, m2 = dpo_loss([_record()], policy, reference, DpoConfig(beta=0.2))
        assert m2[0] == pytest.approx(2 * m1[0])

    def test_mean_over_records(self):
        reference = FixedProvider({"good text": 0.0, "bad text": 0.0})
        policy = FixedProvider({"good text": 0.0, "bad text": -1.0})
        single, _ = dpo_loss([_record("a")], policy, reference)
        double, _ = dpo_loss([_record("a"), _record("b")], policy, reference)
        assert double == pytest.approx(single)

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError):
            dpo_loss([], FixedProvider({}), FixedProvider({}))

    def test_non_finite_log_prob_rejected(self):
        policy = FixedProvider({"good text": float("nan"), "bad text": 0.0})
        reference = FixedProvider({"good text": 0.0, "bad text": 0.0})
        with pytest.raises(NonFiniteLogProb):
            dpo_loss([_record()], policy, reference)

    def test_beta_must_be_positive(self):
        with pytest.raises(ConfigError):
            DpoConfig(beta=0.0)


VOCAB = ("the", "man", "holds", "paper", "bike", "stands", "red", "ground")


def _toy_records(rng, count):
    records = []
    for i in range(count):
        chosen = " ".join(rng.choices(VOCAB, k=rng.randint(3, 8)))
        rejected = " ".join(rng.choices(VOCAB, k=rng.randint(3, 8)))
        records.append(_record(f"r{i}", chosen=chosen, rejected=rejected, instance_id=f"i{i % 3}"))
    return records


class TestToyPolicy:
    def test_uniform_log_prob(self):
        policy = ToyPolicy.uniform(VOCAB)
        assert policy.log_prob("", "the man holds") == pytest.approx(-3 * math.log(len(VOCAB)))

    def test_log_prob_matches_manual_softmax(self):
        rng = random.Random(8)
        weights = np.array([rng.gauss(0, 1) for _ in VOCAB])
        policy = ToyPolicy(VOCAB, weights)
        probs = np.exp(weights) / np.sum(np.exp(weights))
        text = "man holds the paper"
        expected = sum(math.log(probs[VOCAB.index(t)]) for t in text.split())
        assert policy.log_prob("", text) == pytest.approx(expected, rel=1e-12)

    def test_weight_shift_invariance(self):
        rng = random.Random(13)
        weights = np.array([rng.gauss(0, 1) for _ in VOCAB])
        records = _toy_records(rng, 6)
        reference = ToyPolicy.uniform(VOCAB)
        a, _ = dpo_loss(records, ToyPolicy(VOCAB, weights), reference)
        b, _ = dpo_loss(records, ToyPolicy(VOCAB, weights + 7.5), reference)
        assert b == pytest.approx(a, abs=1e-12)

    def test_out_of_vocabulary(self):
        policy = ToyPolicy.uniform(VOCAB)
        with pytest.raises(OutOfVocabulary):
            policy.log_prob("", "the unknown token")

    def test_vocab_weight_length_mismatch(self):
        with pytest.raises(ConfigError):
            ToyPolicy(VOCAB, np.zeros(3))

    @pytest.mark.parametrize(
        "vocabulary, weights",
        [
            ((), ()),
            (("the", "man"), (0.0, float("nan"))),
            (("the", "man"), (float("inf"), 0.0)),
            (("the", "man"), (0.0, float("-inf"))),
        ],
        ids=["empty-vocabulary", "nan-weight", "inf-weight", "minus-inf-weight"],
    )
    def test_no_normalizer_is_a_config_error(self, vocabulary, weights):
        # the softmax normalizer is computed at construction
        with pytest.raises(ConfigError):
            ToyPolicy(vocabulary, weights)


class TestGradient:
    def test_analytic_matches_finite_differences(self):
        rng = random.Random(2024)
        cfg = DpoConfig()
        reference = ToyPolicy.uniform(VOCAB)
        for _ in range(25):
            weights = np.array([rng.gauss(0, 1) for _ in VOCAB])
            policy = ToyPolicy(VOCAB, weights)
            records = _toy_records(rng, rng.randint(1, 6))
            analytic = toy_policy_gradient(policy, records, reference, cfg)
            numeric = finite_difference_gradient(policy, records, reference, cfg)
            err = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)
            assert err <= 1e-5

    def test_gradient_zero_when_no_token_difference(self):
        # identical chosen/rejected token counts leave nothing to move
        records = [_record(chosen="the man", rejected="man the")]
        policy = ToyPolicy.uniform(VOCAB)
        grad = toy_policy_gradient(policy, records, policy)
        assert np.allclose(grad, 0.0, atol=1e-15)

    def test_gradient_requires_records(self):
        with pytest.raises(ValueError):
            toy_policy_gradient(ToyPolicy.uniform(VOCAB), [], ToyPolicy.uniform(VOCAB))

    def test_gradient_direction_reduces_loss(self):
        rng = random.Random(5)
        records = _toy_records(rng, 4)
        reference = ToyPolicy.uniform(VOCAB)
        weights = np.array([rng.gauss(0, 1) for _ in VOCAB])
        policy = ToyPolicy(VOCAB, weights)
        grad = toy_policy_gradient(policy, records, reference)
        before, _ = dpo_loss(records, policy, reference)
        stepped = ToyPolicy(VOCAB, weights - 0.1 * np.asarray(grad))
        after, _ = dpo_loss(records, stepped, reference)
        assert after < before
