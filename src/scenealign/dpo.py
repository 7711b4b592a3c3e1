"""Preference records, JSONL export, and a DPO loss evaluator.

A record holds its dataset line's fields as written, so every line reads
back byte for byte.  The evaluator scores existing (chosen, rejected) pairs
under caller-supplied log-probability providers; no training happens here.
A tiny unigram softmax policy has an analytic gradient of the loss.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Protocol, Sequence, Union

from .atomic import loads_object, read_lines, write_lines
from .errors import (
    ConfigError,
    CorpusError,
    MissingRationale,
    NonFiniteLogProb,
    OutOfVocabulary,
    is_finite_number,
)
from .generate import Instance
from .perturb import NegativeCandidate
from .rationale import Rationale
from .scene_graph import SceneGraph, serialize_scene_graph

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class PreferenceRecord:
    """One DPO pair as its dataset line holds it: images and prompt, preferred and dispreferred rationales."""

    id: str
    images: tuple[str, ...]
    prompt: str
    chosen: str
    rejected: str
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class DpoConfig:
    beta: float = 0.1

    def __post_init__(self):
        if not is_finite_number(self.beta) or self.beta <= 0:
            raise ConfigError(f"beta must be a finite positive number, got {self.beta!r}")


class LogProbProvider(Protocol):
    """Scores a response under some policy given the record's prompt."""

    def log_prob(self, context: str, response: str) -> float: ...


def build_preference_records(
    inst: Instance,
    sg_pos: SceneGraph,
    tau_pos: Rationale,
    negatives: Sequence[NegativeCandidate],
) -> list[PreferenceRecord]:
    """Pair the positive rationale against each selected negative.

    Negatives lacking a rationale raise :class:`MissingRationale`; a negative
    whose rationale text equals the positive is dropped with a diagnostic.
    """
    prompt = f"{inst.question}\n\nScene Graph: {serialize_scene_graph(sg_pos)}"
    records = []
    rank = 0
    for cand in negatives:
        if cand.rationale is None:
            raise MissingRationale(f"instance {inst.id!r}: candidate has no rationale")
        rejected = cand.rationale.raw_text
        if rejected == tau_pos.raw_text:
            logger.warning("instance %r: negative rationale equals the positive; dropped", inst.id)
            continue
        rank += 1
        meta = {
            "instance_id": inst.id,
            "operator": cand.operator,
            "trace": cand.trace.to_dict(),
            "jaccard": cand.jaccard,
            "diversity_rank": rank,
        }
        records.append(
            PreferenceRecord(
                id=f"{inst.id}#{rank}",
                images=(inst.image_ref,) if inst.image_ref else (),  # "" is no image
                prompt=prompt,
                chosen=tau_pos.raw_text,
                rejected=rejected,
                meta=meta,
            )
        )
    return records


def record_to_json(record: PreferenceRecord) -> str:
    """The record's dataset line, its fields in their order, which :func:`record_from_json` reads back as it was."""
    return json.dumps(vars(record), ensure_ascii=False)  # the images tuple is written as an array


def record_from_json(line: str) -> PreferenceRecord:
    """The record on one dataset line; a field of the wrong type is a corpus error naming it."""
    obj = loads_object(line)
    for key in ("id", "prompt", "chosen", "rejected"):
        if not isinstance(obj[key], str):
            raise CorpusError(None, f"{key!r} is {type(obj[key]).__name__}, not a string")
    images, meta = obj.get("images", []), obj.get("meta", {})
    if not isinstance(images, list) or not all(isinstance(image, str) for image in images):
        raise CorpusError(None, "'images' is not a list of strings")
    if not isinstance(meta, dict):
        raise CorpusError(None, f"'meta' is {type(meta).__name__}, not an object")
    return PreferenceRecord(
        id=obj["id"],
        images=tuple(images),
        prompt=obj["prompt"],
        chosen=obj["chosen"],
        rejected=obj["rejected"],
        meta=meta,
    )


def export_jsonl(records: Iterable[PreferenceRecord], path: Union[str, Path]) -> int:
    """Write one JSON object per record, as each arrives; returns the line count.

    The file is replaced atomically: a failure mid-way, in the writing or in
    the iterable, leaves any earlier file there untouched.
    """
    return write_lines(path, map(record_to_json, records))


def import_jsonl(path: Union[str, Path]) -> list[PreferenceRecord]:
    """The records of a dataset file; a line that holds no record is a corpus error naming it."""
    records = []
    for line_no, line in read_lines(path, "dataset"):
        try:
            records.append(record_from_json(line))
        except (CorpusError, LookupError, TypeError, AttributeError) as exc:
            reason = exc.reason if isinstance(exc, CorpusError) else f"not a preference record: {exc!r}"
            raise CorpusError(line_no, reason) from exc
    return records


# ---------------------------------------------------------------------------
# loss evaluation


def _softplus(x: float) -> float:
    # stable log(1 + exp(x))
    return max(x, 0.0) + math.log1p(math.exp(-abs(x)))


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def _score(provider, context: str, response: str, what: str) -> float:
    value = provider.log_prob(context, response)
    if not math.isfinite(value):
        raise NonFiniteLogProb(f"{what} log-prob is {value!r}")
    return float(value)


def _margin(record: PreferenceRecord, policy, reference, beta: float) -> float:
    """``beta * ((policy log-ratio) - (reference log-ratio))`` of chosen over rejected."""
    ctx = record.prompt
    pol_c = _score(policy, ctx, record.chosen, "policy chosen")
    pol_r = _score(policy, ctx, record.rejected, "policy rejected")
    ref_c = _score(reference, ctx, record.chosen, "reference chosen")
    ref_r = _score(reference, ctx, record.rejected, "reference rejected")
    return beta * ((pol_c - pol_r) - (ref_c - ref_r))


def dpo_loss(
    records: Sequence[PreferenceRecord],
    policy: LogProbProvider,
    reference: LogProbProvider,
    cfg: DpoConfig = DpoConfig(),
) -> tuple[float, list[float]]:
    """Mean DPO loss and the per-record scaled margins.

    For each record the margin is ``beta * ((policy log-ratio) - (reference
    log-ratio))`` of chosen over rejected; the loss is the softplus of its
    negation, averaged over the records.
    """
    if not records:
        raise ValueError("dpo_loss requires at least one record")
    weight = 1.0 / len(records)
    margins = []
    total = 0.0
    for record in records:
        margin = _margin(record, policy, reference, cfg.beta)
        margins.append(margin)
        total += weight * _softplus(-margin)
    return total, margins


# ---------------------------------------------------------------------------
# toy policy with analytic gradient


@dataclass(frozen=True)
class ToyPolicy:
    """Unigram softmax language model over a fixed vocabulary.

    ``log_prob`` of a whitespace-tokenized response is the sum of per-token
    log-probabilities; response length is fixed by the text, so the model is
    exactly a categorical distribution applied per token.
    """

    vocabulary: tuple[str, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        weights = tuple(map(float, self.weights))
        if not weights or len(self.vocabulary) != len(weights) or not all(map(math.isfinite, weights)):
            raise ConfigError("a toy policy needs one finite weight per token of a non-empty vocabulary")
        top = max(weights)  # shifted by the largest weight, no exp overflows
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "_log_norm", top + math.log(math.fsum(math.exp(w - top) for w in weights)))
        object.__setattr__(self, "_index", {token: i for i, token in enumerate(self.vocabulary)})

    @classmethod
    def uniform(cls, vocabulary: Sequence[str]) -> "ToyPolicy":
        return cls(tuple(vocabulary), [0.0] * len(vocabulary))

    def token_indices(self, response: str) -> list[int]:
        """Each token's vocabulary index, in the response's order."""
        try:
            return [self._index[token] for token in response.split()]
        except KeyError as exc:
            raise OutOfVocabulary(exc.args[0]) from None

    def log_prob(self, context: str, response: str) -> float:
        indices = self.token_indices(response)
        return sum(self.weights[i] for i in indices) - len(indices) * self._log_norm


def toy_policy_gradient(
    policy: ToyPolicy,
    records: Sequence[PreferenceRecord],
    reference: LogProbProvider,
    cfg: DpoConfig = DpoConfig(),
) -> tuple[float, ...]:
    """Analytic gradient of the mean DPO loss in the toy policy's weights.

    The reference provider is treated as a constant.  Like :func:`dpo_loss`,
    it averages over the records.
    """
    if not records:
        raise ValueError("toy_policy_gradient requires at least one record")
    # d margin / d theta = beta * ((c+ - L+ p) - (c- - L- p)) for token counts c,
    # lengths L and softmax p; the p terms of all records are summed into one gap
    weight = cfg.beta / len(records)
    grad = [0.0] * len(policy.weights)
    length_gap = 0.0
    for record in records:
        chosen = policy.token_indices(record.chosen)
        rejected = policy.token_indices(record.rejected)
        scale = -weight * _sigmoid(-_margin(record, policy, reference, cfg.beta))
        for i in chosen:
            grad[i] += scale
        for i in rejected:
            grad[i] -= scale
        length_gap += scale * (len(chosen) - len(rejected))
    return tuple(g - length_gap * math.exp(w - policy._log_norm) for g, w in zip(grad, policy.weights))
