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
from typing import TYPE_CHECKING, Iterable, Protocol, Sequence, Union

from .atomic import loads_object, read_lines, write_lines
from .errors import (
    ConfigError,
    CorpusError,
    MissingRationale,
    NonFiniteLogProb,
    OutOfVocabulary,
)
from .generate import Instance
from .perturb import NegativeCandidate
from .rationale import Rationale
from .scene_graph import SceneGraph, serialize_scene_graph

if TYPE_CHECKING:  # numpy is imported where the toy policy uses it
    import numpy as np

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
        if not self.beta > 0:
            raise ConfigError("beta must be positive")


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
                images=(inst.image_ref,),
                prompt=prompt,
                chosen=tau_pos.raw_text,
                rejected=rejected,
                meta=meta,
            )
        )
    return records


def record_to_json(record: PreferenceRecord) -> str:
    """The record's dataset line, which :func:`record_from_json` reads back as it was."""
    payload = {
        "id": record.id,
        "images": list(record.images),
        "prompt": record.prompt,
        "chosen": record.chosen,
        "rejected": record.rejected,
        "meta": record.meta,
    }
    return json.dumps(payload, ensure_ascii=False)


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


def _logsumexp(values: np.ndarray) -> float:
    import numpy as np

    m = float(np.max(values))
    return m + math.log(float(np.sum(np.exp(values - m))))


@dataclass
class ToyPolicy:
    """Unigram softmax language model over a fixed vocabulary.

    ``log_prob`` of a whitespace-tokenized response is the sum of per-token
    log-probabilities; response length is fixed by the text, so the model is
    exactly a categorical distribution applied per token.
    """

    vocabulary: tuple[str, ...]
    weights: np.ndarray

    def __post_init__(self):
        import numpy as np

        self.weights = np.asarray(self.weights, dtype=np.float64)
        if len(self.vocabulary) != self.weights.shape[0]:
            raise ConfigError("vocabulary and weights disagree in length")
        self._index = {token: i for i, token in enumerate(self.vocabulary)}

    @classmethod
    def uniform(cls, vocabulary: Sequence[str]) -> "ToyPolicy":
        return cls(tuple(vocabulary), [0.0] * len(vocabulary))

    def token_counts(self, response: str) -> np.ndarray:
        import numpy as np

        counts = np.zeros(len(self.vocabulary), dtype=np.float64)
        for token in response.split():
            idx = self._index.get(token)
            if idx is None:
                raise OutOfVocabulary(token)
            counts[idx] += 1.0
        return counts

    def log_prob(self, context: str, response: str) -> float:
        import numpy as np

        counts = self.token_counts(response)
        length = float(np.sum(counts))
        return float(np.dot(counts, self.weights) - length * _logsumexp(self.weights))


def toy_policy_gradient(
    policy: ToyPolicy,
    records: Sequence[PreferenceRecord],
    reference: LogProbProvider,
    cfg: DpoConfig = DpoConfig(),
) -> np.ndarray:
    """Analytic gradient of the mean DPO loss in the toy policy's weights.

    The reference provider is treated as a constant.  Like :func:`dpo_loss`,
    it averages over the records.
    """
    if not records:
        raise ValueError("toy_policy_gradient requires at least one record")
    import numpy as np

    weight = 1.0 / len(records)
    probs = np.exp(policy.weights - _logsumexp(policy.weights))
    grad = np.zeros_like(policy.weights)
    for record in records:
        counts_c = policy.token_counts(record.chosen)
        counts_r = policy.token_counts(record.rejected)
        margin = _margin(record, policy, reference, cfg.beta)
        # d margin / d theta = beta * ((c+ - L+ p) - (c- - L- p))
        len_c = float(np.sum(counts_c))
        len_r = float(np.sum(counts_r))
        dmargin = cfg.beta * ((counts_c - len_c * probs) - (counts_r - len_r * probs))
        grad += weight * (-_sigmoid(-margin)) * dmargin
    return grad
