"""Exception types shared across the package, and the value checks behind its config errors.

Every error raised by library code derives from :class:`SceneAlignError` so
callers can catch one base class at pipeline boundaries.  The CLI maps these
onto process exit codes (config errors -> 1, corpus errors -> 2, I/O -> 3).
"""

from __future__ import annotations

import math


class SceneAlignError(Exception):
    """Base class for all library errors."""


class ConfigError(SceneAlignError):
    """Invalid configuration value or inconsistent flag combination."""


def is_int(value, least: int | None = None) -> bool:
    """Whether ``value`` is an int, of at least ``least`` if one is given; a bool or a float is no count."""
    return type(value) is int and (least is None or value >= least)


def is_finite_number(value) -> bool:
    """Whether ``value`` is an int or a finite float; a bool is no number."""
    return type(value) is int or (type(value) is float and math.isfinite(value))


# ---------------------------------------------------------------------------
# scene graph codec


class MalformedJson(SceneAlignError):
    """Input text is not valid JSON."""


class SchemaViolation(SceneAlignError):
    """JSON parsed but does not satisfy the three-field scene graph schema."""

    def __init__(self, key: str, reason: str):
        super().__init__(f"{key}: {reason}")
        self.key = key
        self.reason = reason


class DanglingReference(SceneAlignError):
    """An attribute or relation names an entity absent from the entity list."""

    def __init__(self, entity: str):
        super().__init__(f"entity {entity!r} referenced but not declared")
        self.entity = entity


# ---------------------------------------------------------------------------
# grounding


class EmptyMatch(SceneAlignError):
    """No scene graph element could be matched against the rationale."""


class NotASubgraph(SceneAlignError):
    """Claimed subgraph contains elements missing from the parent graph."""


# ---------------------------------------------------------------------------
# perturbation operators


class EditError(SceneAlignError):
    """This operator cannot make this edit on this graph and pool."""


class NoApplicableOperator(SceneAlignError):
    """No perturbation operator applies to the subgraph/pool combination."""


# ---------------------------------------------------------------------------
# embedding / generation transport


class EmptyText(SceneAlignError):
    """Refusing to embed an empty string."""


class DimensionMismatch(SceneAlignError):
    """Vectors of different dimension were combined."""


class RemoteError(SceneAlignError):
    """Remote endpoint returned a non-retryable error or retries ran out."""

    def __init__(self, status: int | None, detail: str):
        super().__init__(f"remote call failed (status={status}): {detail}")
        self.status = status
        self.detail = detail


class RequestTimeout(SceneAlignError):
    """Remote endpoint did not answer within the configured timeout."""


class MissingAnswer(SceneAlignError):
    """Prompt template requires a ground-truth answer but none is present."""


class UnparseableResponse(SceneAlignError):
    """Generator response could not be parsed into the expected shape."""


# ---------------------------------------------------------------------------
# preference records / evaluation


class MissingRationale(SceneAlignError):
    """Negative candidate reached record building without a rationale."""


class NonFiniteLogProb(SceneAlignError):
    """A log-probability provider returned NaN or infinity."""


class OutOfVocabulary(SceneAlignError):
    """Toy policy was asked to score a token outside its vocabulary."""

    def __init__(self, token: str):
        super().__init__(f"token {token!r} not in vocabulary")
        self.token = token


# ---------------------------------------------------------------------------
# pipeline


class CorpusError(SceneAlignError):
    """Corpus file is unreadable or a line violates the input schema."""

    def __init__(self, line_no: int | None, reason: str):
        where = "corpus" if line_no is None else f"corpus line {line_no}"
        super().__init__(f"{where}: {reason}")
        self.line_no = line_no
        self.reason = reason
