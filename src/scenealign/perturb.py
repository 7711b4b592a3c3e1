"""Controlled perturbation operators and negative candidate generation.

Four edits target the grounded subgraph: swap the endpoints of a relation,
replace an element with same-scene material from the residual pool, remove an
element, or add a pool element.  Recomposition then reattaches the untouched
residual remainder, so every emitted candidate is a full, valid scene graph
that differs from the positive graph only through the applied edits.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass
from typing import Sequence

from .errors import ConfigError, EditError, NoApplicableOperator, SchemaViolation
from .scene_graph import SceneGraph, clean_elements, referenced_entities

logger = logging.getLogger(__name__)

# canonical operator order; sampling iterates this so runs are reproducible
OPERATOR_TAGS = ("swap", "replace", "shorten", "overthink")

# payload resampling budget before an edit gives up with EditError
_RESAMPLE_LIMIT = 8

# candidate attempts per requested negative before emitting fewer
_ATTEMPTS_PER_CANDIDATE = 32


@dataclass(frozen=True)
class PerturbationOp:
    """One applied edit, recorded by content for auditability.

    ``kind`` is the element kind edited ("entity", "attribute", "relation")
    or "predicate" for predicate-only replacements, which flags that the
    payload was drawn from residual relation predicates.
    """

    tag: str
    kind: str
    target: object  # element before the edit; None for overthink
    payload: object  # element introduced; None for shorten

    def to_dict(self) -> dict:
        return {
            "tag": self.tag,
            "kind": self.kind,
            "target": to_jsonable(self.target),
            "payload": to_jsonable(self.payload),
        }


@dataclass(frozen=True)
class EditTrace:
    ops: tuple[PerturbationOp, ...]
    seed: int

    def to_dict(self) -> dict:
        return {"seed": self.seed, "ops": [op.to_dict() for op in self.ops]}

    @classmethod
    def from_dict(cls, obj: dict) -> "EditTrace":
        """Inverse of :meth:`to_dict`; an op with an unknown tag, or a kind its tag cannot edit, is a ValueError."""
        ops = []
        for op in obj["ops"]:
            tag, kind = op["tag"], op["kind"]
            if tag not in OPERATOR_TAGS or kind not in _KINDS[tag]:
                raise ValueError(f"no operator {tag!r} edits kind {kind!r}")
            ops.append(PerturbationOp(tag, kind, from_jsonable(op["target"]), from_jsonable(op["payload"])))
        return cls(tuple(ops), obj["seed"])


@dataclass
class NegativeCandidate:
    """A recomposed negative graph plus everything later stages attach to it."""

    graph: SceneGraph
    trace: EditTrace
    jaccard: float | None = None
    rationale: object = None  # Rationale, filled by the generation stage

    @property
    def operator(self) -> str:
        return "+".join(op.tag for op in self.trace.ops)


def to_jsonable(value):
    """An element as JSON holds it: attribute and relation tuples become lists."""
    return list(value) if isinstance(value, tuple) else value


def from_jsonable(value):
    """Inverse of :func:`to_jsonable`."""
    return tuple(value) if isinstance(value, list) else value


class _Draft:
    """A graph under edit: its own entity, attribute and relation lists, which the operators below edit in place."""

    __slots__ = ("entities", "attributes", "relations")

    def __init__(self, entities: list, attributes: list, relations: list):
        self.entities, self.attributes, self.relations = entities, attributes, relations

    @classmethod
    def of(cls, sg: SceneGraph) -> "_Draft":
        return cls(list(sg.entities), list(sg.attributes), list(sg.relations))

    def copy(self) -> "_Draft":
        return _Draft(self.entities[:], self.attributes[:], self.relations[:])

    @property
    def element_count(self) -> int:
        return len(self.entities) + len(self.attributes) + len(self.relations)

    def graph(self) -> SceneGraph:
        return SceneGraph(tuple(self.entities), tuple(self.attributes), tuple(self.relations))

    def rows(self, kind: str) -> list:
        """The list of ``kind``'s elements; "predicate" names the relations."""
        return self.entities if kind == "entity" else self.attributes if kind == "attribute" else self.relations

    def swap_indices(self) -> list[int]:
        """The relations that are not reflexive and whose reverse is absent, by index."""
        present = set(self.relations)
        return [i for i, (s, p, o) in enumerate(self.relations) if s != o and (o, p, s) not in present]

    def removable_counts(self) -> dict[str, int]:
        """How many elements of each kind ``shorten`` may remove, keyed in ref order.

        An entity is removable unless its cascade takes the whole graph, which
        happens only to a sole entity that every row names; a lone attribute
        or relation leaves nothing behind.
        """
        entities, rows = len(self.entities), self.element_count >= 2
        if entities == 1:
            name = self.entities[0]
            named = all(a[0] == name for a in self.attributes) and all(name in (r[0], r[2]) for r in self.relations)
            entities = 0 if named else 1
        return {
            "entity": entities,
            "attribute": len(self.attributes) if rows else 0,
            "relation": len(self.relations) if rows else 0,
        }


# ---------------------------------------------------------------------------
# swap


def _swap(d: _Draft, pool: SceneGraph, rng: random.Random, kind=None, index=None, payload=None) -> PerturbationOp:
    if index is None:
        choices = d.swap_indices()
        if not choices:
            raise NoApplicableOperator("no swappable relation")
        index = rng.choice(choices)
    old = subj, pred, obj = d.relations[index]
    swapped = (obj, pred, subj)
    if swapped in d.relations:  # a reflexive relation's swap is itself
        raise EditError(f"swapping relation {index} gives {list(swapped)}, already in the graph")
    d.relations[index] = swapped
    return PerturbationOp("swap", "relation", old, swapped)


# ---------------------------------------------------------------------------
# replace


def _replace(d: _Draft, pool: SceneGraph, rng: random.Random, kind=None, index=None, payload=None) -> PerturbationOp:
    if kind is None:
        kinds = _replace_kinds(d, pool)
        if not kinds:
            raise NoApplicableOperator("no replaceable element with pool support")
        kind = rng.choice(kinds)
    if index is None:
        size = len(d.rows(kind))
        if not size:
            raise NoApplicableOperator(f"no {kind} to replace")
        index = rng.randrange(size)
    if kind == "entity":
        return _replace_entity(d, index, pool, rng, payload)
    return _replace_field(d, kind, index, pool, rng, payload)


def _replace_entity(d: _Draft, index: int, pool: SceneGraph, rng: random.Random, pinned: str | None) -> PerturbationOp:
    if not pool.entities and pinned is None:
        raise EditError("residual pool holds no entities")
    old = d.entities[index]
    attempts = 1 if pinned is not None else _RESAMPLE_LIMIT
    for _ in range(attempts):
        new = pinned if pinned is not None else rng.choice(pool.entities)
        if new == old or new in d.entities:
            continue
        attrs = [(new if e == old else e, v) for e, v in d.attributes]
        rels = [(new if s == old else s, p, new if o == old else o) for s, p, o in d.relations]
        if len(set(attrs)) != len(attrs) or len(set(rels)) != len(rels):
            continue  # rewrite collapsed two elements into one
        d.entities[index] = new
        d.attributes, d.relations = attrs, rels
        return PerturbationOp("replace", "entity", old, new)
    raise EditError(f"no usable replacement for entity {old!r}")


def _replace_field(
    d: _Draft, kind: str, index: int, pool: SceneGraph, rng: random.Random, pinned: str | None
) -> PerturbationOp:
    """Set field 1 of attribute ``index`` (its value) or, for "relation" or "predicate", of relation ``index``."""
    if kind == "attribute":
        rows, values, label = d.attributes, pool.attribute_values(), "attribute value"
    else:
        rows, values, label, kind = d.relations, pool.predicates(), "predicate", "predicate"
    if not values and pinned is None:
        raise EditError(f"residual pool holds no {label}s")
    old = rows[index]
    attempts = 1 if pinned is not None else _RESAMPLE_LIMIT
    for _ in range(attempts):
        value = pinned if pinned is not None else rng.choice(values)
        new = (old[0], value, *old[2:])
        if value == old[1] or new in rows:
            continue
        rows[index] = new
        return PerturbationOp("replace", kind, old, new)
    raise EditError(f"no usable replacement {label} for {list(old)}")


def _replace_kinds(d: _Draft, pool: SceneGraph) -> list[str]:
    # a pool has attribute values (predicates) exactly when it has attributes (relations)
    kinds = []
    if pool.entities and d.entities:
        kinds.append("entity")
    if pool.attributes and d.attributes:
        kinds.append("attribute")
    if pool.relations and d.relations:
        kinds.append("predicate")
    return kinds


# ---------------------------------------------------------------------------
# shorten


def _shorten(d: _Draft, pool: SceneGraph, rng: random.Random, kind=None, index=None, payload=None) -> PerturbationOp:
    if index is None:
        kind, index = _draw_shorten_ref(d, rng, kind)
    if kind == "entity":
        name = d.entities[index]
        attrs = [a for a in d.attributes if a[0] != name]
        rels = [r for r in d.relations if name not in (r[0], r[2])]
        if len(d.entities) == 1 and not attrs and not rels:  # the cascade took everything
            raise EditError(f"removing entity {name!r} would empty the graph")
        del d.entities[index]
        d.attributes, d.relations = attrs, rels
        return PerturbationOp("shorten", "entity", name, None)
    if d.element_count - 1 == 0:
        raise EditError("removing the sole element would empty the graph")
    return PerturbationOp("shorten", kind, d.rows(kind).pop(index), None)


def _draw_shorten_ref(d: _Draft, rng: random.Random, kind: str | None = None) -> tuple[str, int]:
    """``rng.choice`` over the removable refs of ``kind`` (default: every kind), without listing them.

    A ref is a ``(kind, index)`` pair.  The refs run entities, then
    attributes, then relations, and one ``rng.choice(range(n))`` draws the
    same index ``rng.choice(refs)`` would.
    """
    counts = d.removable_counts()
    if kind is not None:
        counts = {k: n if k == kind else 0 for k, n in counts.items()}
    n = sum(counts.values())
    if not n:
        raise NoApplicableOperator(f"no removable {kind or 'element'}")
    index = rng.choice(range(n))
    for element_kind, count in counts.items():
        if index < count:
            return element_kind, index
        index -= count


# ---------------------------------------------------------------------------
# overthink


def _element_kind(element) -> str:
    return "entity" if isinstance(element, str) else "attribute" if len(element) == 2 else "relation"


def _addable_elements(d: _Draft, pool: SceneGraph) -> list[tuple[str, object]]:
    present = {"entity": set(d.entities), "attribute": set(d.attributes), "relation": set(d.relations)}
    return [(kind, element) for kind, element in pool.all_elements if element not in present[kind]]


def _overthink(d: _Draft, pool: SceneGraph, rng: random.Random, kind=None, index=None, payload=None) -> PerturbationOp:
    """Add ``payload``, or an addable pool element drawn from those of ``kind`` (default: any)."""
    if payload is not None:
        kind, element = _element_kind(payload), payload
        if element in d.rows(kind):
            raise EditError(f"{kind} {to_jsonable(element)!r} is already in the graph")
    else:
        addable = _addable_elements(d, pool)
        if kind is not None:
            addable = [pair for pair in addable if pair[0] == kind]
        if not addable:
            raise EditError(f"residual pool holds no {kind or 'element'} addable to this graph")
        kind, element = rng.choice(addable)
    if kind == "entity":
        needed = (element,)
    elif kind == "attribute":
        d.attributes.append(element)
        needed = (element[0],)
    else:
        d.relations.append(element)
        needed = (element[0], element[2])
    for name in needed:  # entity closure for the new element
        if name not in d.entities:
            d.entities.append(name)
    return PerturbationOp("overthink", kind, None, element)


# ---------------------------------------------------------------------------
# recomposition


def recompose(perturbed: SceneGraph | _Draft, remainder: SceneGraph) -> SceneGraph:
    """Element-wise union of the perturbed subgraph with the residual remainder.

    Entities are unified by name and the union is closed: an entity referenced
    by a surviving remainder element is re-added even when an edit deleted it
    from the subgraph, so remainder elements are never dropped.
    """
    # overlap between the two sides is expected union behavior, so dedup
    # silently here instead of letting from_parts warn about it
    attrs = _ordered_union(perturbed.attributes, remainder.attributes)
    rels = _ordered_union(perturbed.relations, remainder.relations)
    entities = (*perturbed.entities, *remainder.entities, *referenced_entities(attrs, rels))
    return SceneGraph(tuple(dict.fromkeys(entities)), attrs, rels)


def _ordered_union(first: Sequence, second: Sequence) -> tuple:
    return tuple(dict.fromkeys((*first, *second)))


# in OPERATOR_TAGS order.  Each operator edits a draft in place and returns its
# op, drawing from ``rng`` the targeting (kind, index, payload) it is not given;
# the sampler gives it none, and apply_operator checks what it is given.
_OPERATORS = {"swap": _swap, "replace": _replace, "shorten": _shorten, "overthink": _overthink}

# the kinds each operator may be pinned to; replace sets a relation's predicate for either of the last two
_ELEMENT_KINDS = ("entity", "attribute", "relation")
_KINDS = dict(swap=("relation",), replace=(*_ELEMENT_KINDS, "predicate"), shorten=_ELEMENT_KINDS, overthink=_ELEMENT_KINDS)


def apply_operator(
    sg: SceneGraph,
    pool: SceneGraph,
    tag: str,
    *,
    kind: str | None = None,
    index: int | None = None,
    replacement: str | None = None,
    element=None,
    rng: random.Random | None = None,
) -> tuple[SceneGraph, PerturbationOp]:
    """Apply one named operator, sampling any targeting left unspecified.

    A ``kind`` narrows the draw to elements of that kind; an ``index`` picks
    the element and needs a ``kind`` for ``replace`` and ``shorten``.
    ``swap`` targets relations only, and ``overthink`` takes no index.  A
    ``replacement`` name is for ``replace`` only and an ``element`` (a name
    or a 2- or 3-name row) for ``overthink`` only; both are trimmed as the
    parser trims a graph's.  Replacing an entity renames every occurrence,
    removing one removes everything incident, and an added element brings
    in the entities it names.  The sampler edits with the same functions.

    Misuse (a kind the operator cannot target, an index outside ``sg``, an
    empty or malformed payload) is a :class:`ConfigError`; an edit this graph
    and pool cannot take, an :class:`EditError`; no target, :class:`NoApplicableOperator`.
    """
    rng = rng if rng is not None else random.Random(0)
    if replacement is not None and tag != "replace":
        raise ConfigError(f"{tag} takes no replacement; only replace does")
    if element is not None and tag != "overthink":
        raise ConfigError(f"{tag} takes no element to add; only overthink does")
    operator = _OPERATORS.get(tag)
    if operator is None:
        raise ValueError(f"unknown operator tag {tag!r}")
    if kind is not None and kind not in _KINDS[tag]:
        raise ConfigError(f"{tag} cannot target kind {kind!r}")
    draft = _Draft.of(sg)
    if index is not None:
        if tag == "overthink":
            raise ConfigError("overthink takes no index; pin the element to add instead")
        if kind is None and tag != "swap":
            raise ConfigError(f"{tag}: an index needs a kind")
        if not 0 <= index < len(draft.rows(kind)):
            raise ConfigError(f"{kind or 'relation'} index {index} out of range")
    payload = replacement if element is None else element
    if payload is not None:
        payload = _clean_payload(tag, payload)
        if tag == "overthink" and kind not in (None, _element_kind(payload)):
            raise ConfigError(f"overthink element {to_jsonable(payload)!r} is not of kind {kind!r}")
    op = operator(draft, pool, rng, kind, index, payload)
    return draft.graph(), op


def _clean_payload(tag: str, payload):
    """A pinned name, or an ``overthink`` row, trimmed and checked as the parser checks a graph's."""
    if tag == "replace" or isinstance(payload, str):
        arity = 1
    else:
        arity = 3 if isinstance(payload, (list, tuple)) and len(payload) > 2 else 2
    try:
        return clean_elements([payload], arity, "replacement" if tag == "replace" else "element")[0]
    except SchemaViolation as exc:
        raise ConfigError(f"pinned {exc}") from exc


# ---------------------------------------------------------------------------
# candidate generation


def _applicable_tags(d: _Draft, pool: SceneGraph) -> list[str]:
    """The operators with at least one target, in ``OPERATOR_TAGS`` order; no choice list is built."""
    tags = []
    relations = set(d.relations)
    if any(s != o and (o, p, s) not in relations for s, p, o in d.relations):
        tags.append("swap")
    if _replace_kinds(d, pool):
        tags.append("replace")
    # some removal leaves an element exactly when there are two to start with
    if d.element_count >= 2:
        tags.append("shorten")
    if (
        (pool.entities and not set(d.entities).issuperset(pool.entities))
        or (pool.attributes and not set(d.attributes).issuperset(pool.attributes))
        or (pool.relations and not relations.issuperset(pool.relations))
    ):
        tags.append("overthink")
    return tags


def _attempt_candidate(
    start: _Draft, pool: SceneGraph, lo: int, hi: int, rng: random.Random, start_tags: list[str]
) -> tuple[_Draft, tuple[PerturbationOp, ...]] | None:
    """Edit a copy of ``start``, whose applicable operators are ``start_tags``, ``lo`` to ``hi`` times."""
    draft = start.copy()
    ops: list[PerturbationOp] = []
    for step in range(rng.randint(lo, hi)):
        tags = _applicable_tags(draft, pool) if step else start_tags
        if not tags:
            return None
        try:
            ops.append(_OPERATORS[rng.choice(tags)](draft, pool, rng))
        except EditError:
            return None
    return draft, tuple(ops)


def generate_negatives(
    sg_pos: SceneGraph,
    sg_c: SceneGraph,
    pool: SceneGraph,
    k: int = 8,
    edit_range: tuple[int, int] = (1, 3),
    seed: int = 0,
) -> list[NegativeCandidate]:
    """Sample up to ``k`` distinct recomposed negatives from the subgraph.

    Each attempt copies ``sg_c``'s element lists and applies between
    ``edit_range[0]`` and ``edit_range[1]`` edits to them in place, choosing
    uniformly among the operators applicable at each step; it then
    reattaches the residual remainder, if there is one, and only then builds
    a graph.  ``sg_c`` must be closed and free of duplicates, as the parser
    and :meth:`SceneGraph.from_parts` leave a graph.  Candidates equal to the
    positive graph or to an earlier candidate are rejected and resampled, so
    an addition the remainder absorbs never survives; after ``k * 32``
    attempts the survivors are returned with a shortfall warning.  Every draw
    comes from ``random.Random(seed)``, and each trace records ``seed``.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    lo, hi = edit_range
    if not 1 <= lo <= hi:
        raise ValueError(f"invalid edit range {edit_range!r}")

    rng = random.Random(seed)
    start = _Draft.of(sg_c)
    start_tags = _applicable_tags(start, pool)
    if not start_tags:
        raise NoApplicableOperator("no operator applies to this subgraph/pool")

    seen = {sg_pos.signature()}
    out: list[NegativeCandidate] = []
    max_attempts = k * _ATTEMPTS_PER_CANDIDATE
    attempts = 0
    while len(out) < k and attempts < max_attempts:
        attempts += 1
        result = _attempt_candidate(start, pool, lo, hi, rng, start_tags)
        if result is None:
            continue
        edited, ops = result
        # with an empty pool only swap and shorten apply, and both keep a
        # closed, duplicate-free graph so; such a graph is its own recomposition
        recomposed = recompose(edited, pool) if pool.element_count else edited.graph()
        sig = recomposed.signature()
        if sig in seen:
            continue
        seen.add(sig)
        out.append(NegativeCandidate(graph=recomposed, trace=EditTrace(ops, seed)))
    if len(out) < k:
        logger.warning("generated %d/%d distinct negatives after %d attempts", len(out), k, attempts)
    return out
