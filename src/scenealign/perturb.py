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
from typing import Sequence, Union

from .errors import (
    ConfigError,
    DuplicateCollision,
    EmptyPool,
    EmptyPoolForKind,
    IndexOutOfRange,
    NoApplicableOperator,
    NoOpSwap,
    UnsupportedKind,
    WouldEmpty,
)
from .grounding import ResidualPool
from .scene_graph import SceneGraph, referenced_entities

logger = logging.getLogger(__name__)

# canonical operator order; sampling iterates this so runs are reproducible
OPERATOR_TAGS = ("swap", "replace", "shorten", "overthink")

# payload resampling budget before an edit gives up with DuplicateCollision
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
        ops = tuple(
            PerturbationOp(op["tag"], op["kind"], from_jsonable(op["target"]), from_jsonable(op["payload"]))
            for op in obj["ops"]
        )
        return cls(ops, obj["seed"])


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


def _kind_size(sg: SceneGraph, kind: str) -> int:
    if kind == "entity":
        return len(sg.entities)
    return len(sg.attributes) if kind == "attribute" else len(sg.relations)


def _check_index(sg: SceneGraph, kind: str, index: int) -> None:
    if not 0 <= index < _kind_size(sg, kind):
        raise IndexOutOfRange(f"{kind} index {index} out of range")


def _element_kind_of(tag: str, kind: str) -> str:
    if kind not in ("entity", "attribute", "relation"):
        raise UnsupportedKind(f"{tag} cannot target kind {kind!r}")
    return kind


# ---------------------------------------------------------------------------
# swap


def _swap(sg: SceneGraph, rel_index: int) -> tuple[SceneGraph, PerturbationOp]:
    _check_index(sg, "relation", rel_index)
    subj, pred, obj = sg.relations[rel_index]
    if subj == obj:
        raise NoOpSwap(f"relation {rel_index} is reflexive")
    swapped = (obj, pred, subj)
    if swapped in sg.relations:
        raise DuplicateCollision(f"swapped triple {list(swapped)} already present")
    rels = list(sg.relations)
    rels[rel_index] = swapped
    out = SceneGraph(sg.entities, sg.attributes, tuple(rels))
    return out, PerturbationOp("swap", "relation", (subj, pred, obj), swapped)


def _swap_indices(sg: SceneGraph) -> list[int]:
    present = set(sg.relations)
    return [
        i for i, (s, p, o) in enumerate(sg.relations) if s != o and (o, p, s) not in present
    ]


# ---------------------------------------------------------------------------
# replace


def _replace_entity(
    sg: SceneGraph, index: int, pool: ResidualPool, rng: random.Random, pinned: str | None
) -> tuple[SceneGraph, PerturbationOp]:
    if not pool.entities and pinned is None:
        raise EmptyPoolForKind("residual pool holds no entities")
    old = sg.entities[index]
    attempts = 1 if pinned is not None else _RESAMPLE_LIMIT
    for _ in range(attempts):
        new = pinned if pinned is not None else rng.choice(pool.entities)
        if new == old or new in sg.entities:
            continue
        entities = tuple(new if e == old else e for e in sg.entities)
        attrs = tuple((new if e == old else e, v) for e, v in sg.attributes)
        rels = tuple(
            (new if s == old else s, p, new if o == old else o) for s, p, o in sg.relations
        )
        if len(set(attrs)) != len(attrs) or len(set(rels)) != len(rels):
            continue  # rewrite collapsed two elements into one
        out = SceneGraph(entities, attrs, rels)
        return out, PerturbationOp("replace", "entity", old, new)
    raise DuplicateCollision(f"no usable replacement for entity {old!r}")


def _replace_field(
    sg: SceneGraph, kind: str, index: int, pool: ResidualPool, rng: random.Random, pinned: str | None
) -> tuple[SceneGraph, PerturbationOp]:
    """Set field 1 of attribute or relation ``index`` (its value, or predicate) to a new pool value."""
    if kind == "attribute":
        rows, values, label = sg.attributes, pool.attribute_values(), "attribute value"
    else:
        rows, values, label, kind = sg.relations, pool.predicates(), "predicate", "predicate"  # the op's kind
    if not values and pinned is None:
        raise EmptyPoolForKind(f"residual pool holds no {label}s")
    old = rows[index]
    present = set(rows)
    attempts = 1 if pinned is not None else _RESAMPLE_LIMIT
    for _ in range(attempts):
        value = pinned if pinned is not None else rng.choice(values)
        new = (old[0], value, *old[2:])
        if value == old[1] or new in present:
            continue
        edited = rows[:index] + (new,) + rows[index + 1 :]
        attrs, rels = (edited, sg.relations) if kind == "attribute" else (sg.attributes, edited)
        return SceneGraph(sg.entities, attrs, rels), PerturbationOp("replace", kind, old, new)
    raise DuplicateCollision(f"no usable replacement {label} for {list(old)}")


def _replace_kinds(sg: SceneGraph, pool: ResidualPool) -> list[str]:
    kinds = []
    if sg.entities and pool.entities:
        kinds.append("entity")
    if sg.attributes and pool.attribute_values():
        kinds.append("attribute")
    if sg.relations and pool.predicates():
        kinds.append("predicate")
    return kinds


# ---------------------------------------------------------------------------
# shorten


def _cascade_size(sg: SceneGraph, entity: str) -> int:
    incident_attrs = sum(1 for e, _ in sg.attributes if e == entity)
    incident_rels = sum(1 for s, _, o in sg.relations if entity in (s, o))
    return 1 + incident_attrs + incident_rels


def _shorten(sg: SceneGraph, kind: str, index: int) -> tuple[SceneGraph, PerturbationOp]:
    _check_index(sg, kind, index)
    if kind == "entity":
        name = sg.entities[index]
        if sg.element_count - _cascade_size(sg, name) == 0:
            raise WouldEmpty(f"removing entity {name!r} would empty the graph")
        out = SceneGraph(
            tuple(e for e in sg.entities if e != name),
            tuple(a for a in sg.attributes if a[0] != name),
            tuple(r for r in sg.relations if name not in (r[0], r[2])),
        )
        return out, PerturbationOp("shorten", "entity", name, None)
    if sg.element_count - 1 == 0:
        raise WouldEmpty("removing the sole element would empty the graph")
    if kind == "attribute":
        target = sg.attributes[index]
        attrs = sg.attributes[:index] + sg.attributes[index + 1 :]
        return SceneGraph(sg.entities, attrs, sg.relations), PerturbationOp(
            "shorten", "attribute", target, None
        )
    target = sg.relations[index]
    rels = sg.relations[:index] + sg.relations[index + 1 :]
    return SceneGraph(sg.entities, sg.attributes, rels), PerturbationOp(
        "shorten", "relation", target, None
    )


def _draw_shorten_ref(sg: SceneGraph, rng: random.Random, kind: str | None = None) -> tuple[str, int]:
    """``rng.choice`` over the removable refs of ``kind`` (default: every kind), without listing them.

    A ref is a ``(kind, index)`` pair.  The refs run entities, then
    attributes, then relations, and one ``rng.choice(range(n))`` draws the
    same index ``rng.choice(refs)`` would.  An entity is removable unless its
    cascade takes the whole graph, which can happen only to a sole entity.
    """
    total = sg.element_count
    entities = len(sg.entities)
    if entities == 1 and total - _cascade_size(sg, sg.entities[0]) < 1:
        entities = 0
    rows = total >= 2  # a lone attribute or relation leaves nothing behind
    counts = {
        "entity": entities,
        "attribute": len(sg.attributes) if rows else 0,
        "relation": len(sg.relations) if rows else 0,
    }
    if kind is not None:
        only = _element_kind_of("shorten", kind)
        counts = {k: n if k == only else 0 for k, n in counts.items()}
    n = sum(counts.values())
    if not n:
        raise NoApplicableOperator(f"no removable {kind or 'element'}")
    index = rng.choice(range(n))
    for element_kind, count in counts.items():
        if index < count:
            break
        index -= count
    return element_kind, index


# ---------------------------------------------------------------------------
# overthink


def _element_kind(element) -> str:
    if isinstance(element, str):
        return "entity"
    if len(element) == 2:
        return "attribute"
    return "relation"


def _add_element(sg: SceneGraph, element) -> SceneGraph:
    kind = _element_kind(element)
    entities, attrs, rels = list(sg.entities), list(sg.attributes), list(sg.relations)
    needed: list[str] = []
    if kind == "entity":
        needed = [element]
    elif kind == "attribute":
        attrs.append(tuple(element))
        needed = [element[0]]
    else:
        rels.append(tuple(element))
        needed = [element[0], element[2]]
    for name in needed:  # entity closure for the new element
        if name not in entities:
            entities.append(name)
    return SceneGraph(tuple(entities), tuple(attrs), tuple(rels))


def _addable_elements(sg: SceneGraph, pool: ResidualPool) -> list[tuple[str, object]]:
    ents, attrs, rels = set(sg.entities), set(sg.attributes), set(sg.relations)
    out = []
    for kind, element in pool.all_elements():
        if kind == "entity" and element in ents:
            continue
        if kind == "attribute" and element in attrs:
            continue
        if kind == "relation" and element in rels:
            continue
        out.append((kind, element))
    return out


def _overthink(
    sg: SceneGraph, pool: ResidualPool, rng: random.Random, pinned=None, only: str | None = None
) -> tuple[SceneGraph, PerturbationOp]:
    """Add ``pinned``, or an addable pool element drawn from those of kind ``only`` (default: any)."""
    if only is not None:
        only = _element_kind_of("overthink", only)
    if pinned is not None:
        kind, element = _element_kind(pinned), tuple(pinned) if not isinstance(pinned, str) else pinned
        if only not in (None, kind):
            raise UnsupportedKind(f"overthink element {to_jsonable(element)!r} is not of kind {only!r}")
    else:
        addable = _addable_elements(sg, pool)
        if only is not None:
            addable = [pair for pair in addable if pair[0] == only]
        if not addable:
            raise EmptyPool(f"residual pool holds no {only or 'element'} addable to this graph")
        kind, element = rng.choice(addable)
    return _add_element(sg, element), PerturbationOp("overthink", kind, None, element)


# ---------------------------------------------------------------------------
# recomposition


def recompose(
    perturbed: SceneGraph, remainder: Union[ResidualPool, SceneGraph]
) -> SceneGraph:
    """Element-wise union of the perturbed subgraph with the residual remainder.

    Entities are unified by name and the union is closed: an entity referenced
    by a surviving remainder element is re-added even when an edit deleted it
    from the subgraph, so remainder elements are never dropped.
    """
    # overlap between the two sides is expected union behavior, so dedup
    # silently here instead of letting from_parts warn about it
    entities = list(_ordered_union(perturbed.entities, remainder.entities))
    attrs = _ordered_union(perturbed.attributes, remainder.attributes)
    rels = _ordered_union(perturbed.relations, remainder.relations)
    known = set(entities)
    for name in referenced_entities(attrs, rels):
        if name not in known:
            entities.append(name)
            known.add(name)
    return SceneGraph(tuple(entities), attrs, rels)


def _ordered_union(first: Sequence, second: Sequence) -> tuple:
    return tuple(dict.fromkeys((*first, *second)))


def apply_operator(
    sg: SceneGraph,
    pool: ResidualPool,
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
    ``replacement`` is for ``replace`` only and an ``element`` for
    ``overthink`` only.  Replacing an entity renames every occurrence,
    removing one removes everything incident, and an added element brings
    in the entities it names.
    """
    rng = rng if rng is not None else random.Random(0)
    if replacement is not None and tag != "replace":
        raise ConfigError(f"{tag} takes no replacement; only replace does")
    if element is not None and tag != "overthink":
        raise ConfigError(f"{tag} takes no element to add; only overthink does")
    if index is not None and kind is None and tag in ("replace", "shorten"):
        raise ConfigError(f"{tag}: an index needs a kind")
    if tag == "swap":
        if kind not in (None, "relation"):
            raise UnsupportedKind(f"swap cannot target kind {kind!r}")
        if index is None:
            choices = _swap_indices(sg)
            if not choices:
                raise NoApplicableOperator("no swappable relation")
            index = rng.choice(choices)
        return _swap(sg, index)
    if tag == "replace":
        if kind is None:
            kinds = _replace_kinds(sg, pool)
            if not kinds:
                raise NoApplicableOperator("no replaceable element with pool support")
            kind = rng.choice(kinds)
        element_kind = _element_kind_of(tag, "relation" if kind == "predicate" else kind)
        if index is None:
            size = _kind_size(sg, element_kind)
            if not size:
                raise NoApplicableOperator(f"no {kind} to replace")
            index = rng.randrange(size)
        _check_index(sg, element_kind, index)
        if element_kind == "entity":
            return _replace_entity(sg, index, pool, rng, replacement)
        return _replace_field(sg, element_kind, index, pool, rng, replacement)
    if tag == "shorten":
        if index is not None:
            return _shorten(sg, _element_kind_of(tag, kind), index)
        return _shorten(sg, *_draw_shorten_ref(sg, rng, kind))
    if tag == "overthink":
        if index is not None:
            raise ConfigError("overthink takes no index; pin the element to add instead")
        return _overthink(sg, pool, rng, element, kind)
    raise ValueError(f"unknown operator tag {tag!r}")


# ---------------------------------------------------------------------------
# candidate generation


def _applicable_tags(sg: SceneGraph, pool: ResidualPool) -> list[str]:
    """The operators with at least one target, in ``OPERATOR_TAGS`` order.

    Each test answers whether its choice (``_swap_indices``,
    ``_replace_kinds``, ``_draw_shorten_ref``, ``_addable_elements``) would
    have anything to draw from, without building it.
    """
    tags = []
    present = set(sg.relations)
    if any(s != o and (o, p, s) not in present for s, p, o in sg.relations):
        tags.append("swap")
    if _replace_kinds(sg, pool):
        tags.append("replace")
    # some removal leaves an element exactly when there are two to start with
    if sg.element_count >= 2:
        tags.append("shorten")
    if (
        not set(sg.entities).issuperset(pool.entities)
        or not set(sg.attributes).issuperset(pool.attributes)
        or not present.issuperset(pool.relations)
    ):
        tags.append("overthink")
    return tags


def _attempt_candidate(
    graph: SceneGraph, pool: ResidualPool, lo: int, hi: int, rng: random.Random, start_tags: list[str]
):
    """Edit ``graph``, whose applicable operators are ``start_tags``, ``lo`` to ``hi`` times."""
    ops: list[PerturbationOp] = []
    for step in range(rng.randint(lo, hi)):
        tags = _applicable_tags(graph, pool) if step else start_tags
        if not tags:
            return None
        try:
            graph, op = apply_operator(graph, pool, rng.choice(tags), rng=rng)
        except (DuplicateCollision, EmptyPool, EmptyPoolForKind, NoOpSwap, WouldEmpty):
            return None
        ops.append(op)
    return graph, tuple(ops)


def generate_negatives(
    sg_pos: SceneGraph,
    sg_c: SceneGraph,
    pool: ResidualPool,
    k: int = 8,
    edit_range: tuple[int, int] = (1, 3),
    seed: int = 0,
) -> list[NegativeCandidate]:
    """Sample up to ``k`` distinct recomposed negatives from the subgraph.

    Each candidate applies between ``edit_range[0]`` and ``edit_range[1]``
    edits, choosing uniformly among the operators applicable at each step,
    then reattaches the residual remainder, if there is one.  ``sg_c`` must
    be closed and free of duplicates, as the parser and
    :meth:`SceneGraph.from_parts` leave a graph.  Candidates equal to the
    positive graph or to an earlier candidate are rejected and resampled, so
    an addition the remainder absorbs never survives; after ``k * 32``
    attempts the survivors are returned with a shortfall warning.  Every
    draw comes from ``random.Random(seed)``, and each trace records ``seed``.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    lo, hi = edit_range
    if not 1 <= lo <= hi:
        raise ValueError(f"invalid edit range {edit_range!r}")

    rng = random.Random(seed)
    start_tags = _applicable_tags(sg_c, pool)
    if not start_tags:
        raise NoApplicableOperator("no operator applies to this subgraph/pool")

    seen = {sg_pos.signature()}
    out: list[NegativeCandidate] = []
    max_attempts = k * _ATTEMPTS_PER_CANDIDATE
    attempts = 0
    while len(out) < k and attempts < max_attempts:
        attempts += 1
        result = _attempt_candidate(sg_c, pool, lo, hi, rng, start_tags)
        if result is None:
            continue
        edited, ops = result
        # with an empty pool only swap and shorten apply, and both leave a
        # closed, duplicate-free graph so, which is its own recomposition
        recomposed = recompose(edited, pool) if pool.element_count else edited
        sig = recomposed.signature()
        if sig in seen:
            continue
        seen.add(sig)
        out.append(NegativeCandidate(graph=recomposed, trace=EditTrace(ops, seed)))
    if len(out) < k:
        logger.warning("generated %d/%d distinct negatives after %d attempts", len(out), k, attempts)
    return out
