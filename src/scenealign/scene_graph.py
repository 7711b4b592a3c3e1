"""Scene graph data model, strict JSON codec, and set-overlap primitives.

A scene graph is a triple of element sets: entity names, (entity, attribute)
pairs, and directed (subject, predicate, object) relation triples.  Set
semantics apply throughout, but first-occurrence order is preserved so every
downstream stage stays deterministic and serialization is byte-stable.
A residual pool is the same type and schema, but need not be closed.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .errors import DanglingReference, MalformedJson, SchemaViolation

logger = logging.getLogger(__name__)

Attribute = tuple[str, str]
Relation = tuple[str, str, str]

ENTITY_KEY = "entity"
ATTRIBUTE_KEY = "attribute pairs"
RELATION_KEY = "relationships"
SCHEMA_KEYS = (ENTITY_KEY, ATTRIBUTE_KEY, RELATION_KEY)

# tags for universe members; attributes and entity pairs never collide
_ATTR_TAG = "attr"
_PAIR_TAG = "pair"


@dataclass(frozen=True)
class SceneGraph:
    """Immutable element sets; construct through :meth:`from_parts` or a parser.

    A graph from :func:`parse_scene_graph` or :meth:`from_parts` is closed: it
    holds every entity its rows name.  A residual pool (:func:`parse_pool`)
    need not be, since a pool relation may name a grounded entity.
    """

    entities: tuple[str, ...] = ()
    attributes: tuple[Attribute, ...] = ()
    relations: tuple[Relation, ...] = ()

    @classmethod
    def from_parts(
        cls,
        entities: Iterable[str],
        attributes: Iterable[Sequence[str]],
        relations: Iterable[Sequence[str]],
        *,
        on_dangling: str = "error",
    ) -> "SceneGraph":
        """Trim, deduplicate, and close over referenced entities.

        ``on_dangling`` is either ``"error"`` (raise :class:`DanglingReference`)
        or ``"add"`` (append missing entities in first-reference order).
        Duplicates are dropped with a warning.
        """
        ents = clean_elements(entities, 1, ENTITY_KEY)
        attrs = clean_elements(attributes, 2, ATTRIBUTE_KEY)
        rels = clean_elements(relations, 3, RELATION_KEY)

        known = set(ents)
        appended: list[str] = []
        for name in referenced_entities(attrs, rels):
            if name in known:
                continue
            if on_dangling != "add":
                raise DanglingReference(name)
            appended.append(name)
            known.add(name)
        if appended:
            logger.warning("added %d dangling entity name(s): %s", len(appended), appended)
        return cls(tuple(ents) + tuple(appended), tuple(attrs), tuple(rels))

    # -- element-set views ---------------------------------------------------

    @property
    def element_count(self) -> int:
        return len(self.entities) + len(self.attributes) + len(self.relations)

    def signature(self) -> tuple[frozenset, frozenset, frozenset]:
        """Order-insensitive identity of the element sets."""
        return (
            frozenset(self.entities),
            frozenset(self.attributes),
            frozenset(self.relations),
        )

    def contains_elements_of(self, other: "SceneGraph") -> bool:
        a, b = other.signature(), self.signature()
        return a[0] <= b[0] and a[1] <= b[1] and a[2] <= b[2]

    def attribute_values(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(v for _, v in self.attributes))

    def predicates(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(p for _, p, _ in self.relations))

    @cached_property
    def all_elements(self) -> tuple[tuple[str, object], ...]:
        """Each element with its kind, entities first; built once, as the sampler draws from a pool many times."""
        return (
            *(("entity", e) for e in self.entities),
            *(("attribute", a) for a in self.attributes),
            *(("relation", r) for r in self.relations),
        )


def clean_elements(values: Iterable, arity: int, key: str) -> list:
    """Elements of one kind, trimmed, deduplicated in first-occurrence order: names if ``arity`` is 1, else rows.

    A malformed element is a :class:`SchemaViolation` naming ``key``; duplicates are dropped with a warning.
    """
    elements = []
    for value in values:
        row = (value,) if arity == 1 else value
        # lists and tuples skip the slower Sequence ABC check
        if not isinstance(row, (list, tuple)) and (isinstance(row, str) or not isinstance(row, Sequence)):
            raise SchemaViolation(key, f"expected array, got {type(row).__name__}")
        if len(row) != arity:
            raise SchemaViolation(key, f"expected {arity} items, got {len(row)}")
        cleaned = []
        for item in row:
            if not isinstance(item, str):
                raise SchemaViolation(key, f"expected string, got {type(item).__name__}")
            item = item.strip()
            if not item:
                raise SchemaViolation(key, "empty string")
            cleaned.append(item)
        elements.append(cleaned[0] if arity == 1 else tuple(cleaned))
    out = list(dict.fromkeys(elements))
    if len(out) < len(elements):
        logger.warning("%s: dropped %d duplicate item(s)", key, len(elements) - len(out))
    return out


def referenced_entities(attrs: Iterable[Attribute], rels: Iterable[Relation]) -> Iterator[str]:
    """Entity names the attributes and relations point at, in order, with repeats."""
    for entity, _ in attrs:
        yield entity
    for subject, _, obj in rels:
        yield subject
        yield obj


def encode_scene_graph(g) -> dict:
    """Inverse of :func:`parse_scene_graph` and :func:`parse_pool`."""
    return {
        ENTITY_KEY: list(g.entities),
        ATTRIBUTE_KEY: [list(a) for a in g.attributes],
        RELATION_KEY: [list(r) for r in g.relations],
    }


def _element_arrays(source: str | dict) -> list[list]:
    """The element arrays of a graph's or pool's JSON object, as text or already decoded.

    The one schema check: exactly the three keys, each an array.
    """
    obj = source
    if isinstance(source, str):
        try:
            obj = json.loads(source)
        except json.JSONDecodeError as exc:
            raise MalformedJson(str(exc)) from exc
    if not isinstance(obj, dict):
        raise MalformedJson(f"top-level value is {type(obj).__name__}, not an object")
    for key in SCHEMA_KEYS:
        if key not in obj:
            raise SchemaViolation(key, "missing key")
    for key in obj:
        if key not in SCHEMA_KEYS:
            raise SchemaViolation(key, "unexpected key")
    for key in SCHEMA_KEYS:
        if not isinstance(obj[key], list):
            raise SchemaViolation(key, f"expected array, got {type(obj[key]).__name__}")
    return [obj[key] for key in SCHEMA_KEYS]


def parse_scene_graph(source: str | dict, *, on_dangling: str = "error") -> SceneGraph:
    """Parse a graph's three-key JSON object, as text or already decoded.

    Duplicates are dropped with a warning; dangling entity references follow
    ``on_dangling``.
    """
    return SceneGraph.from_parts(*_element_arrays(source), on_dangling=on_dangling)


def parse_pool(source: str | dict) -> SceneGraph:
    """Parse a residual pool as a graph is parsed, trimmed and deduplicated, but not closed."""
    entities, attributes, relations = _element_arrays(source)
    return SceneGraph(
        tuple(clean_elements(entities, 1, ENTITY_KEY)),
        tuple(clean_elements(attributes, 2, ATTRIBUTE_KEY)),
        tuple(clean_elements(relations, 3, RELATION_KEY)),
    )


def serialize_scene_graph(g: SceneGraph) -> str:
    """The JSON text of :func:`encode_scene_graph`, with non-ASCII kept as is."""
    return json.dumps(encode_scene_graph(g), ensure_ascii=False)


def element_universe(g: SceneGraph) -> frozenset[tuple[str, str, str]]:
    """Overlap universe: attribute pairs and ordered relation endpoint pairs.

    Predicates are deliberately excluded, so parallel edges between the same
    ordered endpoints collapse to one member.
    """
    members = {(_ATTR_TAG, e, v) for e, v in g.attributes}
    members |= {(_PAIR_TAG, s, o) for s, _, o in g.relations}
    return frozenset(members)


def universe_overlap(ua: frozenset, ub: frozenset) -> tuple[int, int]:
    """Exact (intersection, union) sizes of two element universes; both empty counts as (1, 1), J = 1."""
    inter = len(ua & ub)
    union = len(ua) + len(ub) - inter
    return (inter, union) if union else (1, 1)


def jaccard_overlap(g_neg: SceneGraph, g_pos: SceneGraph) -> float:
    """Jaccard overlap of the two graphs' element universes (see :func:`universe_overlap`)."""
    inter, union = universe_overlap(element_universe(g_neg), element_universe(g_pos))
    return inter / union
