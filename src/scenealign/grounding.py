"""Lexical alignment of a rationale against its scene graph.

The grounded subgraph keeps exactly the elements the rationale actually
mentions; everything else lands in the residual pool, which later supplies
same-scene material for perturbations.  A pool is a :class:`SceneGraph`
that need not be closed; ``ResidualPool`` names that type.
"""

from __future__ import annotations

import re
from functools import lru_cache

from .errors import EmptyMatch, NotASubgraph
from .rationale import Rationale
from .scene_graph import SceneGraph

ResidualPool = SceneGraph  # the exported name of a pool's type


@lru_cache(maxsize=4096)  # entity names, values and predicates recur across instances
def _phrase_pattern(phrase: str) -> re.Pattern:
    # case-insensitive whole tokens, whitespace-insensitive within the phrase
    body = r"\s+".join(re.escape(tok) for tok in phrase.split())
    return re.compile(rf"(?<!\w){body}(?!\w)", re.IGNORECASE)


def _matching_segments(phrase: str, segments: tuple[str, ...]) -> set[int]:
    pattern = _phrase_pattern(phrase)
    hits: set[int] = set()
    for idx, segment in enumerate(segments):
        if pattern.search(segment):
            hits.add(idx)
    return hits


def extract_grounded_subgraph(sg_pos: SceneGraph, rationale: Rationale) -> SceneGraph:
    """Select the elements of ``sg_pos`` the rationale lexically mentions.

    Matching is case-insensitive and on whole tokens only.  Entities are kept
    when their name matches any segment.  Attributes need a kept entity plus
    a value match in a segment where that entity matched.  Relations need
    both endpoints kept plus a predicate match anywhere, or both endpoints
    matching in one segment.  The result preserves the parent's element
    order.  Raises :class:`EmptyMatch` when not a single entity matches.
    """
    segments = rationale.segments()

    entity_hits: dict[str, set[int]] = {}
    for name in sg_pos.entities:
        hits = _matching_segments(name, segments)
        if hits:
            entity_hits[name] = hits
    if not entity_hits:
        raise EmptyMatch("no entity name occurs in the rationale")

    kept_attrs: list[tuple[str, str]] = []
    for entity, value in sg_pos.attributes:
        hits = entity_hits.get(entity)
        if not hits:
            continue
        pattern = _phrase_pattern(value)
        for step in hits:
            if pattern.search(segments[step]):
                kept_attrs.append((entity, value))
                break

    kept_rels: list[tuple[str, str, str]] = []
    for subj, pred, obj in sg_pos.relations:
        s_hits = entity_hits.get(subj)
        o_hits = entity_hits.get(obj)
        if not s_hits or not o_hits:
            continue
        if s_hits & o_hits or _matching_segments(pred, segments):
            kept_rels.append((subj, pred, obj))

    # every kept attribute and relation has matched endpoints, so the kept
    # entities are exactly the matched ones, already in the parent's order;
    # the elements come from a checked graph, so they need no cleaning
    return SceneGraph(tuple(entity_hits), tuple(kept_attrs), tuple(kept_rels))


def residual_pool(sg_pos: SceneGraph, graph: SceneGraph) -> SceneGraph:
    """Complement of the grounded subgraph within the parent, element-wise.

    The pool need not be closed: a residual relation may name grounded entities.

    Raises :class:`NotASubgraph` when ``graph`` holds any element the parent
    does not.
    """
    if not sg_pos.contains_elements_of(graph):
        raise NotASubgraph("grounded subgraph is not element-wise contained in the parent")
    ents = set(graph.entities)
    attrs = set(graph.attributes)
    rels = set(graph.relations)
    return SceneGraph(
        tuple(e for e in sg_pos.entities if e not in ents),
        tuple(a for a in sg_pos.attributes if a not in attrs),
        tuple(r for r in sg_pos.relations if r not in rels),
    )
