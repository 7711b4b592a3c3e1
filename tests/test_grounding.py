import hashlib
import json
import random

import pytest
from hypothesis import given, settings

from scenealign.errors import EmptyMatch, NotASubgraph
from scenealign.generate import _template_rationale
from scenealign.grounding import _phrase_pattern, extract_grounded_subgraph, residual_pool
from scenealign.rationale import Rationale
from scenealign.scene_graph import SceneGraph, encode_scene_graph

from .helpers import assert_valid_graph, graph_subset, random_scene_graph, scene_graphs


class TestCaseStudy:
    def test_extraction_recovers_mentioned_subgraph(self, case_graph, case_rationale, case_subgraph):
        grounded = extract_grounded_subgraph(case_graph, case_rationale)
        assert grounded.signature() == case_subgraph.signature()

    def test_extraction_preserves_parent_order(self, case_graph, case_rationale):
        grounded = extract_grounded_subgraph(case_graph, case_rationale)
        assert grounded.entities == ("man", "motorcycle", "ground", "paper")
        assert grounded.attributes == (
            ("motorcycle", "silver"),
            ("motorcycle", "parked"),
            ("ground", "paved"),
            ("paper", "white"),
        )

    def test_residual_pool_contents(self, case_graph, case_rationale):
        grounded = extract_grounded_subgraph(case_graph, case_rationale)
        pool = residual_pool(case_graph, grounded)
        assert pool.entities == ("building", "window", "car")
        assert pool.attributes == (("building", "white"), ("window", "glass"), ("car", "parked"))
        assert pool.relations == (
            ("building", "behind", "motorcycle"),
            ("car", "behind", "motorcycle"),
        )
        assert pool.element_count == 8

    def test_pool_helpers(self, case_pool):
        assert case_pool.attribute_values() == ("white", "glass", "parked")
        assert case_pool.predicates() == ("behind",)
        assert len(case_pool.all_elements) == case_pool.element_count


class TestMatchingRules:
    GRAPH = SceneGraph.from_parts(
        ["man", "mango", "cart"],
        [["mango", "ripe"], ["cart", "red"]],
        [["man", "push", "cart"], ["man", "hold", "mango"]],
    )

    def test_token_boundary_blocks_substring_hits(self):
        r = Rationale.from_steps(["The mango is ripe."], "A mango.")
        grounded = extract_grounded_subgraph(self.GRAPH, r)
        assert grounded.entities == ("mango",)

    def test_case_folding(self):
        r = Rationale.from_steps(["The CART is red."], "Done.")
        grounded = extract_grounded_subgraph(self.GRAPH, r)
        assert grounded.attributes == (("cart", "red"),)

    def test_multiword_phrase_tolerates_whitespace(self):
        g = SceneGraph.from_parts(["man", "bike"], [], [["man", "look at", "bike"]])
        r = Rationale.from_steps(["The man does look  at the bike."], "Yes.")
        grounded = extract_grounded_subgraph(g, r)
        assert grounded.relations == (("man", "look at", "bike"),)

    def test_attribute_needs_entity_step_window(self):
        # "ripe" appears only in a step without "mango"
        r = Rationale.from_steps(["The man is here.", "Everything looks ripe."], "The mango.")
        grounded = extract_grounded_subgraph(self.GRAPH, r)
        assert ("mango", "ripe") not in grounded.attributes

    def test_relation_kept_by_predicate_match(self):
        r = Rationale.from_steps(["The man is busy.", "He would push the red cart."], "OK.")
        grounded = extract_grounded_subgraph(self.GRAPH, r)
        assert ("man", "push", "cart") in grounded.relations

    def test_relation_kept_by_endpoint_cooccurrence(self):
        r = Rationale.from_steps(["The man stands by the cart."], "OK.")
        grounded = extract_grounded_subgraph(self.GRAPH, r)
        assert ("man", "push", "cart") in grounded.relations

    def test_relation_dropped_when_endpoint_missing(self):
        r = Rationale.from_steps(["The man would push something."], "OK.")
        grounded = extract_grounded_subgraph(self.GRAPH, r)
        assert ("man", "push", "cart") not in grounded.relations

    def test_endpoints_in_different_steps_do_not_cooccur(self):
        r = Rationale.from_steps(["The man waits.", "The cart waits."], "OK.")
        grounded = extract_grounded_subgraph(self.GRAPH, r)
        assert grounded.relations == ()

    def test_no_entity_match_raises(self):
        r = Rationale.from_steps(["Nothing relevant here."], "Nothing.")
        with pytest.raises(EmptyMatch):
            extract_grounded_subgraph(self.GRAPH, r)

    def test_conclusion_counts_as_a_segment(self):
        r = Rationale.from_steps(["Something else."], "The ripe mango.")
        grounded = extract_grounded_subgraph(self.GRAPH, r)
        assert ("mango", "ripe") in grounded.attributes


class TestResidualPool:
    def test_partition_is_exact(self, case_graph, case_rationale):
        grounded = extract_grounded_subgraph(case_graph, case_rationale)
        pool = residual_pool(case_graph, grounded)
        g = grounded
        assert set(g.entities) | set(pool.entities) == set(case_graph.entities)
        assert set(g.entities) & set(pool.entities) == set()
        assert set(g.attributes) | set(pool.attributes) == set(case_graph.attributes)
        assert set(g.attributes) & set(pool.attributes) == set()
        assert set(g.relations) | set(pool.relations) == set(case_graph.relations)
        assert set(g.relations) & set(pool.relations) == set()

    def test_accepts_plain_graph(self, case_graph, case_subgraph):
        pool = residual_pool(case_graph, case_subgraph)
        assert pool.entities == ("building", "window", "car")

    def test_rejects_foreign_elements(self, case_graph):
        foreign = SceneGraph.from_parts(["satellite"], [], [])
        with pytest.raises(NotASubgraph):
            residual_pool(case_graph, foreign)

    def test_full_subgraph_leaves_empty_pool(self, case_graph):
        pool = residual_pool(case_graph, case_graph)
        assert pool.element_count == 0

    def test_pool_relation_may_reference_grounded_entities(self, case_graph, case_rationale):
        # "behind" edges touch the grounded motorcycle; they stay pool material
        grounded = extract_grounded_subgraph(case_graph, case_rationale)
        pool = residual_pool(case_graph, grounded)
        assert any(o == "motorcycle" for _, _, o in pool.relations)
        assert "motorcycle" in grounded.entities


def _rationale_mentioning(graph: SceneGraph, names: list[str]) -> Rationale:
    steps = [f"The {name} is here." for name in names]
    return Rationale.from_steps(steps, "That is all.")


def test_grounded_output_is_valid_and_contained():
    rng = random.Random(7)
    for _ in range(300):
        graph = random_scene_graph(rng, min_entities=2)
        mention = [e for e in graph.entities if rng.random() < 0.5]
        if not mention:
            mention = [graph.entities[0]]
        grounded = extract_grounded_subgraph(graph, _rationale_mentioning(graph, mention))
        assert_valid_graph(grounded)
        assert graph.contains_elements_of(grounded)
        pool = residual_pool(graph, grounded)
        assert grounded.element_count + pool.element_count == graph.element_count


@given(scene_graphs(min_entities=1))
@settings(max_examples=150, deadline=None)
def test_mentioning_every_entity_grounds_every_entity(g):
    rationale = _rationale_mentioning(g, list(g.entities))
    grounded = extract_grounded_subgraph(g, rationale)
    assert set(grounded.entities) == set(g.entities)
    # one entity per step, so no two endpoints co-occur: only a reflexive
    # edge or a predicate named as whole tokens in some step keeps a relation
    for s, p, o in grounded.relations:
        assert s == o or any(_phrase_pattern(p).search(step) for step in rationale.segments())


def test_more_mentions_never_shrink_the_subgraph(case_graph):
    shorter = _rationale_mentioning(case_graph, ["man", "motorcycle"])
    longer = _rationale_mentioning(case_graph, ["man", "motorcycle", "building", "car"])
    a = extract_grounded_subgraph(case_graph, shorter)
    b = extract_grounded_subgraph(case_graph, longer)
    assert b.contains_elements_of(a)



def _grounding_digest() -> tuple[str, int]:
    """sha256 of every grounded graph and residual pool over 300 random graphs.

    Each graph is grounded against its template rationale, a rationale that
    names a random subset of its entities one per step (so the pools are not
    empty), and the template rationale of a random subset of the graph (so
    relations are also kept by endpoint co-occurrence).
    """
    rng = random.Random(301)
    digest = hashlib.sha256()
    pool_elements = 0
    for _ in range(300):
        graph = random_scene_graph(rng, min_entities=2, allow_reflexive=rng.random() < 0.3)
        mention = [e for e in graph.entities if rng.random() < 0.5] or [graph.entities[0]]
        rationales = (
            _template_rationale(graph, "yes"),
            _rationale_mentioning(graph, mention),
            _template_rationale(graph_subset(graph, rng), None),
        )
        for rationale in rationales:
            try:
                grounded = extract_grounded_subgraph(graph, rationale)
            except EmptyMatch:
                digest.update(b"empty\n")
                continue
            pool = residual_pool(graph, grounded)
            pool_elements += pool.element_count
            row = [encode_scene_graph(grounded), pool.entities, pool.attributes, pool.relations]
            digest.update(json.dumps(row).encode() + b"\n")
    return digest.hexdigest(), pool_elements


def test_grounding_pin():
    """Grounding keeps its bytes: the same graphs and pools, element for element."""
    assert _grounding_digest() == (
        "52f4cc644f5714205fb7d9fa6267e59d4dfc88f7d6a5e206d2a3f8b997c57f9b",
        5304,
    )
