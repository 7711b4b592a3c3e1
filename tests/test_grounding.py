import random

import pytest
from hypothesis import given, settings

from scenealign.errors import EmptyMatch, NotASubgraph
from scenealign.grounding import GroundedSubgraph, extract_grounded_subgraph, residual_pool
from scenealign.rationale import Rationale
from scenealign.scene_graph import ElementKind, SceneGraph

from .helpers import random_scene_graph, scene_graphs


class TestCaseStudy:
    def test_extraction_recovers_mentioned_subgraph(self, case_graph, case_rationale, case_subgraph):
        grounded = extract_grounded_subgraph(case_graph, case_rationale)
        assert grounded.graph.same_elements(case_subgraph)

    def test_extraction_preserves_parent_order(self, case_graph, case_rationale):
        grounded = extract_grounded_subgraph(case_graph, case_rationale)
        assert grounded.graph.entities == ("man", "motorcycle", "ground", "paper")
        assert grounded.graph.attributes == (
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
        assert len(case_pool.all_elements()) == case_pool.element_count

    def test_evidence_points_into_parent(self, case_graph, case_rationale):
        grounded = extract_grounded_subgraph(case_graph, case_rationale)
        for ev in grounded.provenance:
            element = case_graph.element(ev.ref)
            assert element is not None
            assert 0 <= ev.step < len(case_rationale.segments())
            start, end = ev.span
            assert 0 <= start < end


class TestMatchingRules:
    GRAPH = SceneGraph.from_parts(
        ["man", "mango", "cart"],
        [["mango", "ripe"], ["cart", "red"]],
        [["man", "push", "cart"], ["man", "hold", "mango"]],
    )

    def test_token_boundary_blocks_substring_hits(self):
        r = Rationale.from_steps(["The mango is ripe."], "A mango.")
        grounded = extract_grounded_subgraph(self.GRAPH, r)
        assert grounded.graph.entities == ("mango",)

    def test_case_folding(self):
        r = Rationale.from_steps(["The CART is red."], "Done.")
        grounded = extract_grounded_subgraph(self.GRAPH, r)
        assert grounded.graph.attributes == (("cart", "red"),)

    def test_multiword_phrase_tolerates_whitespace(self):
        g = SceneGraph.from_parts(["man", "bike"], [], [["man", "look at", "bike"]])
        r = Rationale.from_steps(["The man does look  at the bike."], "Yes.")
        grounded = extract_grounded_subgraph(g, r)
        assert grounded.graph.relations == (("man", "look at", "bike"),)

    def test_attribute_needs_entity_step_window(self):
        # "ripe" appears only in a step without "mango"
        r = Rationale.from_steps(["The man is here.", "Everything looks ripe."], "The mango.")
        grounded = extract_grounded_subgraph(self.GRAPH, r)
        assert ("mango", "ripe") not in grounded.graph.attributes

    def test_relation_kept_by_predicate_match(self):
        r = Rationale.from_steps(["The man is busy.", "He would push the red cart."], "OK.")
        grounded = extract_grounded_subgraph(self.GRAPH, r)
        assert ("man", "push", "cart") in grounded.graph.relations

    def test_relation_kept_by_endpoint_cooccurrence(self):
        r = Rationale.from_steps(["The man stands by the cart."], "OK.")
        grounded = extract_grounded_subgraph(self.GRAPH, r)
        assert ("man", "push", "cart") in grounded.graph.relations

    def test_relation_dropped_when_endpoint_missing(self):
        r = Rationale.from_steps(["The man would push something."], "OK.")
        grounded = extract_grounded_subgraph(self.GRAPH, r)
        assert ("man", "push", "cart") not in grounded.graph.relations

    def test_endpoints_in_different_steps_do_not_cooccur(self):
        r = Rationale.from_steps(["The man waits.", "The cart waits."], "OK.")
        grounded = extract_grounded_subgraph(self.GRAPH, r)
        assert grounded.graph.relations == ()

    def test_no_entity_match_raises(self):
        r = Rationale.from_steps(["Nothing relevant here."], "Nothing.")
        with pytest.raises(EmptyMatch):
            extract_grounded_subgraph(self.GRAPH, r)

    def test_conclusion_counts_as_a_segment(self):
        r = Rationale.from_steps(["Something else."], "The ripe mango.")
        grounded = extract_grounded_subgraph(self.GRAPH, r)
        assert ("mango", "ripe") in grounded.graph.attributes


class TestResidualPool:
    def test_partition_is_exact(self, case_graph, case_rationale):
        grounded = extract_grounded_subgraph(case_graph, case_rationale)
        pool = residual_pool(case_graph, grounded)
        g = grounded.graph
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
        assert pool.is_empty

    def test_pool_relation_may_reference_grounded_entities(self, case_graph, case_rationale):
        # "behind" edges touch the grounded motorcycle; they stay pool material
        grounded = extract_grounded_subgraph(case_graph, case_rationale)
        pool = residual_pool(case_graph, grounded)
        assert any(o == "motorcycle" for _, _, o in pool.relations)
        assert "motorcycle" in grounded.graph.entities


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
        grounded.graph.validate()
        assert graph.contains_elements_of(grounded.graph)
        pool = residual_pool(graph, grounded)
        assert grounded.graph.element_count + pool.element_count == graph.element_count


@given(scene_graphs(min_entities=1))
@settings(max_examples=150, deadline=None)
def test_mentioning_every_entity_grounds_every_entity(g):
    grounded = extract_grounded_subgraph(g, _rationale_mentioning(g, list(g.entities)))
    assert set(grounded.graph.entities) == set(g.entities)
    # every relation co-occurs with... nothing: one entity per step, so only
    # predicate matches (or reflexive edges) can keep a relation
    for s, p, o in grounded.graph.relations:
        assert s == o or any(
            ev.ref.kind == ElementKind.RELATION for ev in grounded.provenance
        )


def test_more_mentions_never_shrink_the_subgraph(case_graph):
    shorter = _rationale_mentioning(case_graph, ["man", "motorcycle"])
    longer = _rationale_mentioning(case_graph, ["man", "motorcycle", "building", "car"])
    a = extract_grounded_subgraph(case_graph, shorter).graph
    b = extract_grounded_subgraph(case_graph, longer).graph
    assert b.contains_elements_of(a)


def test_grounded_subgraph_dataclass_defaults(case_subgraph):
    g = GroundedSubgraph(case_subgraph)
    assert g.provenance == ()
