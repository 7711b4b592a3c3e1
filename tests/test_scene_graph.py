import json
import logging
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenealign.errors import DanglingReference, MalformedJson, SchemaViolation
from scenealign.scene_graph import (
    SceneGraph,
    element_universe,
    jaccard_overlap,
    parse_scene_graph,
    serialize_scene_graph,
    universe_overlap,
)

from .helpers import (
    assert_valid_graph,
    naive_jaccard,
    naive_jaccard_counts,
    naive_universe,
    random_scene_graph,
    scene_graphs,
)


def _counts(a, b):
    return universe_overlap(element_universe(a), element_universe(b))


class TestParsing:
    def test_case_graph_counts(self, case_graph):
        assert len(case_graph.entities) == 7
        assert len(case_graph.attributes) == 7
        assert len(case_graph.relations) == 6
        assert case_graph.element_count == 20

    def test_round_trip_preserves_graph(self, case_graph):
        assert parse_scene_graph(serialize_scene_graph(case_graph)) == case_graph

    def test_key_order_is_fixed(self, case_graph):
        text = serialize_scene_graph(case_graph)
        assert text.index('"entity"') < text.index('"attribute pairs"') < text.index('"relationships"')

    def test_unicode_not_escaped(self):
        g = SceneGraph.from_parts(["café"], [], [])
        assert "café" in serialize_scene_graph(g)
        assert "\\u" not in serialize_scene_graph(g)

    def test_whitespace_trimmed(self):
        g = parse_scene_graph('{"entity": [" man "], "attribute pairs": [], "relationships": []}')
        assert g.entities == ("man",)

    def test_malformed_json(self):
        with pytest.raises(MalformedJson):
            parse_scene_graph("{not json")

    def test_top_level_must_be_object(self):
        with pytest.raises(MalformedJson):
            parse_scene_graph('["entity"]')

    @pytest.mark.parametrize("missing", ["entity", "attribute pairs", "relationships"])
    def test_missing_key(self, missing):
        obj = {"entity": [], "attribute pairs": [], "relationships": []}
        del obj[missing]
        with pytest.raises(SchemaViolation) as err:
            parse_scene_graph(json.dumps(obj))
        assert err.value.key == missing

    def test_unexpected_key(self):
        text = '{"entity": [], "attribute pairs": [], "relationships": [], "extra": []}'
        with pytest.raises(SchemaViolation) as err:
            parse_scene_graph(text)
        assert err.value.key == "extra"

    def test_field_must_be_array(self):
        text = '{"entity": "man", "attribute pairs": [], "relationships": []}'
        with pytest.raises(SchemaViolation):
            parse_scene_graph(text)

    @pytest.mark.parametrize(
        "key,rows", [("attribute pairs", ["man tall"]), ("relationships", [5])], ids=["string-row", "int-row"]
    )
    def test_row_must_be_array(self, key, rows):
        obj = {"entity": ["man"], "attribute pairs": [], "relationships": [], key: rows}
        with pytest.raises(SchemaViolation, match="expected array") as err:
            parse_scene_graph(obj)
        assert err.value.key == key

    def test_wrong_arity_row(self):
        text = '{"entity": ["a"], "attribute pairs": [["a", "x", "y"]], "relationships": []}'
        with pytest.raises(SchemaViolation):
            parse_scene_graph(text)

    def test_non_string_item(self):
        text = '{"entity": [1], "attribute pairs": [], "relationships": []}'
        with pytest.raises(SchemaViolation):
            parse_scene_graph(text)

    def test_empty_string_item(self):
        text = '{"entity": ["  "], "attribute pairs": [], "relationships": []}'
        with pytest.raises(SchemaViolation):
            parse_scene_graph(text)

    def test_duplicates_dropped_with_warning(self, caplog):
        text = '{"entity": ["a", "a"], "attribute pairs": [], "relationships": []}'
        with caplog.at_level(logging.WARNING):
            g = parse_scene_graph(text)
        assert g.entities == ("a",)
        assert any("duplicate" in rec.message for rec in caplog.records)
        caplog.clear()
        obj = {
            "entity": ["a", "b"],
            # a repeated row, and two rows equal only once trimmed
            "attribute pairs": [["a", "red"], ["a", "red"], ["b", " tall"], ["b ", "tall"]],
            "relationships": [["a", "on", "b"], ["a", "on", "b"]],
        }
        with caplog.at_level(logging.WARNING):
            g = parse_scene_graph(obj)
        assert g.attributes == (("a", "red"), ("b", "tall"))
        assert g.relations == (("a", "on", "b"),)
        assert [rec.getMessage() for rec in caplog.records] == [
            "attribute pairs: dropped 2 duplicate item(s)",
            "relationships: dropped 1 duplicate item(s)",
        ]

    def test_dangling_reference_raises_by_default(self):
        text = '{"entity": ["a"], "attribute pairs": [["b", "red"]], "relationships": []}'
        with pytest.raises(DanglingReference) as err:
            parse_scene_graph(text)
        assert err.value.entity == "b"

    def test_dangling_added_in_reference_order(self):
        text = (
            '{"entity": ["a"], "attribute pairs": [["b", "red"]],'
            ' "relationships": [["c", "on", "d"]]}'
        )
        g = parse_scene_graph(text, on_dangling="add")
        assert g.entities == ("a", "b", "c", "d")
        assert_valid_graph(g)

    def test_validate_rejects_hand_built_dangling(self):
        g = SceneGraph(("a",), (("b", "red"),), ())
        with pytest.raises(AssertionError, match="dangling"):
            assert_valid_graph(g)

    def test_validate_rejects_hand_built_duplicates(self):
        # the decoders drop duplicates with a warning; the invariant check rejects one left in
        g = SceneGraph(("a", "a"), (), ())
        with pytest.raises(AssertionError, match="duplicate"):
            assert_valid_graph(g)

    @pytest.mark.parametrize(
        "graph",
        [SceneGraph(("a", ""), (), ()), SceneGraph(("a", " b"), (), ()), SceneGraph(("a",), (("a", "red "),), ())],
        ids=["blank", "unstripped", "unstripped-value"],
    )
    def test_validate_rejects_blank_or_unstripped_names(self, graph):
        # the decoders strip names and reject blank ones
        with pytest.raises(AssertionError, match="bad name"):
            assert_valid_graph(graph)


class TestElementViews:
    def test_signature_ignores_order(self):
        a = SceneGraph.from_parts(["x", "y"], [["x", "red"]], [])
        b = SceneGraph.from_parts(["y", "x"], [["x", "red"]], [])
        assert a.signature() == b.signature()
        assert a != b

    def test_containment(self, case_graph, case_subgraph):
        assert case_graph.contains_elements_of(case_subgraph)
        assert not case_subgraph.contains_elements_of(case_graph)

    def test_empty_graph(self):
        g = SceneGraph()
        assert g.element_count == 0


class TestUniverse:
    def test_case_graph_universe_size(self, case_graph):
        assert len(element_universe(case_graph)) == 13

    def test_case_subgraph_universe_size(self, case_subgraph):
        assert len(element_universe(case_subgraph)) == 8

    def test_parallel_edges_collapse(self):
        g = SceneGraph.from_parts(["a", "b"], [], [["a", "on", "b"], ["a", "near", "b"]])
        assert len(element_universe(g)) == 1

    def test_endpoint_order_matters(self):
        g = SceneGraph.from_parts(["a", "b"], [], [["a", "on", "b"], ["b", "on", "a"]])
        assert len(element_universe(g)) == 2

    def test_attributes_and_pairs_never_collide(self):
        g = SceneGraph.from_parts(["a", "b"], [["a", "b"]], [["a", "x", "b"]], on_dangling="add")
        assert len(element_universe(g)) == 2


class TestJaccard:
    def test_identity_is_one(self, case_graph):
        assert jaccard_overlap(case_graph, case_graph) == 1.0

    def test_both_empty_defined_as_one(self):
        assert jaccard_overlap(SceneGraph(), SceneGraph()) == 1.0

    def test_one_empty_is_zero(self, case_graph):
        assert jaccard_overlap(SceneGraph(), case_graph) == 0.0

    def test_entities_alone_are_invisible(self):
        a = SceneGraph.from_parts(["x"], [], [])
        b = SceneGraph.from_parts(["y"], [], [])
        assert jaccard_overlap(a, b) == 1.0

    def test_subgraph_against_case_graph(self, case_graph, case_subgraph):
        assert _counts(case_subgraph, case_graph) == (8, 13)
        assert jaccard_overlap(case_subgraph, case_graph) == pytest.approx(8 / 13)

    def test_fraction_matches_counts(self, case_graph, case_subgraph):
        assert Fraction(*_counts(case_subgraph, case_graph)) == Fraction(8, 13)

    def test_fraction_hits_band_bounds_exactly(self):
        a = SceneGraph.from_parts(["e"], [["e", f"v{i}"] for i in range(3)], [])
        b = SceneGraph.from_parts(
            ["e"],
            [["e", f"v{i}"] for i in range(3)] + [["e", f"w{i}"] for i in range(7)],
            [],
        )
        assert Fraction(*_counts(a, b)) == Fraction("0.3")

    def test_thousand_random_pairs_match_oracle(self):
        rng = random.Random(20240817)
        for _ in range(1000):
            a = random_scene_graph(rng)
            b = random_scene_graph(rng)
            assert _counts(a, b) == naive_jaccard_counts(a, b)
            assert jaccard_overlap(a, b) == naive_jaccard(a, b)


@given(scene_graphs(), scene_graphs())
@settings(max_examples=200, deadline=None)
def test_jaccard_matches_naive_oracle(a, b):
    assert _counts(a, b) == naive_jaccard_counts(a, b)


@given(scene_graphs(), scene_graphs())
@settings(max_examples=200, deadline=None)
def test_jaccard_is_symmetric_and_bounded(a, b):
    ab = jaccard_overlap(a, b)
    assert ab == jaccard_overlap(b, a)
    assert 0.0 <= ab <= 1.0


@given(scene_graphs())
@settings(max_examples=200, deadline=None)
def test_self_overlap_is_one(g):
    assert jaccard_overlap(g, g) == 1.0


@given(scene_graphs())
@settings(max_examples=200, deadline=None)
def test_universe_matches_naive_enumeration(g):
    assert len(element_universe(g)) == len(naive_universe(g))


@given(scene_graphs())
@settings(max_examples=200, deadline=None)
def test_serialize_parse_round_trip(g):
    assert parse_scene_graph(serialize_scene_graph(g)) == g


@given(scene_graphs(), st.sampled_from(["red", "blue"]))
@settings(max_examples=100, deadline=None)
def test_adding_an_attribute_never_shrinks_universe(g, value):
    if not g.entities:
        return
    bigger = SceneGraph(g.entities, g.attributes + ((g.entities[0], value),), g.relations)
    assert len(element_universe(bigger)) >= len(element_universe(g))
