import hashlib
import json
import logging
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenealign.errors import ConfigError, EditError, NoApplicableOperator
from scenealign.grounding import ResidualPool, residual_pool
from scenealign.perturb import (
    _OPERATORS,
    OPERATOR_TAGS,
    EditTrace,
    PerturbationOp,
    _applicable_tags,
    _attempt_candidate,
    _Draft,
    apply_operator,
    generate_negatives,
    recompose,
)
from scenealign.scene_graph import (
    SceneGraph,
    element_universe,
    encode_scene_graph,
    parse_scene_graph,
    universe_overlap,
)

from .helpers import assert_valid_graph, graph_subset, random_scene_graph

EMPTY_POOL = ResidualPool()


class TestSwap:
    def test_case_swap_exchanges_endpoints(self, case_subgraph):
        out = apply_operator(case_subgraph, EMPTY_POOL, "swap", index=0)[0]
        assert out.relations[0] == ("motorcycle", "look at", "man")
        assert out.relations[1:] == case_subgraph.relations[1:]
        assert out.entities == case_subgraph.entities
        assert out.attributes == case_subgraph.attributes
        assert_valid_graph(out)

    def test_swap_is_an_involution(self):
        rng = random.Random(3)
        for _ in range(200):
            g = random_scene_graph(rng, min_entities=2)
            indices = [
                i
                for i, (s, p, o) in enumerate(g.relations)
                if s != o and (o, p, s) not in g.relations
            ]
            if not indices:
                continue
            i = rng.choice(indices)
            swapped = apply_operator(g, EMPTY_POOL, "swap", index=i)[0]
            assert apply_operator(swapped, EMPTY_POOL, "swap", index=i)[0] == g

    def test_reflexive_relation_raises(self):
        g = SceneGraph.from_parts(["a"], [], [["a", "face", "a"]])
        with pytest.raises(EditError):
            apply_operator(g, EMPTY_POOL, "swap", index=0)

    def test_existing_reverse_raises(self):
        g = SceneGraph.from_parts(["a", "b"], [], [["a", "on", "b"], ["b", "on", "a"]])
        with pytest.raises(EditError):
            apply_operator(g, EMPTY_POOL, "swap", index=0)

    def test_index_out_of_range(self, case_subgraph):
        with pytest.raises(ConfigError):
            apply_operator(case_subgraph, EMPTY_POOL, "swap", index=4)
        with pytest.raises(ConfigError):
            apply_operator(case_subgraph, EMPTY_POOL, "swap", index=-1)


class TestReplace:
    def test_case_entity_replacement_rewrites_all_occurrences(self, case_subgraph, case_pool):
        out = apply_operator(
            case_subgraph,
            case_pool,
            "replace",
            kind="entity",
            index=2,  # "paper"
            replacement="window",
        )[0]
        assert out.entities == ("man", "motorcycle", "window", "ground")
        assert ("window", "white") in out.attributes
        assert ("man", "hold", "window") in out.relations
        assert "paper" not in out.entities
        assert_valid_graph(out)
        # exactly one element of each kind changed
        assert len(set(out.entities) ^ set(case_subgraph.entities)) == 2
        assert len(set(out.attributes) ^ set(case_subgraph.attributes)) == 2
        assert len(set(out.relations) ^ set(case_subgraph.relations)) == 2

    def test_attribute_value_replacement(self, case_subgraph, case_pool):
        out = apply_operator(
            case_subgraph,
            case_pool,
            "replace",
            kind="attribute",
            index=0,  # ("motorcycle", "silver")
            replacement="glass",
        )[0]
        assert out.attributes[0] == ("motorcycle", "glass")
        assert out.entities == case_subgraph.entities
        assert out.relations == case_subgraph.relations

    def test_predicate_replacement(self, case_subgraph, case_pool):
        out = apply_operator(case_subgraph, case_pool, "replace", kind="relation", index=0, replacement="behind")[0]
        assert out.relations[0] == ("man", "behind", "motorcycle")

    def test_sampled_payload_comes_from_pool(self, case_subgraph, case_pool):
        rng = random.Random(11)
        out = apply_operator(case_subgraph, case_pool, "replace", kind="entity", index=2, rng=rng)[0]
        new = (set(out.entities) - set(case_subgraph.entities)).pop()
        assert new in case_pool.entities

    def test_empty_pool_for_kind(self, case_subgraph):
        with pytest.raises(EditError):
            apply_operator(case_subgraph, EMPTY_POOL, "replace", kind="entity", index=0)

    def test_pinned_duplicate_raises(self, case_subgraph, case_pool):
        with pytest.raises(EditError):
            apply_operator(case_subgraph, case_pool, "replace", kind="entity", index=0, replacement="motorcycle")

    def test_resampling_gives_up_when_pool_is_exhausted(self, case_subgraph):
        pool = ResidualPool(entities=("man",))  # only payload collides
        with pytest.raises(EditError):
            apply_operator(case_subgraph, pool, "replace", kind="entity", index=0, rng=random.Random(0))


class TestShorten:
    def test_case_entity_cascade(self, case_subgraph):
        out = apply_operator(case_subgraph, EMPTY_POOL, "shorten", kind="entity", index=0)[0]  # "man"
        assert out.entities == ("motorcycle", "paper", "ground")
        assert out.attributes == case_subgraph.attributes
        assert out.relations == (("motorcycle", "stand on", "ground"),)
        assert len(case_subgraph.relations) - len(out.relations) == 3
        assert_valid_graph(out)

    def test_single_attribute_removal(self, case_subgraph):
        out = apply_operator(case_subgraph, EMPTY_POOL, "shorten", kind="attribute", index=3)[0]
        assert ("ground", "paved") not in out.attributes
        assert out.entities == case_subgraph.entities
        assert_valid_graph(out)

    def test_single_relation_removal(self, case_subgraph):
        out = apply_operator(case_subgraph, EMPTY_POOL, "shorten", kind="relation", index=3)[0]
        assert ("motorcycle", "stand on", "ground") not in out.relations
        assert_valid_graph(out)

    def test_would_empty_entity(self):
        g = SceneGraph.from_parts(["a"], [["a", "red"]], [])
        with pytest.raises(EditError):
            apply_operator(g, EMPTY_POOL, "shorten", kind="entity", index=0)

    @pytest.mark.parametrize(
        "graph,kind",
        [(SceneGraph.from_parts(["a"], [], []), "entity"), (SceneGraph(attributes=(("man", "tall"),)), "attribute")],
        ids=["entity", "attribute"],
    )
    def test_would_empty_sole_element(self, graph, kind):
        with pytest.raises(EditError, match="would empty the graph"):
            apply_operator(graph, EMPTY_POOL, "shorten", kind=kind, index=0)

    def test_shorten_never_dangles(self):
        rng = random.Random(5)
        for _ in range(300):
            g = random_scene_graph(rng, min_entities=2)
            sizes = (("entity", len(g.entities)), ("attribute", len(g.attributes)), ("relation", len(g.relations)))
            kind, index = rng.choice([(kind, i) for kind, n in sizes for i in range(n)])
            try:
                out = apply_operator(g, EMPTY_POOL, "shorten", kind=kind, index=index)[0]
            except EditError:
                continue
            assert_valid_graph(out)
            assert out.element_count < g.element_count


class TestOverthink:
    def test_case_relation_addition_with_closure(self, case_subgraph, case_pool):
        out = apply_operator(case_subgraph, case_pool, "overthink", element=("building", "behind", "motorcycle"))[0]
        assert ("building", "behind", "motorcycle") in out.relations
        assert "building" in out.entities
        assert_valid_graph(out)

    def test_entity_addition(self, case_subgraph, case_pool):
        out = apply_operator(case_subgraph, case_pool, "overthink", element="car")[0]
        assert "car" in out.entities
        assert out.attributes == case_subgraph.attributes

    def test_attribute_addition_with_closure(self, case_subgraph, case_pool):
        out = apply_operator(case_subgraph, case_pool, "overthink", element=("window", "glass"))[0]
        assert ("window", "glass") in out.attributes
        assert "window" in out.entities
        assert_valid_graph(out)

    def test_sampled_addition_grows_graph(self, case_subgraph, case_pool):
        out = apply_operator(case_subgraph, case_pool, "overthink", rng=random.Random(2))[0]
        assert out.element_count > case_subgraph.element_count
        assert_valid_graph(out)

    def test_nothing_addable_raises(self, case_graph):
        with pytest.raises(EditError):
            apply_operator(case_graph, EMPTY_POOL, "overthink", rng=random.Random(0))


class TestRecompose:
    def test_case_swap_negative_overlap(self, case_graph, case_subgraph, case_pool):
        negative = recompose(apply_operator(case_subgraph, case_pool, "swap", index=0)[0], case_pool)
        assert_valid_graph(negative)
        assert universe_overlap(element_universe(negative), element_universe(case_graph)) == (12, 14)

    def test_case_shorten_negative_overlap(self, case_graph, case_subgraph, case_pool):
        negative = recompose(apply_operator(case_subgraph, case_pool, "shorten", kind="entity", index=0)[0], case_pool)
        assert_valid_graph(negative)
        assert universe_overlap(element_universe(negative), element_universe(case_graph)) == (10, 13)

    def test_untouched_subgraph_restores_positive(self, case_graph, case_subgraph, case_pool):
        assert recompose(case_subgraph, case_pool).signature() == case_graph.signature()

    def test_remainder_reference_restores_deleted_entity(self):
        sub = SceneGraph.from_parts(["a", "b"], [], [["a", "on", "b"]])
        pool = ResidualPool(entities=("c",), relations=(("b", "on", "c"),))
        shortened = apply_operator(sub, pool, "shorten", kind="entity", index=1)[0]  # drops "b"
        assert "b" not in shortened.entities
        out = recompose(shortened, pool)
        assert "b" in out.entities
        assert ("b", "on", "c") in out.relations
        assert_valid_graph(out)

    def test_union_duplicates_are_silent(self, case_subgraph, case_pool, caplog):
        edited = apply_operator(case_subgraph, case_pool, "overthink", element="building")[0]
        with caplog.at_level(logging.WARNING):
            recompose(edited, case_pool)
        assert not caplog.records

    def test_accepts_scene_graph_remainder(self, case_subgraph):
        remainder = SceneGraph.from_parts(["extra"], [["extra", "red"]], [])
        out = recompose(case_subgraph, remainder)
        assert "extra" in out.entities
        assert ("extra", "red") in out.attributes


class TestApplyOperator:
    def test_forced_swap(self, case_subgraph, case_pool):
        graph, op = apply_operator(case_subgraph, case_pool, "swap", index=0)
        assert op.tag == "swap"
        assert op.kind == "relation"
        assert graph.relations[0] == ("motorcycle", "look at", "man")

    def test_forced_replace_predicate_flags_kind(self, case_subgraph, case_pool):
        _, op = apply_operator(
            case_subgraph, case_pool, "replace", kind="predicate", index=0, replacement="behind"
        )
        assert op.kind == "predicate"
        assert op.target == ("man", "look at", "motorcycle")
        assert op.payload == ("man", "behind", "motorcycle")

    def test_unknown_tag(self, case_subgraph, case_pool):
        with pytest.raises(ValueError):
            apply_operator(case_subgraph, case_pool, "reverse")

    def test_sampled_operator_is_deterministic(self, case_subgraph, case_pool):
        a = apply_operator(case_subgraph, case_pool, "shorten", rng=random.Random(9))
        b = apply_operator(case_subgraph, case_pool, "shorten", rng=random.Random(9))
        assert a == b

    def test_op_serialization_uses_lists(self, case_subgraph, case_pool):
        _, op = apply_operator(case_subgraph, case_pool, "swap", index=0)
        d = op.to_dict()
        assert d["target"] == ["man", "look at", "motorcycle"]
        assert d["payload"] == ["motorcycle", "look at", "man"]


def _shorten_refs(sg: SceneGraph) -> list[tuple[str, int]]:
    """Every ``(kind, index)`` ``shorten`` may remove, listed: entities, attributes, relations."""
    total = sg.element_count
    refs = []
    for i, name in enumerate(sg.entities):
        cascade = 1 + sum(1 for e, _ in sg.attributes if e == name)
        cascade += sum(1 for s, _, o in sg.relations if name in (s, o))
        if total - cascade >= 1:
            refs.append(("entity", i))
    if total >= 2:
        refs += [("attribute", i) for i in range(len(sg.attributes))]
        refs += [("relation", i) for i in range(len(sg.relations))]
    return refs


def _swap_indices(sg: SceneGraph) -> list[int]:
    return [i for i, (s, p, o) in enumerate(sg.relations) if s != o and (o, p, s) not in sg.relations]


def _listed_applicable_tags(sg: SceneGraph, pool: ResidualPool) -> list[str]:
    """The operators whose choice lists are non-empty, in ``OPERATOR_TAGS`` order."""
    targets = (
        ("entity", sg.entities, pool.entities),
        ("attribute", sg.attributes, pool.attribute_values()),
        ("predicate", sg.relations, pool.predicates()),
    )
    choices = {
        "swap": _swap_indices(sg),
        "replace": [kind for kind, rows, material in targets if rows and material],
        "shorten": _shorten_refs(sg),
        "overthink": [e for e in pool.entities if e not in sg.entities]
        + [a for a in pool.attributes if a not in sg.attributes]
        + [r for r in pool.relations if r not in sg.relations],
    }
    return [tag for tag in OPERATOR_TAGS if choices[tag]]




def _reference_attempt(graph, pool, lo, hi, rng, start_tags):
    """One attempt, step by step: list the applicable operators after each edit, then ``apply_operator``."""
    ops = []
    for step in range(rng.randint(lo, hi)):
        tags = _listed_applicable_tags(graph, pool) if step else start_tags
        if not tags:
            return None
        try:
            graph, op = apply_operator(graph, pool, rng.choice(tags), rng=rng)
        except EditError:
            return None
        ops.append(op)
    return graph, tuple(ops)


def _reference_negatives(sg_pos, sg_c, pool, k, edit_range, seed):
    """``generate_negatives`` as ``(graph, trace)`` pairs, built from :func:`_reference_attempt`."""
    rng = random.Random(seed)
    start_tags = _listed_applicable_tags(sg_c, pool)
    if not start_tags:
        raise NoApplicableOperator("nothing applies")
    seen, out, attempts = {sg_pos.signature()}, [], 0
    while len(out) < k and attempts < k * 32:
        attempts += 1
        result = _reference_attempt(sg_c, pool, *edit_range, rng, start_tags)
        if result is None:
            continue
        edited, ops = result
        recomposed = recompose(edited, pool) if pool.element_count else edited
        if recomposed.signature() not in seen:
            seen.add(recomposed.signature())
            out.append((recomposed, EditTrace(ops, seed)))
    return out


def _start(sg: SceneGraph, pool: ResidualPool) -> tuple[_Draft, list[str]]:
    """The start draft and its applicable operators, prepared as ``generate_negatives`` prepares them."""
    start = _Draft.of(sg)
    return start, _applicable_tags(start, pool)


# a small vocabulary, so pool elements often already sit in the graph
_NAMES = st.sampled_from(["man", "dog", "car", "tree"])
_VALUES = st.sampled_from(["red", "tall", "wet"])
_PREDICATES = st.sampled_from(["on", "near"])


@st.composite
def _graphs(draw) -> SceneGraph:
    entities = draw(st.lists(_NAMES, unique=True, max_size=4))
    if not entities:
        return SceneGraph()
    names = st.sampled_from(entities)
    attrs = draw(st.lists(st.tuples(names, _VALUES), unique=True, max_size=4))
    # endpoints drawn independently, so reflexive relations occur
    rels = draw(st.lists(st.tuples(names, _PREDICATES, names), unique=True, max_size=5))
    if draw(st.booleans()):  # reversed parallel edges
        rels += [(o, p, s) for s, p, o in rels if (o, p, s) not in rels]
    if draw(st.booleans()):  # an entity list the rows do not close over
        entities = entities[: draw(st.integers(0, len(entities)))]
    return SceneGraph(tuple(entities), tuple(attrs), tuple(dict.fromkeys(rels)))


_POOLS = st.one_of(
    st.just(ResidualPool()),
    st.builds(
        ResidualPool,
        st.lists(_NAMES, unique=True, max_size=3).map(tuple),
        st.lists(st.tuples(_NAMES, _VALUES), unique=True, max_size=3).map(tuple),
        st.lists(st.tuples(_NAMES, _PREDICATES, _NAMES), unique=True, max_size=3).map(tuple),
    ),
)


_EDGE_GRAPHS = pytest.mark.parametrize(
    "sg",
    [
        SceneGraph(("man",)),
        SceneGraph(("man",), (("man", "tall"),)),  # the sole entity's cascade empties the graph
        SceneGraph(("man",), (), (("man", "on", "man"),)),
        SceneGraph(("man", "dog"), (), (("man", "on", "dog"), ("dog", "on", "man"))),
        SceneGraph((), (("man", "tall"),)),
        SceneGraph(),
    ],
    ids=["one-entity", "entity-and-attribute", "reflexive", "reversed-parallel", "unclosed", "empty"],
)


def _edge_pools(case_pool: ResidualPool) -> tuple[ResidualPool, ...]:
    return (EMPTY_POOL, case_pool, ResidualPool(entities=("man",)))


class TestApplicableTags:
    @given(_graphs(), _POOLS)
    @settings(max_examples=500, deadline=None)
    def test_same_tags_as_the_choice_lists(self, sg, pool):
        assert _applicable_tags(_Draft.of(sg), pool) == _listed_applicable_tags(sg, pool)

    @_EDGE_GRAPHS
    def test_edge_graphs_with_and_without_a_pool(self, sg, case_pool):
        for pool in _edge_pools(case_pool):
            assert _applicable_tags(_Draft.of(sg), pool) == _listed_applicable_tags(sg, pool)

    @given(_graphs(), _POOLS, st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_the_kept_state_matches_the_graph_after_each_edit(self, sg, pool, seed):
        rng = random.Random(seed)
        draft, tags = _start(sg, pool)
        for _ in range(5):
            graph = draft.graph()
            assert tags == _listed_applicable_tags(graph, pool)
            assert draft.swap_indices() == _swap_indices(graph)
            refs = _shorten_refs(graph)
            kinds = ("entity", "attribute", "relation")
            assert draft.removable_counts() == {kind: sum(ref[0] == kind for ref in refs) for kind in kinds}
            if not tags:
                return
            try:
                _OPERATORS[rng.choice(tags)](draft, pool, rng)
            except EditError:
                return
            tags = _applicable_tags(draft, pool)


class TestShortenDraw:
    """The count-based ``shorten`` draw against ``rng.choice`` over the listed refs."""

    @given(_graphs(), st.integers(0, 2**32 - 1))
    @settings(max_examples=500, deadline=None)
    def test_same_edit_and_rng_state_as_the_listed_draw(self, sg, seed):
        drawn, listed = random.Random(seed), random.Random(seed)
        refs = _shorten_refs(sg)
        if not refs:
            with pytest.raises(NoApplicableOperator):
                apply_operator(sg, EMPTY_POOL, "shorten", rng=drawn)
            return
        kind, index = listed.choice(refs)
        assert apply_operator(sg, EMPTY_POOL, "shorten", rng=drawn) == apply_operator(
            sg, EMPTY_POOL, "shorten", kind=kind, index=index
        )
        assert drawn.getstate() == listed.getstate()

    @given(_graphs(), st.sampled_from(["entity", "attribute", "relation"]), st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_a_kind_narrows_the_draw_to_its_refs(self, sg, kind, seed):
        drawn, listed = random.Random(seed), random.Random(seed)
        refs = [ref for ref in _shorten_refs(sg) if ref[0] == kind]
        if not refs:
            with pytest.raises(NoApplicableOperator):
                apply_operator(sg, EMPTY_POOL, "shorten", kind=kind, rng=drawn)
            return
        graph, op = apply_operator(sg, EMPTY_POOL, "shorten", kind=kind, rng=drawn)
        assert (graph, op) == apply_operator(sg, EMPTY_POOL, "shorten", kind=kind, index=listed.choice(refs)[1])
        assert op.kind == kind
        assert drawn.getstate() == listed.getstate()


class TestTargeting:
    """``apply_operator`` honours every targeting argument it is given."""

    def test_index_without_kind_is_a_config_error(self, case_subgraph, case_pool):
        for tag in ("replace", "shorten"):
            with pytest.raises(ConfigError, match="an index needs a kind"):
                apply_operator(case_subgraph, case_pool, tag, index=1)

    @pytest.mark.parametrize("kind", ["entity", "attribute", "predicate"])
    def test_swap_targets_relations_only(self, case_subgraph, case_pool, kind):
        with pytest.raises(ConfigError):
            apply_operator(case_subgraph, case_pool, "swap", kind=kind, index=0)

    def test_replace_kind_without_a_target_of_that_kind(self, case_pool):
        sg = SceneGraph(("man",))
        with pytest.raises(NoApplicableOperator):
            apply_operator(sg, case_pool, "replace", kind="attribute")

    @pytest.mark.parametrize("kind", ["entity", "attribute", "relation"])
    def test_overthink_kind_narrows_the_draw(self, case_subgraph, case_pool, kind):
        for seed in range(10):
            _, op = apply_operator(case_subgraph, case_pool, "overthink", kind=kind, rng=random.Random(seed))
            assert op.kind == kind

    def test_overthink_takes_no_index_and_a_pinned_element_of_its_kind(self, case_subgraph, case_pool):
        with pytest.raises(ConfigError, match="overthink takes no index"):
            apply_operator(case_subgraph, case_pool, "overthink", kind="entity", index=0)
        with pytest.raises(ConfigError):
            apply_operator(case_subgraph, case_pool, "overthink", kind="entity", element=("window", "glass"))


# pinned payloads, some padded as the parser would trim them, some it would reject
_PADDED = st.one_of(_NAMES, _VALUES, _PREDICATES).flatmap(lambda w: st.sampled_from([w, f" {w}", f"{w} "]))
_PINNED_NAMES = st.one_of(_PADDED, st.sampled_from(["", " ", 5]))
_PINNED_ELEMENTS = st.one_of(
    _PINNED_NAMES,
    st.lists(_PADDED, min_size=2, max_size=3),
    st.sampled_from([[1, 2], ["a", ""], ["a", "b", "c", "d"], []]),
)


class TestPinnedEdits:
    """``apply_operator`` checks what it is given, so the operators only edit."""

    @pytest.mark.parametrize("tag", OPERATOR_TAGS)
    @given(
        _graphs(),
        _POOLS,
        st.sampled_from([None, "entity", "attribute", "relation", "predicate"]),
        st.one_of(st.none(), st.integers(-1, 5)),
        st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_a_returned_graph_parses_back_to_itself(self, tag, sg, pool, kind, index, data):
        sg = SceneGraph.from_parts(sg.entities, sg.attributes, sg.relations, on_dangling="add")  # one the parser accepts
        pinned = {}
        if tag == "replace":
            pinned["replacement"] = data.draw(st.one_of(st.none(), _PINNED_NAMES))
        elif tag == "overthink":
            present = [*sg.entities, *sg.attributes, *sg.relations]
            elements = st.one_of(_PINNED_ELEMENTS, st.sampled_from(present)) if present else _PINNED_ELEMENTS
            pinned["element"] = data.draw(st.one_of(st.none(), elements))
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
        try:
            out, _ = apply_operator(sg, pool, tag, kind=kind, index=index, rng=rng, **pinned)
        except (ConfigError, EditError, NoApplicableOperator):
            return
        assert parse_scene_graph(encode_scene_graph(out)) == out

    @given(_graphs(), _POOLS, st.integers(0, 2**32 - 1))
    @settings(max_examples=400, deadline=None)
    def test_the_sampler_never_hits_an_argument_error(self, sg, pool, seed):
        rng = random.Random(seed)
        draft, tags = _start(sg, pool)
        for _ in range(4):
            if not tags:
                return
            for tag in tags:  # every applicable operator edits or cannot make its edit
                try:
                    assert isinstance(_OPERATORS[tag](draft.copy(), pool, random.Random(seed)), PerturbationOp)
                except EditError:
                    pass
            try:
                _OPERATORS[rng.choice(tags)](draft, pool, rng)
            except EditError:
                return
            tags = _applicable_tags(draft, pool)

    def test_a_pinned_payload_is_trimmed(self, case_subgraph, case_pool):
        out, op = apply_operator(case_subgraph, case_pool, "replace", kind="entity", index=2, replacement=" window ")
        assert op.payload == "window" and "window" in out.entities
        out, op = apply_operator(case_subgraph, case_pool, "overthink", element=[" window", "glass "])
        assert op.payload == ("window", "glass") and ("window", "glass") in out.attributes

    @pytest.mark.parametrize("element", ["man", ("motorcycle", "silver"), ("man", "hold", "paper")])
    def test_adding_an_element_already_there_is_an_edit_error(self, case_subgraph, case_pool, element):
        with pytest.raises(EditError, match="already in the graph"):
            apply_operator(case_subgraph, case_pool, "overthink", element=element)


class TestSamplerAgainstReference:
    """The stateful sampler draws and edits exactly as the step-by-step algorithm does."""

    @staticmethod
    def _attempts_match(sg, pool, edit_range, seed, attempts=16):
        start, start_tags = _start(sg, pool)
        assert start_tags == _listed_applicable_tags(sg, pool)
        if not start_tags:
            return
        kept, reference = random.Random(seed), random.Random(seed)
        for _ in range(attempts):
            got = _attempt_candidate(start, pool, *edit_range, kept, start_tags)
            want = _reference_attempt(sg, pool, *edit_range, reference, start_tags)
            assert (got and (got[0].graph(), got[1])) == want
            assert kept.getstate() == reference.getstate()

    @staticmethod
    def _negatives_match(sg, pool, edit_range, seed):
        positive = recompose(sg, pool)
        try:
            want = _reference_negatives(positive, sg, pool, 4, edit_range, seed)
        except NoApplicableOperator:
            with pytest.raises(NoApplicableOperator):
                generate_negatives(positive, sg, pool, k=4, edit_range=edit_range, seed=seed)
            return
        got = generate_negatives(positive, sg, pool, k=4, edit_range=edit_range, seed=seed)
        assert [(c.graph, c.trace) for c in got] == want

    @given(_graphs(), _POOLS, st.sampled_from([(1, 1), (1, 3), (3, 5)]), st.integers(0, 2**32 - 1))
    @settings(max_examples=400, deadline=None)
    def test_same_attempts_and_rng_state(self, sg, pool, edit_range, seed):
        self._attempts_match(sg, pool, edit_range, seed)

    @given(_graphs(), _POOLS, st.sampled_from([(1, 3), (3, 5)]), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_same_candidates_and_traces(self, sg, pool, edit_range, seed):
        self._negatives_match(sg, pool, edit_range, seed)

    def test_a_rename_into_an_unclosed_row_rebuilds_the_swaps(self):
        # renaming "man" to "car" makes the two relations each other's reverse
        sg = SceneGraph(("man",), (), (("man", "on", "dog"), ("dog", "on", "car")))
        for seed in range(16):
            self._attempts_match(sg, ResidualPool(entities=("car",)), (2, 3), seed)

    @_EDGE_GRAPHS
    def test_edge_graphs_with_and_without_a_pool(self, sg, case_pool, caplog):
        with caplog.at_level(logging.ERROR):
            for pool in _edge_pools(case_pool):
                for seed in range(8):
                    self._attempts_match(sg, pool, (1, 3), seed)
                    self._negatives_match(sg, pool, (1, 3), seed)


def _candidates_digest(edit_range: tuple[int, int]) -> tuple[str, int]:
    """sha256 of every candidate's graph and trace over 300 random instances."""
    rng = random.Random(300)
    digest = hashlib.sha256()
    count = 0
    for _ in range(300):
        parent = random_scene_graph(rng, min_entities=2)
        sub = graph_subset(parent, rng)
        seed = rng.randrange(2**32)
        try:
            candidates = generate_negatives(
                parent, sub, residual_pool(parent, sub), k=8, edit_range=edit_range, seed=seed
            )
        except NoApplicableOperator:
            digest.update(b"none\n")
            continue
        for cand in candidates:
            count += 1
            digest.update(json.dumps([encode_scene_graph(cand.graph), cand.trace.to_dict()]).encode() + b"\n")
        digest.update(b"\n")
    return digest.hexdigest(), count


class TestSamplerPin:
    """Every candidate, selected or not, keeps its bytes: same draws, same edits."""

    @pytest.mark.parametrize(
        "edit_range, sha256, count",
        [
            ((1, 3), "b6b61820b9162e53ad36b62a77e3523fb4786fc3ef01de34695f8c30decab2c3", 2212),
            ((3, 5), "c4b8f33fc49f3f9315c21d4ecf26f3c96c98318aba46c795e9a4a34f89fd504c", 2225),
        ],
        ids=["edits-1-3", "edits-3-5"],
    )
    def test_candidates_keep_their_sha256(self, edit_range, sha256, count, caplog):
        with caplog.at_level(logging.ERROR):  # shortfall warnings are expected here
            assert _candidates_digest(edit_range) == (sha256, count)


class TestGenerateNegatives:
    def test_case_generation_yields_k_distinct_valid_negatives(
        self, case_graph, case_subgraph, case_pool
    ):
        out = generate_negatives(case_graph, case_subgraph, case_pool, k=8, seed=42)
        assert len(out) == 8
        signatures = {c.graph.signature() for c in out}
        assert len(signatures) == 8
        for cand in out:
            assert_valid_graph(cand.graph)
            assert cand.graph.signature() != case_graph.signature()
            assert 1 <= len(cand.trace.ops) <= 3
            assert cand.trace.seed == 42
            assert all(op.tag in OPERATOR_TAGS for op in cand.trace.ops)

    def test_same_seed_reproduces_candidates(self, case_graph, case_subgraph, case_pool):
        a = generate_negatives(case_graph, case_subgraph, case_pool, seed=7)
        b = generate_negatives(case_graph, case_subgraph, case_pool, seed=7)
        assert [c.graph for c in a] == [c.graph for c in b]
        assert [c.trace for c in a] == [c.trace for c in b]

    def test_edit_range_is_respected(self, case_graph, case_subgraph, case_pool):
        out = generate_negatives(case_graph, case_subgraph, case_pool, k=6, edit_range=(2, 2), seed=1)
        assert all(len(c.trace.ops) == 2 for c in out)

    def test_pure_overthink_is_absorbed_and_rejected(self, caplog):
        # overthink is the only applicable operator, and the remainder
        # absorbs every element it adds, so each candidate equals the positive
        sub = SceneGraph.from_parts(["man"], [], [])
        pool = ResidualPool(attributes=(("man", "tall"),))
        positive = recompose(sub, pool)
        with caplog.at_level(logging.WARNING):
            out = generate_negatives(positive, sub, pool, k=4, edit_range=(1, 1), seed=0)
        assert out == []
        assert any("distinct negatives" in rec.message for rec in caplog.records)

    def test_shortfall_emits_fewer_with_warning(self, caplog):
        sub = SceneGraph.from_parts(["a", "b"], [], [["a", "on", "b"]])
        with caplog.at_level(logging.WARNING):
            out = generate_negatives(sub, sub, EMPTY_POOL, k=20, seed=0)
        assert 0 < len(out) < 20
        assert any("distinct negatives" in rec.message for rec in caplog.records)

    def test_nothing_applicable_raises(self):
        sub = SceneGraph.from_parts(["a"], [], [])
        with pytest.raises(NoApplicableOperator):
            generate_negatives(sub, sub, EMPTY_POOL)

    def test_bad_arguments(self, case_graph, case_subgraph, case_pool):
        with pytest.raises(ValueError):
            generate_negatives(case_graph, case_subgraph, case_pool, k=0)
        with pytest.raises(ValueError):
            generate_negatives(case_graph, case_subgraph, case_pool, edit_range=(0, 2))
        with pytest.raises(ValueError):
            generate_negatives(case_graph, case_subgraph, case_pool, edit_range=(3, 1))
        # a bool or a float is no count, and an edit range is a pair of them
        for bad in ({"k": 2.5}, {"k": True}, {"k": "8"}, {"edit_range": (1,)}, {"edit_range": 3},
                    {"edit_range": (1.0, 2)}, {"edit_range": (1, True)}):
            with pytest.raises(ValueError):
                generate_negatives(case_graph, case_subgraph, case_pool, **bad)

    def test_fuzzed_generation_is_always_valid(self):
        rng = random.Random(99)
        produced = 0
        for _ in range(300):
            parent = random_scene_graph(rng, min_entities=2)
            sub = graph_subset(parent, rng)
            if not sub.element_count:
                continue
            pool = residual_pool(parent, sub)
            try:
                out = generate_negatives(parent, sub, pool, k=4, seed=rng.randrange(2**32))
            except NoApplicableOperator:
                continue
            for cand in out:
                assert_valid_graph(cand.graph)
                assert cand.graph.signature() != parent.signature()
                produced += 1
        assert produced > 100


def test_trace_serialization_round_trip_shape():
    op = PerturbationOp("shorten", "entity", "man", None)
    d = EditTrace((op,), 5).to_dict()
    assert d == {"seed": 5, "ops": [{"tag": "shorten", "kind": "entity", "target": "man", "payload": None}]}
