"""Shared fixtures: the worked motorcycle-inspection example used across tests."""

from __future__ import annotations

import json

import pytest

from scenealign import Instance, Rationale, residual_pool
from scenealign.scene_graph import parse_scene_graph

CASE_GRAPH_OBJ = {
    "entity": ["man", "motorcycle", "ground", "paper", "building", "window", "car"],
    "attribute pairs": [
        ["motorcycle", "silver"],
        ["motorcycle", "parked"],
        ["ground", "paved"],
        ["paper", "white"],
        ["building", "white"],
        ["window", "glass"],
        ["car", "parked"],
    ],
    "relationships": [
        ["man", "look at", "motorcycle"],
        ["man", "crouch on", "ground"],
        ["man", "hold", "paper"],
        ["motorcycle", "stand on", "ground"],
        ["building", "behind", "motorcycle"],
        ["car", "behind", "motorcycle"],
    ],
}

CASE_SUBGRAPH_OBJ = {
    "entity": ["man", "motorcycle", "paper", "ground"],
    "attribute pairs": [
        ["motorcycle", "silver"],
        ["motorcycle", "parked"],
        ["paper", "white"],
        ["ground", "paved"],
    ],
    "relationships": [
        ["man", "look at", "motorcycle"],
        ["man", "crouch on", "ground"],
        ["man", "hold", "paper"],
        ["motorcycle", "stand on", "ground"],
    ],
}

CASE_QUESTION = (
    "What kind of activity with respect to the motorcycle is the man on the floor "
    "most likely engaging in?"
)
CASE_ANSWER = "inspecting"


@pytest.fixture
def case_graph():
    return parse_scene_graph(json.dumps(CASE_GRAPH_OBJ))


@pytest.fixture
def case_subgraph():
    return parse_scene_graph(json.dumps(CASE_SUBGRAPH_OBJ))


@pytest.fixture
def case_pool(case_graph, case_subgraph):
    return residual_pool(case_graph, case_subgraph)


@pytest.fixture
def case_instance():
    return Instance(id="case-1", image_ref="images/0001.jpg", question=CASE_QUESTION, answer=CASE_ANSWER)


@pytest.fixture
def case_corpus_line():
    return {
        "id": "case-1",
        "image": "images/0001.jpg",
        "question": CASE_QUESTION,
        "answer": CASE_ANSWER,
        "scene_graph": CASE_GRAPH_OBJ,
    }


@pytest.fixture
def mock_api(monkeypatch):
    from scenealign import transport

    from .helpers import MockApi

    # retries against the mock need no pause; tests patch the other transport constants
    monkeypatch.setattr(transport, "BACKOFF_BASE_S", 0.0)
    api = MockApi()
    yield api
    api.close()


@pytest.fixture
def case_rationale():
    # paraphrase that names every grounded element literally
    return Rationale.from_steps(
        [
            "The man is crouching on the paved ground next to the silver motorcycle.",
            "The motorcycle is parked and stands on the ground.",
            "The man holds a white paper while he looks at the motorcycle.",
        ],
        "He is most likely inspecting or maintaining the motorcycle.",
    )
