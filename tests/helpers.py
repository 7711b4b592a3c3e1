"""Test-local oracles and random data generators.

Everything here is deliberately written with the dumbest possible algorithm
(nested loops, exhaustive enumeration) and without importing the module under
test's internals, so the package implementations are checked against
independent arithmetic rather than against themselves.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Callable, Sequence

import numpy as np
from hypothesis import strategies as st

from scenealign.dpo import DpoConfig, LogProbProvider, PreferenceRecord, ToyPolicy, dpo_loss
from scenealign.scene_graph import SceneGraph

GOLDEN = Path(__file__).parent / "golden"


def _golden(name: str) -> str:
    """Text of a golden file under ``tests/golden``."""
    return (GOLDEN / name).read_text(encoding="utf-8")

NOUNS = [
    "man", "woman", "child", "dog", "cat", "bird", "tree", "bench", "car",
    "truck", "bicycle", "motorcycle", "road", "ground", "sky", "cloud",
    "building", "window", "door", "roof", "sign", "lamp", "table", "chair",
    "cup", "plate", "bottle", "bag", "hat", "coat", "shoe", "ball", "kite",
    "boat", "river", "bridge", "fence", "grass", "flower", "rock", "hill",
    "horse", "cow", "sheep", "bus", "train", "plane", "phone", "book", "paper",
]

ADJECTIVES = [
    "red", "blue", "green", "yellow", "white", "black", "silver", "brown",
    "small", "large", "tall", "short", "old", "new", "wet", "dry", "open",
    "closed", "parked", "moving", "bright", "dark", "round", "flat", "paved",
    "wooden", "metal", "glass", "striped", "plain",
]

PREDICATES = [
    "on", "under", "behind", "near", "next to", "hold", "look at", "stand on",
    "sit on", "lean on", "ride", "carry", "face", "touch", "cover", "follow",
    "pull", "push", "watch", "wear",
]


def random_scene_graph(
    rng: random.Random,
    *,
    max_entities: int = 7,
    min_entities: int = 1,
    allow_reflexive: bool = False,
) -> SceneGraph:
    """A small well-formed graph with distinct elements and no dangling names."""
    n = rng.randint(min_entities, max_entities)
    entities = rng.sample(NOUNS, n)
    attributes: list[tuple[str, str]] = []
    for _ in range(rng.randint(0, 2 * n)):
        pair = (rng.choice(entities), rng.choice(ADJECTIVES))
        if pair not in attributes:
            attributes.append(pair)
    relations: list[tuple[str, str, str]] = []
    if n >= 2 or allow_reflexive:
        for _ in range(rng.randint(0, 2 * n)):
            s = rng.choice(entities)
            o = rng.choice(entities)
            if s == o and not allow_reflexive:
                continue
            triple = (s, rng.choice(PREDICATES), o)
            if triple not in relations:
                relations.append(triple)
    return SceneGraph.from_parts(entities, attributes, relations)


def naive_universe(graph: SceneGraph) -> list[tuple]:
    """First-occurrence list of attribute pairs and endpoint pairs."""
    items: list[tuple] = []
    for entity, value in graph.attributes:
        item = ("attr", entity, value)
        if item not in items:
            items.append(item)
    for subject, _pred, obj in graph.relations:
        item = ("pair", subject, obj)
        if item not in items:
            items.append(item)
    return items


def naive_jaccard_counts(a: SceneGraph, b: SceneGraph) -> tuple[int, int]:
    """(intersection, union) of the two universes; both empty counts as (1, 1), J = 1."""
    ua = naive_universe(a)
    ub = naive_universe(b)
    inter = sum(1 for item in ua if item in ub)
    union = len(ua) + sum(1 for item in ub if item not in ua)
    if union == 0:
        return 1, 1
    return inter, union


def naive_jaccard(a: SceneGraph, b: SceneGraph) -> float:
    inter, union = naive_jaccard_counts(a, b)
    return inter / union


def assert_valid_graph(graph: SceneGraph) -> None:
    """Fail unless ``graph`` keeps the parser's invariants.

    Every name is a non-blank string with no surrounding whitespace, rows
    have the right arity, no element repeats, and every entity an attribute
    or relation names is listed.  Checked element by element, without the
    package's cleaning code, so a fault there cannot hide itself.
    """
    kinds = (
        ("entity", [(name,) for name in graph.entities], 1),
        ("attribute", list(graph.attributes), 2),
        ("relation", list(graph.relations), 3),
    )
    for kind, rows, arity in kinds:
        for i, row in enumerate(rows):
            assert isinstance(row, tuple) and len(row) == arity, f"{kind} {row!r} is not {arity} strings"
            for name in row:
                assert isinstance(name, str) and name and name == name.strip(), f"{kind} {row!r}: bad name {name!r}"
            assert row not in rows[:i], f"duplicate {kind} {row!r}"
    for entity, _value in graph.attributes:
        assert entity in graph.entities, f"attribute names dangling entity {entity!r}"
    for subject, _pred, obj in graph.relations:
        for entity in (subject, obj):
            assert entity in graph.entities, f"relation names dangling entity {entity!r}"


def naive_distance_matrix(vectors: Sequence[Sequence[float]]) -> list[list[float]]:
    n = len(vectors)
    out = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[i][j] = math.dist(vectors[i], vectors[j])
    return out


def brute_force_max_min(matrix: Sequence[Sequence[float]], m: int) -> tuple[int, ...]:
    """Exhaustive p-dispersion: best subset, first-in-lexicographic-order ties."""
    n = len(matrix)
    best: tuple[int, ...] | None = None
    best_score = -1.0
    for combo in itertools.combinations(range(n), m):
        score = min(matrix[i][j] for i, j in itertools.combinations(combo, 2))
        if score > best_score:
            best_score = score
            best = combo
    assert best is not None
    return best


def finite_difference_gradient(
    policy: ToyPolicy,
    records: Sequence[PreferenceRecord],
    reference: LogProbProvider,
    cfg: DpoConfig = DpoConfig(),
    h: float = 1e-5,
) -> np.ndarray:
    """Central-difference gradient of the mean loss in ``policy``'s weights, the oracle for ``toy_policy_gradient``."""
    base = np.array(policy.weights, dtype=np.float64)
    grad = np.zeros_like(base)
    for i in range(base.shape[0]):
        for sign in (1.0, -1.0):
            shifted = base.copy()
            shifted[i] += sign * h
            loss, _ = dpo_loss(records, ToyPolicy(policy.vocabulary, shifted), reference, cfg)
            grad[i] += sign * loss
        grad[i] /= 2.0 * h
    return grad


def random_unit_vectors(rng: random.Random, n: int, dim: int) -> list[list[float]]:
    vectors = []
    for _ in range(n):
        raw = [rng.gauss(0.0, 1.0) for _ in range(dim)]
        norm = math.sqrt(sum(x * x for x in raw)) or 1.0
        vectors.append([x / norm for x in raw])
    return vectors


def graph_subset(graph: SceneGraph, rng: random.Random) -> SceneGraph:
    """A random entity-closed subset of ``graph`` (possibly empty)."""
    kept = [e for e in graph.entities if rng.random() < 0.6]
    kept_set = set(kept)
    attributes = [
        (e, v)
        for e, v in graph.attributes
        if e in kept_set and rng.random() < 0.8
    ]
    relations = [
        (s, p, o)
        for s, p, o in graph.relations
        if s in kept_set and o in kept_set and rng.random() < 0.8
    ]
    return SceneGraph(tuple(kept), tuple(attributes), tuple(relations))


class MockApi:
    """In-process HTTP endpoint for exercising remote providers offline.

    ``handler`` is called with the parsed JSON payload and must return
    ``(status, body)``: ``bytes`` are sent as they are, anything else as
    JSON.  Every request is recorded for inspection.
    """

    def __init__(self):
        self.requests: list[dict] = []
        self.handler: Callable[[dict], tuple[int, object]] = lambda payload: (200, {})
        outer = self

        class _Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers.get("Content-Length", "0"))
                payload = json.loads(self.rfile.read(length) or b"{}")
                outer.requests.append(
                    {
                        "path": self.path,
                        "payload": payload,
                        "headers": dict(self.headers),
                    }
                )
                status, body = outer.handler(payload)
                data = body if isinstance(body, bytes) else json.dumps(body).encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                try:
                    self.end_headers()
                    self.wfile.write(data)
                except (BrokenPipeError, ConnectionResetError):
                    # The client gave up first (e.g. its timeout fired while a
                    # slow handler slept); a real server drops the reply too.
                    self.close_connection = True

            def log_message(self, *args):
                pass

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
        self.server.daemon_threads = True
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.server.server_port}"

    def close(self):
        self.server.shutdown()
        self.server.server_close()


class MockProviders:
    """Chat and embedding replies for ``MockApi`` that depend only on the request.

    A scene-graph request gets the graph held for its image; a reasoning
    prompt gets one step per relation and attribute at an even position of
    the graph it shows, so grounding leaves a residual pool.  Requests that
    are in flight at once are counted.
    """

    def __init__(self, graphs_by_image=None, delay=0.0):
        self.graphs_by_image = graphs_by_image or {}
        self.delay = delay
        self.lock = threading.Lock()
        self.in_flight = 0
        self.most_in_flight = 0

    def __call__(self, payload):
        with self.lock:
            self.in_flight += 1
            self.most_in_flight = max(self.most_in_flight, self.in_flight)
        try:
            time.sleep(self.delay)
            return 200, self._reply(payload)
        finally:
            with self.lock:
                self.in_flight -= 1

    def _reply(self, payload):
        if "input" in payload:
            return {"data": [{"embedding": _text_vector(text)} for text in payload["input"]]}
        content = payload["messages"][0]["content"]
        prompt = content if isinstance(content, str) else content[0]["text"]
        shown = prompt.rsplit("Scene Graph:", 1)[1].split("\n\n", 1)[0].strip()
        if not shown:
            text = json.dumps(self.graphs_by_image.get(content[1]["image_url"]["url"], "no graph"))
        else:
            graph = json.loads(shown)
            steps = [f"The {s} {p} the {o}." for s, p, o in graph["relationships"][::2]]
            steps += [f"The {e} is {v}." for e, v in graph["attribute pairs"][::2]] or ["The scene is plain."]
            text = "\n".join(f"{i}. {step}" for i, step in enumerate(steps, start=1)) + "\nConclusion: It is so."
        return {"choices": [{"message": {"content": text}}]}


def _text_vector(text: str) -> list[float]:
    return [byte / 255.0 for byte in hashlib.sha256(text.encode("utf-8")).digest()[:8]]


def graph_less(lines: list[dict]) -> tuple[list[dict], dict]:
    """The lines without their graphs, and the graphs by image."""
    graphs = {line["image"]: line["scene_graph"] for line in lines}
    return [{k: v for k, v in line.items() if k != "scene_graph"} for line in lines], graphs


@st.composite
def scene_graphs(draw, min_entities: int = 0, max_entities: int = 6) -> SceneGraph:
    entities = draw(
        st.lists(st.sampled_from(NOUNS), min_size=min_entities, max_size=max_entities, unique=True)
    )
    if not entities:
        return SceneGraph()
    entity = st.sampled_from(entities)
    attributes = draw(
        st.lists(st.tuples(entity, st.sampled_from(ADJECTIVES)), max_size=8, unique=True)
    )
    relations = draw(
        st.lists(st.tuples(entity, st.sampled_from(PREDICATES), entity), max_size=8, unique=True)
    )
    return SceneGraph.from_parts(entities, attributes, relations)


def synthetic_corpus_lines(count: int, rng: random.Random) -> list[dict]:
    """JSONL-ready instances with inline graphs, questions and answers."""
    lines = []
    for i in range(count):
        graph = random_scene_graph(rng, min_entities=3, max_entities=7)
        while not graph.relations or not graph.attributes:
            graph = random_scene_graph(rng, min_entities=3, max_entities=7)
        focus = rng.choice(graph.entities)
        lines.append(
            {
                "id": f"inst-{i:04d}",
                "image": f"images/{i:04d}.jpg",
                "question": f"What is happening around the {focus} in this picture?",
                "answer": rng.choice(ADJECTIVES),
                "scene_graph": {
                    "entity": list(graph.entities),
                    "attribute pairs": [list(p) for p in graph.attributes],
                    "relationships": [list(r) for r in graph.relations],
                },
            }
        )
    return lines
