"""Seeded corpus recipes and the loopback endpoint's scene graphs.

Nothing here imports ``scenealign``: the corpus, the endpoint's replies and
the correctness checks are all derived from these recipes, apart from the
program under test.

* ``offline_lines`` is the 3-7-entity synthetic corpus recipe the test suite
  uses (``tests/helpers.synthetic_corpus_lines``): the same word lists and the
  same draws, so ``offline_lines(n, seed)`` equals
  ``synthetic_corpus_lines(n, random.Random(seed))``.
* ``remote_lines`` draws the same kind of instances, gives each a question of
  its own, leaves the inline graph out of every fourth line (the endpoint
  then makes it from the image), and adds ``len(SHARED_QA)`` pairs of
  graph-less lines that share a question and an answer but not an image.
  The pairs do not depend on the seed.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

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

# Common VQA questions recur across images; each pair below shares one.
SHARED_QA = [
    ("What color is the largest object in the picture?", "red"),
    ("What is the man holding?", "paper"),
    ("Is it daytime in this scene?", "bright"),
    ("What is on the ground?", "wet"),
]

GRAPH_LESS_EVERY = 4  # every fourth seeded remote line has no inline graph


def _random_graph(rng: random.Random, min_entities: int = 3, max_entities: int = 7) -> dict:
    n = rng.randint(min_entities, max_entities)
    entities = rng.sample(NOUNS, n)
    attributes: list[tuple[str, str]] = []
    for _ in range(rng.randint(0, 2 * n)):
        pair = (rng.choice(entities), rng.choice(ADJECTIVES))
        if pair not in attributes:
            attributes.append(pair)
    relations: list[tuple[str, str, str]] = []
    if n >= 2:
        for _ in range(rng.randint(0, 2 * n)):
            s = rng.choice(entities)
            o = rng.choice(entities)
            if s == o:
                continue
            triple = (s, rng.choice(PREDICATES), o)
            if triple not in relations:
                relations.append(triple)
    return {
        "entity": list(entities),
        "attribute pairs": [list(a) for a in attributes],
        "relationships": [list(r) for r in relations],
    }


def _rich_graph(rng: random.Random) -> dict:
    """A graph with at least one relation and one attribute."""
    graph = _random_graph(rng)
    while not graph["relationships"] or not graph["attribute pairs"]:
        graph = _random_graph(rng)
    return graph


def offline_lines(count: int, seed: int) -> list[dict]:
    rng = random.Random(seed)
    lines = []
    for i in range(count):
        graph = _rich_graph(rng)
        focus = rng.choice(graph["entity"])
        lines.append(
            {
                "id": f"inst-{i:04d}",
                "image": f"images/{i:04d}.jpg",
                "question": f"What is happening around the {focus} in this picture?",
                "answer": rng.choice(ADJECTIVES),
                "scene_graph": graph,
            }
        )
    return lines


def endpoint_graph(image_ref: str) -> dict:
    """The scene graph the loopback endpoint serves for an image."""
    seed = int.from_bytes(hashlib.sha256(image_ref.encode("utf-8")).digest()[:8], "big")
    return _rich_graph(random.Random(seed))


def _shared_pair_lines() -> list[tuple[dict, dict]]:
    pairs = []
    for j, (question, answer) in enumerate(SHARED_QA):
        first, second = (
            {"id": f"shared-{j}-{side}", "image": f"images/shared-{j}-{side}.jpg",
             "question": question, "answer": answer}
            for side in ("a", "b")
        )
        if graph_signature(endpoint_graph(first["image"])) == graph_signature(
            endpoint_graph(second["image"])
        ):
            raise ValueError(f"shared pair {j}: both images map to one graph")
        pairs.append((first, second))
    return pairs


def cache_key_fault_ids() -> frozenset[str]:
    """Lines served another image's cached scene graph: the second of each pair."""
    return frozenset(f"shared-{j}-b" for j in range(len(SHARED_QA)))


def remote_lines(count: int, seed: int) -> list[dict]:
    """``count`` lines in all: seeded lines plus the fixed shared-question pairs.

    The first line of each pair sits in the first half of the corpus and the
    second in the second half, so the two are never in flight together and the
    second always finds the first's cache entries written.
    """
    pairs = _shared_pair_lines()
    if count < 4 * len(pairs):
        raise ValueError(f"remote corpus needs at least {4 * len(pairs)} lines")
    rng = random.Random(seed)
    lines = []
    for i in range(count - 2 * len(pairs)):
        graph = _rich_graph(rng)
        focus = rng.choice(graph["entity"])
        line = {
            "id": f"inst-{i:04d}",
            "image": f"images/{i:04d}.jpg",
            "question": f"What is happening around the {focus} in picture {i}?",
            "answer": rng.choice(ADJECTIVES),
        }
        if i % GRAPH_LESS_EVERY != GRAPH_LESS_EVERY - 1:
            line["scene_graph"] = graph
        lines.append(line)
    half = count // 2
    for j, (first, second) in enumerate(pairs):
        lines.insert(2 * j + 1, first)
        lines.insert(half + 2 * j + 1, second)
    return lines


def instance_graph(line: dict) -> dict:
    """The graph an instance should be processed with: inline or the endpoint's."""
    if "scene_graph" in line:
        return line["scene_graph"]
    return endpoint_graph(line["image"])


def graph_signature(graph: dict) -> tuple[frozenset, frozenset, frozenset]:
    return (
        frozenset(graph["entity"]),
        frozenset(tuple(a) for a in graph["attribute pairs"]),
        frozenset(tuple(r) for r in graph["relationships"]),
    )


def write_jsonl(path: Path, lines: list[dict]) -> None:
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(json.dumps(line, ensure_ascii=False) + "\n")


def read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]
