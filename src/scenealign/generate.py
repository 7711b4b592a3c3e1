"""Prompt rendering and rationale generation.

Three fixed prompt templates cover scene-graph extraction, positive reasoning
(image and gold answer visible), and negative reasoning (graph and question
only; the negative prompt never carries the answer or an image attachment).
Rationales come from either a deterministic offline template generator or an
HTTP chat endpoint with caching and bounded retries.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path

from .atomic import atomic_open
from .errors import ConfigError, MissingAnswer, RemoteError, is_finite_number
from .rationale import Rationale
from .scene_graph import SceneGraph, serialize_scene_graph

logger = logging.getLogger(__name__)

SCENE_GRAPH_PROMPT_HEADER = """\
You are given an image and its associated question.
Your task is to generate a scene graph in strict JSON format that includes the following three fields:
1. "entity": a list of all objects and concepts relevant to answering the question.
2. "attribute pairs": a list of [object, attribute] pairs describing each entity's key features (e.g., color, size, state).
3. "relationships": a list of [subject, relation, object] triples describing spatial or semantic relationships.

Format Example:
{
  "entity": ["man", "motorcycle", "paper", "ground"],
  "attribute pairs": [
    ["motorcycle", "silver"],
    ["paper", "white"],
    ["ground", "paved"]
  ],
  "relationships": [
    ["man", "look at", "motorcycle"],
    ["man", "crouch on", "ground"],
    ["man", "hold", "paper"],
    ["motorcycle", "stand on", "ground"]
  ]
}

Attention:
1. Only return a valid JSON object with the three required fields.
2. Do not include any explanations or natural language text.
3. Ensure the format strictly matches the example above.
"""

_POSITIVE_HEADER = """\
You are given a scene graph and its associated question and image.
Your task is to provide step-by-step reasoning to answer the question based on the image and scene graph.
Do not mention the data source.
Treat the scene graph elements as the visual scene itself.
"""

_NEGATIVE_HEADER = """\
You are given a scene graph and its associated question.
Your task is to provide step-by-step reasoning to answer the question based on the scene graph.
Do not mention the data source.
Treat the scene graph elements as the visual scene itself.
"""

_FORMAT_EXAMPLE = """\
Format Example:
1. ...
2. ...
3. ...
4. ...
Conclusion: ...
"""

@dataclass(frozen=True)
class Instance:
    """One corpus item: identifier, image reference, question, gold answer."""

    id: str
    image_ref: str
    question: str
    answer: str | None = None


@dataclass(frozen=True)
class GeneratorConfig:
    """Which generator to use and how to reach it."""

    kind: str = "template"  # or "http-chat"
    endpoint: str | None = None
    model: str | None = None
    temperature: float = 0.0
    cache_dir: str | None = None

    def __post_init__(self):
        if self.kind not in ("template", "http-chat"):
            raise ConfigError(f"unknown generator kind {self.kind!r}")
        # a chat request cannot carry a non-finite one as JSON, and a bool is no number
        if not is_finite_number(self.temperature):
            raise ConfigError(f"temperature must be a finite number, not {self.temperature!r}")
        if self.kind == "http-chat":
            from . import transport  # loads the HTTP stack during set-up

            transport.check_endpoint(self.endpoint, "http-chat generator")
        elif any(value is not None for value in (self.endpoint, self.model, self.cache_dir)):
            raise ConfigError("a template generator takes no endpoint, model or cache_dir")


def _require_answer(inst: Instance) -> str:
    if not inst.answer or not inst.answer.strip():
        raise MissingAnswer(f"instance {inst.id!r} has no ground-truth answer")
    return inst.answer.strip()


def render_scene_graph_prompt(inst: Instance) -> str:
    """Prompt asking for the strict three-field JSON scene graph."""
    answer = _require_answer(inst)
    return f"{SCENE_GRAPH_PROMPT_HEADER}\nQuestion: {inst.question}, {answer}\n\nScene Graph:"


def render_positive_cot_prompt(sg_pos: SceneGraph, inst: Instance) -> str:
    """Reasoning prompt with graph, question, and gold answer visible."""
    answer = _require_answer(inst)
    return (
        f"{_POSITIVE_HEADER}\n{_FORMAT_EXAMPLE}\n"
        f"Scene Graph: {serialize_scene_graph(sg_pos)}\n\n"
        f"Question: {inst.question}, {answer}\n\n"
        f"Step-by-step reasoning:"
    )


def render_negative_cot_prompt(sg_neg: SceneGraph, inst: Instance) -> str:
    """Reasoning prompt with graph and question only.

    The gold answer and the image are structurally absent: the template has
    no slot for either.
    """
    return (
        f"{_NEGATIVE_HEADER}\n{_FORMAT_EXAMPLE}\n"
        f"Scene Graph: {serialize_scene_graph(sg_neg)}\n\n"
        f"Question: {inst.question}\n\n"
        f"Step-by-step reasoning:"
    )


# ---------------------------------------------------------------------------
# template generator


def _template_rationale(graph: SceneGraph, answer: str | None) -> Rationale:
    steps = [f"The {s} {p} the {o}." for s, p, o in graph.relations]
    steps += [f"The {e} is {v}." for e, v in graph.attributes]
    if not steps:
        if graph.entities:
            listing = ", ".join(f"the {e}" for e in graph.entities)
            steps = [f"The scene shows {listing}."]
        else:
            steps = ["The scene is empty."]
    conclusion = f"The answer is {answer}." if answer else "The scene is as described."
    return Rationale.from_steps(steps, conclusion)


# ---------------------------------------------------------------------------
# http chat generator


def _cache_path(cache_dir: str, prompt: str, cfg: GeneratorConfig, attachment: str | None) -> Path:
    import hashlib  # loads OpenSSL; by now requests has loaded it too

    key = hashlib.sha256(
        json.dumps(
            {"prompt": prompt, "model": cfg.model, "temperature": cfg.temperature, "image": attachment},
            sort_keys=True,
            ensure_ascii=False,
        ).encode("utf-8")
    ).hexdigest()
    return Path(cache_dir) / f"{key}.json"


def _chat_request(prompt: str, cfg: GeneratorConfig, attachment: str | None) -> str:
    content: object = prompt
    if attachment is not None:
        content = [
            {"type": "text", "text": prompt},
            {"type": "image_url", "image_url": {"url": attachment}},
        ]
    payload = {
        "model": cfg.model,
        "temperature": cfg.temperature,
        "messages": [{"role": "user", "content": content}],
    }
    from . import transport

    body = transport.post_json(payload, cfg.endpoint, transport.CHAT_TIMEOUT_S)
    try:
        reply = body["choices"][0]["message"]["content"]
    except (KeyError, IndexError, TypeError) as exc:
        raise RemoteError(200, f"unexpected response shape: {exc}") from exc
    if not isinstance(reply, str):
        raise RemoteError(200, f"message content is {type(reply).__name__}, not a string")
    return reply


def _read_cache(path: Path) -> str | None:
    try:
        entry = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return None
    except ValueError:  # torn or not UTF-8
        entry = None
    if isinstance(entry, dict) and isinstance(entry.get("content"), str):
        return entry["content"]
    logger.warning("cache entry %s is not a JSON object with string content; requesting again", path.name)
    return None


def _chat_completion(prompt: str, cfg: GeneratorConfig, attachment: str | None) -> str:
    if not cfg.cache_dir:
        return _chat_request(prompt, cfg, attachment)
    path = _cache_path(cfg.cache_dir, prompt, cfg, attachment)
    content = _read_cache(path)
    if content is None:
        content = _chat_request(prompt, cfg, attachment)
        path.parent.mkdir(parents=True, exist_ok=True)
        with atomic_open(path) as fh:
            fh.write(json.dumps({"content": content}, ensure_ascii=False))
    return content


def generate_rationale(
    prompt: str,
    cfg: GeneratorConfig = GeneratorConfig(),
    attachment: str | None = None,
    *,
    graph: SceneGraph | None = None,
    answer: str | None = None,
    strict: bool = False,
) -> Rationale:
    """Produce a rationale for a reasoning prompt.

    The template generator is pure and offline and never reads ``prompt``: it
    linearizes ``graph`` into one sentence per relation, then per attribute,
    with a conclusion naming ``answer`` when one is given.  The http-chat
    generator posts the prompt (plus optional image attachment) and parses
    the reply, leniently unless ``strict`` is set; it ignores ``graph``
    and ``answer``.
    """
    if cfg.kind == "template":
        if graph is None:
            raise ConfigError("the template generator needs the scene graph")
        return _template_rationale(graph, answer)
    content = _chat_completion(prompt, cfg, attachment)
    return Rationale.parse(content, strict=strict)


def generate_scene_graph_json(inst: Instance, cfg: GeneratorConfig) -> str:
    """Ask the chat endpoint for a scene graph; returns the raw JSON text."""
    if cfg.kind != "http-chat":
        raise ConfigError("scene-graph generation requires an http-chat generator")
    prompt = render_scene_graph_prompt(inst)
    return _chat_completion(prompt, cfg, inst.image_ref or None)  # no image, no attachment
