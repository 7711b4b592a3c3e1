"""End-to-end dataset construction and its stage-wise decomposition.

A work item is a dict of the instance's strings and the typed values the
stages add: graphs and candidates.  Each stage returns a new item less the
fields it was the last to read.  The full run chains the stage functions the
CLI subcommands expose, and only the CLI turns items into stage-file lines
(the codec at the end of this module), each line the item its stage
returned, so piping parse -> ground -> perturb -> select -> build reproduces
a full run byte for byte.  Determinism comes from per-instance
seeds derived from the global seed and the instance id, with output order
following corpus order.
"""

from __future__ import annotations

import json
import logging
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace
from functools import partial
from pathlib import Path
from typing import Iterator, Sequence

from .atomic import atomic_open, loads_object, read_lines
from .dpo import PreferenceRecord, build_preference_records, export_jsonl
from .embed import EmbedConfig, embed_texts, stable_hash
from .errors import ConfigError, CorpusError, EmptyMatch, SceneAlignError, is_int
from .generate import (
    GeneratorConfig,
    Instance,
    generate_rationale,
    generate_scene_graph_json,
    render_negative_cot_prompt,
    render_positive_cot_prompt,
)
from .grounding import extract_grounded_subgraph, residual_pool
from .perturb import EditTrace, NegativeCandidate, generate_negatives, is_edit_range
from .rationale import Rationale
from .scene_graph import SceneGraph, encode_scene_graph, parse_scene_graph
from .selection import SelectionConfig, filter_with_shortfall, forced_choice, select_diverse

logger = logging.getLogger(__name__)


@dataclass
class PipelineConfig:
    """Everything a full run needs; stage subcommands use the same object."""

    input_path: str
    output_path: str
    graphs_path: str | None = None
    report_path: str | None = None
    seed: int = 0
    candidates: int = 8
    edit_range: tuple[int, int] = (1, 3)
    selection: SelectionConfig = field(default_factory=SelectionConfig)
    generator: GeneratorConfig = field(default_factory=GeneratorConfig)
    embed: EmbedConfig = field(default_factory=EmbedConfig)
    workers: int = 0  # 0 means one per logical CPU
    strict: bool = False

    @property
    def report_file(self) -> str:
        return self.report_path or f"{self.output_path}.report.json"

    def validate(self) -> None:
        paths = [self.input_path, self.output_path, self.report_file]
        if self.graphs_path:
            paths.append(self.graphs_path)
        resolved = [Path(p).resolve() for p in paths]
        if len(set(resolved)) != len(resolved):
            raise ConfigError("input, output, graphs, and report paths must be distinct")
        # the seed is hashed as its text, so True or 0.0 would seed another run than 1 or 0
        if not is_int(self.seed):
            raise ConfigError(f"seed must be an integer, got {self.seed!r}")
        if not is_int(self.candidates, 1):
            raise ConfigError(f"candidates must be an integer of at least 1, got {self.candidates!r}")
        if not is_edit_range(self.edit_range):
            raise ConfigError(f"invalid edit range {self.edit_range!r}")
        if not is_int(self.workers, 0):
            raise ConfigError(f"workers must be a non-negative integer, got {self.workers!r}")


def instance_seed(global_seed: int, instance_id: str) -> int:
    """Stable 64-bit per-instance seed; independent of corpus order."""
    return stable_hash(f"{global_seed}:{instance_id}")


# ---------------------------------------------------------------------------
# corpus loading (the parse stage)


def _line_id(obj: dict) -> str:
    """A corpus or graphs-file line's id, stripped: a non-empty string or a non-bool integer."""
    if "id" not in obj:
        raise CorpusError(None, "missing 'id'")
    ident = obj["id"]
    if is_int(ident):
        ident = str(ident)
    if not isinstance(ident, str) or not ident.strip():
        raise CorpusError(None, "'id' must be a non-empty string or an integer")
    return ident.strip()


def _normalize_line(obj: dict) -> dict:
    ident = _line_id(obj)
    question = obj.get("question")
    if not isinstance(question, str) or not question.strip():
        raise CorpusError(None, "missing or empty 'question'")
    image = "" if obj.get("image") is None else obj["image"]
    if not isinstance(image, str):
        raise CorpusError(None, "'image' must be a string")
    answer = obj.get("answer")
    if answer is not None and not isinstance(answer, str):
        raise CorpusError(None, "'answer' must be a string")
    return {"id": ident, "image": image, "question": question, "answer": answer}


def _instance_from_obj(obj: dict) -> Instance:
    """The instance a corpus line or work item holds; its fields pass the corpus line rules or raise CorpusError."""
    norm = _normalize_line(obj)
    return Instance(norm["id"], norm["image"], norm["question"], norm["answer"])


def _read_sidecar_graphs(path: str, strict: bool) -> dict[str, object]:
    """Graphs by instance id, each from its id's first line with one; a bad line is skipped unless ``strict``."""
    graphs: dict[str, object] = {}
    for line_no, line in read_lines(path, "graphs file"):
        try:
            obj = loads_object(line)
            ident = _line_id(obj)
            if ident in graphs:
                raise CorpusError(None, f"duplicate id {ident!r}")
            if obj.get("scene_graph") is None:  # a null graph is no graph, and claims no id
                raise CorpusError(None, "missing or null 'scene_graph'")
            graphs[ident] = obj["scene_graph"]
        except CorpusError as exc:
            if strict:
                raise CorpusError(None, f"graphs file line {line_no}: {exc.reason}") from exc
            logger.warning("graphs file line %d skipped: %s", line_no, exc.reason)
    return graphs


def _workers(cfg: PipelineConfig) -> int:
    return cfg.workers or os.cpu_count() or 1


def _map_in_flight(fn, items: Sequence, in_flight: int) -> Iterator:
    """``fn`` of each item, yielded in order; up to ``in_flight`` calls run at once, on a thread pool.

    With one call in flight, each runs on the calling thread as its result is asked for.
    """
    if in_flight <= 1 or len(items) <= 1:
        yield from map(fn, items)
        return
    with ThreadPoolExecutor(max_workers=in_flight) as pool:
        yield from pool.map(fn, items)


def _read_line(line: str, kept: dict, sidecar: dict, cfg: PipelineConfig) -> dict:
    """A corpus line's normalized item, its inline or sidecar graph parsed (``None`` while it must be asked for).

    A line that is no well-formed instance, or whose id ``kept`` already holds, raises CorpusError.
    """
    obj = loads_object(line)
    item = _normalize_line(obj)
    if item["id"] in kept:  # before the graph, so a repeat is a duplicate whatever its graph holds
        raise CorpusError(None, f"duplicate id {item['id']!r}")
    graph = obj.get("scene_graph")
    if graph is None:
        graph = sidecar.get(item["id"])
    if graph is not None:
        try:
            graph = parse_scene_graph(graph)
        except SceneAlignError as exc:
            raise CorpusError(None, f"bad scene graph: {exc}") from exc
    elif cfg.generator.kind != "http-chat":
        raise CorpusError(None, "no scene graph available and no endpoint configured")
    item["scene_graph"] = graph
    return item


def _ask_graph(item: dict, cfg: PipelineConfig) -> str | None:
    """Ask the chat endpoint for the item's graph and set it; why the line drops if the reply fails."""
    try:
        reply = generate_scene_graph_json(_instance_from_obj(item), cfg.generator)
        item["scene_graph"] = parse_scene_graph(reply, on_dangling="add")
    except SceneAlignError as exc:
        return f"bad scene graph: {exc}"
    return None


def stage_parse(cfg: PipelineConfig) -> tuple[list[dict], list[dict]]:
    """Load and normalize the corpus; resolve a scene graph for every item.

    Returns (work items, diagnostics for dropped lines).  In strict mode the
    first bad line raises :class:`CorpusError`; otherwise bad lines are
    reported and skipped so adversarial corpora cannot abort a run.  An id's
    first well-formed line is its instance, and its later lines drop as
    duplicates.  Lines without a graph then ask the chat endpoint for one, up
    to ``workers`` at a time, and a failed reply drops only its own line; a
    line dropped before it would ask sends no request.
    """
    corpus = read_lines(cfg.input_path, "corpus")
    sidecar = _read_sidecar_graphs(cfg.graphs_path, cfg.strict) if cfg.graphs_path else {}
    items: list[dict] = []
    drops: list[dict] = []
    kept: dict[str, int] = {}  # each kept item's line, by id
    for line_no, raw_line in corpus:
        try:
            item = _read_line(raw_line, kept, sidecar, cfg)
        except CorpusError as exc:
            drops.append({"line": line_no, "reason": exc.reason})
            if cfg.strict:
                break  # the parse fails at this line or at an earlier one
            continue
        kept[item["id"]] = line_no
        items.append(item)
    asking = [item for item in items if item["scene_graph"] is None]
    # a list, so the pool is shut down here and not by whichever thread collects a raised traceback's frame
    replies = list(_map_in_flight(partial(_ask_graph, cfg=cfg), asking, _workers(cfg)))
    failed = [{"line": kept[item["id"]], "reason": reason} for item, reason in zip(asking, replies) if reason]
    items = [item for item in items if item["scene_graph"] is not None]
    drops = sorted(drops + failed, key=lambda drop: drop["line"])
    if cfg.strict and drops:
        raise CorpusError(drops[0]["line"], drops[0]["reason"])
    for drop in drops:
        logger.warning("corpus line %d skipped: %s", drop["line"], drop["reason"])
    return items, drops


# ---------------------------------------------------------------------------
# per-instance stages


def stage_ground(item: dict, cfg: PipelineConfig) -> dict:
    """Generate the positive rationale and find the subgraph it grounds."""
    inst = _instance_from_obj(item)
    sg_pos = item["scene_graph"]
    prompt = render_positive_cot_prompt(sg_pos, inst)  # raises MissingAnswer without an answer
    tau_pos = generate_rationale(
        prompt, cfg.generator, inst.image_ref or None, graph=sg_pos, answer=inst.answer.strip(), strict=cfg.strict
    )
    try:
        grounded = extract_grounded_subgraph(sg_pos, tau_pos)
    except EmptyMatch:
        logger.warning("instance %r: rationale matched nothing; grounding to the full graph", inst.id)
        grounded = sg_pos
    out = dict(item)
    out["positive_rationale"] = tau_pos.raw_text
    out["grounded"] = grounded
    return out


def stage_perturb(item: dict, cfg: PipelineConfig) -> dict:
    """Sample negative candidates with the instance-specific seed, in place of the grounded graph.

    The residual pool is the graph less the grounded subgraph; a grounded
    element the graph lacks raises :class:`NotASubgraph`.
    """
    seed = instance_seed(cfg.seed, item["id"])
    pool = residual_pool(item["scene_graph"], item["grounded"])
    out = dict(item)
    del out["grounded"]  # no later stage reads it
    out["candidates"] = generate_negatives(
        item["scene_graph"], item["grounded"], pool, k=cfg.candidates, edit_range=cfg.edit_range, seed=seed
    )
    return out


def _fill_rationales(
    candidates: Sequence[NegativeCandidate], inst: Instance, cfg: PipelineConfig
) -> list[NegativeCandidate]:
    """Copies of the candidates whose rationale came back, each holding it; a failure drops only its candidate.

    A chat endpoint gets the prompts together, one thread per candidate, so
    a run has at most ``workers`` times ``candidates`` requests in flight.
    The failures are logged here, in candidate order, once all have returned.
    """
    # negative prompts carry neither the gold answer nor an image attachment
    prompts = [render_negative_cot_prompt(cand.graph, inst) for cand in candidates]

    def rationale(cand: NegativeCandidate, prompt: str) -> Rationale | SceneAlignError:
        try:
            return generate_rationale(prompt, cfg.generator, graph=cand.graph, strict=cfg.strict)
        except SceneAlignError as exc:
            return exc

    in_flight = len(candidates) if cfg.generator.kind == "http-chat" else 1
    results = list(_map_in_flight(lambda pair: rationale(*pair), list(zip(candidates, prompts)), in_flight))
    kept = []
    for cand, result in zip(candidates, results):
        if isinstance(result, SceneAlignError):
            logger.warning("instance %r: negative rationale failed (%s); candidate dropped", inst.id, result)
            continue
        kept.append(replace(cand, rationale=result))
    return kept


def stage_select(item: dict, cfg: PipelineConfig) -> dict:
    """Band-filter candidates, generate their rationales, pick a diverse subset in their place."""
    inst = _instance_from_obj(item)
    candidates = item["candidates"]

    kept_idx, used_cfg, relax_steps = filter_with_shortfall(candidates, item["scene_graph"], cfg.selection)
    m = cfg.selection.m
    if len(kept_idx) < m:
        logger.info("instance %r: shortfall: %d candidate(s) inside the band, wanted %d", inst.id, len(kept_idx), m)
    in_band = _fill_rationales([candidates[i] for i in kept_idx], inst, cfg)

    # the rationales are embedded only when their distances decide the choice
    chosen = forced_choice(len(in_band), m)
    if chosen is None:
        chosen = select_diverse(embed_texts([c.rationale.raw_text for c in in_band], cfg.embed), m)
    selected = [in_band[i] for i in chosen]

    out = dict(item)
    del out["candidates"]  # no later stage reads them
    out["selected"] = selected
    out["counts"] = {
        "candidates": len(candidates),
        "filtered": len(in_band),
        "selected": len(selected),
    }
    out["band"] = {
        "gamma_lower": used_cfg.gamma_lower,
        "gamma_upper": used_cfg.gamma_upper,
        "relax_steps": relax_steps,
    }
    return out


def stage_build(item: dict) -> list[PreferenceRecord]:
    """Turn one selected work item into preference records."""
    inst = _instance_from_obj(item)
    tau_pos = Rationale.parse(item["positive_rationale"])
    return build_preference_records(inst, item["scene_graph"], tau_pos, item["selected"])


# ---------------------------------------------------------------------------
# full run


@dataclass
class RunReport:
    instances_total: int = 0
    instances_processed: int = 0
    records_written: int = 0
    stage_counts: dict = field(default_factory=dict)
    drops: dict = field(default_factory=dict)
    line_drops: list = field(default_factory=list)
    relaxed_instances: int = 0
    shortfall_instances: int = 0
    duration_seconds: float = 0.0
    instances: list = field(default_factory=list)

    def to_dict(self) -> dict:
        # the fields already hold plain JSON values, so they are shared, not deep-copied as by asdict
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def save(self, path: str) -> None:
        with atomic_open(path) as fh:
            fh.write(json.dumps(self.to_dict(), indent=2) + "\n")


def _process_item(item: dict, cfg: PipelineConfig) -> tuple[list[PreferenceRecord], dict]:
    """The instance's records and its report summary: its counts, or the error that dropped it."""
    try:
        selected = stage_select(stage_perturb(stage_ground(item, cfg), cfg), cfg)
        records = stage_build(selected)
    except SceneAlignError as exc:
        logger.warning("instance %r dropped: %s", item["id"], exc)
        return [], {"id": item["id"], "drop": type(exc).__name__}
    summary = {"id": item["id"], **selected["counts"], "records": len(records)}
    if selected["band"]["relax_steps"]:
        summary["relax_steps"] = selected["band"]["relax_steps"]
    return records, summary


def run_pipeline(cfg: PipelineConfig) -> RunReport:
    """Run every stage over the corpus and write the dataset plus a report.

    Each instance's records are written as it completes, so past the parse
    step the run holds no whole dataset; the report is written at the end.

    With the template generator and the hashed embedding, every instance is
    processed on the calling thread: the work is all Python, and threads
    would only take turns at the interpreter lock.  When a provider is
    remote, up to ``workers`` instances are in flight at once, so their
    requests overlap; with a chat endpoint each instance also sends its
    in-band negatives' requests together, so at most ``workers`` times
    ``candidates`` requests are in flight, and the log lines of different
    instances may interleave.  Output order and all sampling depend only on
    the corpus content and the seed, never on scheduling.
    """
    cfg.validate()
    started = time.monotonic()
    items, line_drops = stage_parse(cfg)

    in_process = cfg.generator.kind == "template" and cfg.embed.provider == "hashed-ngram"
    outcomes = _map_in_flight(partial(_process_item, cfg=cfg), items, 1 if in_process else _workers(cfg))

    report = RunReport(instances_total=len(items) + len(line_drops), line_drops=line_drops)
    if line_drops:
        report.drops["corpus_line"] = len(line_drops)
    report.stage_counts = totals = {"candidates": 0, "filtered": 0, "selected": 0, "records": 0}

    def records() -> Iterator[PreferenceRecord]:
        """Each instance's records, in corpus order, counted into the report as they pass."""
        for item_records, summary in outcomes:
            if "drop" in summary:
                report.drops[summary["drop"]] = report.drops.get(summary["drop"], 0) + 1
            else:
                report.instances_processed += 1
                for key in totals:
                    totals[key] += summary[key]
                report.relaxed_instances += "relax_steps" in summary
                report.shortfall_instances += summary["records"] < cfg.selection.m
            report.instances.append(summary)
            yield from item_records

    report.records_written = export_jsonl(records(), cfg.output_path)
    report.duration_seconds = time.monotonic() - started
    report.save(cfg.report_file)
    return report


# ---------------------------------------------------------------------------
# the stage-file codec: a JSONL line's object <-> a work item, for the CLI

# the typed fields each per-instance stage reads, by stage name, in chain order
STAGE_FIELDS = {
    "ground": ("scene_graph",),
    "perturb": ("scene_graph", "grounded"),
    "select": ("scene_graph", "candidates"),
    "build": ("scene_graph", "positive_rationale", "selected"),
}


def _candidate_from_obj(obj: dict, decode_graph: bool = True) -> NegativeCandidate:
    graph = parse_scene_graph(obj["graph"]) if decode_graph else obj["graph"]
    cand = NegativeCandidate(graph, EditTrace.from_dict(obj["trace"]), obj.get("jaccard"))
    if "rationale" in obj:
        cand.rationale = Rationale.parse(obj["rationale"])
    return cand


_DECODERS = {
    "scene_graph": parse_scene_graph,
    "grounded": parse_scene_graph,
    # stays text for stage_build to parse; a non-string or blank value raises
    "positive_rationale": lambda text: text if text.strip() else Rationale.parse(text),
    "candidates": lambda objs: [_candidate_from_obj(obj) for obj in objs],
    # stage_build reads a selected candidate's trace, jaccard and rationale;
    # its graph stays JSON
    "selected": lambda objs: [_candidate_from_obj(obj, decode_graph=False) for obj in objs],
}


def decode_item(obj: dict, fields: Sequence[str]) -> dict:
    """A stage-file object as a work item with its id checked as a corpus id and ``fields`` decoded; others stay JSON.

    A bad id, a missing field, or a field a decoder rejects is a CorpusError.
    """
    item = dict(obj, id=_line_id(obj))
    for key in fields:
        if key not in obj:
            raise CorpusError(None, f"instance {item['id']!r} has no {key!r} key")
        try:
            item[key] = _DECODERS[key](obj[key])
        except (AttributeError, IndexError, KeyError, TypeError, ValueError, SceneAlignError) as exc:
            raise CorpusError(None, f"instance {item['id']!r}: malformed {key!r}: {exc}") from exc
    return item


def _encode(value):
    """``json.dumps`` hook for a work item's typed values."""
    if isinstance(value, NegativeCandidate):
        out = {"graph": value.graph, "trace": value.trace.to_dict()}
        if value.rationale is not None:
            out["jaccard"] = value.jaccard
            out["rationale"] = value.rationale.raw_text
        return out
    if isinstance(value, SceneGraph):
        return encode_scene_graph(value)
    raise TypeError(f"a work item holds no {type(value).__name__}")


def encode_item(item: dict) -> str:
    """The stage-file line holding ``item``, as its stage returned it."""
    return json.dumps(item, ensure_ascii=False, default=_encode)
