"""End-to-end dataset construction and its stage-wise decomposition.

A work item is a dict of the instance's strings and the typed values the
stages add: graphs (the residual pool among them) and candidates.  Each stage
returns a new item less the fields it was the last to read.  The full run
chains the stage functions the CLI subcommands expose, and only the CLI turns
items into stage-file lines (the codec at the end of this module), each line
the item its stage returned, so piping parse -> ground -> perturb -> select ->
build reproduces a full run byte for byte.  Determinism comes from per-instance
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
from .scene_graph import SceneGraph, encode_scene_graph, parse_pool, parse_scene_graph
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


def _line_id(obj: dict, line_no: int | None) -> str:
    """A corpus or graphs-file line's id, stripped: a non-empty string or a non-bool integer."""
    if "id" not in obj:
        raise CorpusError(line_no, "missing 'id'")
    ident = obj["id"]
    if is_int(ident):
        ident = str(ident)
    if not isinstance(ident, str) or not ident.strip():
        raise CorpusError(line_no, "'id' must be a non-empty string or an integer")
    return ident.strip()


def _normalize_line(obj: dict, line_no: int | None) -> dict:
    ident = _line_id(obj, line_no)
    question = obj.get("question")
    if not isinstance(question, str) or not question.strip():
        raise CorpusError(line_no, "missing or empty 'question'")
    image = "" if obj.get("image") is None else obj["image"]
    if not isinstance(image, str):
        raise CorpusError(line_no, "'image' must be a string")
    answer = obj.get("answer")
    if answer is not None and not isinstance(answer, str):
        raise CorpusError(line_no, "'answer' must be a string")
    return {"id": ident, "image": image, "question": question, "answer": answer}


def _instance_from_obj(obj: dict) -> Instance:
    """The instance a corpus line or work item holds; its fields pass the corpus line rules or raise CorpusError."""
    norm = _normalize_line(obj, None)
    return Instance(norm["id"], norm["image"], norm["question"], norm["answer"])


def _read_sidecar_graphs(path: str, strict: bool) -> dict[str, object]:
    """Graphs by instance id from each id's first line; a malformed or repeated line is skipped unless ``strict``."""
    graphs: dict[str, object] = {}
    for line_no, line in read_lines(path, "graphs file"):
        try:
            obj = loads_object(line)
            ident = _line_id(obj, None)
            if ident in graphs:
                raise CorpusError(None, f"duplicate id {ident!r}")
            graphs[ident] = obj["scene_graph"]
        except (CorpusError, KeyError) as exc:
            reason = exc.reason if isinstance(exc, CorpusError) else f"no {exc} key"
            if strict:
                raise CorpusError(None, f"graphs file line {line_no}: {reason}") from exc
            logger.warning("graphs file line %d skipped: %s", line_no, reason)
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


@dataclass
class _CorpusLine:
    """One non-blank corpus line: its normalized fields, then its graph or its drop reason."""

    line_no: int
    norm: dict | None = None  # the normalized line, None when it is not one
    reason: str | None = None  # why the line is dropped, once that is known
    graph: SceneGraph | None = None

    @property
    def id(self) -> str | None:
        return self.norm["id"] if self.norm is not None else None


def _read_line(line_no: int, line: str, sidecar: dict, cfg: PipelineConfig) -> _CorpusLine:
    """Normalize a line and parse its inline or sidecar graph; a graph-less line is left to ask."""
    try:
        obj = loads_object(line)
        norm = _normalize_line(obj, line_no)
    except CorpusError as exc:
        return _CorpusLine(line_no, reason=exc.reason)
    out = _CorpusLine(line_no, norm)
    graph_value = obj.get("scene_graph")
    if graph_value is None:
        graph_value = sidecar.get(norm["id"])
    if graph_value is not None:
        try:
            out.graph = parse_scene_graph(graph_value)
        except SceneAlignError as exc:
            out.reason = f"bad scene graph: {exc}"
    elif cfg.generator.kind != "http-chat":
        out.reason = "no scene graph available and no endpoint configured"
    return out


def _resolve(group: list[_CorpusLine], cfg: PipelineConfig) -> _CorpusLine | None:
    """The first of one id's lines to get a graph, asking the endpoint for each line without one.

    Under strict the group stops at its first failure, which the parse raises.
    """
    for line in group:
        if line.graph is None and line.reason is None:
            try:
                reply = generate_scene_graph_json(_instance_from_obj(line.norm), cfg.generator)
                line.graph = parse_scene_graph(reply, on_dangling="add")
            except SceneAlignError as exc:
                line.reason = f"bad scene graph: {exc}"
        if line.graph is not None:
            return line
        if cfg.strict:
            break
    return None


def stage_parse(cfg: PipelineConfig) -> tuple[list[dict], list[dict]]:
    """Load and normalize the corpus; resolve a scene graph for every item.

    Returns (work items, diagnostics for dropped lines).  In strict mode the
    first bad line raises :class:`CorpusError`; otherwise bad lines are
    reported and skipped so adversarial corpora cannot abort a run.  Lines
    without a graph ask the chat endpoint for one, up to ``workers`` ids at a
    time.  An id's lines are tried in corpus order until one gets a graph;
    the later lines of that id are duplicates, and a line dropped before it
    would ask (bad JSON or shape, a duplicate id) sends no request.
    """
    corpus = read_lines(cfg.input_path, "corpus")
    sidecar = _read_sidecar_graphs(cfg.graphs_path, cfg.strict) if cfg.graphs_path else {}
    lines: list[_CorpusLine] = []
    groups: dict[str, list[_CorpusLine]] = {}  # an id's lines, in corpus order
    for line_no, raw_line in corpus:
        line = _read_line(line_no, raw_line, sidecar, cfg)
        lines.append(line)
        repeat = line.id in groups
        if line.id is not None:
            groups.setdefault(line.id, []).append(line)
        if cfg.strict and (line.reason is not None or repeat):
            break  # the parse fails at this line or at an earlier one
    in_flight = _workers(cfg) if any(line.graph is None and line.reason is None for line in lines) else 1
    winners = dict(zip(groups, _map_in_flight(partial(_resolve, cfg=cfg), list(groups.values()), in_flight)))
    items: list[dict] = []
    drops: list[dict] = []
    for line in lines:
        winner = winners.get(line.id)
        if line is winner:
            items.append({**line.norm, "scene_graph": line.graph})
            continue
        later = winner is not None and winner.line_no < line.line_no
        reason = f"duplicate id {line.id!r}" if later else line.reason
        if cfg.strict:
            raise CorpusError(line.line_no, reason)
        drops.append({"line": line.line_no, "reason": reason})
    for drop in drops:
        logger.warning("corpus line %d skipped: %s", drop["line"], drop["reason"])
    return items, drops


# ---------------------------------------------------------------------------
# per-instance stages


def stage_ground(item: dict, cfg: PipelineConfig) -> dict:
    """Generate the positive rationale and split the graph against it."""
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
    pool = residual_pool(sg_pos, grounded)
    out = dict(item)
    out["positive_rationale"] = tau_pos.raw_text
    out["grounded"] = grounded
    out["pool"] = pool
    return out


def stage_perturb(item: dict, cfg: PipelineConfig) -> dict:
    """Sample negative candidates with the instance-specific seed, in place of the grounded graph and pool."""
    seed = instance_seed(cfg.seed, item["id"])
    out = dict(item)
    del out["grounded"], out["pool"]  # no later stage reads them
    out["candidates"] = generate_negatives(
        item["scene_graph"], item["grounded"], item["pool"], k=cfg.candidates, edit_range=cfg.edit_range, seed=seed
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
    "perturb": ("scene_graph", "grounded", "pool"),
    "select": ("scene_graph", "candidates"),
    "build": ("scene_graph", "positive_rationale", "selected"),
}


def _candidate_from_obj(obj: dict, decode_graph: bool = True) -> NegativeCandidate:
    graph = parse_scene_graph(obj["graph"]) if decode_graph else obj["graph"]
    cand = NegativeCandidate(graph, EditTrace.from_dict(obj["trace"]), obj.get("jaccard"))
    if "rationale" in obj:
        cand.rationale = Rationale.parse(obj["rationale"])
    return cand


# graphs and pools are checked against one schema; a pool alone need not be closed
_DECODERS = {
    "scene_graph": parse_scene_graph,
    "grounded": parse_scene_graph,
    "pool": parse_pool,
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
    item = dict(obj, id=_line_id(obj, None))
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
