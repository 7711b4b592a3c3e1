"""Command-line interface.

Subcommands mirror the pipeline stages (``parse``, ``ground``, ``perturb``,
``select``, ``build``), plus ``run`` for the whole chain, ``edit`` for one
operator on a graph file, ``dpo-check`` to read a dataset and check its DPO
loss baseline, and ``stats`` for dataset summaries.  Each subcommand takes
only the flags it reads, and every flag must be spelled in full.

Exit codes: 0 success, 1 configuration or operational error, 2 corpus error,
3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import random
import sys
from collections import Counter
from typing import Iterable, Iterator

from .atomic import loads_object, read_lines, read_text, write_lines
from .dpo import ToyPolicy, dpo_loss, export_jsonl, import_jsonl
from .embed import EmbedConfig
from .errors import ConfigError, CorpusError, SceneAlignError
from .generate import GeneratorConfig
from .perturb import OPERATOR_TAGS, apply_operator
from .pipeline import (
    STAGE_FIELDS,
    PipelineConfig,
    decode_item,
    encode_item,
    run_pipeline,
    stage_build,
    stage_ground,
    stage_parse,
    stage_perturb,
    stage_select,
)
from .scene_graph import SceneGraph, encode_scene_graph, parse_pool, parse_scene_graph
from .selection import SelectionConfig

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_CORPUS = 2
EXIT_IO = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # flags only in full: no prefix of another subcommand's flag is read as one of ours
    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    # argparse exits with status 2 on bad flags; remap to the config code
    def error(self, message):
        raise _UsageError(message)


def _parse_edit_range(text: str) -> tuple[int, int]:
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            return int(lo), int(hi)
        value = int(text)
        return value, value
    except ValueError as exc:
        raise ConfigError(f"invalid --edits value {text!r}; use N or LO..HI") from exc


_STAGES = ("parse", "ground", "perturb", "select", "build")
_CHAT = ("parse", "ground", "select")

# (flag, the subcommands besides run that read it, add_argument keywords), in --help order.  Every
# stage takes --seed, which only perturb reads, so that one argv tail chains the five stages.
_STAGE_FLAGS = (
    ("--input", _STAGES, dict(required=True, help="input JSONL path")),
    ("--output", _STAGES, dict(required=True, help="output path")),
    ("--seed", _STAGES, dict(type=int, default=0, help="global seed (default 0)")),
    ("--strict", _STAGES, dict(action="store_true", help="fail fast on malformed input")),
    ("--verbose", _STAGES, dict(action="store_true", help="info-level logging")),
    ("--graphs", ("parse",), dict(default=None, help="sidecar scene graph JSONL")),
    ("--report", (), dict(default=None, help="run report path")),
    ("--workers", ("parse",), dict(type=int, default=0, help="instances in flight under run when a provider is "
     "remote, and scene-graph requests in flight under run and parse (0 = CPUs)")),
    ("--candidates", ("perturb",), dict(type=int, default=8, help="candidates sampled per instance")),
    ("--edits", ("perturb",), dict(default="1..3", help="edit count or range, e.g. 2 or 1..3")),
    ("--gamma-lower", ("select",), dict(type=float, default=0.3, help="overlap band lower bound")),
    ("--gamma-upper", ("select",), dict(type=float, default=0.7, help="overlap band upper bound")),
    ("--num-negatives", ("select",), dict(type=int, default=3, help="negatives kept per instance")),
    ("--relax-bounds", ("select",), dict(action="store_true", default=False, help="widen the band on shortfall")),
    ("--generator", _CHAT, dict(choices=["template", "http"], default="template")),
    ("--endpoint", _CHAT, dict(default=None, help="chat completion endpoint URL")),
    ("--model", _CHAT, dict(default=None, help="model name for remote calls")),
    ("--temperature", _CHAT, dict(type=float, default=0.0)),
    ("--cache-dir", _CHAT, dict(default=None, help="response cache directory")),
    ("--embed", ("select",), dict(choices=["hashed", "http"], default="hashed")),
    ("--embed-endpoint", ("select",), dict(default=None)),
    ("--embed-model", ("select",), dict(default=None)),
    ("--embed-dim", ("select",), dict(type=int, default=256)),
)


def _pipeline_config(args) -> PipelineConfig:
    generator = GeneratorConfig(
        kind="http-chat" if args.generator == "http" else "template",
        endpoint=args.endpoint,
        model=args.model,
        temperature=args.temperature,
        cache_dir=args.cache_dir,
    )
    embed = EmbedConfig(
        provider="http" if args.embed == "http" else "hashed-ngram",
        dimension=args.embed_dim,
        endpoint=args.embed_endpoint,
        model=args.embed_model,
    )
    selection = SelectionConfig(
        gamma_lower=args.gamma_lower,
        gamma_upper=args.gamma_upper,
        m=args.num_negatives,
        on_shortfall="relax-bounds" if args.relax_bounds else "emit-fewer",
    )
    cfg = PipelineConfig(
        input_path=args.input,
        output_path=args.output,
        graphs_path=args.graphs,
        report_path=args.report,
        seed=args.seed,
        candidates=args.candidates,
        edit_range=_parse_edit_range(args.edits),
        selection=selection,
        generator=generator,
        embed=embed,
        workers=args.workers,
        strict=args.strict,
    )
    cfg.validate()
    return cfg


def _map_stage(
    lines: Iterable[tuple[int, str]], fields: tuple[str, ...], fn, strict: bool, skipped: list[int]
) -> Iterator:
    """``fn(item)`` per line, yielded in order, where ``item`` is the line's work item with ``fields`` decoded.

    The number of each line skipped is appended to ``skipped``.
    """
    for line_no, line in lines:
        try:
            out = fn(decode_item(loads_object(line), fields))  # a torn line is skipped like a bad corpus line
        except CorpusError as exc:  # a malformed stage line
            if strict:
                raise CorpusError(line_no, exc.reason) from exc
            logger.warning("line %d skipped: %s", line_no, exc.reason)
            skipped.append(line_no)
        except SceneAlignError as exc:  # the instance drops, as under run, strict or not
            logger.warning("line %d skipped: %s", line_no, exc)
            skipped.append(line_no)
        else:
            yield out


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_run(args) -> int:
    cfg = _pipeline_config(args)
    report = run_pipeline(cfg)
    print(
        f"{report.records_written} record(s) from {report.instances_processed}/"
        f"{report.instances_total} instance(s) -> {args.output}"
    )
    return EXIT_OK


def _cmd_parse(args) -> int:
    cfg = _pipeline_config(args)
    items, drops = stage_parse(cfg)
    write_lines(args.output, map(encode_item, items))
    print(f"parsed {len(items)} instance(s), skipped {len(drops)} line(s) -> {args.output}")
    return EXIT_OK


def _cmd_item_stage(args) -> int:
    # looked up per call, so a stage function rebound on this module is the one that runs
    stage, verb = {
        "ground": (stage_ground, "grounded"),
        "perturb": (stage_perturb, "perturbed"),
        "select": (stage_select, "selected for"),
    }[args.command]
    cfg = _pipeline_config(args)
    skipped: list[int] = []
    out = _map_stage(
        read_lines(args.input, "input"),
        STAGE_FIELDS[args.command],
        lambda item: encode_item(stage(item, cfg)),
        args.strict,
        skipped,
    )
    written = write_lines(args.output, out)
    print(f"{verb} {written}/{written + len(skipped)} instance(s) -> {args.output}")
    return EXIT_OK


def _read_graph_file(path: str, flag: str, parse) -> SceneGraph:
    text = read_text(path, f"{flag} file")
    try:
        return parse(text)
    except SceneAlignError as exc:
        raise CorpusError(None, f"bad {flag} file: {exc}") from exc


def _cmd_edit(args) -> int:
    graph = _read_graph_file(args.graph, "--graph", parse_scene_graph)
    pool = _read_graph_file(args.pool, "--pool", parse_pool) if args.pool else SceneGraph()
    element = _parse_element(args.element) if args.element is not None else None

    result, op = apply_operator(
        graph,
        pool,
        args.op,
        kind=args.kind,
        index=args.index,
        replacement=args.replacement,
        element=element,
        rng=random.Random(args.seed),
    )
    print(json.dumps({"graph": encode_scene_graph(result), "trace": [op.to_dict()]}, ensure_ascii=False))
    return EXIT_OK


def _parse_element(text: str):
    try:
        value = json.loads(text)
    except ValueError as exc:
        raise ConfigError(f"--element is not JSON: {exc}") from exc
    if value is None:  # to apply_operator, None is no element; it checks any other value
        raise ConfigError("--element is null; pin an element or leave the flag out")
    return value


def _cmd_build(args) -> int:
    _pipeline_config(args)
    lines = read_lines(args.input, "input")
    built = _map_stage(lines, STAGE_FIELDS["build"], stage_build, args.strict, [])
    written = export_jsonl((record for item_records in built for record in item_records), args.output)
    print(f"built {written} record(s) -> {args.output}")
    return EXIT_OK


def _cmd_dpo_check(args) -> int:
    records = import_jsonl(args.input)
    if not records:
        raise CorpusError(None, "no records to check")
    # build writes neither; scoring them would prove nothing or fail on an empty vocabulary
    same = sum(r.rejected == r.chosen for r in records)
    blank = sum(not r.chosen.strip() or not r.rejected.strip() for r in records)
    if same or blank:
        print(f"{len(records)} record(s); {same} with rejected equal to chosen, {blank} with a blank side")
        print("dpo-check: FAIL")
        return EXIT_CONFIG
    vocab = {tok for r in records for tok in f"{r.chosen} {r.rejected}".split()}
    uniform = ToyPolicy.uniform(sorted(vocab))
    # a policy equal to its reference gives every record a margin of 0, and so a loss of log 2
    loss, _ = dpo_loss(records, uniform, uniform)
    expected = math.log(2.0)
    ok = abs(loss - expected) < 1e-9
    print(f"{len(records)} record(s); policy==reference mean loss: {loss:.6f} (expected {expected:.6f})")
    print(f"dpo-check: {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_CONFIG


def _cmd_stats(args) -> int:
    if args.num_negatives < 1:  # as run refuses it: no instance could fall short
        raise ConfigError(f"--num-negatives must be at least 1, not {args.num_negatives}")
    records = import_jsonl(args.input)
    operators = Counter(str(r.meta.get("operator", "unknown")) for r in records)
    jaccards = [r.meta["jaccard"] for r in records if isinstance(r.meta.get("jaccard"), (int, float))]
    histogram = {}
    for i in range(10):
        lo, hi = i / 10.0, (i + 1) / 10.0
        label = f"[{lo:.1f},{hi:.1f}{']' if i == 9 else ')'}"
        histogram[label] = sum(1 for j in jaccards if lo <= j < hi or (i == 9 and j == 1.0))
    instances = Counter(str(r.meta.get("instance_id", r.id)) for r in records)
    n_instances = len(instances)
    shortfall = sum(1 for count in instances.values() if count < args.num_negatives)
    stats = {
        "records": len(records),
        "instances": n_instances,
        "negatives_per_instance_mean": round(len(records) / n_instances, 4) if n_instances else 0.0,
        "operator_mix": dict(sorted(operators.items())),
        "jaccard_histogram": histogram,
        "shortfall_rate": round(shortfall / n_instances, 4) if n_instances else 0.0,
    }
    print(json.dumps(stats, indent=2))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser assembly


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="scenealign", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    for name, help_text, handler in (
        ("run", "full pipeline: corpus to preference dataset", _cmd_run),
        ("parse", "normalize the corpus and resolve scene graphs", _cmd_parse),
        ("ground", "positive rationales and grounded subgraphs", _cmd_item_stage),
        ("perturb", "sample negative candidates", _cmd_item_stage),
        ("select", "band-filter and diversify candidates", _cmd_item_stage),
        ("build", "emit preference records from selected candidates", _cmd_build),
    ):
        p = sub.add_parser(name, help=help_text)
        for flag, readers, kwargs in _STAGE_FLAGS:
            if name == "run" or name in readers:
                p.add_argument(flag, **kwargs)
            else:  # a flag the command does not read keeps its default, and no one can set it
                p.set_defaults(**{flag[2:].replace("-", "_"): kwargs.get("default")})
        p.set_defaults(func=handler)

    p_edit = sub.add_parser("edit", help="apply one operator to a scene graph file")
    p_edit.add_argument("--op", required=True, choices=OPERATOR_TAGS, help="operator to apply")
    p_edit.add_argument("--graph", required=True, help="scene graph JSON file")
    p_edit.add_argument("--pool", default=None, help="residual pool JSON file")
    p_edit.add_argument("--kind", choices=["entity", "attribute", "relation", "predicate"], help="target element kind")
    p_edit.add_argument("--index", type=int, default=None, help="target element index")
    p_edit.add_argument("--replacement", default=None, help="pinned replacement payload")
    p_edit.add_argument("--element", default=None, help="pinned element to add (JSON)")
    p_edit.add_argument("--seed", type=int, default=0, help="seed for targeting left out (default 0)")
    p_edit.add_argument("--verbose", action="store_true", help="info-level logging")
    p_edit.set_defaults(func=_cmd_edit)

    p_check = sub.add_parser("dpo-check", help="read a preference dataset and check its loss baseline")
    p_check.add_argument("--input", required=True, help="preference dataset JSONL")
    p_check.add_argument("--verbose", action="store_true")
    p_check.set_defaults(func=_cmd_dpo_check)

    p_stats = sub.add_parser("stats", help="summarize a preference dataset")
    p_stats.add_argument("--input", required=True)
    p_stats.add_argument("--num-negatives", type=int, default=3)
    p_stats.add_argument("--verbose", action="store_true")
    p_stats.set_defaults(func=_cmd_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    # basicConfig adds a handler only to a root logger without one, so the level is set on every call
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    logging.getLogger().setLevel(logging.INFO if getattr(args, "verbose", False) else logging.WARNING)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CorpusError as exc:
        print(f"corpus error: {exc}", file=sys.stderr)
        return EXIT_CORPUS
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except SceneAlignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
