"""One pass of one workload, in a fresh process.

``run.py`` writes the corpus first, then starts this process with ``src/`` on
``PYTHONPATH``.  The process imports the program, builds and validates the
run's configuration (its set-up), sends the program's log output to
``program.log`` in the pass directory, runs the job once and writes
``result.json``: when set-up ended, the job's wall and CPU seconds, the peak
resident memory, the CPU time the hypervisor stole from the machine during
set-up and the job, the time of the speed probe run just before and just
after the job and, for a traced pass, the per-layer totals.
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import os
import random
import resource
import sys
import time
from pathlib import Path

STAGE_COMMANDS = ("parse", "ground", "perturb", "select", "build")
STAGED_FILES = ("parse.jsonl", "ground.jsonl", "perturb.jsonl", "select.jsonl")

# Every workload must reach these names; remote and staged reach more.
COMMON_CALLS = (
    "pipeline.stage_parse", "pipeline.stage_ground", "pipeline.stage_perturb",
    "pipeline.stage_select", "pipeline.stage_build", "scene_graph.from_parts",
    "scene_graph.element_universe", "scene_graph.parse_scene_graph", "rationale.parse",
    "generate.generate_rationale", "generate.render_positive_cot_prompt",
    "generate.render_negative_cot_prompt", "embed.embed_texts",
    "grounding.extract_grounded_subgraph", "grounding.residual_pool",
    "perturb.generate_negatives", "selection.filter_with_shortfall",
    "selection.select_diverse", "dpo.build_preference_records", "dpo.export_jsonl",
)
WORKLOAD_CALLS = {
    "offline": (),
    "remote": ("generate.generate_scene_graph_json", "generate.render_scene_graph_prompt", "requests.send"),
    "staged": ("cli.main",),
}
# Rounds of the speed probe: about 0.12 s on the reference machine.
PROBE_ROUNDS = 3500
# The probe's time before plus after the job on the reference machine
# (README.md, "Machine speed"); a pass's times are scaled by this over its own.
PROBE_REFERENCE_S = 0.25

INSTANCE_STAGES = ("pipeline.stage_ground", "pipeline.stage_perturb", "pipeline.stage_select", "pipeline.stage_build")


def stolen_s() -> float:
    """CPU-seconds the hypervisor has stolen from this machine, summed over CPUs.

    Read from the ``steal`` column of ``/proc/stat``; 0.0 where the kernel
    does not report it.
    """
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def probe_s() -> float:
    """Seconds this process takes for a fixed pure-Python loop: its speed now.

    The loop does the kind of work the program does (string formatting,
    lists, dicts, sets and JSON round trips) and uses nothing from
    ``scenealign``.  The cyclic collector is off while it runs, so the heap a
    job left behind does not change its cost.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        rng = random.Random(1)
        shared = 0
        for _ in range(PROBE_ROUNDS):
            graph = {
                "entities": [f"e{rng.randrange(50)}" for _ in range(6)],
                "relations": [[rng.randrange(9), "near", rng.randrange(9)] for _ in range(5)],
            }
            back = json.loads(json.dumps(graph, sort_keys=True))
            shared += len(set(graph["entities"]) & set(back["entities"]))
        return time.perf_counter() - started
    finally:
        if was_enabled:
            gc.enable()


def staged_argvs(corpus: Path, out: Path, dataset: Path) -> list[list[str]]:
    inputs = [corpus] + [out / name for name in STAGED_FILES]
    outputs = [out / name for name in STAGED_FILES] + [dataset]
    return [
        [command, "--input", str(src), "--output", str(dst), "--seed", "0"]
        for command, src, dst in zip(STAGE_COMMANDS, inputs, outputs)
    ]


def _configure(workload: str, corpus: Path, out: Path, dataset: Path, endpoint: str | None):
    """Import the program and build the validated job; returns a callable."""
    if workload == "staged":
        from scenealign import cli

        argvs = staged_argvs(corpus, out, dataset)
        parser = cli.build_parser()
        for argv in argvs:
            parser.parse_args(argv)

        def job() -> None:
            for argv in argvs:
                code = cli.main(argv)
                if code != 0:
                    raise SystemExit(f"scenealign {argv[0]} exited with {code}")

        return job

    from scenealign import pipeline
    from scenealign.embed import EmbedConfig
    from scenealign.generate import GeneratorConfig

    cfg = pipeline.PipelineConfig(
        input_path=str(corpus), output_path=str(dataset), report_path=str(out / "report.json"), seed=0
    )
    if workload == "remote":
        cfg.generator = GeneratorConfig(
            kind="http-chat",
            endpoint=f"{endpoint}/v1/chat/completions",
            model="bench-chat",
            cache_dir=str(out / "cache"),
        )
        cfg.embed = EmbedConfig(provider="http", endpoint=f"{endpoint}/v1/embeddings", model="bench-embed")
        cfg.workers = 2
    cfg.validate()
    return lambda: pipeline.run_pipeline(cfg)


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_totals(tracer, workload: str, instances: int) -> dict:
    """Per-layer figures a traced pass can see from inside its process."""
    from tracer import require_calls

    totals = tracer.totals()
    require_calls(totals, COMMON_CALLS + WORKLOAD_CALLS[workload])

    def t(label: str, key: str = "s") -> float:
        return totals.get(label, {}).get(key, 0)

    per_instance = tracer.per_instance(INSTANCE_STAGES)
    perturb_per_instance = tracer.per_instance(("perturb.generate_negatives",))
    candidates = t("perturb.generate_negatives", "count")
    records = t("dpo.build_preference_records", "count")
    n = instances
    return {
        "pipeline.parse_s_per_instance": t("pipeline.stage_parse") / n,
        "pipeline.ground_s_per_instance": t("pipeline.stage_ground") / n,
        "pipeline.perturb_s_per_instance": t("pipeline.stage_perturb") / n,
        "pipeline.select_s_per_instance": t("pipeline.stage_select") / n,
        "pipeline.build_s_per_instance": t("pipeline.stage_build") / n,
        "pipeline.instance_s_p50": _percentile(list(per_instance.values()), 0.50),
        "pipeline.instance_s_p95": _percentile(list(per_instance.values()), 0.95),
        "pipeline.self_s_per_instance": sum(t(f"pipeline.{s}", "self_s") for s in (
            "stage_parse", "stage_ground", "stage_perturb", "stage_select", "stage_build")) / n,
        "scene_graph.from_parts_calls_per_instance": t("scene_graph.from_parts", "calls") / n,
        "scene_graph.universe_builds_per_candidate": t("scene_graph.element_universe", "calls") / max(candidates, 1),
        "scene_graph.parse_s_per_instance": t("scene_graph.parse_scene_graph") / n,
        "rationale.parse_calls_per_instance": t("rationale.parse", "calls") / n,
        "generate.calls_per_instance": t("generate.generate_rationale", "calls") / n,
        "generate.s_per_call": t("generate.generate_rationale") / max(t("generate.generate_rationale", "calls"), 1),
        "generate.render_s_per_instance": sum(t(f"generate.{r}") for r in (
            "render_scene_graph_prompt", "render_positive_cot_prompt", "render_negative_cot_prompt")) / n,
        "embed.texts_per_instance": t("embed.embed_texts", "count") / n,
        "embed.s_per_text": t("embed.embed_texts") / max(t("embed.embed_texts", "count"), 1),
        "grounding.s_per_instance": (t("grounding.extract_grounded_subgraph") + t("grounding.residual_pool")) / n,
        "grounding.pool_elements_per_instance": t("grounding.residual_pool", "count") / n,
        "perturb.s_per_instance": t("perturb.generate_negatives") / n,
        "perturb.s_p95": _percentile(list(perturb_per_instance.values()), 0.95),
        "perturb.candidates_per_instance": candidates / n,
        "selection.filter_s_per_instance": t("selection.filter_with_shortfall") / n,
        "selection.in_band_per_candidate": t("selection.filter_with_shortfall", "count") / max(candidates, 1),
        "selection.select_s_per_instance": t("selection.select_diverse") / n,
        "dpo.build_s_per_instance": t("dpo.build_preference_records") / n,
        "dpo.records_per_instance": records / n,
        "dpo.export_s_per_record": t("dpo.export_jsonl") / max(records, 1),
        "cli.self_s_per_instance": t("cli.main", "self_s") / n,
        # inputs to figures that need the endpoint's own counters
        "_client_requests": t("requests.send", "calls"),
        "_client_request_s": t("requests.send"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOAD_CALLS))
    parser.add_argument("--corpus", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path, help="pass directory")
    parser.add_argument("--instances", required=True, type=int)
    parser.add_argument("--endpoint", default=None, help="loopback endpoint base URL (remote)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out: Path = args.out
    logging.basicConfig(
        filename=out / "program.log",
        level=logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    job = _configure(args.workload, args.corpus, out, out / "dataset.jsonl", args.endpoint)
    ready = time.monotonic()
    stolen_at_ready = stolen_s()

    probe_before = probe_s()
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    stolen_before = stolen_s()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    started = time.perf_counter()
    job()
    job_s = time.perf_counter() - started
    after = resource.getrusage(resource.RUSAGE_SELF)
    stolen_after = stolen_s()
    probe_after = probe_s()

    result = {
        "ready_monotonic": ready,
        "job_s": job_s,
        "cpu_s": (after.ru_utime - usage.ru_utime) + (after.ru_stime - usage.ru_stime),
        "peak_rss_mb": after.ru_maxrss / 1024.0,
        "stolen_at_ready": stolen_at_ready,
        "job_stolen_s": stolen_after - stolen_before,
        "probe_s": probe_before + probe_after,
    }
    if tracer is not None:
        result["layers"] = layer_totals(tracer, args.workload, args.instances)
    (out / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
