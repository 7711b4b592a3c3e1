"""Benchmark of the scenealign pipeline: offline, remote and staged runs.

Run from the repository root::

    python3 bench/run.py --workload offline --seed 0 --seconds 40 --trace 0

One run makes one untimed warm-up pass, then timed passes until
``--seconds`` is spent.  Every pass is a fresh ``bench/worker.py`` process
running the whole job once on a corpus written beforehand; each timed pass
gets a corpus of its own, drawn from ``--seed``.  Every pass's output is
checked (``checks.py``).  The run prints the first corpus's dataset sha256,
the instances attempted and failed, each metric with its unit and, last, one
JSON line: ``{"correct", "attempted", "failed", "metrics"}``.  Each metric is
the median over the run's passes; wall times are taken less the time the
hypervisor stole from the machine meanwhile, and the times that the pass's
process alone decides are scaled to the reference machine's speed (see
README.md).  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced passes on one corpus and reports the
per-layer metrics.  Metric names and units are read from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
import urllib.request
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from checks import check_dataset, pass_drops  # noqa: E402
from corpus import cache_key_fault_ids, offline_lines, remote_lines, write_jsonl  # noqa: E402
from worker import PROBE_REFERENCE_S, STAGED_FILES, stolen_s  # noqa: E402

PASS_TIMEOUT_S = 150
MIN_CYCLES = 3


@dataclass(frozen=True)
class Workload:
    instances: int  # corpus lines per pass
    lines: Callable[[int, int], list[dict]]
    template_texts: bool  # the offline generator wrote the texts
    in_process: bool  # the whole job runs in the pass's process


WORKLOADS = {
    "offline": Workload(200, offline_lines, template_texts=True, in_process=True),
    "remote": Workload(60, remote_lines, template_texts=False, in_process=False),
    "staged": Workload(150, offline_lines, template_texts=True, in_process=True),
}


class BenchError(RuntimeError):
    pass


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Endpoint:
    def __init__(self, port: int):
        self.url = f"http://127.0.0.1:{port}"

    def start_pass(self, corpus: Path) -> None:
        """Reset the counters and give the endpoint the pass's gold answers."""
        data = json.dumps({"corpus": str(corpus)}).encode("utf-8")
        with urllib.request.urlopen(f"{self.url}/pass", data=data, timeout=30) as resp:
            resp.read()

    def stats(self) -> dict:
        with urllib.request.urlopen(f"{self.url}/stats", timeout=30) as resp:
            return json.loads(resp.read())


@contextmanager
def loopback_endpoint(work: Path):
    port_file = work / "endpoint.port"
    with (work / "endpoint.log").open("w") as log:
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "endpoint.py"), "--port-file", str(port_file)],
            stdout=log,
            stderr=subprocess.STDOUT,
        )
        try:
            deadline = time.monotonic() + 30
            while not port_file.exists():
                if proc.poll() is not None or time.monotonic() > deadline:
                    raise BenchError("loopback endpoint did not start; see endpoint.log")
                time.sleep(0.05)
            yield Endpoint(int(port_file.read_text()))
        finally:
            proc.terminate()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()


class Runner:
    def __init__(self, root: Path, name: str, workload: Workload, work: Path, endpoint: Endpoint | None):
        self.root = root
        self.name = name
        self.workload = workload
        self.work = work
        self.endpoint = endpoint
        self.count = 0
        pythonpath = [str(root / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath))

    def run_pass(self, lines: list[dict], traced: bool) -> dict:
        """Write the corpus, run the job on it once in a fresh process, check what it wrote."""
        self.count += 1
        out = self.work / f"pass-{self.count:03d}"
        out.mkdir()
        corpus = out / "corpus.jsonl"
        write_jsonl(corpus, lines)
        cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", self.name,
               "--corpus", str(corpus), "--out", str(out), "--instances", str(len(lines)),
               "--trace", "1" if traced else "0"]
        if self.endpoint is not None:
            cmd += ["--endpoint", self.endpoint.url]
            self.endpoint.start_pass(corpus)
        with (out / "stdout.txt").open("w") as fh:
            stolen_at_spawn = stolen_s()
            spawned = time.monotonic()
            try:
                proc = subprocess.run(cmd, stdout=fh, stderr=subprocess.STDOUT, env=self.env,
                                      cwd=self.root, timeout=PASS_TIMEOUT_S)
            except subprocess.TimeoutExpired as exc:
                raise BenchError(f"pass {self.count} took longer than {PASS_TIMEOUT_S} s") from exc
        if proc.returncode != 0:
            tail = (out / "stdout.txt").read_text(errors="replace")[-2000:]
            raise BenchError(f"pass {self.count} exited with {proc.returncode}:\n{tail}")
        result = json.loads((out / "result.json").read_text())
        # wall times less the mean time per CPU the hypervisor took meanwhile
        cpus = os.cpu_count() or 1
        result["raw_job_s"] = result["job_s"]
        result["raw_cpu_s"] = result["cpu_s"]
        result["raw_setup_s"] = result["ready_monotonic"] - spawned
        job_s = result["job_s"] - result["job_stolen_s"] / cpus
        setup_s = result["raw_setup_s"] - (result["stolen_at_ready"] - stolen_at_spawn) / cpus
        # then scaled to the reference machine's speed, for the times this
        # process alone decides: remote wall time also holds the endpoint's
        speed = result["speed"] = PROBE_REFERENCE_S / result["probe_s"]
        result["setup_s"] = setup_s * speed
        result["cpu_s"] *= speed
        result["job_s"] = job_s * speed if self.workload.in_process else job_s
        result["sha256"] = sha256_file(out / "dataset.jsonl")
        result["intermediate_bytes"] = sum(
            (out / name).stat().st_size for name in STAGED_FILES if (out / name).exists()
        )

        verdict = check_dataset(out / "dataset.jsonl", lines, template_texts=self.workload.template_texts,
                                known_faults=cache_key_fault_ids() if self.endpoint else frozenset())
        staged = STAGED_FILES if self.name == "staged" else ()
        for drop in pass_drops(out, [line["id"] for line in lines], staged):
            verdict.problem(drop)
        if self.endpoint is not None:
            stats = result["endpoint"] = self.endpoint.stats()
            cache = out / "cache"
            result["cache_files"] = sum(1 for _ in cache.iterdir()) if cache.is_dir() else 0
            for violation in stats["violations"]:
                verdict.problem(violation)
            unsent = len(verdict.text_hashes - set(stats["reply_hashes"]))
            if unsent:
                verdict.problem(f"{unsent} chosen/rejected text(s) the endpoint never sent")
        result["verdict"] = verdict
        shutil.rmtree(out)
        return result

    def reference_run(self, lines: list[dict]) -> str:
        """sha256 of ``scenealign run`` on the corpus, outside the timed passes."""
        corpus = self.work / "reference-corpus.jsonl"
        out = self.work / "reference.jsonl"
        write_jsonl(corpus, lines)
        with (self.work / "reference.txt").open("w") as fh:
            proc = subprocess.run(
                [sys.executable, "-m", "scenealign.cli", "run", "--input", str(corpus),
                 "--output", str(out), "--seed", "0"],
                stdout=fh, stderr=subprocess.STDOUT, env=self.env, cwd=self.root, timeout=PASS_TIMEOUT_S,
            )
        if proc.returncode != 0:
            raise BenchError(f"reference run exited with {proc.returncode}")
        return sha256_file(out)


def layer_metrics(result: dict, instances: int) -> dict:
    layers = {k: v for k, v in result["layers"].items() if not k.startswith("_")}
    stats = result.get("endpoint") or {}
    chat = stats.get("chat_requests", 0)
    embed = stats.get("embed_requests", 0)
    requests = chat + embed
    client_requests = result["layers"]["_client_requests"]
    if requests and not client_requests:
        raise BenchError("the endpoint served requests that no traced transport call made")
    transport = result["layers"]["_client_request_s"] - stats.get("handle_s", 0.0)
    layers.update({
        "generate.requests_per_instance": chat / instances,
        "generate.connections_per_request": stats.get("connections", 0) / requests if requests else 0.0,
        "generate.transport_s_per_request": transport / requests if requests else 0.0,
        "generate.cache_files_per_instance": result.get("cache_files", 0) / instances,
        "embed.requests_per_instance": embed / instances,
        "cli.intermediate_mb": result["intermediate_bytes"] / 1e6,
    })
    return layers


def median_of(passes: list[dict], key: Callable[[dict], float]) -> float:
    return statistics.median(key(p) for p in passes)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="corpus seed")
    parser.add_argument("--seconds", type=float, required=True, help="time spent on timed passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    if not (root / "src" / "scenealign" / "__init__.py").is_file():
        print("error: run from the repository root; src/scenealign is missing", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    workload = WORKLOADS[args.workload]

    work = BENCH / "work" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return measure(args, root, work, workload, wanted)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, root: Path, work: Path, workload: Workload, wanted: list[dict]) -> int:
    n = workload.instances
    # One corpus per timed pass, each from the next draw of the run's seed: a
    # run then averages over many corpora, not over one corpus's few costly
    # instances.  A traced run keeps the first corpus for every pass.
    draws = random.Random(args.seed)
    first_lines = workload.lines(n, draws.getrandbits(32))

    remote = args.workload == "remote"
    with loopback_endpoint(work) if remote else nullcontext() as endpoint:
        runner = Runner(root, args.workload, workload, work, endpoint)
        # untimed: compiles src/ to bytecode and fills the file cache
        warmup = runner.run_pass(first_lines, traced=False)

        kinds = (False, True) if args.trace else (False,)
        passes: list[dict] = []
        started = time.monotonic()
        while True:
            lines = first_lines if args.trace or not passes else workload.lines(n, draws.getrandbits(32))
            for traced in kinds:
                passes.append(runner.run_pass(lines, traced))
            elapsed = time.monotonic() - started
            cycles = len(passes) // len(kinds)
            if cycles >= MIN_CYCLES and elapsed * (cycles + 1) / cycles > args.seconds:
                break

        problems = [f"warm-up: {problem}" for problem in warmup["verdict"].problems]
        for i, p in enumerate(passes, start=1):
            problems += [f"pass {i}: {problem}" for problem in p["verdict"].problems]
        same_corpus = passes if args.trace else passes[:1]
        if any(p["sha256"] != warmup["sha256"] for p in same_corpus):
            problems.append("a pass wrote other bytes than the warm-up pass on the same corpus")
        if args.workload == "staged" and runner.reference_run(first_lines) != warmup["sha256"]:
            problems.append("staged dataset differs from a `run` of the same corpus and seed")

    untraced = [p for p in passes if not p.get("layers")]
    if args.trace:
        traced = [p for p in passes if p.get("layers")]
        per_pass = [layer_metrics(p, n) for p in traced]
        values = {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}
        values["trace.overhead_s_per_instance"] = (
            median_of(traced, lambda p: p["job_s"]) - median_of(untraced, lambda p: p["job_s"])
        ) / n
    else:
        values = {
            "instances_per_s": n / median_of(passes, lambda p: p["job_s"]),
            "cpu_s_per_instance": median_of(passes, lambda p: p["cpu_s"]) / n,
            "peak_rss_mb": median_of(passes, lambda p: p["peak_rss_mb"]),
            "setup_s": median_of(passes, lambda p: p["setup_s"]),
        }

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"metric(s) not measured: {', '.join(missing)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    attempted = n * len(passes)
    failed_ids = sorted({iid for p in passes for iid in p["verdict"].failed})
    failed = sum(len(p["verdict"].failed) for p in passes)
    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} passes of {n} instances, "
          f"trace {args.trace}")
    print(f"first corpus: dataset sha256 {warmup['sha256']} ({warmup['verdict'].records} records)")
    print(f"attempted {attempted} instances, failed {failed}"
          + (f" ({', '.join(failed_ids)})" if failed_ids else ""))
    for key in ("probe_s", "speed", "raw_job_s", "job_s", "raw_cpu_s", "cpu_s", "raw_setup_s", "setup_s"):
        print(f"pass {key}: " + " ".join(f"{p[key]:.4f}" for p in passes))
    for problem in problems[:40]:
        print(f"check failed: {problem}")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
