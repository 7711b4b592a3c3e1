"""The benchmark's traced pass still reaches every layer it measures.

``bench/tracer.py`` wraps the program's functions from outside and reads
``args[0]["id"]`` on every ``stage_*`` call; ``bench/worker.py`` names the
calls each workload must reach.  This runs both, unchanged, on a small
corpus in a fresh process, the way a traced benchmark pass does: offline and
staged, then remote against a ``MockApi``.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

from .helpers import MockProviders, graph_less, synthetic_corpus_lines

REPO_ROOT = Path(__file__).resolve().parent.parent

TRACED_PASSES = """
import sys
from pathlib import Path

from tracer import Tracer, require_calls
from worker import COMMON_CALLS, WORKLOAD_CALLS, staged_argvs
from scenealign import cli, pipeline

work = Path(sys.argv[1])
corpus = work / "corpus.jsonl"
tracer = Tracer()
tracer.install()

cfg = pipeline.PipelineConfig(input_path=str(corpus), output_path=str(work / "run.jsonl"), seed=0, workers=2)
pipeline.run_pipeline(cfg)
require_calls(tracer.totals(), COMMON_CALLS + WORKLOAD_CALLS["offline"])

tracer.spans.clear()
for argv in staged_argvs(corpus, work, work / "dataset.jsonl"):
    assert cli.main(argv) == 0, argv
require_calls(tracer.totals(), COMMON_CALLS + WORKLOAD_CALLS["staged"])
assert (work / "dataset.jsonl").read_bytes() == (work / "run.jsonl").read_bytes()
print("traced passes ok")
"""


# a remote run against the caller's MockApi: graph-less lines ask the chat
# endpoint for their graphs, and instances with more than m in band are embedded
TRACED_REMOTE_PASS = """
import sys
from pathlib import Path

from tracer import Tracer, require_calls
from worker import COMMON_CALLS, WORKLOAD_CALLS
from scenealign import pipeline
from scenealign.embed import EmbedConfig
from scenealign.generate import GeneratorConfig

work, url = Path(sys.argv[1]), sys.argv[2]
tracer = Tracer()
tracer.install()

cfg = pipeline.PipelineConfig(
    input_path=str(work / "corpus.jsonl"),
    output_path=str(work / "run.jsonl"),
    seed=0,
    workers=2,
    generator=GeneratorConfig(kind="http-chat", endpoint=f"{url}/chat"),
    embed=EmbedConfig(provider="http", endpoint=f"{url}/embed", dimension=8),
)
report = pipeline.run_pipeline(cfg)
assert any(summary.get("filtered", 0) > cfg.selection.m for summary in report.instances), report.instances
require_calls(tracer.totals(), COMMON_CALLS + WORKLOAD_CALLS["remote"])
print("traced remote pass ok")
"""


def _run_traced(script: str, tmp_path, lines, *args: str) -> subprocess.CompletedProcess:
    (tmp_path / "corpus.jsonl").write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
    pythonpath = [str(REPO_ROOT / "src"), str(REPO_ROOT / "bench"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in pythonpath if p)}
    return subprocess.run(
        [sys.executable, "-c", script, str(tmp_path), *args],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=env,
        timeout=300,
    )


def test_traced_offline_and_staged_passes_reach_every_layer(tmp_path):
    proc = _run_traced(TRACED_PASSES, tmp_path, synthetic_corpus_lines(12, random.Random(7)))
    assert proc.returncode == 0, proc.stderr
    assert "traced passes ok" in proc.stdout


def test_traced_remote_pass_reaches_every_layer(tmp_path, mock_api):
    lines = synthetic_corpus_lines(8, random.Random(8))
    graph_less_lines, graphs = graph_less(lines[:3])
    mock_api.handler = MockProviders(graphs)
    proc = _run_traced(TRACED_REMOTE_PASS, tmp_path, graph_less_lines + lines[3:], mock_api.url)
    assert proc.returncode == 0, proc.stderr
    assert "traced remote pass ok" in proc.stdout
    assert any(request["path"] == "/embed" for request in mock_api.requests)
