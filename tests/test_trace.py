"""The benchmark's traced pass still reaches every layer it measures.

``bench/tracer.py`` wraps the program's functions from outside and reads
``args[0]["id"]`` on every ``stage_*`` call; ``bench/worker.py`` names the
calls each workload must reach.  This runs both, unchanged, on a small
corpus in a fresh process, the way a traced benchmark pass does.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

from .helpers import synthetic_corpus_lines

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


def test_traced_offline_and_staged_passes_reach_every_layer(tmp_path):
    lines = synthetic_corpus_lines(12, random.Random(7))
    (tmp_path / "corpus.jsonl").write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
    pythonpath = [str(REPO_ROOT / "src"), str(REPO_ROOT / "bench"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in pythonpath if p)}
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_PASSES, str(tmp_path)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "traced passes ok" in proc.stdout
