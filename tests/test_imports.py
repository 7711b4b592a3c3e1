"""What a process loads follows what it is configured to do.

The HTTP stack is loaded only where a remote provider is configured, and
OpenSSL only with it.  No process loads numpy: not an offline or remote
run, a stage, a config or ``dpo-check``'s toy policy.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from scenealign import embed
from scenealign.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent

HTTP_STACK = ("requests", "urllib3", "charset_normalizer", "idna")


def _fresh_python(code: str, *args: str, cwd: Path) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter that imports the package from ``src/``."""
    pythonpath = [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in pythonpath if p)}
    return subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, cwd=cwd, env=env
    )


def test_importing_the_package_leaves_the_http_stack_unloaded(tmp_path):
    code = (
        "import sys, scenealign, scenealign.pipeline, scenealign.cli; "
        f"print([name for name in {HTTP_STACK!r} if name in sys.modules])"
    )
    proc = _fresh_python(code, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# An offline run through the library, through `run` and through the five stage
# subcommands, in one interpreter; prints whether OpenSSL's `_hashlib`, numpy or
# any module of the HTTP stack was loaded after each step.
_OFFLINE_PROCESS = f"""
import sys
import scenealign, scenealign.pipeline, scenealign.cli
from scenealign.pipeline import PipelineConfig, run_pipeline

def loaded():
    return [name for name in ("_hashlib", "numpy", *{HTTP_STACK!r}) if name in sys.modules]

steps = [loaded()]
run_pipeline(PipelineConfig(input_path="corpus.jsonl", output_path="library.jsonl"))
steps.append(loaded())
assert scenealign.cli.main(["run", "--input", "corpus.jsonl", "--output", "cli.jsonl"]) == 0
steps.append(loaded())
src = "corpus.jsonl"
for command in ("parse", "ground", "perturb", "select", "build"):
    assert scenealign.cli.main([command, "--input", src, "--output", command + ".jsonl"]) == 0
    src = command + ".jsonl"
steps.append(loaded())
print(steps)
"""


def test_an_offline_process_leaves_openssl_unloaded(tmp_path, case_corpus_line):
    (tmp_path / "corpus.jsonl").write_text(json.dumps(case_corpus_line) + "\n", encoding="utf-8")
    proc = _fresh_python(_OFFLINE_PROCESS, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[[], [], [], []]"
    dataset = (tmp_path / "library.jsonl").read_bytes()
    assert dataset
    assert (tmp_path / "cli.jsonl").read_bytes() == dataset == (tmp_path / "build.jsonl").read_bytes()


def test_the_package_hashes_with_hashlibs_blake2b():
    # the per-instance seeds and the n-gram buckets keep their values
    assert embed.blake2b is hashlib.blake2b


def test_an_offline_run_needs_no_requests(tmp_path, case_corpus_line):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(json.dumps(case_corpus_line) + "\n", encoding="utf-8")
    argv = ["run", "--input", str(corpus), "--seed", "7", "--output"]
    # a None entry makes every `import requests` raise ImportError
    code = "import sys; sys.modules['requests'] = None; from scenealign.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = _fresh_python(code, *argv, str(tmp_path / "blocked.jsonl"), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert main([*argv, str(tmp_path / "in_process.jsonl")]) == 0
    blocked = (tmp_path / "blocked.jsonl").read_bytes()
    assert blocked
    assert blocked == (tmp_path / "in_process.jsonl").read_bytes()


@pytest.mark.parametrize(
    "module, config, args",
    [
        ("scenealign.generate", "GeneratorConfig", "kind='http-chat', endpoint='http://127.0.0.1:9/v1/chat/completions'"),
        ("scenealign.embed", "EmbedConfig", "provider='http', endpoint='http://127.0.0.1:9/v1/embeddings'"),
    ],
)
def test_a_remote_provider_config_loads_requests(tmp_path, module, config, args):
    # set-up, not the first request, pays for the import
    code = (
        f"import sys; from {module} import {config}; before = 'requests' in sys.modules; "
        f"{config}({args}); print(before, 'requests' in sys.modules)"
    )
    proc = _fresh_python(code, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]


def test_remote_provider_configs_leave_numpy_unloaded(tmp_path):
    code = (
        "import sys; from scenealign.generate import GeneratorConfig; from scenealign.embed import EmbedConfig; "
        "GeneratorConfig(kind='http-chat', endpoint='http://127.0.0.1:9/v1/chat/completions'); "
        "EmbedConfig(provider='http', endpoint='http://127.0.0.1:9/v1/embeddings'); "
        "print('requests' in sys.modules, 'numpy' in sys.modules)"
    )
    proc = _fresh_python(code, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "False"]


def test_dpo_check_passes_and_leaves_numpy_unloaded(tmp_path, case_corpus_line):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(json.dumps(case_corpus_line) + "\n", encoding="utf-8")
    assert main(["run", "--input", str(corpus), "--output", str(tmp_path / "dataset.jsonl")]) == 0
    code = (
        "import sys; from scenealign.cli import main; code = main(sys.argv[1:]); "
        "print('numpy' in sys.modules); sys.exit(code)"
    )
    proc = _fresh_python(code, "dpo-check", "--input", "dataset.jsonl", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "dpo-check: PASS" in proc.stdout
    assert proc.stdout.splitlines()[-1] == "False"
