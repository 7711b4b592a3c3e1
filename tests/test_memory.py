"""A stage subcommand's memory does not grow with its input: each line is written as its instance completes."""

from __future__ import annotations

import json
import random
import tracemalloc

import pytest

from scenealign.cli import main

from .helpers import synthetic_corpus_lines

SMALL, LARGE = 40, 400
# the LARGE-line peak over the SMALL-line one; a stage holding whole files reads 6-9
MAX_GROWTH = 2.5


def _peak_bytes(argv: list[str]) -> int:
    """The most memory Python allocated at once while ``scenealign`` ran ``argv``."""
    tracemalloc.start()
    try:
        assert main(argv) == 0, argv
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def perturbed(tmp_path):
    """The perturb files of the first SMALL and of all LARGE synthetic lines, by line count."""
    src = tmp_path / "corpus.jsonl"
    lines = synthetic_corpus_lines(LARGE, random.Random(0))
    src.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
    for command in ("parse", "ground", "perturb"):
        dst = tmp_path / f"{command}.jsonl"
        assert main([command, "--input", str(src), "--output", str(dst)]) == 0
        src = dst
    small = tmp_path / f"perturb-{SMALL}.jsonl"
    # the first SMALL corpus lines are synthetic_corpus_lines(SMALL, ...), so their stage lines are too
    head = src.read_text(encoding="utf-8").split("\n")[:SMALL]
    small.write_text("".join(line + "\n" for line in head), encoding="utf-8")
    return {SMALL: small, LARGE: src}


def test_select_and_build_peaks_stay_flat_as_the_input_grows(perturbed, tmp_path):
    # an untraced select over every line first, so that the embedding's process-wide
    # window tables hold the same entries in both traced runs
    assert main(["select", "--input", str(perturbed[LARGE]), "--output", str(tmp_path / "warm.jsonl")]) == 0
    peaks = {}
    for n, src in perturbed.items():
        selected, dataset = tmp_path / f"select-{n}.jsonl", tmp_path / f"dataset-{n}.jsonl"
        peaks["select", n] = _peak_bytes(["select", "--input", str(src), "--output", str(selected)])
        peaks["build", n] = _peak_bytes(["build", "--input", str(selected), "--output", str(dataset)])
    for stage in ("select", "build"):
        growth = peaks[stage, LARGE] / peaks[stage, SMALL]
        assert growth < MAX_GROWTH, f"{stage}: {peaks[stage, SMALL]} -> {peaks[stage, LARGE]} bytes ({growth:.1f}x)"
