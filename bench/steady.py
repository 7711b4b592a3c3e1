"""Steadiness check: two sets of benchmark runs of one commit, compared.

Run from the repository root::

    python3 bench/steady.py

For each workload in ``BENCHMARK.json`` it makes two sets of ten runs of
``bench/run.py --trace 0`` at the file's ``run_seconds``, each run with its own
seed (seeds 0-9, then 10-19).  It prints the share of failed instances in each
set, which must be identical, and a Markdown table with, for every end-to-end
metric, each set's median and quartiles, each set's spread (quartile distance
over the median) and the drift of the second median from the first (positive
is worse).  Every spread and the drift must stay within the metric's bound.
Raw results go to ``bench/work/steady.json``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SETS = 2
RUNS = 10


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    raw: dict[str, list[list[dict]]] = {}
    rows = []
    steady = True
    for workload in (w["name"] for w in spec["workloads"]):
        sets = []
        for k in range(SETS):
            started = time.monotonic()
            sets.append([one_run(workload, k * RUNS + i, spec["run_seconds"]) for i in range(RUNS)])
            print(f"{workload}: set {k + 1} took {time.monotonic() - started:.0f} s", flush=True)
        raw[workload] = sets

        shares = [(sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs)) for runs in sets]
        same_share = len({failed / attempted for failed, attempted in shares}) == 1
        correct = all(r["correct"] for runs in sets for r in runs)
        steady &= same_share and correct
        print(f"{workload}: every run correct: {correct}; failed per set: "
              + ", ".join(f"{failed}/{attempted}" for failed, attempted in shares)
              + ("" if same_share else " (shares differ)"))

        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            summaries = [summarise([r["metrics"][name]["value"] for r in runs]) for runs in sets]
            spreads = [(q3 - q1) / median for median, q1, q3 in summaries]
            first, second = summaries[0][0], summaries[-1][0]
            drift = (second - first if metric["better"] == "lower" else first - second) / first
            ok = abs(drift) <= bound and all(spread <= bound for spread in spreads)
            steady &= ok
            cells = [f"{m:.4g} [{q1:.4g}, {q3:.4g}]" for m, q1, q3 in summaries]
            cells += [f"{spread:.1%}" for spread in spreads]
            rows.append(f"| `{workload}` | `{name}` | " + " | ".join(cells)
                        + f" | {drift:+.1%} | {bound} | {'yes' if ok else 'NO'} |")

    print("| workload | metric | set 1 median [q1, q3] | set 2 median [q1, q3] "
          "| spread 1 | spread 2 | drift | bound | within |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- | --- |")
    print("\n".join(rows))
    out = BENCH / "work" / "steady.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(raw, indent=1), encoding="utf-8")
    print(f"{'steady' if steady else 'NOT steady'}; raw results in {out}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
