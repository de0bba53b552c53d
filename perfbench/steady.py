"""Steadiness check: run one workload in two sets of seeded runs.

    python3 perfbench/steady.py --workload ivf_churn --runs 10

Each set runs ``perfbench/run.py`` once per seed (set A seeds
``1..runs``, set B ``runs+1..2*runs``) with the ``run_seconds`` of
``BENCHMARK.json``.  The runs alternate between the sets (A1, B1, A2,
B2, ...), so a change in the host's speed falls on both alike.  For
every end-to-end metric it prints each set's median and quartiles, the
quartile spread as a share of the median, and whether the sets agree
within the metric's bound: each set's spread is within the bound and
the two medians differ by at most the bound, either way, as a share of
set A's.  Exits 1 if any run fails, the sets' shares of failed
operations differ, or any metric disagrees.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py")]
    cmd += ["--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """``(q1, median, q3, (q3 - q1) / median)`` from ``statistics.quantiles(n=4)``."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else float("inf")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--show", action="store_true", help="print every run's value")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    sets: list[list[dict]] = [[], []]
    for i in range(args.runs):
        for results, seed in zip(sets, (i + 1, i + 1 + args.runs)):
            result = run_once(args.workload, seed, seconds)
            results.append(result)
            print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']}",
                  file=sys.stderr)

    ok = True
    shares = [{r["failed"] / r["attempted"] for r in results} for results in sets]
    if shares[0] != shares[1] or len(shares[0]) != 1:
        print(f"failed shares differ: {shares}")
        ok = False
    print(f"{'metric':24} {'set':3} {'q1':>12} {'median':>12} {'q3':>12} {'spread':>8}  verdict")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        bound = metric["bound"]
        stats = [spread([r["metrics"][name]["value"] for r in results]) for results in sets]
        a, b = stats[0][1], stats[1][1]
        differ = abs(b - a) / a if a else float("inf")
        agree = all(s[3] <= bound for s in stats) and differ <= bound
        ok &= agree
        verdict = "agree" if agree else "DISAGREE"
        verdict += f" (bound {bound}, medians differ by {differ:.3f})"
        for label, (q1, med, q3, share), results in zip("AB", stats, sets):
            print(f"{name:24} {label:3} {q1:12.5g} {med:12.5g} {q3:12.5g} {share:8.3f}  "
                  + (verdict if label == "B" else ""))
            if args.show:
                print("    " + " ".join(f"{r['metrics'][name]['value']:.4g}" for r in results))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
