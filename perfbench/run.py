"""Benchmark command: one workload, one seed, one JSON line of metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ivf_read_mix --seed 1 --seconds 15 --trace 0

It builds the program from ``src/`` (pure Python: nothing to compile),
generates the workload's inputs from ``--seed``, drives the program
only through SQL on ``PgSimDatabase``/``Session``, checks every answer
and prints, as its last line, ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` prints the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` wraps each layer's entry points,
prints the per-layer metrics and writes the spans to
``.perfbench/spans-<workload>-<seed>.npz``.  It exits 1 if any check
failed and 2 if the program cannot be found.  The known out-of-order
fault of the post-filter over-fetch, which the fixed probe statements
run into, counts in ``failed`` but leaves the run correct.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        choices=("full", "tiny"),
        default="full",
        help="tiny: a few hundred rows, for the benchmark's own tests",
    )
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"program source not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))

    from layers import check_sums
    from workloads import CONFIGS, Bench

    if args.workload not in CONFIGS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(CONFIGS)}")
    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    result = bench.run()
    if args.trace:
        problem = check_sums(bench.stmts)
        if problem is not None:
            result["correct"] = False
            result["failures"].append(problem)
        out = ROOT / ".perfbench"
        out.mkdir(exist_ok=True)
        bench.tracer.dump(bench.spans, out / f"spans-{args.workload}-{args.seed}.npz")
    bench.db.close()
    failures, known = result.pop("failures"), result.pop("known")
    for reason in failures:
        print(f"check failed: {reason}", file=sys.stderr)
    for reason in known:
        print(f"known fault: {reason}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
