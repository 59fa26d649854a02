"""Run one workload of the benchmark and print its metrics.

    python3 perfbench/run.py --workload ssb_star --seed 1 --seconds 12 --trace 0

Prints every metric by name with its unit, then — as the last line of
standard output — one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  Exits non-zero when an output was wrong.
``--out FILE`` appends the full record (what ``compare.py`` reads).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

sys.path[:0] = [str(ROOT), str(ROOT / "src")]


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="smoke-test sizes (seconds, not a measurement)")
    parser.add_argument("--out", help="append the full JSON record here")
    parser.add_argument("--trace-file", help="write the traced spans here")
    args = parser.parse_args(argv)

    # Before NumPy / repro are imported.  One load-generating thread on
    # a two-core host: BLAS must not fan out.  No REPRO_* policy variable
    # of the caller's shell may reconfigure the engines.  No hugepage
    # advice on NumPy's >= 4 MiB arrays: with THP defrag=madvise each
    # such page fault may stall in direct compaction, depending on how
    # fragmented the host's memory is, and identical em_blocking code
    # then spreads 10 % run to run instead of 4 %.
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    from perfbench.harness import run_workload

    record = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), quick=args.quick,
                          trace_file=args.trace_file)
    group = "per_layer" if args.trace else "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in spec[group]}
    values = record[group]
    if set(values) != set(units):
        raise SystemExit(
            f"metrics out of step with BENCHMARK.json: "
            f"{sorted(set(values) ^ set(units))}")
    for stmt, problem in record["problems"].items():
        print(f"WRONG {args.workload}/{stmt}: {problem}", file=sys.stderr)
    for name, value in values.items():
        print(f"{name:28s} {value:14.6f} {units[name]}")
    if args.out:
        with open(args.out, "a") as out:
            out.write(json.dumps(record) + "\n")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
