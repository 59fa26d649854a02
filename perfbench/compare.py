"""Compare result files written by ``run.py --out``.

    python3 perfbench/compare.py A.jsonl [A2.jsonl ...]
    python3 perfbench/compare.py A.jsonl ... -- B.jsonl ...

One side: the run-to-run spread of every (workload, end-to-end metric),
as the driver computes it — interquartile distance over the median —
next to the bound from BENCHMARK.json; ``steady`` needs a spread under
a third of the bound.  Two sides: both medians and quartiles, the ratio
B/A with its base, and a verdict: ``worse`` when B's median is worse
than A's by more than the bound, ``unresolved`` when either side's
spread is wider than the bound (unless every B run beats every A run),
else ``ok``.  Exits 1 when any row is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(paths: list[str]) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> values, one per untraced run."""
    values: dict[tuple[str, str], list[float]] = defaultdict(list)
    for path in paths:
        for line in Path(path).read_text().splitlines():
            record = json.loads(line)
            if record["trace"] or record["quick"]:
                continue
            for metric, value in record["end_to_end"].items():
                values[record["workload"], metric].append(value)
    return values


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: list[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median


def main(argv: list[str]) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    split = argv.index("--") if "--" in argv else len(argv)
    side_a, side_b = load(argv[:split]), load(argv[split + 1:])
    if not side_a:
        print(__doc__)
        return 2
    worse = 0
    for (workload, name), a in sorted(side_a.items()):
        bound, unit = metrics[name]["bound"], metrics[name]["unit"]
        q1, median, q3 = quartiles(a)
        row = (f"{workload:13s} {name:19s} n={len(a):<3d} "
               f"A {median:10.4f} [{q1:.4f}, {q3:.4f}] {unit:4s} "
               f"spread {spread(a):6.2%} of bound {bound:.0%}")
        if not side_b:
            print(row, "steady" if spread(a) < bound / 3 else "NOISY")
            continue
        b = side_b[workload, name]
        b1, b_median, b3 = quartiles(b)
        ratio = b_median / median
        lower = metrics[name]["better"] == "lower"
        loss = ratio - 1 if lower else 1 - ratio
        b_always_better = (max(b) < min(a)) if lower else (min(b) > max(a))
        if loss > bound:
            verdict = "worse"
            worse += 1
        elif max(spread(a), spread(b)) > bound and not b_always_better:
            verdict = "unresolved"
        else:
            verdict = "ok"
        print(f"{row} | B {b_median:10.4f} [{b1:.4f}, {b3:.4f}] "
              f"spread {spread(b):6.2%} | B/A {ratio:.4f} "
              f"(base A = {median:.4f} {unit}) {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
