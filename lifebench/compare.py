"""Compare two result sets of the benchmark.

    python3 lifebench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds the records ``run.py`` appends to ``lifebench/out/results.jsonl``
(copy it aside between the two commits).  Untraced full-size records are
grouped by workload; for every end-to-end metric the script prints each
side's median and quartiles, the change of the median as a share of the
base median (positive is worse), and a verdict against the metric's bound in
BENCHMARK.json.  It also lists seeds whose behaviour digests differ.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> dict:
    by_workload: dict = {}
    for line in Path(path).read_text().splitlines():
        rec = json.loads(line)
        if rec["trace"] == 0 and not rec["toy"]:
            by_workload.setdefault(rec["workload"], []).append(rec)
    return by_workload


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, change = load(argv[0]), load(argv[1])
    for workload in sorted(set(base) & set(change)):
        print(f"== {workload}: {len(base[workload])} base runs, {len(change[workload])} change runs")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            b = quartiles([r["metrics"][name] for r in base[workload]])
            c = quartiles([r["metrics"][name] for r in change[workload]])
            worse = sign * (c[1] - b[1]) / b[1]
            spread = (b[2] - b[0]) / b[1]
            if spread > bound:
                verdict = "unresolved (base spread above bound)"
            elif worse > bound:
                verdict = "WORSE beyond bound"
            else:
                verdict = "within bound"
            print(f"  {name:12s} base {b[1]:.6g} [{b[0]:.6g}, {b[2]:.6g}]  change {c[1]:.6g} "
                  f"[{c[0]:.6g}, {c[2]:.6g}]  worse by {worse:+.3f} (bound {bound})  {verdict}")
        digests = {r["machine"]["seed"]: r["digest"] for r in base[workload]}
        differ = sorted({r["machine"]["seed"] for r in change[workload]
                         if r["machine"]["seed"] in digests and digests[r["machine"]["seed"]] != r["digest"]})
        print(f"  digests differ for seeds: {differ}" if differ else "  digests equal on every shared seed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
