"""Summarise benchmark runs, or compare two sets of them.

    python3 verdictbench/compare.py DIR            # one set
    python3 verdictbench/compare.py BASE_DIR NEW_DIR

Each DIR holds the run records that run.py writes to verdictbench/out/runs/
(copy them aside between commits).  For every workload and end-to-end metric
it prints the number of runs, the median and quartiles of the per-run
medians, and, over all samples of all runs, the highest percentile that has
at least ten samples beyond it with the sample count.  Given two sets it adds
the change of the median against the bound in BENCHMARK.json, and reports
"unresolved" where the base's own spread is wider than the bound.

Results taken with different term-kernel backends are not compared: the
script exits with status 2.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERCENTILES = (99, 95, 90, 75, 50)


def load(directory):
    """workload -> list of untraced run records."""
    runs = {}
    for path in sorted(Path(directory).glob("*.json")):
        with open(path) as fh:
            rec = json.load(fh)
        if not rec["trace"]:
            runs.setdefault(rec["workload"], []).append(rec)
    return runs


def tail(samples):
    """(percentile, value, n) of the highest percentile with at least ten
    samples beyond it, or None when there are fewer than 20 samples."""
    n = len(samples)
    for p in PERCENTILES:
        if n * (100 - p) / 100.0 >= 10:
            rank = max(1, -(-n * p // 100))      # nearest-rank
            return p, sorted(samples)[rank - 1], n
    return None


def summary(recs, metric):
    meds = [r["end_to_end"][metric] for r in recs]
    pooled = [x for r in recs for x in r["samples"][metric]]
    med = statistics.median(meds)
    q1, _, q3 = statistics.quantiles(meds, n=4) if len(meds) > 1 \
        else (med, med, med)
    return {"runs": len(meds), "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med, "tail": tail(pooled)}


def describe(s):
    text = "runs %2d  median %.4g  quartiles %.4g..%.4g (spread %.1f%%)" % (
        s["runs"], s["median"], s["q1"], s["q3"], 100 * s["spread"])
    if s["tail"]:
        text += "  p%d %.4g of %d samples" % s["tail"]
    return text


def backends(runs):
    return {r["env"]["backend"] for recs in runs.values() for r in recs}


def main(argv):
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        bounds = {m["name"]: m["bound"]
                  for m in json.load(fh)["end_to_end"]}
    sets = [load(d) for d in argv]
    if len(sets) == 2 and backends(sets[0]) != backends(sets[1]):
        print("refusing to compare: kernel backends %s vs %s"
              % (sorted(backends(sets[0])), sorted(backends(sets[1]))),
              file=sys.stderr)
        return 2
    for workload in sorted(sets[0]):
        base = sets[0][workload]
        failed = sum(r["failed"] for r in base)
        attempted = sum(r["attempted"] for r in base)
        print("%s  (items failed %d / %d)" % (workload, failed, attempted))
        for metric, bound in bounds.items():
            b = summary(base, metric)
            print("  %-12s %s" % (metric, describe(b)))
            if len(sets) == 1 or workload not in sets[1]:
                continue
            n = summary(sets[1][workload], metric)
            change = n["median"] / b["median"] - 1
            if b["spread"] > bound:
                verdict = "unresolved"
            elif change > bound:
                verdict = "REGRESSED"
            else:
                verdict = "within bound"
            print("  %-12s %s  change %+.1f%% (bound %.0f%%) %s" % (
                "", describe(n), 100 * change, 100 * bound, verdict))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
