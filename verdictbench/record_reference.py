"""Record reference.json, the correctness oracle of the benchmark.

    PYTHONPATH=src python3 verdictbench/record_reference.py

Runs every workload at full and smoke size once, refuses to record unless the
report's overall verdict is "pass", and stores the SHA-256 of its
non-volatile JSON.  For a sampled workload it runs the whole pair census
instead and stores each pair's report item, so that the expected report of
any seed can be rebuilt.  The q=4 census has 16,290 pairs and takes several
minutes.  Rerun only when a change is meant to alter a report.
"""

import json
import subprocess
import sys

import workloads


def record(name, smoke, ref):
    from modinvar import context, ff_from_q, verify

    p = workloads.params(name, smoke)
    field = ff_from_q(p["q"])
    key = ("smoke/" if smoke else "") + name
    suite = getattr(verify, workloads.SUITES[name])
    sampled = p.get("sample", "all") != "all"
    if sampled:
        report = suite(field, sample="all")
    else:
        sargs, skw = workloads.suite_args(name, smoke, 0)
        report = suite(field, *sargs, **skw)
    if report.overall != "pass":
        raise SystemExit("%s: overall is %s; not recording"
                         % (key, report.overall))
    ctx = context(field)
    specs = ctx.enumerate_basis()
    labels = [s.label() for s in specs]
    if workloads.SUITES[name] == "check_products":
        ref["blocks"][key] = {
            "labels": labels,
            "degree": [s.degree(ctx.q) for s in specs],
            "bidegree": [ctx.r4_bidegree(ctx.basis_value(s)) for s in specs]}
    if not sampled:
        ref["digests"][key] = workloads.digest(
            report.to_json(include_volatile=False))
        return
    n_pairs = len(labels) * (len(labels) + 1) // 2
    details = []
    pair_detail = []
    for it in report.items[:n_pairs]:
        if it.detail not in details:
            details.append(it.detail)
        pair_detail.append(details.index(it.detail))
    ref["sampled"][key] = {
        "q": p["q"], "sample": p["sample"], "labels": labels,
        "details": details, "pair_detail": pair_detail,
        "tail": [[it.name, it.status, it.detail]
                 for it in report.items[n_pairs:]]}


def main():
    rev = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                         text=True, cwd=workloads.REFERENCE.parent).stdout
    ref = {"recorded_from": rev.strip() or None, "digests": {},
           "sampled": {}, "blocks": {}}
    for smoke in (True, False):
        for name in workloads.NAMES:
            record(name, smoke, ref)
            print("recorded", ("smoke/" if smoke else "") + name, flush=True)
    with open(workloads.REFERENCE, "w") as fh:
        json.dump(ref, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
