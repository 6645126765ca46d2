"""Run one verdict workload of modinvar and print its metrics.

    python3 verdictbench/run.py --workload kernel-q4 --seed 0 --seconds 20 \
        --trace 0

Run from a checkout that holds src/modinvar.  Every sample is a fresh
interpreter (child.py) that imports modinvar, builds the field and its
context and calls one suite of modinvar.verify; samples run one after the
other, a closed loop with one client.  A run takes a few set-up-only samples,
each after a reference process, then suite samples until --seconds would be
exceeded (at least one), and with --trace 1 one more, traced, sample.  Times
are in reference seconds (pace.py): a suite sample probes the machine's
speed while it runs and scales its times to a fixed reference speed, and a
set-up time is scaled by the reference process started just before it.  The
clock readings are printed and recorded too.

Every suite sample must reproduce the reference digest of its non-volatile
report and catch its negative control; a sample that does not counts all its
report items as failed and its timings are dropped.

The last line of standard output is one JSON object with "correct",
"attempted", "failed" (report items) and "metrics": the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1.  The lines before it
describe the run; the full record is also written under verdictbench/out/.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pace
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
CHILD = HERE / "child.py"

SETUP_PAIRS = 8           # set-up-only samples per run, each after a
                          # reference process; after one warm-up of each
RUN_LIMIT_S = 170         # a run must end within 180 s

END_TO_END = {"setup_s": "s", "verdict_s": "s", "cpu_s": "s",
              "peak_rss_mb": "MB"}

SPAN_FIELDS = {
    "action.invariant_dimension": ("calls", "self_s"),
    "action.invariant_bidegree_dimension": ("calls", "self_s", "cols"),
    "linalg.rank_field": ("calls", "self_s", "cells"),
    "linalg.rank_gf2": ("calls", "self_s", "cells"),
    "linalg.rank_modp": ("calls", "self_s"),
    "linalg.solve_modp": ("calls", "self_s", "cells"),
    "linalg.solve_generic": ("calls", "self_s", "cells"),
    "verify.fit_in_module": ("calls", "self_s", "cols", "distinct_blocks",
                             "distinct_ratio"),
    "verify.reduce_product": ("calls", "self_s"),
    "verify.verify_certificate": ("calls", "self_s"),
    "verify.standard_image_ranks": ("self_s",),
    "gens.basis_value": ("calls", "self_s", "distinct_ratio"),
    "gens.basis_pullback": ("calls", "self_s"),
    "gens.pi": ("calls", "self_s"),
    "groebner.buchberger": ("calls", "self_s", "pairs_processed",
                            "basis_len"),
    "groebner.normal_form": ("calls", "tracked_calls", "self_s"),
    "groebner.cofactors_on_inputs": ("calls", "self_s"),
    "groebner.standard_monomial_count": ("calls", "self_s"),
    "mpoly.mul": ("calls", "self_s", "terms_out"),
    "mpoly.substitute": ("calls", "self_s"),
    "kernels.mul_terms": ("calls", "self_s"),
    "kernels.normal_form_terms": ("calls", "self_s"),
}
UNITS = {"self_s": "s", "distinct_ratio": "ratio"}   # every other field counts

PER_LAYER = {"%s.%s" % (span, f): UNITS.get(f, "count")
             for span, fields in SPAN_FIELDS.items() for f in fields}
PER_LAYER.update({"gens.context.s": "s", "gf.ff_from_q.s": "s",
                  "trace_overhead_s": "s"})


def layer_metrics(sample, untraced_verdict_s):
    """Per-layer metric values from a traced sample."""
    layers = sample["layers"]
    out = {}
    for span, fields in SPAN_FIELDS.items():
        agg = layers[span]
        for f in fields:
            if f == "distinct_blocks":
                v = agg["distinct"]
            elif f == "distinct_ratio":
                v = agg["distinct"] / agg["calls"] if agg["calls"] else 0.0
            else:
                v = agg.get(f, 0)
            out["%s.%s" % (span, f)] = v
    # _fit_in_module makes every solve; their columns are its candidates
    out["verify.fit_in_module.cols"] = sum(
        layers[s].get("cols", 0)
        for s in ("linalg.solve_modp", "linalg.solve_generic"))
    out["gens.context.s"] = sample["context_s"]
    out["gf.ff_from_q.s"] = sample["ff_from_q_s"]
    out["trace_overhead_s"] = sample["verdict_s"] - untraced_verdict_s
    return out


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "modinvar").glob("*.py*")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_rev():
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def spawn(args, deadline, extra=()):
    """Run child.py once; returns its result dict, or None if it failed."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(CHILD), "--workload", args.workload,
           "--seed", str(args.seed)] + (["--smoke"] if args.smoke else []) \
        + list(extra)
    spawned = time.monotonic()
    try:
        res = subprocess.run(cmd + ["--spawned", repr(spawned)], cwd=ROOT,
                             env=env, capture_output=True, text=True,
                             timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        print("sample killed after exceeding the run limit", file=sys.stderr)
        return None
    if res.returncode != 0:
        sys.stderr.write(res.stderr)
        return None
    out = json.loads(res.stdout.splitlines()[-1])
    out["wall_s"] = time.monotonic() - spawned
    return out


def check(sample, expected):
    """Reasons this suite sample fails the correctness gate."""
    bad = []
    if sample["digest"] != expected:
        bad.append("non-volatile report differs from the reference")
    if sample["not_pass"]:
        bad.append("%d report items not pass" % sample["not_pass"])
    if not sample["control_caught"]:
        bad.append("negative control uncaught: %s" % sample["control"])
    return bad


def main(argv=None):
    ap = argparse.ArgumentParser(
        description="Run one modinvar verdict workload.")
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=0,
                    help="workload seed; products-q4-sample draws its pairs "
                         "with it")
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="time budget for the suite samples")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run the workload at q=2 (for tests)")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "modinvar" / "__init__.py").is_file():
        print("no modinvar source under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    ref = workloads.load_reference()
    expected = workloads.expected_digest(ref, args.workload, args.smoke,
                                         args.seed)

    spawn(args, deadline, ["--setup-only"])     # warm-up: byte-compiles
    spawn(args, deadline, ["--reference"])
    pairs = [(spawn(args, deadline, ["--reference"]),
              spawn(args, deadline, ["--setup-only"]))
             for _ in range(SETUP_PAIRS)]
    samples = []
    t0 = time.monotonic()
    while True:
        samples.append(spawn(args, deadline))
        done = [s["wall_s"] for s in samples if s]
        if not done or time.monotonic() - t0 + statistics.median(done) \
                > args.seconds:
            break
    out_dir = OUT / ("smoke" if args.smoke else "runs")
    out_dir.mkdir(parents=True, exist_ok=True)
    traced = None
    if args.trace:
        traced = spawn(args, deadline, ["--trace", str(
            out_dir / ("%s.spans" % args.workload))])
        samples.append(traced)

    attempted = failed = 0
    good = []
    problems = []
    for s in samples:
        if s is None:
            attempted += 1
            failed += 1
            problems.append("sample crashed or timed out")
            continue
        bad = check(s, expected)
        attempted += s["items"]
        if bad:
            failed += s["items"]
            problems.extend(bad)
        elif s is not traced:
            good.append(s)
    pairs = [(r, p) for r, p in pairs if r and p]
    backends = {s["env"]["backend"] for s in [p for r, p in pairs]
                + [s for s in samples if s]}
    if len(backends) > 1:
        problems.append("samples used different kernel backends %s"
                        % sorted(backends))
    timed = good or [s for s in samples if s and s is not traced]
    if not timed or not pairs:
        print("no sample finished; nothing to report", file=sys.stderr)
        return 1

    values = {"setup_s": [p["setup_wall_s"] / r["setup_wall_s"]
                          * pace.REF_START_S for r, p in pairs],
              "verdict_s": [s["verdict_s"] for s in timed],
              "cpu_s": [s["cpu_s"] for s in timed],
              "peak_rss_mb": [s["peak_rss_mb"] for s in timed]}
    end_to_end = {k: statistics.median(v) for k, v in values.items()}
    # the same times as the wall and CPU clocks read them
    clock = {"setup_wall_s": [p["setup_wall_s"] for r, p in pairs],
             "reference_wall_s": [r["setup_wall_s"] for r, p in pairs],
             "verdict_wall_s": [s["verdict_wall_s"] for s in timed],
             "cpu_wall_s": [s["cpu_wall_s"] for s in timed]}
    record = {
        "workload": args.workload, "seed": args.seed, "smoke": args.smoke,
        "seconds": args.seconds, "trace": args.trace,
        "params": workloads.params(args.workload, args.smoke),
        "env": dict(timed[0]["env"], git_rev=git_rev(),
                    source_sha256=source_digest(), nproc=os.cpu_count()),
        "samples": dict(values, **clock), "end_to_end": end_to_end,
        "attempted": attempted, "failed": failed,
        "items_failed_ratio": failed / attempted, "problems": problems,
        "expected_digest": expected,
        "run_s": time.monotonic() - started,
    }
    if workloads.SUITES[args.workload] == "check_products":
        record["pairs_drawn"], record["distinct_blocks"] = \
            workloads.distinct_blocks(ref, args.workload, args.smoke,
                                      args.seed)

    print("env: %s" % json.dumps(record["env"], sort_keys=True))
    for k, v in values.items():
        print("%s: median %.6g %s of %d samples %s" % (
            k, end_to_end[k], END_TO_END[k], len(v),
            " ".join("%.6g" % x for x in v)))
    for k, v in clock.items():
        print("%s: median %.6g s of %d samples (clock time, not a metric)"
              % (k, statistics.median(v), len(v)))
    print("items_failed_ratio: %.6g (%d of %d report items)"
          % (failed / attempted, failed, attempted))
    if "pairs_drawn" in record:
        print("pairs drawn: %d in %d distinct fit blocks"
              % (record["pairs_drawn"], record["distinct_blocks"]))
    for msg in sorted(set(problems)):
        print("problem: %s" % msg)

    if args.trace:
        if traced is None:
            print("the traced sample failed", file=sys.stderr)
            return 1
        metrics = layer_metrics(traced, end_to_end["verdict_s"])
        units = PER_LAYER
        record["layers"] = traced["layers"]
        record["traced_verdict_s"] = traced["verdict_s"]
        layers = dict(traced["layers"])
        rest = layers.pop("verify." + workloads.SUITES[args.workload])
        print("traced verdict_s %.4f s = self time of the wrapped layers "
              "%.4f s + rest of the suite %.4f s; untraced median %.4f s; "
              "trace_overhead_s %.4f s (%d spans)" % (
                  traced["verdict_s"],
                  sum(a["self_s"] for a in layers.values()), rest["self_s"],
                  end_to_end["verdict_s"], metrics["trace_overhead_s"],
                  traced["spans"]))
        print("  layers by inclusive time (share of the traced verdict_s):")
        for n, a in sorted(layers.items(),
                           key=lambda kv: -kv[1]["total_s"])[:8]:
            print("  %-38s incl %8.4f s %5.1f%%  self %8.4f s %5.1f%%" % (
                n, a["total_s"], 100.0 * a["total_s"] / traced["verdict_s"],
                a["self_s"], 100.0 * a["self_s"] / traced["verdict_s"]))
    else:
        metrics = end_to_end
        units = END_TO_END
    record["metrics"] = metrics

    with open(out_dir / ("%s-seed%d-trace%d-%d.json" % (
            args.workload, args.seed, args.trace, time.time_ns())), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(json.dumps({"correct": failed == 0 and not problems,
                      "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
