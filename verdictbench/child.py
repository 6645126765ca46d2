"""One benchmark process: set up modinvar, call one suite, check, report.

run.py starts this script once per sample, in a fresh interpreter, because
contexts and caches live at module level and a command-line user pays for
them on every run.  It prints one JSON line:

    setup_wall_s   with --setup-only or --reference: spawn (--spawned, a
                   time.monotonic() reading taken by the parent just before
                   it started this process) until set-up is done
    verdict_s      the suite call until its report is returned
    cpu_s          user plus system CPU time of this process at that point
    peak_rss_mb    maximum resident memory of this process at that point
    digest         SHA-256 of the report's non-volatile JSON
    control        whether the workload's negative control was caught

verdict_s and cpu_s are in reference seconds (pace.py): a suite process
probes the machine's speed every 0.1 s from its start and scales each time
by the mean speed of its stretch.  Their clock readings, less the probes,
are verdict_wall_s and cpu_wall_s.

With --setup-only the process stops before the suite, without probes; with
--reference it only imports numpy, the set-up a bare interpreter shares with
modinvar's, for run.py to gauge set-up times against.  With --trace PATH,
spans are recorded around the program's public functions and written to
PATH, and the line also carries the per-layer aggregates.
"""

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import pace
import spans as spanlib
import workloads

ROOT = Path(__file__).resolve().parents[1]


def _cols_ab(args, kwargs, result):
    return {"cols": (args[1] + 1) * (args[2] + 1)}


def _shape(a):
    shape = getattr(a, "shape", None)
    if shape is not None:
        return shape[0], shape[1]
    return len(a), (len(a[0]) if len(a) else 0)


def _cells(args, kwargs, result):
    r, c = _shape(args[0])
    return {"cells": r * c}


def _solve(args, kwargs, result):
    r, c = _shape(args[0])
    return {"cells": r * c, "cols": c}


def _block(args, kwargs, result):
    target, degree = args[1], args[2]
    e1, e2, e3, e4 = target.ring.unpack(next(iter(target.terms)))
    return {"key": (degree, e1 + e2, e3 + e4)}


def _spec(args, kwargs, result):
    return {"key": args[1]}


def _basis(args, kwargs, result):
    return {"pairs_processed": result.pairs_processed,
            "basis_len": len(result.basis)}


def _tracked(args, kwargs, result):
    track = kwargs.get("track", args[2] if len(args) > 2 else False)
    return {"tracked_calls": 1 if track else 0}


def _terms(args, kwargs, result):
    return {"terms_out": len(result.terms)}


# (span name, module[:class], attribute, counters).  Every module of the
# package that binds the same object is patched, because verify imports
# buchberger, normal_form and invariant_dimension by name.
TRACED = (
    ("action.invariant_dimension", "action", "invariant_dimension", None),
    ("action.invariant_bidegree_dimension", "action",
     "invariant_bidegree_dimension", _cols_ab),
    ("linalg.rank_field", "linalg", "rank_field", _cells),
    ("linalg.rank_gf2", "linalg", "rank_gf2", _cells),
    ("linalg.rank_modp", "linalg", "rank_modp", None),
    ("linalg.solve_modp", "linalg", "solve_modp", _solve),
    ("linalg.solve_generic", "linalg", "solve_generic", _solve),
    ("verify.fit_in_module", "verify", "_fit_in_module", _block),
    ("verify.reduce_product", "verify", "reduce_product", None),
    ("verify.verify_certificate", "verify", "verify_certificate", None),
    ("verify.standard_image_ranks", "verify", "_standard_image_ranks", None),
    ("gens.basis_value", "gens:InvariantContext", "basis_value", _spec),
    ("gens.basis_pullback", "gens:InvariantContext", "basis_pullback", None),
    ("gens.pi", "gens:InvariantContext", "pi", None),
    ("groebner.buchberger", "groebner", "buchberger", _basis),
    ("groebner.normal_form", "groebner", "normal_form", _tracked),
    ("groebner.cofactors_on_inputs", "groebner", "cofactors_on_inputs",
     None),
    ("groebner.standard_monomial_count", "groebner",
     "standard_monomial_count", None),
    ("mpoly.mul", "mpoly:Polynomial", "__mul__", _terms),
    ("mpoly.substitute", "mpoly:Polynomial", "substitute", None),
    ("kernels.mul_terms", "_kernels", "mul_terms", None),
    ("kernels.normal_form_terms", "_kernels", "normal_form_terms", None),
)


def install(rec):
    """Wrap every TRACED function wherever the package looks it up."""
    package = [m for n, m in list(sys.modules.items())
               if n == "modinvar" or n.startswith("modinvar.")]
    for span, where, attr, count in TRACED:
        modname, _, clsname = where.partition(":")
        owner = sys.modules["modinvar." + modname]
        if clsname:
            owner = getattr(owner, clsname)
            targets = [owner]
        else:
            targets = package
        orig = getattr(owner, attr)
        wrapped = rec.wrap(span, orig, count)
        for target in targets:
            for name, value in list(vars(target).items()):
                if value is orig:
                    setattr(target, name, wrapped)


def scaled(layers, scale):
    """Per-layer aggregates with their times multiplied by scale."""
    return {name: dict(agg, self_s=agg["self_s"] * scale,
                       total_s=agg["total_s"] * scale)
            for name, agg in layers.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--smoke", action="store_true")
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--reference", action="store_true")
    mode.add_argument("--trace", metavar="PATH")
    args = ap.parse_args(argv)

    if args.reference:
        import numpy  # noqa: F401
        print(json.dumps({"setup_wall_s": time.monotonic() - args.spawned}))
        return 0
    if args.setup_only:
        return run_sample(args, None)
    pacer = pace.Pacer()
    try:
        return run_sample(args, pacer)
    finally:
        pacer.stop()


def run_sample(args, pacer):
    import modinvar
    from modinvar import _kernels, context, ff_from_q, verify

    src = (ROOT / "src").resolve()
    if src not in Path(modinvar.__file__).resolve().parents:
        print("modinvar imported from %s, not from %s"
              % (modinvar.__file__, src), file=sys.stderr)
        return 2

    p = workloads.params(args.workload, args.smoke)
    t0 = time.perf_counter()
    field = ff_from_q(p["q"])
    t1 = time.perf_counter()
    context(field)
    t2 = time.perf_counter()

    suite = getattr(verify, workloads.SUITES[args.workload])
    rec = None
    if args.trace:
        rec = spanlib.Recorder("%s/%d/%d" % (args.workload, args.seed,
                                             os.getpid()))
        install(rec)
        suite = rec.wrap("verify." + suite.__name__, suite)
    sargs, skw = workloads.suite_args(args.workload, args.smoke, args.seed)

    out = {"pid": os.getpid(),
           "env": {"python": platform.python_version(),
                   "numpy": sys.modules["numpy"].__version__,
                   "backend": _kernels.BACKEND,
                   "MODINVAR_PURE_PY": os.environ.get("MODINVAR_PURE_PY")}}
    if pacer is None:
        out["setup_wall_s"] = time.monotonic() - args.spawned
        print(json.dumps(out))
        return 0

    before = pacer.mark()
    origin = pacer.origin
    setup_scale = pace.factor(origin, before)
    out["ff_from_q_s"] = (t1 - t0) * setup_scale
    out["context_s"] = (t2 - t1) * setup_scale

    report = suite(field, *sargs, **skw)
    after = pacer.mark()
    out["verdict_wall_s"] = pace.net_wall(before, after)
    out["verdict_s"] = pace.wall_ref(before, after)
    out["cpu_wall_s"] = pace.net_cpu(origin, after)
    out["cpu_s"] = pace.cpu_ref(origin, after)
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0

    out["digest"] = workloads.digest(report.to_json(include_volatile=False))
    out["items"] = len(report.items)
    out["not_pass"] = sum(it.status != "pass" for it in report.items)
    if rec is not None:
        # span times are wall time of the traced process; the same scale
        # as its verdict_s puts them in reference seconds
        out["layers"] = scaled(spanlib.by_name(rec), out["verdict_s"]
                               / (after.wall - before.wall))
        out["spans"] = len(rec.name)
        rec.write(args.trace)
    # the control runs after timing and after the spans are taken
    out["control_caught"], out["control"] = workloads.run_control(
        args.workload, args.smoke, field)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
