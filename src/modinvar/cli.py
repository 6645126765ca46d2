"""Command-line front end: every check suite plus polynomial display and
single-product reduction, with reproducible parameters and JSON or text
reports.

Exit codes: 0 all items pass, 1 at least one failing item, 2 invalid input,
3 the time budget ran out.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import verify
from ._version import __version__
from .gens import RELATION_NAMES, BasisSpec, GensError, context, \
    identity_indices, s7_weights
from .gf import FieldError, NotPrime, ff_from_q
from .groebner import DegreeBoundExceeded, TimeoutExceeded
from .mpoly import PolyError

SUPPORTED_Q = (2, 3, 4, 5, 7, 8, 9)

_R4_SHOW = {
    "u0": lambda ctx: ctx.u(0), "u1": lambda ctx: ctx.u(1),
    "u2": lambda ctx: ctx.u(2), "u3": lambda ctx: ctx.u(3),
    "um1": lambda ctx: ctx.u(-1), "um2": lambda ctx: ctx.u(-2),
    "um3": lambda ctx: ctx.u(-3),
    "d0": lambda ctx: ctx.d(0), "d1": lambda ctx: ctx.d(1),
    "d2": lambda ctx: ctx.d(2),
    "d0s": lambda ctx: ctx.ds(0), "d1s": lambda ctx: ctx.ds(1),
    "d2s": lambda ctx: ctx.ds(2),
    "c0": lambda ctx: ctx.c(0), "c1": lambda ctx: ctx.c(1),
    "c0s": lambda ctx: ctx.cs(0), "c1s": lambda ctx: ctx.cs(1),
    "delta": lambda ctx: ctx.delta_r4(),
}

_S7_SHOW = RELATION_NAMES + ("W",)

_IDENTITY_SHOW = ("T0", "K00", "Rs", "Ks", "Kss", "HsId")

SHOW_NAMES = sorted(_R4_SHOW) + ["h"] + sorted(_S7_SHOW) \
    + sorted(_IDENTITY_SHOW)


def _field_from_args(args):
    """The field of --q and --modulus.  Then, before any work, --out must
    open for writing: an OSError here exits 2."""
    if args.q not in SUPPORTED_Q:
        raise NotPrime("q must be one of %s" % (SUPPORTED_Q,))
    field = ff_from_q(args.q, modulus=args.modulus)
    if args.out not in (None, "-"):
        open(args.out, "a").close()
    return field


def _emit(text, out):
    if out in (None, "-"):
        sys.stdout.write(text + "\n")
        return
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _finish(report, args):
    text = report.to_json() if args.format == "json" else report.to_text()
    _emit(text, args.out)
    if report.timed_out:
        return 3
    return 0 if report.overall == "pass" else 1


def _deadline(args):
    return time.monotonic() + args.timeout_secs


def _max_degree(args):
    bound = args.max_degree
    return {"max_degree": verify.default_max_degree(args.q)
            if bound is None else bound}


def _sample(args):
    sample = args.sample
    if sample is None:
        sample = "all" if args.q == 2 else "100"
    # check_products rejects a bad count with VerifyError, which exits 2
    return {"sample": sample, "seed": args.seed}


def cmd_suite(args):
    """Run verify.check_<command> with the keyword arguments of the suite's
    rule."""
    field = _field_from_args(args)
    check = getattr(verify, "check_" + args.command)
    return _finish(check(field, deadline=_deadline(args),
                         **args.suite_args(args)), args)


def cmd_show(args):
    name = args.name
    if name not in SHOW_NAMES:
        raise GensError("unknown name %r; choose one of %s"
                        % (name, ", ".join(SHOW_NAMES)))
    ctx = context(_field_from_args(args))
    indices = range(ctx.q) if name == "h" else identity_indices(name, ctx.q)
    s = args.s
    if indices is None:
        if s is not None:
            raise GensError("%s takes no index --s" % name)
    elif s is None:
        s = indices[0]
    if name == "h":
        poly = ctx.h(s)
    elif name in _R4_SHOW:
        poly = _R4_SHOW[name](ctx)
    elif name in _S7_SHOW:
        poly = ctx.w_poly() if name == "W" else ctx.relation(name)
    else:
        poly = ctx.identity_poly(name, s=s)
    _emit(str(poly), args.out)
    return 0


def cmd_reduce(args):
    field = _field_from_args(args)
    spec_f = BasisSpec.parse(args.f)
    spec_g = BasisSpec.parse(args.g)
    spec_f.validate(args.q)
    spec_g.validate(args.q)
    try:
        cert = verify.reduce_product(field, spec_f, spec_g,
                                     deadline=_deadline(args))
    except verify.NotExpressible as exc:
        doc = {"f": args.f, "g": args.g, "reverified": "fail",
               "detail": str(exc)}
        _emit(json.dumps(doc, indent=2, sort_keys=True) if
              args.format == "json" else "reduce failed: %s" % exc, args.out)
        return 1
    ok, detail = verify.verify_certificate(field, cert)
    doc = cert.to_dict()
    doc["field"] = {"p": field.p, "s": field.s,
                    "modulus": list(field.modulus) if field.modulus else None}
    doc["weights"] = list(s7_weights(args.q))
    doc["reverified"] = "pass" if ok else "fail"
    doc["detail"] = detail
    if args.format == "json":
        _emit(json.dumps(doc, indent=2, sort_keys=True), args.out)
    else:
        lines = ["reduce %s * %s over GF(%d)" % (args.f, args.g, field.q)]
        for spec, poly in sorted(doc["ell"].items()):
            lines.append("  ell[%s] = %s" % (spec, poly))
        for rel, poly in doc["cofactors"].items():
            lines.append("  cofactor[%s] = %s" % (rel, poly))
        lines.append("reverified: %s (%s)" % (doc["reverified"], detail))
        _emit("\n".join(lines), args.out)
    return 0 if ok else 1


def _budget(text):
    """--timeout-secs: whole seconds, 0 or more (0 is a budget already
    spent); a negative or non-integer budget is a usage error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "must be whole seconds, got %r" % text) from None
    if value < 0:
        raise argparse.ArgumentTypeError(
            "must be 0 or more seconds, got %d" % value)
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="modinvar",
        description="Verification workbench for the GL2(F_q) vector "
                    "invariant ring built from seven explicit generators.")
    parser.add_argument("--version", action="version",
                        version="modinvar %s" % __version__)
    # parent parsers: each subcommand takes only the flags it reads
    field = argparse.ArgumentParser(add_help=False)
    field.add_argument("--q", type=int, default=2,
                       help="field size, one of %s" % (SUPPORTED_Q,))
    field.add_argument("--modulus", default=None,
                       help="irreducible modulus for an extension field, "
                            "e.g. 't^2+t+1'")
    field.add_argument("--out", default=None,
                       help="output path (default: standard output)")
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--timeout-secs", type=_budget, default=600)
    run.add_argument("--format", choices=("json", "text"), default="json")
    degree = argparse.ArgumentParser(add_help=False)
    degree.add_argument("--max-degree", type=int, default=None,
                        help="degree bound (default 24 for q=2, else "
                             "2(q^2-1), the degree of T00)")
    sample = argparse.ArgumentParser(add_help=False)
    sample.add_argument("--sample", default=None,
                        help="'all' or a pair count "
                             "(default: all for q=2, 100 otherwise)")
    sample.add_argument("--seed", type=int, default=0)

    sub = parser.add_subparsers(dest="command", required=True)
    # each suite with its extra flags and its rule for the keyword arguments
    # that cmd_suite passes to verify.check_<suite>
    for name, extra, rule, blurb in (
            ("relations", [], lambda args: {},
             "expand every defining identity and check it is 0"),
            ("invariance", [], lambda args: {},
             "act with the full matrix groups on the generators"),
            ("hilbert", [degree], _max_degree,
             "compare the three degreewise dimension counts"),
            ("kernel", [degree], _max_degree,
             "certify the relation ideal equals the evaluation kernel"),
            ("products", [sample], _sample,
             "reduce products of basis elements to module certificates")):
        p = sub.add_parser(name, parents=[field, run] + extra, help=blurb)
        p.set_defaults(func=cmd_suite, suite_args=rule)

    p = sub.add_parser("show", parents=[field],
                       help="print a named polynomial")
    p.add_argument("name", help="one of: %s" % ", ".join(SHOW_NAMES))
    p.add_argument("--s", type=int, default=None,
                   help="family index for h and the R/K/H identities "
                        "(default: the first)")
    p.set_defaults(func=cmd_show)

    p = sub.add_parser("reduce", parents=[field, run],
                       help="certificate for one product of basis elements")
    p.add_argument("f", help="basis spec, e.g. A:1,1,0 or B:0,0,1,0")
    p.add_argument("g", help="basis spec, e.g. C:1,0,0 or Cs:1,0,0")
    p.set_defaults(func=cmd_reduce)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TimeoutExceeded as exc:
        sys.stderr.write("TimeoutExceeded: %s\n" % exc)
        return 3
    except (FieldError, GensError, PolyError, DegreeBoundExceeded,
            verify.VerifyError) as exc:
        sys.stderr.write("%s: %s\n" % (type(exc).__name__, exc))
        return 2
    except OSError as exc:  # --out cannot be written
        sys.stderr.write("OSError: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
