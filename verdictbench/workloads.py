"""The four verdict workloads, their negative controls and the reference
reports every run is checked against.

Each workload calls one public suite of modinvar.verify.  Why each was chosen
is in README.md.  The "smoke" size runs every workload at q=2, where each
finishes in well under a second, for the benchmark's own tests.

This module imports modinvar only inside the functions that need it, so the
parent process can check digests without loading the program.
"""

import dataclasses
import hashlib
import json
import random
from pathlib import Path

NAMES = ("kernel-q4", "products-q3-all", "products-q4-sample",
         "elimination-q4")

# kernel-q4 uses degree 40 because it covers every relation (T1 at 20, T00 at
# 30 for q=4); the default bound of 16 covers none of them.
PARAMS = {
    "kernel-q4": {"full": {"q": 4, "max_degree": 40},
                  "smoke": {"q": 2, "max_degree": 24}},
    "products-q3-all": {"full": {"q": 3, "sample": "all"},
                        "smoke": {"q": 2, "sample": "all"}},
    "products-q4-sample": {"full": {"q": 4, "sample": "300"},
                           "smoke": {"q": 2, "sample": "10"}},
    "elimination-q4": {"full": {"q": 4}, "smoke": {"q": 2}},
}

SUITES = {"kernel-q4": "check_kernel", "products-q3-all": "check_products",
          "products-q4-sample": "check_products",
          "elimination-q4": "elimination_crosscheck"}

RELATIONS = ("T1", "T1s", "T00", "T01", "T10")

REFERENCE = Path(__file__).resolve().parent / "reference.json"


def params(name, smoke=False):
    return PARAMS[name]["smoke" if smoke else "full"]


def suite_args(name, smoke, seed):
    """Positional and keyword arguments of the suite call after the field."""
    p = params(name, smoke)
    if name == "kernel-q4":
        return (p["max_degree"],), {}
    if SUITES[name] == "check_products":
        if p["sample"] == "all":
            return (), {"sample": "all"}
        return (), {"sample": p["sample"], "seed": seed}
    return (), {}


# ---------------------------------------------------------------------------
# correctness gate: digest of the non-volatile report


def digest(report_json):
    return hashlib.sha256(report_json.encode()).hexdigest()


def load_reference(path=REFERENCE):
    with open(path) as fh:
        return json.load(fh)


def _key(name, smoke):
    return ("smoke/" if smoke else "") + name


def _pairs(n, sample, seed):
    """The basis-index pairs check_products reduces, in its order."""
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    if sample == "all":
        return pairs
    return random.Random(seed).sample(pairs, min(int(sample), len(pairs)))


def expected_digest(ref, name, smoke, seed):
    """Digest the run of this workload and seed must reproduce.

    Fixed workloads store one digest.  A sampled workload stores the report
    item of every pair in its census, so the expected report for any seed is
    rebuilt from the seeded sample, in the byte-stable JSON layout of
    SuiteReport.to_json(include_volatile=False).
    """
    key = _key(name, smoke)
    if key in ref["digests"]:
        return ref["digests"][key]
    s = ref["sampled"][key]
    labels = s["labels"]
    index = {pair: n for n, pair in enumerate(_pairs(len(labels), "all", 0))}
    items = [{"name": "reduce(%s,%s)" % (labels[i], labels[j]),
              "status": "pass",
              "detail": s["details"][s["pair_detail"][index[(i, j)]]]}
             for i, j in _pairs(len(labels), s["sample"], seed)]
    items += [{"name": n, "status": st, "detail": d} for n, st, d in s["tail"]]
    doc = {"suite": "products", "q": s["q"],
           "params": {"sample": s["sample"], "seed": seed},
           "items": items, "overall": "pass"}
    return digest(json.dumps(doc, indent=2, sort_keys=True))


def distinct_blocks(ref, name, smoke, seed):
    """(pairs drawn, distinct fit blocks among them) for a products
    workload; a fit block is the (degree, bidegree) of the product."""
    s = ref["blocks"][_key(name, smoke)]
    pairs = _pairs(len(s["labels"]), params(name, smoke)["sample"], seed)
    deg, bid = s["degree"], s["bidegree"]
    return len(pairs), len({(deg[i] + deg[j], bid[i][0] + bid[j][0],
                             bid[i][1] + bid[j][1]) for i, j in pairs})


# ---------------------------------------------------------------------------
# negative controls, run after timing stops through the same public functions


def flip_cofactor(field, cert):
    """The certificate with one coefficient of its first nonzero cofactor
    changed."""
    from modinvar import Polynomial

    k = next(n for n, c in enumerate(cert.cofactors) if c)
    cof = cert.cofactors[k]
    terms = dict(cof.terms)
    key = min(terms)
    new = field.add_i(terms[key], 1)
    if new:
        terms[key] = new
    else:
        del terms[key]
    cofactors = list(cert.cofactors)
    cofactors[k] = Polynomial(cof.ring, terms)
    return dataclasses.replace(cert, cofactors=cofactors)


def product_certificate(field):
    """A certificate with a nonzero cofactor: the square of the highest
    basis element that has one."""
    from modinvar import context, reduce_product

    for spec in reversed(context(field).enumerate_basis()):
        cert = reduce_product(field, spec, spec)
        if any(cert.cofactors):
            return cert
    raise ValueError("no basis square needs a relation")


def reduced_bases(field):
    """Sorted reduced Groebner bases of the relations without T10 and of all
    five relations."""
    from modinvar import buchberger, context

    ctx = context(field)
    four = buchberger([ctx.relation(n) for n in RELATIONS if n != "T10"])
    five = buchberger([ctx.relation(n) for n in RELATIONS])
    return sorted(map(str, four.basis)), sorted(map(str, five.basis))


def run_control(name, smoke, field):
    """Apply the workload's corruption; returns (caught, detail)."""
    from modinvar import negative_controls, verify_certificate

    if name == "kernel-q4":
        rep = negative_controls(field, params(name, smoke)["max_degree"])
        missed = [it.name for it in rep.items if it.status != "pass"]
        if missed:
            return False, "uncaught controls: %s" % ", ".join(missed)
        return True, "all %d controls caught" % len(rep.items)
    if SUITES[name] == "check_products":
        cert = product_certificate(field)
        ok, detail = verify_certificate(field, flip_cofactor(field, cert))
        if ok:
            return False, "flipped cofactor accepted: %s" % detail
        return True, "flipped cofactor of %s^2 rejected" % cert.f.label()
    four, five = reduced_bases(field)
    if four == five:
        return False, "dropping T10 left the reduced basis unchanged"
    return True, "reduced bases differ (%d vs %d elements)" \
        % (len(four), len(five))
