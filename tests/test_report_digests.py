"""Golden digests of the byte-stable report of every suite at q=2 and q=3,
and of the products samples at q = 4, 5 and 7: the q=4 one certifies
products over an extension field, and q = 5 and 7 pin the product
congruence and the C-last certificates at larger q.

The non-volatile report JSON is the regression oracle for refactors: any
change in a verdict, a detail string or a parameter changes its SHA-256.
Hilbert, kernel and controls run at the CLI default degree.  Each suite
runs on a fresh context, as in a new process, so no memo left by an earlier
suite (dimensions, basis values, the C-last data) can feed its report.
"""

import hashlib

import pytest

from modinvar import gens, verify
from modinvar.gf import ff_from_q

SUITES = {
    "relations": lambda f, d: verify.check_relations(f),
    "invariance": lambda f, d: verify.check_invariance(f),
    "hilbert": lambda f, d: verify.check_hilbert(f, d),
    "kernel": lambda f, d: verify.check_kernel(f, d),
    "products": lambda f, d: verify.check_products(
        f, sample="all" if f.q == 2 else "100", seed=0),
    "elimination": lambda f, d: verify.elimination_crosscheck(f),
    "controls": lambda f, d: verify.negative_controls(f, d),
}

DIGESTS = {
    (2, "relations"):
        "ea83ecf130dbc5d30eb21de48fe6dc7ba6cef30e81e19a0205d33a241d15732c",
    (2, "invariance"):
        "c07db7363698114accbed678aa65835e1b3e61a210cb8004e9a2dc362ead8f23",
    (2, "hilbert"):
        "554d6eb7dd227522e49984b9c8013cf182974df97e62db50310defd8b6b12beb",
    (2, "kernel"):
        "c313d30f61f24616f0c3788283f6612f0cae54993d91a51018ff1aa42610bd86",
    (2, "products"):
        "d2445bcb8ba9c0c8f80ad02de12b444cee479a6bbfec2a157f30e2ef666d2968",
    (2, "elimination"):
        "1b457354e621ae06f9762be08d6af31055681e597a6cdfa268cf0b3d8f7439c9",
    (2, "controls"):
        "8f12e0476171b512576a008dacced6735dd27ec403296b09695457cf4e3aeff2",
    (3, "relations"):
        "1cebbdb1a37ca20a4493909cc184d88a27cbd242862dcf0a6f6d467e2462cbfd",
    (3, "invariance"):
        "bfca38a923033d2d33bb57868b51d547850876c56b4d897390b9ae3bd484c35d",
    (3, "hilbert"):
        "3e99fd49031632ddee1434d275e284b3f739ecf339f2a052b85e81df1265a845",
    (3, "kernel"):
        "7f9dad76c2ae2a0c2e949283d0d6819dbddb270f027f7623acb11f8a710db59e",
    (3, "products"):
        "92a86539474aa6b42d04ebb83077eb9e174c4142108b88d2857bb7b82e05bd95",
    (3, "elimination"):
        "286735859c12216d038f383c28095e58d98c64b900747ba6ce282309ac093672",
    (3, "controls"):
        "832440681666be3beb0be4dbea48bdd3f6ef4ce900ae4493f46b506c61e56f30",
    (4, "products"):
        "f12650677da54c5e22c52b1f1e6931ce53c19cfc7b954ebc76c57fb942be34d8",
    (5, "products"):
        "f223ebf8e008cf157d907caa68f774165823efcd5b20dd80b6bc0ea49596efc6",
    (7, "products"):
        "f796f93c7539fb82ca272bb04601ed0ee4149d7358eaec1d8a5cf0222de05fbd",
}


@pytest.mark.parametrize("q,suite", sorted(DIGESTS),
                         ids=["q%d-%s" % key for key in sorted(DIGESTS)])
def test_report_digest(q, suite, monkeypatch):
    monkeypatch.setattr(gens, "_CONTEXTS", {})
    field = ff_from_q(q)
    report = SUITES[suite](field, 24 if q == 2 else 16)
    assert report.overall == "pass"
    text = report.to_json(include_volatile=False)
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[(q, suite)]
