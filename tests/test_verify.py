"""Check suites, report format, and reduction certificates."""

import hashlib
import json
import time

import numpy as np
import pytest
from test_action import ExpiringClock
from test_report_digests import DIGESTS

from modinvar import gens, groebner, linalg, verify
from modinvar.gens import (
    RELATION_NAMES,
    BasisSpec,
    InvariantContext,
    context_for_q,
)
from modinvar.gf import ff_from_q
from modinvar.groebner import TimeoutExceeded
from modinvar.verify import (
    check_hilbert,
    elimination_crosscheck,
    check_invariance,
    check_kernel,
    check_products,
    check_relations,
    default_max_degree,
    hilbert_series_from_basis,
    negative_controls,
    reduce_product,
    verify_certificate,
)

# brute-force invariant dimensions, frozen
H_Q2 = [1, 0, 3, 4, 6, 10, 17, 18, 31, 38, 48, 62, 81, 90, 119, 138, 162,
        192, 229, 252, 303, 340, 384, 436, 497]
H_Q3 = [1, 0, 1, 0, 3, 0, 5, 0, 10, 0, 14, 0, 23, 0, 31, 0, 46]


@pytest.mark.parametrize("q", (2, 3))
def test_relations_suite(q):
    rep = check_relations(ff_from_q(q))
    assert rep.overall == "pass"
    assert rep.suite == "relations"
    names = {it.name for it in rep.items}
    assert {"T0", "T1", "T1s", "K00", "T00", "T10", "T01",
            "delta", "hboundary"} <= names
    assert all(it.status == "pass" for it in rep.items)


def test_invariance_suite():
    rep = check_invariance(ff_from_q(2))
    assert rep.overall == "pass"
    names = [it.name for it in rep.items]
    assert names.count("d2-control") == 1


def test_hilbert_suite_and_series():
    rep = check_hilbert(ff_from_q(2), 14)
    assert rep.overall == "pass"
    assert rep.params == {"max_degree": 14}
    series = hilbert_series_from_basis(context_for_q(2), 24)
    assert series == H_Q2
    series3 = hilbert_series_from_basis(context_for_q(3), 16)
    assert series3 == H_Q3


def test_kernel_suite():
    rep = check_kernel(ff_from_q(2), 12)
    assert rep.overall == "pass"
    names = {it.name for it in rep.items}
    assert {"relations-in-kernel", "groebner", "standard-monomials",
            "d=12"} <= names


def test_products_suite_all_pairs():
    rep = check_products(ff_from_q(2), sample="all")
    assert rep.overall == "pass"
    reduces = [it for it in rep.items if it.name.startswith("reduce(")]
    assert len(reduces) == 21  # upper triangle of 6 basis elements
    names = {it.name for it in rep.items}
    assert {"congruence:base", "congruence:exponent-carry",
            "congruence:products"} <= names


def test_products_suite_seeded_sample():
    rep1 = check_products(ff_from_q(3), sample="5", seed=11)
    rep2 = check_products(ff_from_q(3), sample="5", seed=11)
    assert rep1.overall == "pass"
    assert rep1.to_json(include_volatile=False) == \
        rep2.to_json(include_volatile=False)
    assert rep1.params["sample"] == "5"
    assert rep1.params["seed"] == 11


def test_reduction_certificate_trivial():
    field = ff_from_q(2)
    one = BasisSpec.parse("A:0,0,0")
    cert = reduce_product(field, one, one)
    assert list(cert.ell) == [one]
    ok, detail = verify_certificate(field, cert)
    assert ok, detail
    assert all(not c for c in cert.cofactors)


def test_reduction_certificate_frozen_example():
    # the A:1,1,0 self-product at q=2 lands on four module coordinates
    field = ff_from_q(2)
    spec = BasisSpec.parse("A:1,1,0")
    cert = reduce_product(field, spec, spec)
    doc = cert.to_dict()
    assert sorted(doc["ell"]) == \
        ["A:0,0,0", "A:1,1,0", "B:0,0,1,0", "B:0,0,2,0"]
    assert doc["ell"]["A:1,1,0"] == "C0*C0s"
    assert doc["ell"]["A:0,0,0"] == "C1^3*C0s^2 + C0^2*C1s^3"
    assert doc["cofactors"]["T00"] == "0"
    ok, detail = verify_certificate(field, cert)
    assert ok, detail


def test_certificate_corruption_detected():
    field = ff_from_q(2)
    spec = BasisSpec.parse("B:0,0,1,0")
    cert = reduce_product(field, spec, spec)
    assert verify_certificate(field, cert)[0]
    ctx = context_for_q(2)
    # corrupt one module coordinate
    key = next(iter(cert.ell))
    cert.ell[key] = cert.ell[key] + ctx.S7var("C0")
    ok, detail = verify_certificate(field, cert)
    assert not ok


def test_starred_pair_certificate():
    field = ff_from_q(3)
    cert = reduce_product(field, BasisSpec.parse("Cs:1,0,0"),
                          BasisSpec.parse("A:0,1,0"))
    ok, detail = verify_certificate(field, cert)
    assert ok, detail


@pytest.mark.parametrize("q", (2, 3))
def test_elimination_crosscheck_full_kernel(q):
    # an order-based elimination recomputes the kernel with no degree bound
    rep = elimination_crosscheck(ff_from_q(q))
    assert rep.overall == "pass", [it.detail for it in rep.items]
    assert rep.items[-1].name == "ideal-equality"
    assert "identical" in rep.items[-1].detail


def test_elimination_budget_is_a_real_bound():
    # at q=5 the pair update and the inter-reduction run long enough that
    # the budget must be checked inside them, not only between S-pairs
    start = time.monotonic()
    rep = elimination_crosscheck(ff_from_q(5), deadline=start + 0.5)
    assert time.monotonic() - start < 1.5
    assert [(it.name, it.status) for it in rep.items] == \
        [("lex-elimination", "timeout"), ("ideal-equality", "skipped")]


@pytest.mark.slow
def test_elimination_crosscheck_q5():
    rep = elimination_crosscheck(ff_from_q(5))
    assert rep.overall == "pass", [it.detail for it in rep.items]
    assert rep.items[0].detail == "basis size 1413, eliminated 6"


@pytest.mark.parametrize("q", (2, 3))
def test_negative_controls_detect(q):
    rep = negative_controls(ff_from_q(q))
    assert rep.overall == "pass"
    names = {it.name for it in rep.items}
    assert {"corrupted-T1", "dropped-T10", "noninvariant-witness",
            "nonmember-nonzero"} <= names


def test_recorder_keeps_traceback_in_volatile_only():
    def broken_step():
        raise ValueError("boom")

    def report(step):
        rec = verify._Recorder()
        rec.run("fine", lambda: (True, "ok"))
        rec.run("item", step)
        return verify.SuiteReport("demo", 2, {}, rec.items)

    crashed = report(broken_step)
    doc = json.loads(crashed.to_json())
    assert set(doc["volatile"]["tracebacks"]) == {"item"}
    trace = doc["volatile"]["tracebacks"]["item"]
    assert "in broken_step" in trace and "ValueError: boom" in trace
    # the byte-stable part is that of the same failure without a traceback
    plain = report(lambda: (False, "ValueError: boom"))
    assert "tracebacks" not in json.loads(plain.to_json())["volatile"]
    assert crashed.to_json(include_volatile=False) == \
        plain.to_json(include_volatile=False)


def test_report_json_stable_and_schema():
    rep1 = check_relations(ff_from_q(2))
    rep2 = check_relations(ff_from_q(2))
    assert rep1.to_json(include_volatile=False) == \
        rep2.to_json(include_volatile=False)
    doc = json.loads(rep1.to_json())
    assert set(doc) == {"suite", "q", "params", "items", "overall",
                        "volatile"}
    assert set(doc["volatile"]) == {"timings", "version"}
    for it in doc["items"]:
        assert set(it) == {"name", "status", "detail"}
        assert it["status"] in ("pass", "fail", "skipped", "timeout")
    text = rep1.to_text()
    assert text.endswith("overall: pass")


def test_deadline_marks_timeout_then_skips():
    rep = check_relations(ff_from_q(2), deadline=time.monotonic() - 1)
    assert rep.timed_out
    assert rep.overall == "fail"
    assert rep.items[0].status == "timeout"
    assert all(it.status == "skipped" for it in rep.items[1:])


def test_default_max_degree():
    assert default_max_degree(2) == 24
    assert [default_max_degree(q) for q in (3, 4, 5)] == [16, 30, 48]
    for q in (3, 4, 5, 7):
        # every relation lies inside the default bound
        ctx = context_for_q(q)
        assert max(ctx.relation(n).wdeg() for n in RELATION_NAMES) \
            <= default_max_degree(q)


def test_groebner_memo_recomputes_only_for_a_higher_bound():
    from modinvar.verify import _cached_gb

    ctx = InvariantContext(ff_from_q(2))
    gb = _cached_gb(ctx, 10)
    assert _cached_gb(ctx, 8) is gb
    assert _cached_gb(ctx, 10) is gb
    higher = _cached_gb(ctx, 12)
    assert higher is not gb and higher.bound == 12
    assert _cached_gb(ctx, 10) is higher


def _digest(report):
    text = report.to_json(include_volatile=False)
    return hashlib.sha256(text.encode()).hexdigest()


def test_reports_print_the_basis_of_the_bound_asked_for(monkeypatch):
    # products leaves a basis for a higher bound in the context; hilbert and
    # kernel must still report the basis of their own bound
    monkeypatch.setattr(gens, "_CONTEXTS", {})
    field = ff_from_q(3)
    fresh24 = _digest(check_kernel(field, 24))
    monkeypatch.setattr(gens, "_CONTEXTS", {})
    assert check_products(field, sample="3").overall == "pass"
    assert _digest(check_kernel(field, 16)) == DIGESTS[(3, "kernel")]
    assert _digest(check_hilbert(field, 16)) == DIGESTS[(3, "hilbert")]
    assert _digest(check_kernel(field, 24)) == fresh24


def test_products_builds_one_basis(monkeypatch):
    builds = []

    def counting(*args, **kwargs):
        builds.append(kwargs.get("bound"))
        return groebner.buchberger(*args, **kwargs)

    monkeypatch.setattr(gens, "_CONTEXTS", {})
    monkeypatch.setattr(verify, "buchberger", counting)
    field = ff_from_q(3)
    assert check_products(field, sample="5", seed=2).overall == "pass"
    assert len(builds) == 1
    # a held basis of a higher bound serves products without a new build
    monkeypatch.setattr(gens, "_CONTEXTS", {})
    verify._exact_gb(context_for_q(3), builds[0] + 4)
    assert check_products(field, sample="5", seed=2).overall == "pass"
    assert len(builds) == 2


def test_exact_basis_is_kept_per_bound():
    ctx = InvariantContext(ff_from_q(2))
    at10 = verify._exact_gb(ctx, 10)
    at12 = verify._exact_gb(ctx, 12)
    assert at10.bound == 10 and at12.bound == 12
    assert verify._exact_gb(ctx, 10) is at10
    assert verify._exact_gb(ctx, 8).bound == 8
    assert verify._cached_gb(ctx, 9) is at12


def test_timed_out_dimension_is_not_memoized(monkeypatch):
    ctx = InvariantContext(ff_from_q(3))
    monkeypatch.setattr(groebner.time, "monotonic", ExpiringClock(3))
    with pytest.raises(TimeoutExceeded):
        verify._cached_dim(ctx, 8, deadline=1.0)
    monkeypatch.setattr(groebner.time, "monotonic", ExpiringClock())
    assert verify._cached_dim(ctx, 8, deadline=1.0) == 10
    monkeypatch.setattr(groebner.time, "monotonic", ExpiringClock(1))
    assert verify._cached_dim(ctx, 8, deadline=1.0) == 10  # memo hit


def test_standard_monomials_check_the_deadline(monkeypatch):
    ctx = InvariantContext(ff_from_q(3))
    gb = verify._exact_gb(ctx, 30)
    ranks = []
    rank_field = linalg.rank_field

    def counting_rank(rows, field):
        ranks.append(len(rows))
        return rank_field(rows, field)

    monkeypatch.setattr(verify.linalg, "rank_field", counting_rank)
    clock = ExpiringClock()
    monkeypatch.setattr(groebner.time, "monotonic", clock)
    counts, _ = verify._standard_image_ranks(ctx, gb, 30, deadline=1.0)
    total, nranks = clock.reads, len(ranks)
    # at least one check per standard monomial, and one before each rank
    assert total >= sum(counts) + nranks
    for k in (1, total // 2, total):
        del ranks[:]
        clock = ExpiringClock(k)
        monkeypatch.setattr(groebner.time, "monotonic", clock)
        with pytest.raises(TimeoutExceeded):
            verify._standard_image_ranks(ctx, gb, 30, deadline=1.0)
        assert clock.reads == k
    assert len(ranks) == nranks - 1  # the last check precedes the last rank


def test_kernel_budget_runs_out_inside_standard_monomials(monkeypatch):
    # the budget expires 40 clock reads after the Groebner item, which is
    # well inside the enumeration of the standard monomials
    monkeypatch.setattr(gens, "_CONTEXTS", {})
    clock = ExpiringClock()
    monkeypatch.setattr(groebner.time, "monotonic", clock)
    exact = verify._exact_gb

    def then_expire(*args, **kwargs):
        gb = exact(*args, **kwargs)
        clock.limit = clock.reads + 40
        return gb

    monkeypatch.setattr(verify, "_exact_gb", then_expire)
    rep = check_kernel(ff_from_q(3), 30, deadline=1.0)
    status = {it.name: (it.status, it.detail) for it in rep.items}
    assert status["groebner"][0] == "pass"
    assert status["standard-monomials"] == \
        ("timeout", "computation exceeded its time budget")
    assert all(it.status == "skipped" for it in rep.items[3:])
    assert rep.timed_out


# ---------------------------------------------------------------------------
# the module-fit block cache


def _memo_keys(ctx, kind):
    return [k for k in ctx._memo if isinstance(k, tuple) and k[0] == kind]


def _fit_case(ctx, f="A:2,1,1", g="B:1,1,3,1"):
    """A product target, its degree, and the same target plus the
    non-invariant monomial x1^dx y1^dy of its bidegree."""
    f, g = BasisSpec.parse(f), BasisSpec.parse(g)
    target = ctx.basis_value(f) * ctx.basis_value(g)
    dx, dy = ctx.r4_bidegree(target)
    off = target + ctx.R4.monomial((dx, 0, dy, 0))
    return target, f.degree(ctx.q) + g.degree(ctx.q), off


def _fits(ctx, target, ell):
    total = ctx.R4.zero
    for spec, npoly in ell.items():
        assert all(not any(ctx.S7.unpack(k)[4:]) for k in npoly.terms)
        total = total + ctx.pi(npoly) * ctx.basis_value(spec)
    return total == target


def test_products_build_each_fit_block_once(monkeypatch):
    monkeypatch.setattr(gens, "_CONTEXTS", {})
    built = {}
    build = verify._build_fit_block

    def counting(ctx, degree, dx, dy, deadline):
        labels, block = build(ctx, degree, dx, dy, deadline)
        assert (degree, dx, dy) not in built
        built[degree, dx, dy] = block.tobytes()
        return labels, block

    monkeypatch.setattr(verify, "_build_fit_block", counting)
    field = ff_from_q(3)
    ctx = context_for_q(3)
    report = check_products(field, sample="all")
    assert report.overall == "pass"
    assert len(built) == len(_memo_keys(ctx, "fit")) == 145
    assert len(_memo_keys(ctx, "value")) == 48
    assert len(_memo_keys(ctx, "bidegree")) == 48
    blocks = {k: ctx._memo[k] for k in _memo_keys(ctx, "fit")}
    # a second run solves on the same blocks and builds none
    again = check_products(field, sample="all")
    assert again.to_json(False) == report.to_json(False)
    assert len(built) == 145
    for key, (labels, block) in blocks.items():
        assert ctx._memo[key][1] is block
        assert not block.flags.writeable
        assert block.dtype == np.uint8
        assert block.shape == ((key[2] + 1) * (key[3] + 1), len(labels))
        assert block.tobytes() == built[key[1:]]


def test_target_outside_the_span_fails_on_cold_and_warm_blocks():
    ctx = InvariantContext(ff_from_q(3))
    target, degree, off = _fit_case(ctx)
    dx, dy = ctx.r4_bidegree(target)
    with pytest.raises(verify.NotExpressible, match="outside the module"):
        verify._fit_in_module(ctx, off, degree)    # builds the block
    assert _memo_keys(ctx, "fit") == [("fit", degree, dx, dy)]
    block = ctx._memo["fit", degree, dx, dy][1].copy()
    assert _fits(ctx, target, verify._fit_in_module(ctx, target, degree))
    with pytest.raises(verify.NotExpressible, match="outside the module"):
        verify._fit_in_module(ctx, off, degree)    # on the warm block
    assert np.array_equal(ctx._memo["fit", degree, dx, dy][1], block)
    # and over GF(4), through the lifted solve
    ctx4 = InvariantContext(ff_from_q(4))
    target, degree, off = _fit_case(ctx4, "B:1,2,3,1", "Cs:1,2,1")
    with pytest.raises(verify.NotExpressible):
        verify._fit_in_module(ctx4, off, degree)
    assert _fits(ctx4, target, verify._fit_in_module(ctx4, target, degree))
    with pytest.raises(verify.NotExpressible):
        verify._fit_in_module(ctx4, off, degree)


def test_fit_block_build_checks_the_deadline(monkeypatch):
    ctx = InvariantContext(ff_from_q(3))
    target, degree, _ = _fit_case(ctx)
    nspecs = len(ctx.enumerate_basis())
    for k in (1, nspecs // 2, nspecs):
        clock = ExpiringClock(k)
        monkeypatch.setattr(groebner.time, "monotonic", clock)
        with pytest.raises(TimeoutExceeded):
            verify._fit_in_module(ctx, target, degree, deadline=1.0)
        assert clock.reads == k
        assert not _memo_keys(ctx, "fit")    # a timed-out build is not kept
    clock = ExpiringClock()
    monkeypatch.setattr(groebner.time, "monotonic", clock)
    ell = verify._fit_in_module(ctx, target, degree, deadline=1.0)
    assert clock.reads == nspecs     # one check before each basis element
    assert len(_memo_keys(ctx, "fit")) == 1
    assert verify._fit_in_module(ctx, target, degree, deadline=1.0) == ell
    assert clock.reads == nspecs     # a warm block builds nothing


def test_products_pass_their_budget_to_the_fit(monkeypatch):
    seen = []
    fit = verify._fit_in_module

    def spy(ctx, target, degree, deadline=None):
        seen.append(deadline)
        return fit(ctx, target, degree, deadline=deadline)

    monkeypatch.setattr(verify, "_fit_in_module", spy)
    deadline = time.monotonic() + 600
    report = check_products(ff_from_q(2), sample="3", seed=1,
                            deadline=deadline)
    assert report.overall == "pass"
    assert seen == [deadline] * 3
