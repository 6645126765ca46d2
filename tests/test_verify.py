"""Check suites, report format, and reduction certificates."""

import dataclasses
import hashlib
import inspect
import itertools
import json
import random
import sys
import time
import tracemalloc

import numpy as np
import pytest
from test_action import ExpiringClock
from test_report_digests import DIGESTS

from modinvar import _kernels as K
from modinvar import action, gens, groebner, linalg, verify
from modinvar.gens import (
    RELATION_NAMES,
    S7_NAMES,
    BasisSpec,
    InvariantContext,
    context_for_q,
)
from modinvar.gf import ff_from_q
from modinvar.groebner import TimeoutExceeded
from modinvar.mpoly import EXP_CAP, ExponentOverflow, Polynomial, \
    PolyRing, RingMismatch
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


def test_an_ell_with_a_u_variable_is_refused():
    field = ff_from_q(3)
    ctx = context_for_q(3)
    f, g = BasisSpec.parse("A:1,0,0"), BasisSpec.parse("B:0,0,1,0")
    cert = reduce_product(field, f, g)
    assert verify_certificate(field, cert)[0]
    spec = next(iter(cert.ell))
    cert.ell[spec] = cert.ell[spec] + ctx.S7var("U0")
    assert verify_certificate(field, cert) == \
        (False, "ell coefficient uses a non-N variable")


def _ab_certificate():
    field = ff_from_q(3)
    cert = reduce_product(field, BasisSpec.parse("A:2,1,1"),
                          BasisSpec.parse("B:1,1,3,1"))
    assert verify_certificate(field, cert)[0]
    return field, context_for_q(3), cert


@pytest.mark.parametrize("count", (4, 6))
def test_a_certificate_needs_one_cofactor_per_relation(count):
    """A missing cofactor, or a sixth one (U0) that no relation multiplies,
    fails the certificate."""
    field, ctx, cert = _ab_certificate()
    cofactors = (cert.cofactors + [ctx.S7var("U0")])[:count]
    assert verify_certificate(field, dataclasses.replace(
        cert, cofactors=cofactors)) == \
        (False, "certificate has %d cofactors, not 5 (one per relation)"
         % count)


@pytest.mark.parametrize("count", (4, 6))
def test_a_report_needs_one_cofactor_per_relation(count):
    """The report form raises on a missing or a sixth cofactor rather than
    pair the cofactors with the relation names and drop what is left."""
    _field, ctx, cert = _ab_certificate()
    cofactors = (cert.cofactors + [ctx.S7var("U0")])[:count]
    with pytest.raises(ValueError):
        dataclasses.replace(cert, cofactors=cofactors).to_dict()


def _clast_ring(ctx):
    weight = dict(zip(ctx.S7.names, ctx.S7.weights))
    return PolyRing(ctx.field, verify._CLAST_NAMES,
                    weights=[weight[nm] for nm in verify._CLAST_NAMES])


def test_a_certificate_polynomial_of_another_ring_raises():
    field, ctx, cert = _ab_certificate()
    ring = _clast_ring(ctx)
    cofactors = list(cert.cofactors)
    cofactors[2] = cofactors[2].remap(ring)
    with pytest.raises(RingMismatch):
        verify_certificate(field, dataclasses.replace(cert,
                                                      cofactors=cofactors))
    # C1s is the last C-last variable: read as an S7 key, it would be U1,
    # and the certificate would fail as an ell with a U-variable
    spec = next(iter(cert.ell))
    ell = dict(cert.ell)
    ell[spec] = ring.var("C1s")
    with pytest.raises(RingMismatch):
        verify_certificate(field, dataclasses.replace(cert, ell=ell))


def test_a_product_beyond_the_exponent_cap_raises():
    """An ell or cofactor term whose product with its pullback or relation
    has weighted degree above EXP_CAP raises, as the polynomial product
    would, though the term alone fits in a packed key."""
    field, ctx, cert = _ab_certificate()
    spec = max(cert.ell, key=lambda s: ctx.basis_pullback(s).wdeg())
    weight = dict(zip(ctx.S7.names, ctx.S7.weights))
    big = ctx.S7.var("C0", EXP_CAP // weight["C0"])
    assert big.wdeg() + ctx.basis_pullback(spec).wdeg() > EXP_CAP
    ell = dict(cert.ell)
    ell[spec] = cert.ell[spec] + big
    with pytest.raises(ExponentOverflow):
        verify_certificate(field, dataclasses.replace(cert, ell=ell))
    cofactors = list(cert.cofactors)
    big = ctx.S7.var("U0", EXP_CAP // weight["U0"])
    assert big.wdeg() + ctx.relation(RELATION_NAMES[0]).wdeg() > EXP_CAP
    cofactors[0] = cofactors[0] + big
    with pytest.raises(ExponentOverflow):
        verify_certificate(field, dataclasses.replace(cert,
                                                      cofactors=cofactors))


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


def test_elimination_crosscheck_q4():
    # the benchmark's Groebner workload, pinned where every run sees it
    rep = elimination_crosscheck(ff_from_q(4))
    assert [(it.name, it.status, it.detail) for it in rep.items] == [
        ("lex-elimination", "pass", "basis size 371, eliminated 6"),
        ("ideal-equality", "pass", "reduced bases identical (5 elements)")]


def test_elimination_budget_is_a_real_bound():
    # at q=5 the pair update and the inter-reduction run long enough that
    # the budget must be checked inside them, not only between S-pairs
    start = time.monotonic()
    rep = elimination_crosscheck(ff_from_q(5), deadline=start + 0.5)
    assert time.monotonic() - start < 1.5
    assert [(it.name, it.status) for it in rep.items] == \
        [("lex-elimination", "timeout"), ("ideal-equality", "skipped")]


def test_invariance_budget_is_a_real_bound():
    # at q=7 one generator's check over all of GL2 runs for seconds, so the
    # budget must be checked per group element, not only between items
    start = time.monotonic()
    rep = check_invariance(ff_from_q(7), deadline=start + 0.3)
    assert time.monotonic() - start < 1.5
    assert rep.items[0].status == "timeout"
    assert all(it.status == "skipped" for it in rep.items[1:])
    assert rep.items[-1].name == "d2-control"


def test_invariance_passes_its_budget_to_every_item(monkeypatch):
    seen = []
    fixed = verify.is_invariant

    def spy(f, elements, deadline=None):
        seen.append(deadline)
        return fixed(f, elements, deadline)

    monkeypatch.setattr(verify, "is_invariant", spy)
    deadline = time.monotonic() + 600
    rep = check_invariance(ff_from_q(3), deadline=deadline)
    assert rep.overall == "pass"
    assert seen == [deadline] * len(rep.items)    # d2-control included


@pytest.mark.slow
def test_elimination_crosscheck_q5():
    rep = elimination_crosscheck(ff_from_q(5))
    assert rep.overall == "pass", [it.detail for it in rep.items]
    assert rep.items[0].detail == "basis size 1413, eliminated 6"


# S-pairs the bigrading skips in the lex elimination, and the S-pairs the
# plain run reduces
SKIPPED_PAIRS = {2: (152, 212), 3: (931, 1168), 4: (2474, 3032),
                 5: (9992, 12180)}


def _reductions(monkeypatch):
    """A list that records each S-pair reduction of buchberger as whether
    it reduced to 0."""
    seen = []
    kernel = K.normal_form_terms

    def spy(f, basis, field, track):
        out = kernel(f, basis, field, track)
        if type(f) is tuple:
            seen.append(not out[0])
        return out

    monkeypatch.setattr(K, "normal_form_terms", spy)
    return seen


def _assert_driven_basis_is_plain(q, monkeypatch):
    gens_ = verify._elimination_generators(context_for_q(q))
    seen = _reductions(monkeypatch)
    plain = groebner.buchberger(gens_)
    reduced = len(seen)
    driven = groebner.buchberger(
        gens_, grading=verify._elimination_grading(q))
    assert driven.basis == plain.basis
    assert plain.pairs_skipped == 0
    assert (driven.pairs_skipped, reduced) == SKIPPED_PAIRS[q]
    assert len(seen) - reduced == reduced - driven.pairs_skipped
    # the counters on the basis are what the spy saw
    assert (plain.pairs_reduced, plain.zero_reductions) == \
        (reduced, sum(seen[:reduced]))
    assert (driven.pairs_reduced, driven.zero_reductions) == \
        (len(seen) - reduced, sum(seen[reduced:]))


@pytest.mark.parametrize("q", (2, 3, 4))
def test_hilbert_driven_elimination_basis_is_the_plain_one(q, monkeypatch):
    _assert_driven_basis_is_plain(q, monkeypatch)


@pytest.mark.slow
def test_hilbert_driven_elimination_basis_is_the_plain_one_q5(monkeypatch):
    _assert_driven_basis_is_plain(5, monkeypatch)


def test_elimination_grading_is_the_bidegree_of_each_variable():
    for q in (2, 3, 4, 5):
        ctx = context_for_q(q)
        R11 = verify._elimination_generators(ctx)[0].ring
        grading = verify._elimination_grading(q)
        assert [a + b for a, b in grading] == list(R11.weights)
        for name, (a, b) in zip(S7_NAMES, grading[4:]):
            e = ctx.R4.unpack(next(iter(ctx.pi_images()[name].terms)))
            assert (e[0] + e[1], e[2] + e[3]) == (a, b)


def test_elimination_with_a_wrong_relation_fails_ideal_equality(monkeypatch):
    field = ff_from_q(2)
    ctx = _throwaway_context(monkeypatch, field)
    ctx._memo["rel", "T10"] = ctx.relation("T1")
    rep = elimination_crosscheck(field)
    assert [(it.name, it.status, it.detail) for it in rep.items] == [
        ("lex-elimination", "pass", "basis size 43, eliminated 6"),
        ("ideal-equality", "fail",
         "reduced bases differ; kernel-only 1, relations-only 3")]


def test_elimination_of_one_generator_eliminates_nothing(monkeypatch):
    # C0 - c0 alone is a graph ideal too, so the run is still driven
    field = ff_from_q(2)
    _throwaway_context(monkeypatch, field)
    whole = verify._elimination_generators
    monkeypatch.setattr(verify, "_elimination_generators",
                        lambda ctx: whole(ctx)[:1])
    rep = elimination_crosscheck(field)
    assert [(it.name, it.status, it.detail) for it in rep.items] == [
        ("lex-elimination", "fail",
         "no eliminated elements in a 1-element basis"),
        ("ideal-equality", "fail", "no eliminated ideal to compare")]


@pytest.mark.parametrize("q", (2, 3))
def test_elimination_of_the_c_generators_eliminates_nothing(q, monkeypatch):
    """Only the four generators C - c: their lex basis has no element free
    of the base variables, so both items fail."""
    field = ff_from_q(q)
    _throwaway_context(monkeypatch, field)
    whole = verify._elimination_generators
    monkeypatch.setattr(verify, "_elimination_generators",
                        lambda ctx: whole(ctx)[:4])
    assert _failed_items(elimination_crosscheck(field)) == [
        ("lex-elimination", "no eliminated elements in a 4-element basis"),
        ("ideal-equality", "no eliminated ideal to compare")]


@pytest.mark.parametrize("q", (2, 3))
def test_elimination_against_a_multiple_of_t1_fails_ideal_equality(
        q, monkeypatch):
    """T10 replaced by C0*T1 in the memo: the relations then generate a
    smaller ideal than the kernel, so only the comparison fails."""
    field = ff_from_q(q)
    ctx = _throwaway_context(monkeypatch, field)
    ctx._memo["rel", "T10"] = ctx.S7var("C0") * ctx.relation("T1")
    assert _failed_items(elimination_crosscheck(field)) == [
        ("ideal-equality",
         "reduced bases differ; kernel-only 1, relations-only 3")]


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


def _digest(report):
    text = report.to_json(include_volatile=False)
    return hashlib.sha256(text.encode()).hexdigest()


def test_reports_print_the_basis_of_the_bound_asked_for(monkeypatch):
    # no suite keeps a basis in the context: each builds the basis of its
    # own bound where it uses it, so a products run first and a kernel run
    # at another bound leave the hilbert and kernel reports unchanged
    monkeypatch.setattr(gens, "_CONTEXTS", {})
    field = ff_from_q(3)
    fresh24 = _digest(check_kernel(field, 24))
    monkeypatch.setattr(gens, "_CONTEXTS", {})
    assert check_products(field, sample="3").overall == "pass"
    assert _digest(check_kernel(field, 16)) == DIGESTS[(3, "kernel")]
    assert _digest(check_hilbert(field, 16)) == DIGESTS[(3, "hilbert")]
    assert _digest(check_kernel(field, 24)) == fresh24


def test_products_builds_one_basis(monkeypatch):
    """The certificates and the congruence items share the C-last basis:
    a products run calls Buchberger once, in the C-last ring."""
    rings = []
    build = groebner.buchberger

    def counting(polys, *args, **kwargs):
        rings.append(polys[0].ring.names)
        return build(polys, *args, **kwargs)

    monkeypatch.setattr(gens, "_CONTEXTS", {})
    monkeypatch.setattr(verify, "buchberger", counting)
    monkeypatch.setattr(groebner, "buchberger", counting)
    report = check_products(ff_from_q(3), sample="5", seed=2)
    assert report.overall == "pass"
    assert rings == [verify._CLAST_NAMES]


def test_exact_basis_has_the_bound_asked_for():
    ctx = InvariantContext(ff_from_q(2))
    at10 = verify._exact_gb(ctx, 10)
    at12 = verify._exact_gb(ctx, 12)
    assert at10.bound == 10 and at12.bound == 12
    assert verify._exact_gb(ctx, 8).bound == 8


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


def test_standard_image_ranks_keep_one_byte_per_entry(monkeypatch):
    """On the polynomial path (odd p) the walk keeps its block vectors at
    one byte per entry: under tracemalloc its peak stays within 2 bytes per
    stored entry and a fixed slack (Python lists of indices take about 8
    bytes per entry)."""
    ctx = InvariantContext(ff_from_q(3))
    gb = verify._exact_gb(ctx, 36)
    ctx.pi_images()
    stored = []
    rank_field = linalg.rank_field

    def counting_rank(rows, field):
        stored.append(rows.size)
        return rank_field(rows, field)

    monkeypatch.setattr(verify.linalg, "rank_field", counting_rank)
    tracemalloc.start()
    try:
        verify._standard_image_ranks(ctx, gb, 36)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(stored) > 400_000
    assert peak <= 2 * sum(stored) + 256 * 1024


def test_gf2_walk_keeps_only_its_basis_rows(monkeypatch):
    """Over characteristic 2 the walk keeps no block vectors: each standard
    monomial's bit row goes into its block's XOR basis or is dropped, so
    the rows kept are as many as the ranks (here all of them: the images
    are independent), and under tracemalloc the peak stays within twice
    their size and a fixed slack."""
    ctx = InvariantContext(ff_from_q(2))
    gb = verify._exact_gb(ctx, 26)
    ctx.pi_images()
    bases = {}
    xor_insert = linalg._xor_insert

    def keeping_insert(basis, row):
        bases[id(basis)] = basis
        return xor_insert(basis, row)

    def forbidden(*args):
        raise AssertionError("a block vector was built")

    monkeypatch.setattr(verify.linalg, "_xor_insert", keeping_insert)
    monkeypatch.setattr(verify, "_block_vector", forbidden)
    tracemalloc.start()
    try:
        counts, ranks = verify._standard_image_ranks(ctx, gb, 26)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = [row for basis in bases.values() for row in basis.values()]
    assert len(rows) == sum(ranks) == sum(counts)
    kept = sum(sys.getsizeof(row) for row in rows)
    assert peak <= 2 * kept + 256 * 1024


def test_an_image_outside_gf2_takes_the_polynomial_path(monkeypatch):
    """A GF(4) image with the coefficient t sends the walk down the
    polynomial path.  Scaling U0's image by the unit t scales rows of every
    block and changes no count or rank, so both paths give the same."""
    ctx = InvariantContext(ff_from_q(4))
    gb = verify._exact_gb(ctx, 30)
    want = verify._standard_image_ranks(ctx, gb, 30)
    images = ctx.pi_images()
    t = ctx.field.from_index(2)
    scaled = dict(images, U0=images["U0"] * t)
    monkeypatch.setattr(ctx, "pi_images", lambda: scaled)
    built = []
    block_vector = verify._block_vector

    def counting_vector(poly, a, b):
        built.append((a, b))
        return block_vector(poly, a, b)

    monkeypatch.setattr(verify, "_block_vector", counting_vector)
    assert verify._standard_image_ranks(ctx, gb, 30) == want
    assert len(built) == sum(want[0])


def test_gf4_kernel_needs_no_numpy_rank_table_or_block_vector(monkeypatch):
    """check_kernel(GF(4), 40) passes with every numpy rank, the binomial
    tables and the block vectors out of reach: the oracle and the walk both
    work on GF(2) bit rows."""
    field = ff_from_q(4)
    _throwaway_context(monkeypatch, field)

    def forbidden(*args):
        raise AssertionError("reached a numpy rank, table or block vector")

    for name in ("rank_field", "rank_modp", "rank_gf2"):
        monkeypatch.setattr(linalg, name, forbidden)
    monkeypatch.setattr(action, "_binomial_tables", forbidden)
    monkeypatch.setattr(verify, "_block_vector", forbidden)
    report = check_kernel(field, 40)
    assert report.overall == "pass", [it.detail for it in report.items
                                      if it.status != "pass"]


# SHA-256 of json.dumps([counts, ranks]) of the standard-monomial walk,
# frozen from the walk over unpacked exponent tuples; (8, 60) and (2, 60)
# from the polynomial walk, before characteristic 2 moved to bit rows
WALK_DIGESTS = {
    (2, 24): "19f13e3cd066df5a3fe4702ca3d49be7b9ee85ef4a28d050bf5682f1b6179b7f",
    (3, 40): "5eba9e71ac9f1f84f5b813f44a6bbe9552728d8036318f93b4c9cbb23e3765a5",
    (4, 40): "9563e3f3ae20d37839153b52168e3c64befbe32aa29e176b1d59324e3071b671",
    (8, 60): "1a5cf6fbf8e10af34cd27108fd5ed135afc2ab56d0b3acced4713d151d6dd415",
    (2, 60): "17529ec1753cf795af3bb9b2fa486b2d1c4b0083aaad922e5a7b639fd24cc883",
}


@pytest.mark.parametrize("q,bound", sorted(WALK_DIGESTS))
def test_standard_image_ranks_frozen(q, bound):
    ctx = InvariantContext(ff_from_q(q))
    counts, ranks = verify._standard_image_ranks(
        ctx, verify._exact_gb(ctx, bound), bound)
    digest = hashlib.sha256(json.dumps([counts, ranks]).encode()).hexdigest()
    assert digest == WALK_DIGESTS[q, bound]


@pytest.mark.parametrize("q", (2, 3, 4, 5))
def test_relations_suite_checks_every_identity_index(q):
    rep = check_relations(ff_from_q(q))
    indexed = [it.name for it in rep.items if "(" in it.name
               and it.name.split("(")[0] in ("Rs", "Ks", "Kss", "Hs")]
    want = ["%s(%d)" % (label, s)
            for name, label in (("Rs", "Rs"), ("Ks", "Ks"), ("Kss", "Kss"),
                                ("HsId", "Hs"))
            for s in gens.identity_indices(name, q)]
    assert indexed == want


@pytest.mark.parametrize("suite", (check_hilbert, check_kernel,
                                   negative_controls))
def test_degree_bound_must_fit_a_packed_key(suite):
    t0 = time.monotonic()
    with pytest.raises(verify.VerifyError, match="at most 32767"):
        suite(ff_from_q(2), 32768)
    with pytest.raises(verify.VerifyError, match="nonnegative"):
        suite(ff_from_q(2), -1)
    assert time.monotonic() - t0 < 1.0


@pytest.mark.parametrize("bound", (True, False, 2.5, "3"))
@pytest.mark.parametrize("suite", (check_hilbert, check_kernel,
                                   negative_controls))
def test_degree_bound_must_be_an_int(suite, bound):
    with pytest.raises(verify.VerifyError, match="must be an integer"):
        suite(ff_from_q(2), bound)


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


def _fit_pairs(ctx, pairs, deadline=None):
    """_fit_in_module's ell of each product of pairs: the reference fit,
    which no suite calls any more."""
    return [verify._fit_in_module(
        ctx, ctx.basis_value(f) * ctx.basis_value(g),
        f.degree(ctx.q) + g.degree(ctx.q), deadline=deadline)
        for f, g in pairs]


def test_the_fit_builds_each_block_once(monkeypatch):
    built = {}
    build = verify._build_fit_block

    def counting(ctx, degree, dx, dy, deadline):
        labels, block = build(ctx, degree, dx, dy, deadline)
        assert (degree, dx, dy) not in built
        built[degree, dx, dy] = block.tobytes()
        return labels, block

    monkeypatch.setattr(verify, "_build_fit_block", counting)
    factored = []
    factor = linalg.factor_field

    def counting_factor(block, field):
        factored.append(block)
        return factor(block, field)

    monkeypatch.setattr(linalg, "factor_field", counting_factor)
    ctx = InvariantContext(ff_from_q(3))
    pairs = _sampled_pairs(ctx, "all")
    ells = _fit_pairs(ctx, pairs)
    assert len(built) == len(_memo_keys(ctx, "fit")) == 145
    assert len(factored) == len(_memo_keys(ctx, "factor")) == 145
    assert len(_memo_keys(ctx, "value")) == 48
    assert len(_memo_keys(ctx, "bidegree")) == 48
    blocks = {k: ctx._memo[k] for k in _memo_keys(ctx, "fit")}
    # a second pass solves on the same blocks and factors and builds none
    assert _fit_pairs(ctx, pairs) == ells
    assert len(built) == 145
    assert len(factored) == 145
    for key, (labels, block) in blocks.items():
        assert ctx._memo[key][1] is block
        assert not block.flags.writeable
        assert block.dtype == np.uint8
        assert block.shape == ((key[2] + 1) * (key[3] + 1), len(labels))
        assert block.tobytes() == built[key[1:]]


def _sampled_pairs(ctx, sample, seed=0):
    """The pairs check_products(field, sample, seed) certifies."""
    specs = ctx.enumerate_basis()
    pairs = [(f, g) for n, f in enumerate(specs) for g in specs[n:]]
    if sample == "all":
        return pairs
    return random.Random(seed).sample(pairs, min(int(sample), len(pairs)))


def _block_keys(ctx, pairs):
    """The fit-block keys (degree, dx, dy) of the products of pairs, in
    first-use order, from the bidegrees of the factors."""
    keys = {}
    for f, g in pairs:
        (fx, fy), (gx, gy) = (ctx.r4_bidegree(ctx.basis_value(spec))
                              for spec in (f, g))
        keys.setdefault((f.degree(ctx.q) + g.degree(ctx.q), fx + gx, fy + gy))
    return list(keys)


def _brute_force_labels(ctx, dx, dy):
    """Every basis spec times every N-monomial C0^a C1^b C0s^c C1s^e whose
    product has bidegree (dx, dy), in lexicographic order."""
    w1, w2 = ctx.q ** 2 - 1, ctx.q ** 2 - ctx.q
    labels = []
    for spec in ctx.enumerate_basis():
        vx, vy = ctx.r4_bidegree(ctx.basis_value(spec))
        for mono in itertools.product(
                range(dx // w1 + 1), range(dx // w2 + 1),
                range(dy // w1 + 1), range(dy // w2 + 1)):
            a, b, c, e = mono
            if (vx + a * w1 + b * w2, vy + c * w1 + e * w2) == (dx, dy):
                labels.append((spec, mono))
    return labels


def test_fit_block_labels_match_a_brute_force_enumeration():
    """Every block of the q=2 and q=3 censuses and of the q=4 sample of 300
    pairs lists every basis spec times every N-monomial of the block's
    bidegree, in lexicographic order.  Column order decides which solution
    the solve returns, and so the certificates."""
    for q, sample, count in ((2, "all", 17), (3, "all", 145),
                             (4, "300", 164)):
        ctx = InvariantContext(ff_from_q(q))
        _fit_pairs(ctx, _sampled_pairs(ctx, sample))
        keys = _memo_keys(ctx, "fit")
        assert len(keys) == count
        assert sorted(key[1:] for key in keys) \
            == sorted(_block_keys(ctx, _sampled_pairs(ctx, sample)))
        for key in keys:
            _fit, degree, dx, dy = key
            labels = ctx._memo[key][0]
            assert list(labels) == _brute_force_labels(ctx, dx, dy)
            assert verify._build_fit_block(ctx, degree, dx, dy, None)[0] \
                == labels


@pytest.mark.parametrize("q,pairs", (
    (2, (("A:1,1,0", "A:1,1,0"), ("A:0,0,0", "B:0,0,1,0"))),
    (3, (("A:2,1,1", "B:1,1,3,1"), ("Cs:1,0,0", "A:0,1,0"))),
), ids=("q=2", "q=3"))
def test_reduce_product_makes_one_reduction(monkeypatch, q, pairs):
    calls = {"normal_form": 0, "cofactors_on_inputs": 0}

    def spy(module, name):
        orig = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return orig(*args, **kwargs)
        return counted

    monkeypatch.setattr(verify, "normal_form", spy(verify, "normal_form"))
    monkeypatch.setattr(groebner, "cofactors_on_inputs",
                        spy(groebner, "cofactors_on_inputs"))
    field = ff_from_q(q)
    for n, (f, g) in enumerate(pairs, 1):
        cert = reduce_product(field, BasisSpec.parse(f), BasisSpec.parse(g))
        assert calls == {"normal_form": n, "cofactors_on_inputs": 0}
        assert verify_certificate(field, cert)[0]


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
    # and over GF(4), whose blocks lie over GF(2)
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


def test_timed_out_fit_block_stores_no_factorization(monkeypatch):
    ctx = InvariantContext(ff_from_q(3))
    target, degree, _ = _fit_case(ctx)
    monkeypatch.setattr(groebner.time, "monotonic", ExpiringClock(2))
    with pytest.raises(TimeoutExceeded):
        verify._fit_in_module(ctx, target, degree, deadline=1.0)
    assert not _memo_keys(ctx, "fit")
    assert not _memo_keys(ctx, "factor")
    monkeypatch.setattr(groebner.time, "monotonic", ExpiringClock())
    ell = verify._fit_in_module(ctx, target, degree, deadline=1.0)
    assert _fits(ctx, target, ell)
    assert len(_memo_keys(ctx, "fit")) == len(_memo_keys(ctx, "factor")) == 1


@pytest.mark.parametrize("sample", ("0", "-1", "x", 0, 2.5, None, True))
def test_products_reject_a_bad_sample(sample):
    with pytest.raises(verify.VerifyError, match="sample"):
        check_products(ff_from_q(2), sample=sample)


@pytest.mark.parametrize("seed", (None, "x", 1.5, True, False))
@pytest.mark.parametrize("sample", ("3", "all"))
def test_products_reject_a_bad_seed(sample, seed):
    """A seed of None would draw from system entropy while the report
    recorded a reproducible sample."""
    with pytest.raises(verify.VerifyError, match="seed"):
        check_products(ff_from_q(2), sample=sample, seed=seed)


def test_products_normalise_the_sample_count():
    report = check_products(ff_from_q(2), sample=3, seed=1)
    assert report.params == {"sample": "3", "seed": 1}
    assert report.to_json(False) == \
        check_products(ff_from_q(2), sample="03", seed=1).to_json(False)


@pytest.mark.parametrize("q", (2, 3, 4, 5))
def test_lazy_pairs_sample_like_the_pair_list(q):
    """check_products's pairs, found from their index, are the list of all
    n(n+1)/2 pairs in order, and random.sample draws the same pairs from
    both."""
    ctx = context_for_q(q)
    pairs = verify._Pairs(ctx.enumerate_basis())
    listed = _sampled_pairs(ctx, "all")
    assert len(pairs) == len(listed)
    assert list(pairs) == listed
    with pytest.raises(IndexError):
        pairs[len(listed)]
    for seed in range(3):
        for k in (1, 20, 300, 1000):
            k = min(k, len(listed))
            assert random.Random(seed).sample(pairs, k) \
                == _sampled_pairs(ctx, str(k), seed)


def test_sampling_the_pairs_at_q9_holds_only_the_sample():
    """At q=9 the 5,760 basis specs make 16,591,680 pairs, about 1.2 GB as
    a list; the lazy sequence and a sample of 100 stay under 1 MB."""
    specs = context_for_q(9).enumerate_basis()
    tracemalloc.start()
    try:
        pairs = verify._Pairs(specs)
        sample = random.Random(0).sample(pairs, 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(pairs) == len(specs) * (len(specs) + 1) // 2 == 16_591_680
    assert len(set(sample)) == 100
    assert peak < 1 << 20


@pytest.mark.slow
def test_products_q4_census():
    report = check_products(ff_from_q(4), sample="all")
    assert report.overall == "pass"
    reduced = [it for it in report.items if it.name.startswith("reduce(")]
    assert len(reduced) == 180 * 181 // 2 == 16290


def test_the_fit_passes_its_budget_to_the_block_build(monkeypatch):
    seen = []
    build = verify._build_fit_block

    def spy(ctx, degree, dx, dy, deadline):
        seen.append(deadline)
        return build(ctx, degree, dx, dy, deadline)

    monkeypatch.setattr(verify, "_build_fit_block", spy)
    deadline = time.monotonic() + 600
    ctx = InvariantContext(ff_from_q(2))
    pairs = _sampled_pairs(ctx, "3", seed=1)
    _fit_pairs(ctx, pairs, deadline=deadline)
    assert seen == [deadline] * len(_block_keys(ctx, pairs)) == [deadline] * 3


def test_products_pass_their_budget_to_the_clast_build(monkeypatch):
    seen = []
    build = verify._build_clast

    def spy(ctx, relations, deadline=None):
        seen.append(deadline)
        return build(ctx, relations, deadline)

    monkeypatch.setattr(verify, "_build_clast", spy)
    field = ff_from_q(2)
    ctx = _throwaway_context(monkeypatch, field)
    deadline = time.monotonic() + 600
    report = check_products(field, sample="3", seed=1, deadline=deadline)
    assert report.overall == "pass"
    assert seen == [deadline]    # built once, by the first item
    assert "clast" in ctx._memo


# ---------------------------------------------------------------------------
# the A-family product congruence, one normal form per A-spec and carry


def _congruence_basis(ctx):
    """The S7 basis truncated at twice the highest basis degree: the
    congruence tests' basis in the order of S7, beside the suite's C-last
    one."""
    bound = 2 * max(sp.degree(ctx.q) for sp in ctx.enumerate_basis())
    return verify._exact_gb(ctx, bound)


def _per_pair_congruence(ctx, basis):
    """The test oracle: the product congruence checked pair by pair, both
    sides from the x_pullback memo, as the item checked it before it went
    one exponent-sum class at a time."""
    q = ctx.q
    U0q = ctx.S7var("U0") ** q
    C0, C1, C0s, C1s = (ctx.S7var(nm) for nm in ("C0", "C1", "C0s", "C1s"))
    carry_i = (ctx.S7.one, C1s * U0q - C0s * ctx.S7var("U1"))
    carry_j = (ctx.S7.one, C1 * U0q - C0 * ctx.S7var("Um1"))
    carry_t = (ctx.S7.one, C0 * C0s)
    a_specs = [sp for sp in ctx.enumerate_basis() if sp.kind == "A"]
    checked = 0
    for na, f in enumerate(a_specs):
        for g in a_specs[na:]:
            li, i3 = divmod(f.i + g.i, q)
            lj, j3 = divmod(f.j + g.j, q)
            lt, t3 = divmod(f.t + g.t, q - 1)
            lhs = ctx.x_pullback(f.i, f.j, f.t) * ctx.x_pullback(g.i, g.j, g.t)
            rhs = carry_i[li] * carry_j[lj] * carry_t[lt] \
                * ctx.x_pullback(i3, j3, t3)
            red = groebner.normal_form(lhs - rhs, basis)
            if red:
                return False, "pair %s * %s: nonzero normal form %s" \
                    % (f.label(), g.label(), verify._clip(red))
            checked += 1
    return True, "congruence holds for all %d pairs" % checked


@pytest.mark.parametrize("q,pairs", [(2, 10), (3, 171), (4, 1176)])
def test_product_congruence_agrees_with_the_per_pair_oracle(q, pairs):
    ctx = InvariantContext(ff_from_q(q))
    basis = _congruence_basis(ctx)
    expected = (True, "congruence holds for all %d pairs" % pairs)
    assert _per_pair_congruence(ctx, basis) == expected
    assert verify._product_congruence(ctx, basis) == expected


@pytest.mark.parametrize("q", [3, 4])
def test_a_corrupted_pullback_fails_the_item_and_the_oracle(monkeypatch, q):
    """x_pullback(1, 0, 1) plus U0 in the memo: the class of A:1,0,1, first
    reached with A:0,0,0, fails, and so does some pair of the oracle."""
    field = ff_from_q(q)
    ctx = _throwaway_context(monkeypatch, field)
    basis = _congruence_basis(ctx)
    ctx._memo["x_pullback", 1, 0, 1] = ctx.x_pullback(1, 0, 1) \
        + ctx.S7var("U0")
    ok, detail = verify._product_congruence(ctx, basis)
    assert not ok
    assert detail.startswith("pair A:0,0,0 * A:1,0,1: nonzero normal form ")
    assert not _per_pair_congruence(ctx, basis)[0]
    report = check_products(field, sample="1")
    item = report.items[-1]
    assert (item.name, item.status, item.detail) == \
        ("congruence:products", "fail",
         verify._product_congruence(ctx, verify._clast(ctx).gb)[1])


@pytest.mark.parametrize("q", [3, 4])
@pytest.mark.parametrize("dropped", ["T1s", "T1", "T00"])
def test_a_basis_without_a_carry_relation_fails_that_carry(q, dropped):
    """Without T1s, T1 or T00 every spec still passes, being an identity,
    but the carry that relation gives does not, and some pair of the oracle
    fails too."""
    ctx = InvariantContext(ff_from_q(q))
    bound = 2 * max(sp.degree(q) for sp in ctx.enumerate_basis())
    basis = groebner.buchberger(
        [ctx.relation(n) for n in RELATION_NAMES if n != dropped],
        bound=bound, track=False)
    power = {"T1s": "Um1^%d" % q, "T1": "U1^%d" % q,
             "T00": "W^%d" % (q - 1)}[dropped]
    ok, detail = verify._product_congruence(ctx, basis)
    assert not ok
    assert detail.startswith("carry %s: nonzero normal form " % power)
    assert not _per_pair_congruence(ctx, basis)[0]


def _counted_congruence(monkeypatch, q, clast=False):
    """_product_congruence at q, modulo the S7 basis or, with clast, the
    C-last one, and the number of normal forms it took."""
    ctx = InvariantContext(ff_from_q(q))
    basis = verify._clast(ctx).gb if clast else _congruence_basis(ctx)
    calls = []
    reduce = verify.normal_form

    def spy(f, gb, track=False):
        calls.append(f)
        return reduce(f, gb, track)

    monkeypatch.setattr(verify, "normal_form", spy)
    return verify._product_congruence(ctx, basis), len(calls)


@pytest.mark.parametrize("q,reductions", [(3, 21), (4, 51)])
def test_product_congruence_reduces_once_per_spec_and_carry(
        monkeypatch, q, reductions):
    """q^2 (q-1) A-specs and three carries."""
    (ok, _), calls = _counted_congruence(monkeypatch, q)
    assert ok
    assert calls == reductions == q * q * (q - 1) + 3


@pytest.mark.parametrize("q,pairs,reductions", [(3, 171, 21), (4, 1176, 51)])
def test_product_congruence_modulo_the_clast_basis(
        monkeypatch, q, pairs, reductions):
    """check_products reduces modulo the C-last basis: the same detail and
    the same number of normal forms as modulo the S7 basis."""
    expected = ((True, "congruence holds for all %d pairs" % pairs),
                reductions)
    assert _counted_congruence(monkeypatch, q, clast=True) == expected
    assert _counted_congruence(monkeypatch, q) == expected


def test_product_congruence_at_q16(monkeypatch):
    """7,374,720 pairs at q=16, proved by 3,843 normal forms."""
    assert _counted_congruence(monkeypatch, 16) == \
        ((True, "congruence holds for all 7374720 pairs"), 3843)


def test_product_congruence_checks_the_deadline_before_each_normal_form(
        monkeypatch):
    ctx = InvariantContext(ff_from_q(3))
    basis = _congruence_basis(ctx)
    clock = ExpiringClock()
    monkeypatch.setattr(groebner.time, "monotonic", clock)
    assert verify._product_congruence(ctx, basis, deadline=1.0)[0]
    assert clock.reads == 21
    for k in (1, 11, 21):
        clock = ExpiringClock(k)
        monkeypatch.setattr(groebner.time, "monotonic", clock)
        with pytest.raises(TimeoutExceeded):
            verify._product_congruence(ctx, basis, deadline=1.0)
        assert clock.reads == k


def test_products_budget_runs_out_inside_the_product_congruence(monkeypatch):
    """The budget expires 20 clock reads after the exponent-carry item, at
    the 17th of the 21 normal forms of congruence:products: the item times
    out.  It is the suite's last item, so no item is left to skip."""
    monkeypatch.setattr(gens, "_CONTEXTS", {})
    clock = ExpiringClock()
    monkeypatch.setattr(groebner.time, "monotonic", clock)
    decompose = verify._carry_decomposition

    def then_expire(q):
        bad = decompose(q)
        clock.limit = clock.reads + 20
        return bad

    monkeypatch.setattr(verify, "_carry_decomposition", then_expire)
    rep = check_products(ff_from_q(3), sample="1", deadline=1.0)
    *before, item = rep.items
    assert all(it.status == "pass" for it in before)
    assert (item.name, item.status, item.detail) == \
        ("congruence:products", "timeout",
         "computation exceeded its time budget")
    assert rep.timed_out


@pytest.mark.slow
def test_products_q11_sample():
    report = check_products(ff_from_q(11), sample="20", seed=0)
    assert report.overall == "pass"
    item = report.items[-1]
    assert (item.name, item.detail) == \
        ("congruence:products", "congruence holds for all 732655 pairs")


# ---------------------------------------------------------------------------
# the verifier's evaluation of ell


def _full_pi_of_ell(ctx, ell):
    """The test oracle: pi of the whole 7-variable ell by one full
    substitution, as verify_certificate evaluated it before it went one
    basis element at a time."""
    ell_s7 = ctx.S7.zero
    for spec, npoly in ell.items():
        ell_s7 = ell_s7 + npoly * ctx.basis_pullback(spec)
    return ctx.pi(ell_s7)


def _term_dict_pi_of_ell(ctx, ell, images=None):
    """The term-dict oracle: pi(sum_b n_b * pullback(b)) as sum_b pi(n_b) *
    pi(pullback(b)), one polynomial product per basis element of ell; it
    evaluates ell itself, which verify_certificate never does.  The images
    of N-monomials and pullbacks are kept in images, never in the
    context."""
    images = {} if images is None else images
    fld = ctx.field
    total = {}
    for spec, npoly in ell.items():
        coef = {}
        for key, cidx in npoly.terms.items():
            if key not in images:
                images[key] = ctx.pi(Polynomial(ctx.S7, {key: 1}))
            K.iadd_scaled(coef, images[key].terms, cidx, 0, fld)
        if spec not in images:
            images[spec] = ctx.pi(ctx.basis_pullback(spec))
        product = Polynomial(ctx.R4, coef) * images[spec]
        K.iadd_scaled(total, product.terms, 1, 0, fld)
    return Polynomial(ctx.R4, total)


def _verdicts(ctx, cert, images=None):
    """(verify_certificate's verdict, the term-dict oracle's verdict) on
    cert; the oracle checks pi(ell) = value(f) * value(g)."""
    value = ctx.basis_value(cert.f) * ctx.basis_value(cert.g)
    return (verify_certificate(ctx.field, cert)[0],
            _term_dict_pi_of_ell(ctx, cert.ell, images) == value)


@pytest.mark.parametrize("q,sample", ((2, None), (3, None), (4, 20), (5, 20)),
                         ids=("q=2-all", "q=3-all", "q=4-20", "q=5-20"))
def test_evaluated_ell_equals_the_full_substitution(q, sample):
    field = ff_from_q(q)
    ctx = context_for_q(q)
    specs = ctx.enumerate_basis()
    pairs = [(f, g) for n, f in enumerate(specs) for g in specs[n:]]
    if sample is not None:
        pairs = random.Random(q).sample(pairs, sample)
    images = {}
    for f, g in pairs:
        cert = reduce_product(field, f, g)
        value = _term_dict_pi_of_ell(ctx, cert.ell, images)
        assert value == _full_pi_of_ell(ctx, cert.ell)
        assert value == ctx.basis_value(f) * ctx.basis_value(g)


def _verifier_agrees_on_correct_certificates(q, sample):
    field = ff_from_q(q)
    ctx = context_for_q(q)
    images = {}
    pairs = _sampled_pairs(ctx, sample)
    for f, g in pairs:
        cert = reduce_product(field, f, g)
        assert _verdicts(ctx, cert, images) == (True, True), \
            (f.label(), g.label())
    return len(pairs)


@pytest.mark.parametrize("q,sample,count", ((2, "all", 21), (3, "all", 1176),
                                            (4, "300", 300)),
                         ids=("q=2-all", "q=3-all", "q=4-300"))
def test_verifier_agrees_with_the_term_dict_oracle(q, sample, count):
    """verify_certificate passes every certificate reduce_product makes,
    and the term-dict evaluation of each ell is the product."""
    assert _verifier_agrees_on_correct_certificates(q, sample) == count


@pytest.mark.slow
@pytest.mark.parametrize("q", (5, 7, 8, 9))
def test_verifier_agrees_with_the_term_dict_oracle_at_large_q(q):
    assert _verifier_agrees_on_correct_certificates(q, "200") == 200


def _changed(ell, spec, terms):
    """ell with the polynomial of spec replaced by the term dict terms."""
    out = dict(ell)
    out[spec] = Polynomial(ell[spec].ring, terms)
    return out


def _fails_the_identity(ctx, cert, ell, images=None):
    """Whether cert with ell in place of its own fails verify_certificate
    at the cofactor identity; the oracle must reject ell too."""
    value = ctx.basis_value(cert.f) * ctx.basis_value(cert.g)
    assert _term_dict_pi_of_ell(ctx, ell, images) != value
    ok, detail = verify_certificate(ctx.field,
                                    dataclasses.replace(cert, ell=ell))
    return not ok and detail.startswith("cofactor identity fails: ")


@pytest.mark.parametrize("q", (2, 3, 4))
def test_identity_rejects_a_changed_coefficient(q):
    field = ff_from_q(q)
    ctx = context_for_q(q)
    for f, g in _sampled_pairs(ctx, "20", seed=q):
        cert = reduce_product(field, f, g)
        spec = max(cert.ell, key=lambda s: s.label())
        terms = dict(cert.ell[spec].terms)
        key = min(terms)
        terms[key] = field.add_i(terms[key], 1)
        if not terms[key]:
            del terms[key]
        assert _fails_the_identity(ctx, cert, _changed(cert.ell, spec, terms))


@pytest.mark.parametrize("q,unit", ((4, 2), (9, 3)))
def test_identity_rejects_coefficients_outside_the_prime_field(q, unit):
    """Coefficients t and 1 + t (indices unit and unit + 1) lie outside
    GF(p): A:1,0,0 times 1 with ell = c A:1,0,0 and no cofactor passes
    for c = 1 only; t and 1 + t fail at the cofactor identity."""
    ctx = context_for_q(q)
    one, f = BasisSpec.parse("A:0,0,0"), BasisSpec.parse("A:1,0,0")
    cert = verify.ReductionCertificate(q, f, one, {f: ctx.S7.one},
                                       [ctx.S7.zero] * len(RELATION_NAMES))
    assert _verdicts(ctx, cert) == (True, True)
    for cidx in (unit, unit + 1):
        assert _fails_the_identity(ctx, cert,
                                   {f: ctx.S7.from_dict({0: cidx})}), cidx


def test_a_value_times_t_fails_the_pullback_value_check(monkeypatch):
    """A stored value times t is not the image of its pullback, so the
    certificate fails, without raising."""
    field = ff_from_q(4)
    f = BasisSpec.parse("A:1,0,0")
    cert = reduce_product(field, f, f)
    ctx = _throwaway_context(monkeypatch, field)
    t = ctx.R4.from_dict({0: 2})    # the generator t of GF(4) over GF(2)
    ctx._memo["value", f] = ctx.basis_value(f) * t
    assert verify_certificate(field, cert) == \
        (False, "evaluated ell does not match the product")


def _foreign_terms(ctx, cert, shifts):
    """cert's ell with gamma times each N-monomial of shifts added to the
    polynomial of its first spec, gamma that spec's first N-monomial."""
    spec = min(cert.ell, key=lambda s: s.label())
    terms = dict(cert.ell[spec].terms)
    gamma = min(terms)
    fld = ctx.field
    for name in shifts:
        key = gamma + ctx.S7.var(name).leading_key()
        terms[key] = fld.add_i(terms.get(key, 0), 1)
        if not terms[key]:
            del terms[key]
    return _changed(cert.ell, spec, terms), spec, gamma


def test_identity_rejects_a_term_of_another_bidegree():
    field = ff_from_q(3)
    ctx = context_for_q(3)
    for f, g in _sampled_pairs(ctx, "10", seed=5):
        cert = reduce_product(field, f, g)
        for shift in ("C0", "C1s"):
            ell, _, _ = _foreign_terms(ctx, cert, (shift,))
            assert _fails_the_identity(ctx, cert, ell)


def test_identity_rejects_foreign_terms_that_cancel_without_x2_y2():
    """At q=2, c0 + c1 and c0s + c1s both become 1 once x2 = y2 = 1: the
    images of the four foreign terms (C0 + C1 + C0s + C1s) gamma b cancel
    in a sum that forgets x2 and y2, yet the certificate fails at the
    cofactor identity."""
    field = ff_from_q(2)
    ctx = context_for_q(2)
    f = g = BasisSpec.parse("A:1,1,0")
    cert = reduce_product(field, f, g)
    ell, spec, gamma = _foreign_terms(ctx, cert, ("C0", "C1", "C0s", "C1s"))
    pullback = ctx.pi(ctx.basis_pullback(spec))
    blind = {}   # (e1, e3) -> coefficient in GF(2)
    for name in ("C0", "C1", "C0s", "C1s"):
        image = ctx.pi(ctx.S7.from_dict(
            {gamma + ctx.S7.var(name).leading_key(): 1})) * pullback
        for key, c in image.terms.items():
            e1, _, e3, _ = ctx.R4.unpack(key)
            blind[e1, e3] = blind.get((e1, e3), 0) ^ c
    assert blind and not any(blind.values())
    assert _fails_the_identity(ctx, cert, ell)


def test_identity_rejects_a_changed_coefficient_of_a_long_ell():
    """The 23-term ell of A:6,6,5 squared at q=7 passes, and a changed
    coefficient fails at the cofactor identity."""
    field = ff_from_q(7)
    ctx = context_for_q(7)
    f = BasisSpec.parse("A:6,6,5")
    cert = reduce_product(field, f, f)
    assert sum(len(npoly) for npoly in cert.ell.values()) == 23
    images = {}
    assert _verdicts(ctx, cert, images) == (True, True)
    spec = max(cert.ell, key=lambda s: s.label())
    terms = dict(cert.ell[spec].terms)
    key = max(terms)
    terms[key] = field.add_i(terms[key], 1) or 1
    assert _fails_the_identity(ctx, cert, _changed(cert.ell, spec, terms),
                               images)


def test_a_relation_that_does_not_vanish_fails_the_certificate(monkeypatch):
    """A:0,0,0 * B:1,1,3,1 at q=3 has only zero cofactors, so its cofactor
    identity holds whatever T1 is; a T1 that pi does not send to 0, put in
    the memo after a first pass, fails it."""
    field = ff_from_q(3)
    cert = reduce_product(field, BasisSpec.parse("A:0,0,0"),
                          BasisSpec.parse("B:1,1,3,1"))
    assert not any(cert.cofactors)
    ctx = _throwaway_context(monkeypatch, field)
    assert verify_certificate(field, cert)[0]
    ctx._memo["rel", "T1"] = ctx.relation("T1") + ctx.S7var("U0")
    assert verify_certificate(field, cert) == \
        (False, "nonvanishing relations: T1")


def test_a_spent_products_budget_times_the_first_item_out(monkeypatch):
    """The congruence items build their Groebner basis themselves, so a
    spent budget gives a report, not a raise."""
    field = ff_from_q(4)
    _throwaway_context(monkeypatch, field)
    report = check_products(field, sample="5", deadline=time.monotonic() - 1)
    assert report.items[0].status == "timeout"
    assert report.items[1:]
    assert all(it.status == "skipped" for it in report.items[1:])


def _throwaway_context(monkeypatch, field, memo=None):
    """A fresh context that context(field) returns until the test ends;
    monkeypatch puts the global context cache back afterwards."""
    ctx = InvariantContext(field)
    if memo is not None:
        ctx._memo = memo
    monkeypatch.setattr(gens, "_CONTEXTS",
                        {(field.p, field.s, field.modulus): ctx})
    return ctx


def test_altered_basis_value_fails_only_the_evaluation(monkeypatch):
    field = ff_from_q(3)
    f, g = BasisSpec.parse("A:2,1,1"), BasisSpec.parse("B:1,1,3,1")
    cert = reduce_product(field, f, g)
    others = [spec for spec in cert.ell if spec not in (f, g)]
    assert others
    ctx = _throwaway_context(monkeypatch, field)
    # the images of ell's pullbacks come from pi, not from basis_value
    for spec in others:
        ctx._memo["value", spec] = ctx.basis_value(spec) + ctx.R4.one
    assert verify_certificate(field, cert)[0]
    ctx._memo["value", f] = ctx.basis_value(f) + ctx.R4.one
    assert verify_certificate(field, cert) == \
        (False, "evaluated ell does not match the product")


class _SpyMemo(dict):
    """A context memo that records every key read or written."""

    def __init__(self):
        super().__init__()
        self.seen = []

    def __getitem__(self, key):
        self.seen.append(key)
        return super().__getitem__(key)

    def __setitem__(self, key, value):
        self.seen.append(key)
        super().__setitem__(key, value)


def test_verifier_reads_nothing_of_the_construction(monkeypatch):
    field = ff_from_q(3)
    certs = [reduce_product(field, BasisSpec.parse(f), BasisSpec.parse(g))
             for f, g in (("A:2,1,1", "B:1,1,3,1"), ("Cs:1,0,0", "A:0,1,0"),
                          ("C:1,2,0", "B:0,1,2,1"), ("A:1,1,0", "A:2,2,1"))]
    memo = _SpyMemo()
    _throwaway_context(monkeypatch, field, memo)

    def forbidden(*args, **kwargs):
        raise AssertionError("the verifier called a construction function")

    for name in ("normal_form", "buchberger", "_clast", "_exact_gb",
                 "_fit_in_module", "_build_fit_block", "reduce_product",
                 "_build_clast", "_u_basis"):
        monkeypatch.setattr(verify, name, forbidden)
    for name in ("normal_form", "buchberger", "cofactors_on_inputs"):
        monkeypatch.setattr(groebner, name, forbidden)
    for name, fn in vars(linalg).items():
        if inspect.isfunction(fn) and fn.__module__ == linalg.__name__:
            monkeypatch.setattr(linalg, name, forbidden)

    for cert in certs:
        ok, detail = verify_certificate(field, cert)
        assert ok, detail
    kinds = {key[0] if isinstance(key, tuple) else key for key in memo.seen}
    assert not kinds & {"fit", "factor", "nimage", "nmonomials", "bidegree",
                        "gb", "dim", "line", "grid", "clast", "kronecker",
                        "packed-pi", "packed-pullback", "packed-value"}
    assert {"relations-vanish", "pullback-value"} <= kinds
    # basis_value is read for the product f*g only
    assert {key[1] for key in memo.seen if key[0] == "value"} \
        == {spec for cert in certs for spec in (cert.f, cert.g)}


def test_verifier_memo_does_not_grow_with_the_pairs(monkeypatch):
    monkeypatch.setattr(gens, "_CONTEXTS", {})
    field = ff_from_q(3)
    assert check_products(field, sample="all").overall == "pass"
    ctx = context_for_q(3)
    # 1,176 certificates, one entry per basis element met and one for the
    # relations
    assert len(_memo_keys(ctx, "pullback-value")) \
        <= len(ctx.enumerate_basis()) == 48
    assert "relations-vanish" in ctx._memo


# ---------------------------------------------------------------------------
# product certificates from one tracked normal form in the C-last order


def _clast_context_facts(q):
    """The C-last data of a fresh context: the relations stay a 5-element
    basis with the five pure-U leading terms; B_U, found by brute force in
    a box larger than the pure powers allow, has |GL2| elements and the
    degree multiset of the basis; and every block of L(0), read off the
    normal forms of the pullbacks, is square, of full rank, and the stored
    inverse inverts it."""
    field = ff_from_q(q)
    ctx = InvariantContext(field)
    cl = verify._build_clast(ctx, ctx.ideal_generators())
    ring = cl.ring
    assert ring.names == ("Um1", "U0", "U1", "C0", "C1", "C0s", "C1s")
    leading = [(0, 0, q), (q, 0, 0), (0, q * q - 1, 0),
               (0, q * q - q - 1, 1), (1, q * q - q - 1, 0)]
    assert len(cl.gb.basis) == 5
    assert sorted(ring.unpack(k) for k in cl.gb.lt_keys) \
        == sorted(e + (0, 0, 0, 0) for e in leading)

    box = itertools.product(range(q + 2), range(q * q + 1), range(q + 2))
    standard = sorted(ring.pack(e + (0, 0, 0, 0)) for e in box if not any(
        all(a <= b for a, b in zip(lt, e)) for lt in leading))
    assert sorted(cl.units.values()) == standard
    assert len(standard) == (q * q - 1) * (q * q - q)
    specs = ctx.enumerate_basis()
    assert sorted(ring.key_wdeg(k) for k in standard) \
        == sorted(spec.degree(q) for spec in specs)

    forms = [groebner.normal_form(pull, cl.gb).terms for pull in cl.pullbacks]
    for d, (cols, inverse) in cl.blocks.items():
        rows = [m for m, spec in enumerate(specs) if spec.degree(q) == d]
        assert len(rows) == len(cols) == len(inverse)
        block = [[forms[m].get(k, 0) for k in cols] for m in rows]
        assert linalg.rank_field(np.array(block, dtype=np.uint8),
                                 field) == len(rows)
        for r, m in enumerate(rows):
            for n in rows:
                total = 0
                for c, row in enumerate(inverse):
                    total = field.add_i(total, field.mul_i(block[r][c],
                                                           row.get(n, 0)))
                assert total == (m == n)


@pytest.mark.parametrize("q", (2, 3, 4, 5))
def test_clast_context_facts(q):
    _clast_context_facts(q)


@pytest.mark.slow
@pytest.mark.parametrize("q", (7, 8, 9))
def test_clast_context_facts_at_large_q(q):
    _clast_context_facts(q)


def _polynomial_fold(rep, cof, reps):
    """rep - sum_k cof[k] * reps[k] with a Polynomial for every partial
    product and sum: the cofactor fold before it accumulated in term
    dicts, kept as its oracle."""
    ring = rep[0].ring
    for k, terms in enumerate(cof):
        if terms:
            c = Polynomial(ring, terms)
            rep = [a - c * b if b else a for a, b in zip(rep, reps[k])]
    return rep


def test_cofactors_on_inputs_equal_the_polynomial_fold():
    """On the tracked normal form of every one of the 1,176 q=3 products,
    as reduce_product takes it."""
    field = ff_from_q(3)
    ctx = InvariantContext(field)
    cl = verify._build_clast(ctx, ctx.ideal_generators())
    gb = cl.gb
    zero = [gb.ring.zero] * len(gb.inputs)
    pairs = _sampled_pairs(ctx, "all")
    assert len(pairs) == 1176
    for f, g in pairs:
        product = cl.pullbacks[cl.index[f]] * cl.pullbacks[cl.index[g]]
        _, cof = groebner.normal_form(product, gb, track=True)
        assert groebner.cofactors_on_inputs(gb, cof) == _polynomial_fold(
            zero, [(-c).terms for c in cof], gb.reps), (f.label(), g.label())


def _ell_equals_the_fit(q, sample):
    """Every certificate's ell equals _fit_in_module's, fitted in a context
    of its own, and the certificate passes verify_certificate."""
    field = ff_from_q(q)
    reference = InvariantContext(field)
    pairs = _sampled_pairs(reference, sample)
    for (f, g), fitted in zip(pairs, _fit_pairs(reference, pairs)):
        cert = reduce_product(field, f, g)
        assert cert.ell == fitted, (f.label(), g.label())
        ok, detail = verify_certificate(field, cert)
        assert ok, (f.label(), g.label(), detail)
    return len(pairs)


@pytest.mark.parametrize("q,sample,count", ((2, "all", 21), (3, "all", 1176),
                                            (4, "300", 300)),
                         ids=("q=2-all", "q=3-all", "q=4-300"))
def test_ell_equals_the_fit(q, sample, count):
    assert _ell_equals_the_fit(q, sample) == count


@pytest.mark.slow
@pytest.mark.parametrize("q", (5, 7, 8, 9))
def test_ell_equals_the_fit_at_large_q(q):
    assert _ell_equals_the_fit(q, "200") == 200


def test_a_timed_out_clast_build_stores_nothing(monkeypatch):
    field = ff_from_q(3)
    f, g = BasisSpec.parse("A:2,1,1"), BasisSpec.parse("B:1,1,3,1")
    ctx = _throwaway_context(monkeypatch, field)
    clock = ExpiringClock()
    monkeypatch.setattr(groebner.time, "monotonic", clock)
    verify._build_clast(ctx, ctx.ideal_generators(), deadline=1.0)
    # Buchberger's checks, one per basis pullback and one per block
    assert clock.reads > len(ctx.enumerate_basis())
    for k in (1, clock.reads // 2, clock.reads):
        monkeypatch.setattr(groebner.time, "monotonic", ExpiringClock(k))
        with pytest.raises(TimeoutExceeded):
            reduce_product(field, f, g, deadline=1.0)
        assert "clast" not in ctx._memo
    monkeypatch.setattr(groebner.time, "monotonic", ExpiringClock())
    assert verify_certificate(field, reduce_product(field, f, g,
                                                    deadline=1.0))[0]
    assert "clast" in ctx._memo


def test_a_deadline_passing_in_the_build_times_the_item_out(monkeypatch):
    """The budget runs out inside the first item, while it builds the
    C-last data: that item times out, the rest are skipped, and no C-last
    entry is kept."""
    field = ff_from_q(2)
    ctx = _throwaway_context(monkeypatch, field)
    build = verify._build_clast

    def late(ctx, relations, deadline=None):
        monkeypatch.setattr(groebner.time, "monotonic", lambda: 1e9)
        return build(ctx, relations, deadline)

    monkeypatch.setattr(verify, "_build_clast", late)
    report = check_products(field, sample="3", deadline=1.0)
    statuses = [it.status for it in report.items]
    assert statuses[0] == "timeout"
    assert set(statuses[1:]) == {"skipped"}
    assert "clast" not in ctx._memo


def test_a_refused_clast_build_runs_once(monkeypatch):
    """T10 replaced by 0 at q=3: the C-last build refuses once, and every
    item that needs it fails with that same refusal, raised again from the
    memo without a second build."""
    field = ff_from_q(3)
    ctx = _throwaway_context(monkeypatch, field)
    ctx._memo["rel", "T10"] = ctx.S7.zero
    builds = []
    build = verify._build_clast

    def counting_build(*args, **kwargs):
        builds.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(verify, "_build_clast", counting_build)
    report = check_products(field, sample="4")
    assert len(builds) == 1
    refused = [it for it in report.items
               if it.detail.startswith("NotExpressible: the relations in the "
                                       "C-last order have leading terms")]
    assert len(refused) == 7
    assert {it.status for it in refused} == {"fail"}
    assert len({it.detail for it in refused}) == 1
    assert "clast" not in ctx._memo


def test_dropped_t10_is_refused_before_b_u_is_enumerated(monkeypatch):
    """Without T10, a leading term in the C-last order holds C0, so B_U is
    infinite: the build refuses on the leading terms, before any
    enumeration."""
    ctx = InvariantContext(ff_from_q(3))

    def forbidden(*args):
        raise AssertionError("B_U was enumerated")

    monkeypatch.setattr(verify, "_u_basis", forbidden)
    relations = [ctx.relation(n) for n in RELATION_NAMES if n != "T10"]
    with pytest.raises(verify.NotExpressible, match="leading terms"):
        verify._build_clast(ctx, relations)


@pytest.mark.parametrize("q", (2, 3))
def test_relations_that_are_not_the_reduced_basis_are_refused(q):
    """T1 + C0*T1s with the other four relations generates the same ideal
    and has the same reduced basis, but T1 is then a combination of two
    generators, not a constant times one: the cofactors cannot be read off
    the basis element's, so the build refuses and nothing is stored."""
    ctx = InvariantContext(ff_from_q(q))
    relations = [ctx.relation(n) for n in RELATION_NAMES]
    relations[0] = relations[0] + ctx.S7var("C0") * relations[1]
    with pytest.raises(verify.NotExpressible,
                       match="not a constant times one relation"):
        ctx.memo("clast", lambda: verify._build_clast(ctx, relations))
    assert "clast" not in ctx._memo


def test_a_non_square_or_singular_block_is_refused():
    ctx = InvariantContext(ff_from_q(3))
    ctx._memo["basis"] = ctx.enumerate_basis()[1:]    # no degree-0 element
    with pytest.raises(verify.NotExpressible, match="degree 0 is 0 x 1"):
        verify._build_clast(ctx, ctx.ideal_generators())
    ctx = InvariantContext(ff_from_q(3))
    f, g = BasisSpec.parse("A:1,0,0"), BasisSpec.parse("A:0,1,0")
    assert f.degree(3) == g.degree(3) == 4
    ctx._memo["pullback", g] = ctx.basis_pullback(f)
    with pytest.raises(verify.NotExpressible, match="degree 4 is singular"):
        verify._build_clast(ctx, ctx.ideal_generators())


def test_each_block_of_l0_is_inverted_by_one_elimination(monkeypatch):
    """_build_clast at q=4 inverts each of the 47 blocks of L(0) by one
    inverse_field call, and factors and solves nothing."""
    calls = []
    invert = linalg.inverse_field

    def counting_invert(block, field):
        calls.append(block.shape)
        return invert(block, field)

    def refused(*args):
        raise AssertionError("L(0) is inverted without a factorization")

    monkeypatch.setattr(linalg, "inverse_field", counting_invert)
    monkeypatch.setattr(linalg, "factor_field", refused)
    monkeypatch.setattr(linalg, "solve_factored", refused)
    ctx = InvariantContext(ff_from_q(4))
    cl = verify._build_clast(ctx, ctx.ideal_generators())
    assert len(cl.blocks) == 47
    assert calls == [(len(cols), len(cols))
                     for cols, _inverse in cl.blocks.values()]


@pytest.mark.parametrize("q", (2, 3, 4, 9))
def test_clast_inverse_rows_hold_python_ints(q):
    """Every coefficient of every inverted L(0) block is a Python int: a
    numpy int8 would wrap in the kernels' index arithmetic c*q + v at
    q = 16."""
    ctx = InvariantContext(ff_from_q(q))
    cl = verify._build_clast(ctx, ctx.ideal_generators())
    coefficients = [x for _cols, inverse in cl.blocks.values()
                    for row in inverse for x in row.values()]
    assert coefficients
    assert {type(x) for x in coefficients} == {int}
    assert all(0 < x < ctx.field.p for x in coefficients)


def test_a_failed_clast_build_fails_the_products_items(monkeypatch):
    """T10 replaced by 0: every product item fails with the refusal, a
    verdict rather than bad input, and nothing is stored."""
    field = ff_from_q(2)
    ctx = _throwaway_context(monkeypatch, field)
    ctx._memo["rel", "T10"] = ctx.S7.zero
    report = check_products(field, sample="2")
    reduces = [it for it in report.items if it.name.startswith("reduce(")]
    assert len(reduces) == 2
    for item in reduces:
        assert item.status == "fail"
        assert item.detail.startswith("NotExpressible: the relations in the "
                                      "C-last order have leading terms")
    assert "clast" not in ctx._memo


# ---------------------------------------------------------------------------
# failing inputs: each suite, run on a corrupted context, fails the one item
# that guards what was corrupted, and no other


def _failed_items(report):
    return [(it.name, it.detail) for it in report.items
            if it.status != "pass"]


def test_a_changed_generator_fails_its_identity(monkeypatch):
    """u_2 + x1 in the memo: T0 = c0 u0 - c1 u1 + u2 is off by x1."""
    field = ff_from_q(3)
    ctx = _throwaway_context(monkeypatch, field)
    ctx._memo["u", 2] = ctx.u(2) + ctx.R4.var("x1")
    assert _failed_items(check_relations(field)) == \
        [("T0", "nonzero difference: x1")]


def test_a_wrong_census_fails_the_census(monkeypatch):
    field = ff_from_q(3)
    ctx = _throwaway_context(monkeypatch, field)
    census = ctx.census()
    monkeypatch.setattr(ctx, "census", lambda: dict(census, total=3))
    assert _failed_items(check_hilbert(field, 6)) == \
        [("census", "basis count 3 but group order 48")]


def test_a_nonvanishing_relation_fails_relations_in_kernel(monkeypatch):
    """T1 + C1 U0^3 at q=3: pi of it is not 0."""
    field = ff_from_q(3)
    ctx = _throwaway_context(monkeypatch, field)
    ctx._memo["rel", "T1"] = ctx.relation("T1") \
        + ctx.S7var("C1") * ctx.S7var("U0") ** 3
    assert _failed_items(check_kernel(field, 8)) == \
        [("relations-in-kernel", "nonvanishing relations: T1")]


def test_a_changed_pullback_fails_the_base_congruence(monkeypatch):
    """z_pullback + U0 at q=2: the base congruence is off by U0."""
    field = ff_from_q(2)
    ctx = _throwaway_context(monkeypatch, field)
    z_pullback, U0 = ctx.z_pullback, ctx.S7var("U0")
    monkeypatch.setattr(ctx, "z_pullback",
                        lambda s, k, t: z_pullback(s, k, t) + U0)
    assert _failed_items(check_products(field)) == \
        [("congruence:base", "nonzero normal form: U0")]


def test_a_changed_h_numerator_fails_only_its_division(monkeypatch):
    """h_1 built first, then its numerator off by x1: only the division
    certificate reads the numerator again."""
    field = ff_from_q(3)
    ctx = _throwaway_context(monkeypatch, field)
    for s in range(3):
        ctx.h(s)
    h_numerator, x1 = ctx.h_numerator, ctx.R4.var("x1")
    monkeypatch.setattr(ctx, "h_numerator",
                        lambda s: h_numerator(s) + (x1 if s == 1 else 0))
    assert _failed_items(check_relations(field)) == \
        [("hdiv(1)", "division certificate broken for h_1")]


def test_a_changed_h_fails_its_identities_star_images_and_boundary(
        monkeypatch):
    """h_0 + x1 in the memo at q=3: h_0 is the swap image of h_2 and equals
    c1s, and the identities through h_0 fail with it."""
    field = ff_from_q(3)
    ctx = _throwaway_context(monkeypatch, field)
    ctx._memo["h", 0] = ctx.h(0) + ctx.R4.var("x1")
    failed = _failed_items(check_relations(field))
    assert [name for name, _ in failed] == [
        "Rs(0)", "Kss(2)", "Hs(0)", "hdiv(0)", "hstar(0)", "hstar(2)",
        "hboundary"]
    assert failed[3:] == [
        ("hdiv(0)", "division certificate broken for h_0"),
        ("hstar(0)", "nonzero difference: y2"),
        ("hstar(2)", "nonzero difference: 2*x1"),
        ("hboundary", "nonzero difference: x1")]


def test_a_dropped_basis_spec_fails_the_series_count(monkeypatch):
    """The degree-0 spec dropped from the memo at q=3: the series loses
    1 / ((1-T^8)^2 (1-T^6)^2), which is 1 at degree 0 and 2 at degree 6."""
    field = ff_from_q(3)
    ctx = _throwaway_context(monkeypatch, field)
    assert ctx.enumerate_basis()[0].degree(3) == 0
    ctx._memo["basis"] = ctx.enumerate_basis()[1:]
    assert _failed_items(check_hilbert(field, 6)) == [
        ("d=0", "action=1 series=0 quotient=1 disagree"),
        ("d=6", "action=5 series=3 quotient=5 disagree")]


def test_a_wrong_quotient_count_fails_the_census(monkeypatch):
    """standard_monomial_count one too high at degree 5: the walk's counts,
    which the d= items read, still agree with the oracle."""
    field = ff_from_q(3)
    _throwaway_context(monkeypatch, field)
    count = verify.standard_monomial_count
    monkeypatch.setattr(verify, "standard_monomial_count",
                        lambda gb, d: count(gb, d) + (d == 5))
    assert _failed_items(check_kernel(field, 8)) == \
        [("standard-monomials", "standard-monomial census disagrees at [5]")]


def test_a_wrong_invariant_dimension_fails_its_degree(monkeypatch):
    """dim R_6 one too high in the memo at q=3: only the d=6 item compares
    the oracle's dimension with the quotient count and the image rank."""
    field = ff_from_q(3)
    ctx = _throwaway_context(monkeypatch, field)
    ctx._memo["dim", 6] = action.invariant_dimension(field, 6) + 1
    assert _failed_items(check_kernel(field, 8)) == \
        [("d=6", "quotient=5 image=5 invariants=6 disagree")]


def _build_invariance_inputs(ctx):
    """Every polynomial check_invariance reads, built into the memo, so
    that one changed afterwards reaches no other."""
    ctx.generators()
    ctx.d(2) * ctx.ds(2)
    for s in range(ctx.q):
        ctx.h(s)


def test_a_changed_generator_fails_its_invariance(monkeypatch):
    """u0 + x1 put in the memo once the others are built: only the
    gl2(u0) item sees it."""
    field = ff_from_q(3)
    ctx = _throwaway_context(monkeypatch, field)
    _build_invariance_inputs(ctx)
    ctx._memo["u", 0] = ctx.u(0) + ctx.R4.var("x1")
    failed = _failed_items(check_invariance(field))
    assert [name for name, _ in failed] == ["gl2(u0)"]
    assert failed[0][1].startswith("moved by ")


def test_a_moved_d2_fails_the_control_at_q2(monkeypatch):
    """d2 + x1 at q=2, where every determinant is 1 and d2 must be fixed:
    the control fails, and so does d2*d2s, which reads the same d2."""
    field = ff_from_q(2)
    ctx = _throwaway_context(monkeypatch, field)
    _build_invariance_inputs(ctx)
    ctx._memo["d", 2] = ctx.d(2) + ctx.R4.var("x1")
    failed = _failed_items(check_invariance(field))
    assert [name for name, _ in failed] == ["gl2(d2*d2s)", "d2-control"]
    assert failed[1][1].startswith("moved by ")


def test_a_fixed_d2_fails_the_control_at_q3(monkeypatch):
    """d2 replaced by the invariant d2*d2s at q=3, and d2s by 1 so that
    their product stays d2*d2s: only the control, which needs d2 moved,
    fails."""
    field = ff_from_q(3)
    ctx = _throwaway_context(monkeypatch, field)
    _build_invariance_inputs(ctx)
    ctx._memo["d", 2] = ctx.d(2) * ctx.ds(2)
    ctx._memo["ds", 2] = ctx.R4.one
    assert _failed_items(check_invariance(field)) == \
        [("d2-control", "d2 unexpectedly fixed by all of GL2")]
