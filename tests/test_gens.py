"""Generator catalog, relation ideal, and the free-module basis."""

import pytest

from modinvar.action import enumerate_gl2, involution_star, is_invariant
from modinvar.gens import (
    BasisSpec,
    GensError,
    IndexOutOfRange,
    InvariantContext,
    UnknownName,
    context_for_q,
    identity_indices,
    s7_bidegrees,
    s7_weights,
)
from modinvar.gf import ff_from_q
from modinvar.mpoly import NotDivisible


def test_generator_degrees():
    for q in (2, 3, 4):
        ctx = context_for_q(q)
        want = (q * q - 1, q * q - q, q * q - 1, q * q - q,
                q + 1, 2, q + 1)
        got = tuple(g.wdeg() for g in ctx.generators().values())
        assert got == want
        assert tuple(s7_weights(q)) == want


def test_generator_bidegrees():
    q = 3
    ctx = context_for_q(q)
    want = ((q * q - 1, 0), (q * q - q, 0), (0, q * q - 1), (0, q * q - q),
            (1, q), (1, 1), (q, 1))
    got = tuple(ctx.r4_bidegree(g) for g in ctx.generators().values())
    assert got == want
    assert tuple(s7_bidegrees(q)) == want


def unpacked_bidegree(f):
    """(x-degree, y-degree) from the exponent tuples; 'mixed' when the
    terms disagree."""
    bds = {(e1 + e2, e3 + e4)
           for e1, e2, e3, e4 in map(f.ring.unpack, f.terms)}
    return bds.pop() if len(bds) == 1 else "mixed"


@pytest.mark.parametrize("q", (2, 3, 4))
def test_packed_bidegree_matches_the_exponents(q):
    # every basis value and every product target of the module fit
    ctx = context_for_q(q)
    values = [ctx.basis_value(spec) for spec in ctx.enumerate_basis()]
    for n, f in enumerate(values):
        assert ctx.r4_bidegree(f) == unpacked_bidegree(f)
        for g in values[n:]:
            target = f * g
            assert ctx.r4_bidegree(target) == unpacked_bidegree(target)


def test_bidegree_of_a_mixed_polynomial_is_an_error():
    ctx = context_for_q(3)
    R = ctx.R4
    assert ctx.r4_bidegree(R.zero) is None
    assert ctx.r4_bidegree(R.parse("x1^2*y2 + x1*x2*y1")) == (2, 1)
    for text in ("x1 + y1", "x1*y1 + x2^2", "x1^2*y2 + x1*y1^2", "1 + y2"):
        with pytest.raises(GensError):
            ctx.r4_bidegree(R.parse(text))


def test_u_and_d_families():
    ctx = context_for_q(3)
    q = 3
    R = ctx.R4
    assert ctx.u(0) == R.parse("x1*y1 + x2*y2")
    assert ctx.u(1) == R.parse("x1^3*y1 + x2^3*y2")
    assert ctx.u(-1) == R.parse("x1*y1^3 + x2*y2^3")
    assert ctx.d(2) == R.parse("x1*x2^3 + 2*x1^3*x2")
    # Dickson quotients: c0 = d2^{q-1}, c1 = d1/d2
    assert ctx.c(0) == ctx.d(2) ** (q - 1)
    assert ctx.c(1) * ctx.d(2) == ctx.d(1)
    assert ctx.cs(0) == involution_star(ctx.c(0))
    assert ctx.cs(1) == involution_star(ctx.c(1))


@pytest.mark.parametrize("q", (2, 3, 4))
def test_h_family(q):
    ctx = context_for_q(q)
    # u0^q divides the numerator exactly, for every s
    for s in range(q):
        num = ctx.h_numerator(s)
        assert ctx.h(s) * ctx.u(0) ** q == num
    assert ctx.h(0) == ctx.cs(1)
    assert ctx.h(q - 1) == ctx.c(1)
    for s in range(q):
        assert involution_star(ctx.h(s)) == ctx.h(q - 1 - s)


def test_divide_exact_negative():
    ctx = context_for_q(2)
    with pytest.raises(NotDivisible):
        ctx.R4.var("x1").divide_exact(ctx.R4.var("x2"))


@pytest.mark.parametrize("q", (2, 3))
def test_seven_generators_invariant(q):
    ctx = context_for_q(q)
    group = enumerate_gl2(ctx.field)
    for name, g in ctx.generators().items():
        ok, witness = is_invariant(g, group)
        assert ok, (name, witness)


def test_relation_ideal_vanishes_under_pi():
    for q in (2, 3):
        ctx = context_for_q(q)
        for rel in ctx.ideal_generators():
            assert rel.is_homogeneous()
            assert ctx.pi(rel) == ctx.R4.zero


def test_identity_catalog_all_zero():
    q = 3
    ctx = context_for_q(q)
    zero = ctx.R4.zero
    for name in ("T0", "T1", "T1s", "K00", "T00", "T10", "T01", "delta"):
        assert ctx.identity_poly(name) == zero, name
    for s in range(q - 1):
        assert ctx.identity_poly("Rs", s=s) == zero
    for s in range(1, q):
        assert ctx.identity_poly("Ks", s=s) == zero
        assert ctx.identity_poly("Kss", s=s) == zero
    for s in range(q):
        assert ctx.identity_poly("HsId", s=s) == zero
    with pytest.raises(UnknownName):
        ctx.identity_poly("nope")
    with pytest.raises(IndexOutOfRange):
        ctx.identity_poly("Rs", s=q - 1)


@pytest.mark.parametrize("q", (2, 3, 4, 5))
@pytest.mark.parametrize("name,lo,hi", (
    ("Rs", 0, -2), ("Ks", 1, -1), ("Kss", 1, -1), ("HsId", 0, -1)))
def test_identity_indices_bound_identity_poly(q, name, lo, hi):
    # lo..q+hi is the index range the catalogue states
    indices = identity_indices(name, q)
    assert list(indices) == list(range(lo, q + hi + 1))
    ctx = context_for_q(q)
    for s in (lo - 1, q + hi + 1, None):
        with pytest.raises(IndexOutOfRange):
            ctx.identity_poly(name, s=s)
    assert identity_indices("T0", q) is None


@pytest.mark.parametrize("q,total", ((2, 6), (3, 48), (4, 180), (5, 480)))
def test_census_matches_group_order(q, total):
    ctx = context_for_q(q)
    specs = ctx.enumerate_basis()
    assert len(specs) == total
    census = ctx.census()
    assert census["total"] == total == census["group_order"]
    assert len({s.label() for s in specs}) == total
    # family sizes: |A| = q^2(q-1), |B| = q(q-1)^3, |C| = q(q-1)(q-2)
    a = sum(1 for s in specs if s.kind == "A")
    b = sum(1 for s in specs if s.kind == "B")
    c = sum(1 for s in specs if s.kind == "C")
    assert a == q * q * (q - 1)
    assert b == q * (q - 1) ** 3
    assert c == q * (q - 1) * (q - 2)
    stars = sum(1 for s in specs if s.star)
    assert 2 * stars == c


def test_basis_spec_label_round_trip():
    for text in ("A:1,0,0", "B:0,1,2,0", "C:1,0,0", "Cs:2,1,0"):
        spec = BasisSpec.parse(text)
        assert spec.label() == text
    assert BasisSpec.parse("Cs:2,1,0").star
    for bad in ("D:1,1,1", "A:1,1", "A:x,0,0", "", "C:1"):
        with pytest.raises(IndexOutOfRange):
            BasisSpec.parse(bad)


def test_basis_spec_validation_ranges():
    q = 3
    BasisSpec.parse("A:2,2,1").validate(q)
    BasisSpec.parse("B:1,1,3,1").validate(q)
    BasisSpec.parse("C:1,2,0").validate(q)
    for bad in ("A:3,0,0", "A:0,0,2", "B:2,0,1,0", "B:0,0,0,0",
                "B:0,0,4,0", "C:2,0,0", "C:0,0,0", "C:1,3,0"):
        with pytest.raises(IndexOutOfRange):
            BasisSpec.parse(bad).validate(q)


@pytest.mark.parametrize("q", (2, 3))
def test_pullbacks_hit_values(q):
    # pi of the 7-variable pullback reproduces the explicit invariant
    ctx = context_for_q(q)
    for spec in ctx.enumerate_basis():
        F = ctx.basis_pullback(spec)
        assert ctx.pi(F) == ctx.basis_value(spec), spec.label()


def test_pullbacks_hit_values_q4_sample():
    ctx = context_for_q(4)
    for text in ("A:3,2,1", "B:2,2,4,2", "C:1,1,1", "Cs:2,3,0"):
        spec = BasisSpec.parse(text)
        assert ctx.pi(ctx.basis_pullback(spec)) == ctx.basis_value(spec)


@pytest.mark.parametrize("q", (3, 4))
def test_star_pairing(q):
    # the starred family-C element is the involution image of its partner
    ctx = context_for_q(q)
    for spec in ctx.enumerate_basis():
        if spec.kind != "C" or spec.star:
            continue
        partner = BasisSpec("C", s=spec.s, k=spec.k, t=spec.t, star=True)
        assert ctx.basis_value(partner) == \
            involution_star(ctx.basis_value(spec))


def test_s7_star_intertwines_pi():
    ctx = context_for_q(3)
    F = ctx.z_pullback(1, 0, 0) * ctx.S7var("U1") + ctx.w_poly()
    assert ctx.pi(ctx.s7_star(F)) == involution_star(ctx.pi(F))
    assert ctx.s7_star(ctx.s7_star(F)) == F


def test_basis_degrees_match_values():
    for q in (2, 3):
        ctx = context_for_q(q)
        for spec in ctx.enumerate_basis():
            assert ctx.basis_value(spec).wdeg() == spec.degree(q)


def test_trivial_basis_element():
    ctx = context_for_q(3)
    one = BasisSpec.parse("A:0,0,0")
    assert ctx.basis_value(one) == ctx.R4.one
    assert ctx.basis_pullback(one) == ctx.S7.one


def test_memo_builds_once_and_stores_no_failed_build():
    ctx = InvariantContext(ff_from_q(2))
    calls = []

    def build():
        calls.append(len(calls))
        return len(calls)

    def fail():
        raise RuntimeError("build failed")

    assert ctx.memo("k", build) == 1
    assert ctx.memo("k", build) == 1
    assert len(calls) == 1
    with pytest.raises(RuntimeError):
        ctx.memo("j", fail)
    assert ctx.memo("j", build) == 2
    assert ctx.u(0) is ctx.u(0)
    with pytest.raises(IndexOutOfRange):
        ctx.u(4)


def test_basis_values_and_pullbacks_are_built_once():
    ctx = InvariantContext(ff_from_q(3))
    spec = BasisSpec("B", i=1, j=0, k=2, t=1)
    value = ctx.basis_value(spec)
    pullback = ctx.basis_pullback(spec)
    # an equal spec reads the same memo entries
    twin = BasisSpec.parse(spec.label())
    assert ctx.basis_value(twin) is value
    assert ctx.basis_pullback(twin) is pullback
    assert ctx.memo(("value", spec), None) is value
    assert ctx.memo(("pullback", spec), None) is pullback
    assert value == ctx.u(-1) * ctx.u(0) ** 2 * ctx.ds(2) * ctx.d(2)
    assert ctx.pi(pullback) == value
    # an invalid spec raises on every call and leaves nothing behind
    bad = BasisSpec("A", i=3)
    for _ in range(2):
        with pytest.raises(IndexOutOfRange):
            ctx.basis_value(bad)
        with pytest.raises(IndexOutOfRange):
            ctx.basis_pullback(bad)
    assert ("value", bad) not in ctx._memo
    assert ("pullback", bad) not in ctx._memo
