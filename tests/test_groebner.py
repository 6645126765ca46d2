"""Buchberger completion, division with cofactors, standard monomials."""

import time

import pytest

from modinvar.gf import ff_make
from modinvar.gens import context_for_q
from modinvar.groebner import (
    DegreeBoundExceeded,
    InhomogeneousWithTruncation,
    TimeoutExceeded,
    buchberger,
    cofactors_on_inputs,
    in_ideal,
    normal_form,
    standard_monomial_count,
)
from modinvar.mpoly import PolyRing


def textbook_ring():
    return PolyRing(ff_make(7), ("x", "y", "z"), order="grevlex")


def test_buchberger_closes_s_pairs():
    # every S-polynomial of the output reduces to zero
    R = textbook_ring()
    gens = [R.parse("x^2 + y*z"), R.parse("x*y + z^2"), R.parse("y^3 + x*z")]
    gb = buchberger(gens)
    for i in range(len(gb.basis)):
        for j in range(i):
            fi, fj = gb.basis[i], gb.basis[j]
            ei = R.unpack(fi.leading_key())
            ej = R.unpack(fj.leading_key())
            lcm = tuple(max(a, b) for a, b in zip(ei, ej))
            mi = R.monomial(tuple(a - b for a, b in zip(lcm, ei)))
            mj = R.monomial(tuple(a - b for a, b in zip(lcm, ej)))
            ci = fi.leading_coeff().inverse()
            cj = fj.leading_coeff().inverse()
            spoly = mi * fi * ci - mj * fj * cj
            assert not normal_form(spoly, gb)


def test_basis_is_reduced():
    R = textbook_ring()
    gb = buchberger([R.parse("x^2 + y"), R.parse("x*y + z")])
    for i, f in enumerate(gb.basis):
        assert f.leading_coeff() == R.field.one
        others = [g for j, g in enumerate(gb.basis) if j != i]
        for k in f.terms:
            for g in others:
                assert not R.key_divides(g.leading_key(), k)


def test_membership():
    R = textbook_ring()
    f1 = R.parse("x^2 + y^2")
    f2 = R.parse("x*y")
    gb = buchberger([f1, f2])
    assert in_ideal(f1 * R.parse("z^3 + x") + f2 * R.parse("y^5"), gb)
    assert not in_ideal(R.parse("x + y"), gb)


def test_tracked_division_certificate():
    R = textbook_ring()
    inputs = [R.parse("x^2 + y*z"), R.parse("x*y + z^2")]
    gb = buchberger(inputs, track=True)
    f = R.parse("x^3*y + x*z^4 + y^2")
    rem, cof = normal_form(f, gb, track=True)
    assert sum((c * b for c, b in zip(cof, gb.basis)), rem) == f
    oncof = cofactors_on_inputs(gb, cof)
    assert sum((c * g for c, g in zip(oncof, inputs)), rem) == f


def test_remainder_is_fully_reduced():
    R = textbook_ring()
    gb = buchberger([R.parse("x^2 + y*z"), R.parse("x*y + z^2")])
    rem = normal_form(R.parse("x^3 + x^2*y + y^3"), gb)
    for k in rem.terms:
        for lt in gb.lt_keys:
            assert not R.key_divides(lt, k)


def test_truncation_needs_homogeneous_weights():
    R = textbook_ring()
    with pytest.raises(InhomogeneousWithTruncation):
        buchberger([R.parse("x^2 + y")], bound=6)


def test_bound_respected():
    ctx = context_for_q(2)
    gb = buchberger(ctx.ideal_generators(), bound=8)
    assert gb.bound == 8
    with pytest.raises(DegreeBoundExceeded):
        normal_form(ctx.S7var("U0", 9), gb)


def test_deadline_raises():
    ctx = context_for_q(3)
    with pytest.raises(TimeoutExceeded):
        buchberger(ctx.ideal_generators(), bound=30,
                   deadline=time.monotonic() - 1.0)


def test_relation_ideal_membership():
    ctx = context_for_q(2)
    gb = buchberger(ctx.ideal_generators(), bound=16, track=True)
    t1, t1s = ctx.relation("T1"), ctx.relation("T1s")
    assert in_ideal(t1 * ctx.S7var("U0") + t1s * ctx.S7var("C0"), gb)
    assert not in_ideal(ctx.S7var("U0"), gb)
    assert not in_ideal(ctx.w_poly(), gb)


def brute_standard_count(gb, d):
    # enumerate all degree-d monomials, drop those under a leading term
    ring = gb.ring
    nv = ring.n
    weights = ring.weights
    out = 0
    stack = [((), d)]
    mons = []
    while stack:
        exps, rem = stack.pop()
        pos = len(exps)
        if pos == nv - 1:
            if rem % weights[pos] == 0:
                mons.append(exps + (rem // weights[pos],))
            continue
        for e in range(rem // weights[pos] + 1):
            stack.append((exps + (e,), rem - e * weights[pos]))
    for exps in mons:
        k = ring.pack(exps)
        if not any(ring.key_divides(lt, k) for lt in gb.lt_keys):
            out += 1
    return out


def test_standard_monomial_count_matches_brute_force():
    ctx = context_for_q(2)
    gb = buchberger(ctx.ideal_generators(), bound=12)
    for d in range(13):
        assert standard_monomial_count(gb, d) == brute_standard_count(gb, d)


def test_standard_counts_order_independent():
    # grevlex and grlex give different bases but the same quotient sizes
    from modinvar.gens import S7_NAMES, s7_weights

    ctx = context_for_q(2)
    gb1 = buchberger(ctx.ideal_generators(), bound=14)
    alt = PolyRing(ctx.field, S7_NAMES, weights=s7_weights(2), order="grlex")
    alt_gens = [g.remap(alt) for g in ctx.ideal_generators()]
    gb2 = buchberger(alt_gens, bound=14)
    for d in range(15):
        assert standard_monomial_count(gb1, d) == \
            standard_monomial_count(gb2, d)
