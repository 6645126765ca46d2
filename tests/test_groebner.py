"""Buchberger completion, division with cofactors, standard monomials."""

import itertools
import random
import sys
import time

import pytest
from test_action import ExpiringClock

from modinvar import groebner
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


def s_polynomial(gb, i, j):
    R = gb.ring
    fi, fj = gb.basis[i], gb.basis[j]
    ei = R.unpack(fi.leading_key())
    ej = R.unpack(fj.leading_key())
    lcm = tuple(max(a, b) for a, b in zip(ei, ej))
    mi = R.monomial(tuple(a - b for a, b in zip(lcm, ei)))
    mj = R.monomial(tuple(a - b for a, b in zip(lcm, ej)))
    ci = fi.leading_coeff().inverse()
    cj = fj.leading_coeff().inverse()
    return mi * fi * ci - mj * fj * cj


def assert_s_pairs_close(gb):
    """Every S-polynomial within the bound reduces to 0: the pair criteria
    dropped only redundant pairs."""
    for i in range(len(gb.basis)):
        for j in range(i):
            spoly = s_polynomial(gb, i, j)
            if gb.bound is not None and spoly and spoly.wdeg() > gb.bound:
                continue
            assert not normal_form(spoly, gb), (i, j)
    for f in gb.inputs:
        if gb.bound is None or f.wdeg() <= gb.bound:
            assert not normal_form(f, gb)


def test_buchberger_closes_s_pairs():
    R = textbook_ring()
    gens = [R.parse("x^2 + y*z"), R.parse("x*y + z^2"), R.parse("y^3 + x*z")]
    assert_s_pairs_close(buchberger(gens))


def random_system(rng, R, homogeneous):
    """Three to five polynomials of weighted degree 2..4 with two to five
    terms each; an inhomogeneous one mixes in lower degrees."""
    weights = R.weights
    system = []
    for _ in range(rng.randint(3, 5)):
        deg = rng.randint(2, 4)
        mons = []
        for d in ([deg] if homogeneous else range(deg + 1)):
            mons += [e for e in itertools.product(range(d + 1), repeat=R.n)
                     if sum(a * w for a, w in zip(e, weights)) == d]
        picked = rng.sample(mons, min(len(mons), rng.randint(2, 5)))
        system.append(R.from_pairs(
            (e, rng.randrange(1, R.field.p)) for e in picked))
    return system


@pytest.mark.parametrize("order", ("grevlex", "grlex", "lex"))
@pytest.mark.parametrize("p", (2, 3, 7))
def test_random_systems_close_their_s_pairs(p, order):
    rng = random.Random(p * 10 + len(order))
    for weights in ((1, 1, 1), (2, 1, 3)):
        R = PolyRing(ff_make(p), ("a", "b", "c"), weights=weights,
                     order=order)
        for _ in range(4):
            gb = buchberger(random_system(rng, R, homogeneous=False))
            assert_s_pairs_close(gb)
            gens = random_system(rng, R, homogeneous=True)
            for bound in (None, 5, 8):
                assert_s_pairs_close(buchberger(gens, bound=bound))


def test_pairs_processed_counts_pairs_a_criterion_drops():
    # pairwise coprime leading terms: the product criterion drops every
    # pair, and each pair within the bound is still counted
    R = textbook_ring()
    gens = [R.parse("x^2 + y*z"), R.parse("y^3 + z^3"), R.parse("z^4")]
    gb = buchberger(gens)
    assert [R.unpack(k) for k in gb.lt_keys] == \
        [(2, 0, 0), (0, 3, 0), (0, 0, 4)]
    assert gb.pairs_processed == 3
    assert buchberger(gens, bound=6).pairs_processed == 2
    assert buchberger(gens, bound=5).pairs_processed == 1
    assert buchberger(gens, bound=4).pairs_processed == 0


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


def test_budget_is_checked_in_pair_updates_and_inter_reduction(monkeypatch):
    callers = []
    check = groebner.check_deadline

    def spy(deadline):
        callers.append(sys._getframe(1).f_code.co_name)
        check(deadline)

    monkeypatch.setattr(groebner, "check_deadline", spy)
    monkeypatch.setattr(groebner.time, "monotonic", ExpiringClock())
    gens = context_for_q(3).ideal_generators()
    gb = buchberger(gens, bound=30, deadline=1.0)
    full = list(callers)
    # minimalisation and the one-pass reduction check once per element
    assert full.count("_inter_reduce") >= 2 * len(gb)
    assert full.count("add") >= 3 * len(gens)
    for name in ("add", "_inter_reduce"):
        reads = full.index(name) + 1
        del callers[:]
        monkeypatch.setattr(groebner.time, "monotonic", ExpiringClock(reads))
        with pytest.raises(TimeoutExceeded):
            buchberger(gens, bound=30, deadline=1.0)
        assert callers[-1] == name


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
