"""Buchberger completion, division with cofactors, standard monomials, and
the Hilbert-driven runs with their standard-monomial count."""

import itertools
import math
import random
import sys
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_action import ExpiringClock

from modinvar import groebner, verify
from modinvar.gf import ff_make
from modinvar.gens import context_for_q
from modinvar.groebner import (
    DegreeBoundExceeded,
    GroebnerError,
    HilbertCount,
    InhomogeneousWithTruncation,
    TimeoutExceeded,
    buchberger,
    cofactors_on_inputs,
    in_ideal,
    normal_form,
    standard_monomial_count,
)
from modinvar.mpoly import EXP_CAP, PolyRing


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


def scaled_reduced_basis():
    """A reduced basis of three elements, each input scaled by a nonzero
    constant, in another order than the basis."""
    R = textbook_ring()
    basis = buchberger([R.parse("x^2 + y*z"), R.parse("x*y + z^2")]).basis
    assert len(basis) == 3
    return R, [basis[2] * 3, basis[0] * 6, basis[1] * 2]


def test_scaled_basis_inputs_divide_exactly_through_cofactors_on_inputs():
    R, inputs = scaled_reduced_basis()
    gb = buchberger(inputs)
    multiples = groebner.input_multiples(gb)
    assert [k for k, _ in multiples] == [2, 0, 1]
    for g, (k, u) in zip(inputs, multiples):
        assert gb.basis[k] == g * R.field.from_index(u)
    assert groebner.input_multiples(gb) is multiples
    for text in ("x^3*y + x*z^4 + y^2", "x^5 + y^4*z", "0"):
        f = R.parse(text)
        rem, cof = normal_form(f, gb, track=True)
        oncof = cofactors_on_inputs(gb, cof)
        assert len(oncof) == 3
        assert sum((c * g for c, g in zip(oncof, inputs)), rem) == f
        assert rem == normal_form(f, gb)


@pytest.mark.parametrize("change", ("plus-a-multiple", "redundant",
                                    "repeated", "zero"))
def test_inputs_that_are_not_the_scaled_basis_have_no_cofactors(change):
    """An input plus a multiple of another leaves the same reduced basis,
    but that input is not a constant times one of its elements; a
    redundant, repeated or zero input has no element of its own."""
    R, inputs = scaled_reduced_basis()
    if change == "plus-a-multiple":
        inputs[0] = inputs[0] + R.parse("x") * inputs[1]
    elif change == "redundant":
        inputs.append(R.parse("y") * inputs[0] + inputs[2])
    elif change == "repeated":
        inputs.append(inputs[1] * 5)
    else:
        inputs.append(R.zero)
    gb = buchberger(inputs)
    assert len(gb.basis) == 3
    _, cof = normal_form(R.parse("x^3*y + x*z^4 + y^2"), gb, track=True)
    with pytest.raises(GroebnerError):
        cofactors_on_inputs(gb, cof)
    with pytest.raises(GroebnerError):
        groebner.input_multiples(gb)


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


def test_standard_monomial_count_refuses_degrees_above_the_bound():
    # the truncated basis lacks y^3, so a count at d=3 would read 1, not 0
    R = PolyRing(ff_make(3), ("x", "y"))
    gens = [R.parse("x^2 + y^2"), R.parse("x*y")]
    assert standard_monomial_count(buchberger(gens), 3) == 0
    gb = buchberger(gens, bound=2)
    assert [standard_monomial_count(gb, d) for d in range(3)] == [1, 2, 1]
    with pytest.raises(DegreeBoundExceeded):
        standard_monomial_count(gb, 3)


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
    gb = buchberger(ctx.ideal_generators(), bound=16)
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


@pytest.mark.parametrize("d", (True, False, 2.5, "3", None))
def test_standard_monomial_count_takes_an_int_degree(d):
    R = textbook_ring()
    gb = buchberger([R.parse("x^2 + y^2"), R.parse("x*y")])
    with pytest.raises(GroebnerError, match="degree must be an int"):
        standard_monomial_count(gb, d)


@pytest.mark.parametrize("bound", (True, False, 2.5, "3", -1, EXP_CAP + 1))
def test_bound_must_be_an_int_a_packed_key_holds(bound):
    R = textbook_ring()
    with pytest.raises(GroebnerError, match="bound must be"):
        buchberger([R.parse("x^2 + y^2")], bound=bound)


def test_bound_may_be_zero_or_the_largest_packed_degree():
    R = textbook_ring()
    gens = [R.parse("x^2 + y^2"), R.parse("x*y")]
    assert buchberger(gens, bound=0).bound == 0
    assert buchberger(gens, bound=EXP_CAP).bound == EXP_CAP


# --- the standard-monomial count of a growing monomial ideal


def degrees_up_to(box):
    return itertools.product(*(range(b + 1) for b in box))


def brute_counts(R, grading, gens, box):
    """{degree: standard monomials of that degree}, for every degree up to
    box, by enumerating the exponents up to the box."""
    out = dict.fromkeys(degrees_up_to(box), 0)
    for e in itertools.product(range(max(box) + 1), repeat=R.n):
        deg = tuple(sum(a * d[i] for a, d in zip(e, grading))
                    for i in range(len(box)))
        k = R.pack(e)
        if deg in out and not any(R.key_divides(g, k) for g in gens):
            out[deg] += 1
    return out


def counts(hc, box):
    return {c: hc.excess(hc.degree_key(c)) for c in degrees_up_to(box)}


# a bidegree, or a single degree, the shape standard_monomial_count uses
positive_degree = {
    1: st.tuples(st.integers(1, 3)),
    2: st.tuples(st.integers(0, 2), st.integers(0, 2)).filter(any),
}


@settings(max_examples=40, deadline=None)
@given(st.tuples(st.integers(1, 2), st.integers(1, 4)).flatmap(
    lambda rn: st.tuples(
        st.lists(positive_degree[rn[0]], min_size=rn[1], max_size=rn[1]),
        st.lists(st.lists(st.integers(0, 3), min_size=rn[1],
                          max_size=rn[1]).filter(any), max_size=6))))
def test_incremental_count_equals_enumeration(case):
    grading, exps = case
    R = PolyRing(ff_make(2), "abcd"[:len(grading)], order="lex")
    hc = HilbertCount(R, grading)
    box = (4,) * len(grading[0])
    added = []
    for e in exps:
        added.append(R.pack(tuple(e)))
        hc.add(added[-1], hc.colon(added[-1]))
        assert counts(hc, box) == brute_counts(R, grading, added, box)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.lists(st.integers(1, 3), min_size=n, max_size=n),
    st.lists(st.lists(st.integers(0, 3), min_size=n, max_size=n),
             max_size=10),
    st.none() | st.integers(0, 12))))
@example(([1, 1], [[1, 0], [1, 0], [2, 1]], None))      # a duplicate
@example(([1, 2], [[2, 0], [0, 1], [1, 1]], 2))         # coprime pairs
@example(([1, 1, 1], [[2, 0, 0], [0, 3, 0], [0, 0, 1]], 3))  # disjoint
@example(([1, 1], [[0, 0], [1, 2]], None))              # the monomial 1
def test_pair_update_returns_the_minimal_colon(case):
    # the minimal lcms of the criteria, less the new leading term, are the
    # minimal generators of the colon, also where the bound drops pairs
    weights, exps, bound = case
    R = PolyRing(ff_make(2), "abcd"[:len(weights)], order="lex",
                 weights=weights)
    pairs = groebner._CriticalPairs(R, bound, None)
    hc = HilbertCount(R, [(w,) for w in weights])
    assert pairs.width == hc.width
    for e in exps:
        k = R.pack(tuple(e))
        colon = hc.colon(k)
        assert pairs.add(k) == colon
        hc.add(k, colon)


@pytest.mark.parametrize("q", (2, 3, 4))
def test_count_of_a_truncated_basis_equals_standard_monomial_count(q):
    # the numerator count against two enumerations: every monomial of the
    # degree, and the kernel suite's walk, which prunes divisible prefixes
    ctx = context_for_q(q)
    bound = verify.default_max_degree(q)
    gb = verify._exact_gb(ctx, bound)
    counts, _ = verify._standard_image_ranks(ctx, gb, bound)
    assert [standard_monomial_count(gb, d) for d in range(bound + 1)] == \
        [brute_standard_count(gb, d) for d in range(bound + 1)] == counts


def test_a_count_beyond_float_range_is_exact():
    # C(d + 10, 10) monomials of degree d in 11 variables: 286 at d = 3,
    # about 3e26 at d = 2000, beyond the integers float64 holds exactly
    R = PolyRing(ff_make(2), ["v%d" % i for i in range(11)])
    hc = HilbertCount(R, [(1,)] * 11)
    assert hc.excess(hc.degree_key((3,))) == math.comb(13, 10)
    assert hc.excess(hc.degree_key((2000,))) == math.comb(2010, 10)
    assert hc.excess(hc.degree_key((20,))) == math.comb(30, 10)


def graph_ring():
    # base variables a, b, c of bidegrees (1,0), (1,0), (0,1); u and v are
    # given by bihomogeneous polynomials in them
    return PolyRing(ff_make(3), ("u", "v", "a", "b", "c"), order="lex")


GRAPH_GRADING = ((2, 1), (1, 2), (1, 0), (1, 0), (0, 1))


def test_graph_ideal_is_driven_to_the_plain_basis():
    R = graph_ring()
    gens = [R.parse("u - a^2*c - a*b*c"), R.parse("v + b*c^2")]
    plain = buchberger(gens)
    driven = buchberger(gens, grading=GRAPH_GRADING)
    assert driven.basis == plain.basis
    assert plain.pairs_skipped == 0


@pytest.mark.parametrize("order", ("grevlex", "grlex", "lex"))
@pytest.mark.parametrize("p", (2, 3, 5))
def test_random_graph_ideals_are_driven_to_the_plain_basis(p, order):
    # the graph variables u, v, w come last, so that the leading terms lie
    # in the base variables a, b, c and the S-pairs have work to do
    rng = random.Random(300 + p + len(order))
    names = ("a", "b", "c", "u", "v", "w")
    skipped = 0
    for _ in range(6):
        degrees = [(rng.randint(1, 3), rng.randint(0, 2)) for _ in range(3)]
        grading = ((1, 0), (1, 0), (0, 1)) + tuple(degrees)
        R = PolyRing(ff_make(p), names, order=order,
                     weights=[a + b for a, b in grading])
        gens = []
        for nm, deg in zip(names[3:], degrees):
            mons = [e for e in itertools.product(range(4), repeat=3)
                    if (e[0] + e[1], e[2]) == deg]
            picked = rng.sample(mons, min(len(mons), rng.randint(1, 3)))
            f = R.from_pairs((e + (0, 0, 0), rng.randrange(1, p))
                             for e in picked)
            gens.append(R.var(nm) - f)
        plain = buchberger(gens)
        driven = buchberger(gens, grading=grading)
        assert driven.basis == plain.basis, gens
        assert buchberger(gens, bound=5, grading=grading).basis == \
            buchberger(gens, bound=5).basis
        skipped += driven.pairs_skipped
    assert skipped


def test_graded_and_bounded_run_counts_the_colon_beyond_the_bound():
    # weights that are no function of the grading, the largest (9) not the
    # largest grading component (6): an lcm beyond the bound can have a
    # smaller degree than a pair within it, whose count needs the colon
    # generator that lcm gives
    R = PolyRing(ff_make(3), ("a", "b", "u", "v", "w"), order="lex",
                 weights=(2, 3, 9, 2, 5))
    grading = ((2,), (2,), (6,), (2,), (4,))
    gens = [R.parse("u + 2*b^3"), R.parse("v + 2*a"), R.parse("w + a*b")]
    skipped = 0
    for bound in range(20):
        driven = buchberger(gens, bound=bound, grading=grading)
        assert driven.basis == buchberger(gens, bound=bound).basis, bound
        skipped += driven.pairs_skipped
    assert skipped


def elimination_graph_ideal(q):
    return (verify._elimination_generators(context_for_q(q)),
            verify._elimination_grading(q))


def assert_one_store(gb):
    """Each element of gb.basis is its leading term plus the tail that
    gb.monic holds for it, whose combined keys mask back to packed keys;
    no tail term is divisible by a leading term."""
    monic = gb.monic
    kmask = monic.kmask
    assert len(monic.keys) == len(monic.etails) == len(gb.basis)
    for f, k, ek, etail in zip(gb.basis, monic.keys, monic.ekeys,
                               monic.etails):
        assert ek == monic.ekey(k)
        tail = {e & kmask: c for e, c in etail.items()}
        assert etail == monic.combined(tail)
        assert f.leading_key() == k and f.terms == tail | {k: 1}
        assert all(gb.index.first_divisor(t) < 0 for t in tail)


@pytest.mark.parametrize("q", (2, 3, 4))
@pytest.mark.parametrize("reverse", (False, True))
@pytest.mark.parametrize("driven", (False, True))
@pytest.mark.parametrize("bounded", (False, True))
def test_the_basis_is_built_from_the_one_store(q, reverse, driven, bounded):
    """In either seed order of the inputs."""
    gens, grading = elimination_graph_ideal(q)
    gb = buchberger(gens[::-1] if reverse else gens,
                    bound=2 * q * q if bounded else None,
                    grading=grading if driven else None)
    assert len(gb.basis) > 5
    assert_one_store(gb)


def test_the_graded_lex_basis_holds_each_element_once():
    """Under tracemalloc the Hilbert-driven lex basis at q=4 peaks at
    2.51 MB on Python 3.11, each element held once, as its combined tail;
    with a Polynomial and a plain tail beside each one it peaked at
    3.79 MB.  The bound leaves room for other Python versions."""
    gens, grading = elimination_graph_ideal(4)
    tracemalloc.start()
    try:
        gb = buchberger(gens, grading=grading)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(gb.basis) == 371
    assert_one_store(gb)
    assert peak < 3.3e6


def test_a_target_too_large_raises_on_the_first_short_degree(monkeypatch):
    # the degrees of all inputs but one: they hold more standard monomials
    # than the leading terms can leave
    gens, grading = elimination_graph_ideal(2)
    whole = groebner._graph_degrees
    monkeypatch.setattr(groebner, "_graph_degrees",
                        lambda ring, grading, inputs:
                        whole(ring, grading, inputs)[:-1])
    with pytest.raises(GroebnerError, match="the leading terms leave fewer "
                       "standard monomials than the ideal in degree"):
        buchberger(gens, grading=grading)


def test_a_target_too_small_raises_once_the_basis_is_finished(monkeypatch):
    # one more input degree (1, 1), the numerator times 1 - t^(1,1): no
    # degree ever falls short, so the run reaches its end, where the series
    # disagree
    gens, grading = elimination_graph_ideal(2)
    whole = groebner._graph_degrees
    monkeypatch.setattr(groebner, "_graph_degrees",
                        lambda ring, grading, inputs:
                        whole(ring, grading, inputs) + [(1, 1)])
    with pytest.raises(GroebnerError, match="the finished basis leaves "
                       "another Hilbert series than the graph ideal"):
        buchberger(gens, grading=grading)
    # within a bound a run stops early, so the series are not compared
    assert buchberger(gens, bound=6, grading=grading).basis == \
        buchberger(gens, bound=6).basis


def test_grading_needs_homogeneous_inputs():
    R = graph_ring()
    with pytest.raises(GroebnerError, match="not homogeneous"):
        buchberger([R.parse("u - a^2*c - a*b")], grading=GRAPH_GRADING)


@pytest.mark.parametrize("texts", (
    ("u - a^2*c", "u - b^2*c"),       # u occurs in two generators
    ("u*a - a^3*c",),                 # u only in a product
    ("a*b*c - b^2*c",),               # no variable term at all
    ("u^2 - a^4*c^2",),               # u squared
    ("0",),
))
def test_grading_needs_graph_form(texts):
    R = graph_ring()
    with pytest.raises(GroebnerError, match="graph form|is 0"):
        buchberger([R.parse(t) for t in texts], grading=GRAPH_GRADING)


@pytest.mark.parametrize("grading", (
    ((1, 0),) * 4,                              # one degree short
    ((1, 0),) * 4 + ((0, 0),),                  # a zero degree
    ((1, 0),) * 4 + ((-1, 1),),                 # a negative component
    ((1, 0),) * 4 + ((True, 1),),               # a bool
    ((1, 0),) * 4 + ((1,),),                    # components of two lengths
))
def test_grading_must_give_each_variable_a_positive_degree(grading):
    R = graph_ring()
    with pytest.raises(GroebnerError):
        buchberger([R.parse("u - a^2*c")], grading=grading)
