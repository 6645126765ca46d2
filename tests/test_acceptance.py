"""Acceptance gate: the nine standalone criteria at their stated scales.

Each criterion prints exactly one PASS/FAIL line; run with -s (or read the
captured output of a failure) to see the verdict lines.
"""

import contextlib
import random

import pytest

from modinvar.action import (
    enumerate_sl2,
    frobenius_star,
    involution_star,
    is_invariant,
)
from modinvar.gens import S7_NAMES, context_for_q, s7_weights
from modinvar.gf import ff_from_q
from modinvar.groebner import buchberger, standard_monomial_count
from modinvar.mpoly import NotDivisible, PolyRing
from modinvar.verify import (
    check_hilbert,
    check_invariance,
    check_kernel,
    check_products,
    check_relations,
    negative_controls,
)


@contextlib.contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print("ACCEPTANCE %d (%s): FAIL" % (num, label))
        raise
    print("ACCEPTANCE %d (%s): PASS" % (num, label))


def failing_items(report):
    return [it.name for it in report.items if it.status != "pass"]


def test_criterion_1_relations():
    with criterion(1, "relation suite q=2..5"):
        for q in (2, 3, 4, 5):
            rep = check_relations(ff_from_q(q))
            assert rep.overall == "pass", (q, failing_items(rep))


def test_criterion_2_invariance():
    with criterion(2, "generator and h-family invariance"):
        # all seven generators under the full GL2, q = 2,3,4
        for q in (2, 3, 4):
            rep = check_invariance(ff_from_q(q))
            assert rep.overall == "pass", (q, failing_items(rep))
        # every h_s under the full SL2, q = 2,3,4,5
        for q in (2, 3, 4, 5):
            ctx = context_for_q(q)
            sl2 = enumerate_sl2(ctx.field)
            for s in range(q):
                ok, witness = is_invariant(ctx.h(s), sl2)
                assert ok, (q, s, witness)


def test_criterion_3_divisibility():
    with criterion(3, "exact divisibility of the quotient families"):
        for q in (2, 3, 4, 5):
            ctx = context_for_q(q)
            d2 = ctx.d(2)
            assert ctx.d(0).divide_exact(d2) * d2 == ctx.d(0)
            assert ctx.d(1).divide_exact(d2) * d2 == ctx.d(1)
            u0q = ctx.u(0) ** q
            for s in range(q):
                num = ctx.h_numerator(s)
                assert num.divide_exact(u0q) * u0q == num
        ctx2 = context_for_q(2)
        with pytest.raises(NotDivisible):
            ctx2.R4.var("x1").divide_exact(ctx2.R4.var("x2"))


def test_criterion_4_basis_census():
    with criterion(4, "basis census equals the group order"):
        want = {2: 6, 3: 48, 4: 180, 5: 480}
        for q, total in want.items():
            ctx = context_for_q(q)
            census = ctx.census()
            assert census["total"] == total, q
            assert census["group_order"] == total, q
            assert len(ctx.enumerate_basis()) == total, q


def test_criterion_5_hilbert_three_way():
    with criterion(5, "three-way Hilbert agreement"):
        for q, bound in ((2, 24), (3, 16)):
            rep = check_hilbert(ff_from_q(q), bound)
            assert rep.overall == "pass", (q, failing_items(rep))


def test_criterion_6_kernel_degreewise():
    with criterion(6, "degreewise kernel certification"):
        for q, bound in ((2, 24), (3, 16)):
            rep = check_kernel(ff_from_q(q), bound)
            assert rep.overall == "pass", (q, failing_items(rep))


def test_criterion_7_product_certificates():
    with criterion(7, "product reduction certificates"):
        rep2 = check_products(ff_from_q(2), sample="all")
        assert rep2.overall == "pass", failing_items(rep2)
        n2 = sum(1 for it in rep2.items if it.name.startswith("reduce("))
        assert n2 == 21
        rep3 = check_products(ff_from_q(3), sample="100", seed=0)
        assert rep3.overall == "pass", failing_items(rep3)
        n3 = sum(1 for it in rep3.items if it.name.startswith("reduce("))
        assert n3 >= 100


def test_criterion_8_negative_controls():
    with criterion(8, "negative controls must be detected"):
        for q in (2, 3):
            rep = negative_controls(ff_from_q(q))
            by_name = {it.name: it for it in rep.items}
            assert by_name["corrupted-T1"].status == "pass", \
                by_name["corrupted-T1"].detail
            assert by_name["dropped-T10"].status == "pass", \
                by_name["dropped-T10"].detail
            assert rep.overall == "pass", (q, failing_items(rep))


def test_criterion_9_property_suites():
    with criterion(9, "algebraic property suites"):
        # field axioms and a^q = a, exhaustively for every supported size
        for q in (2, 3, 4, 5, 7, 8, 9):
            F = ff_from_q(q)
            els = list(F.elements())
            assert len(els) == q
            for a in els:
                assert a ** q == a
                assert a + (-a) == F.zero
                if a != F.zero:
                    assert a * a.inverse() == F.one
            for a in els:
                for b in els:
                    assert a + b == b + a
                    assert a * b == b * a
                    for c in els:
                        assert (a + b) + c == a + (b + c)
                        assert (a * b) * c == a * (b * c)
                        assert a * (b + c) == a * b + a * c

        # involution: order-2 ring automorphism pairing u_{-i} with u_i
        for q in (2, 3, 4):
            ctx = context_for_q(q)
            rng = random.Random(q)
            R = ctx.R4
            for _ in range(4):
                terms = {
                    R.pack(tuple(rng.randrange(4) for _ in range(4))):
                        rng.randrange(1, ctx.field.q)
                    for _ in range(6)
                }
                f = R.from_dict(terms)
                g = ctx.u(1) + ctx.d(2)
                assert involution_star(involution_star(f)) == f
                assert involution_star(f * g) == \
                    involution_star(f) * involution_star(g)
                assert involution_star(f + g) == \
                    involution_star(f) + involution_star(g)
            for i in (1, 2, 3):
                assert involution_star(ctx.u(-i)) == ctx.u(i)

        # the y-side Frobenius carries the first relation to the second
        for q in (2, 3, 4, 5):
            ctx = context_for_q(q)
            t0 = (ctx.c(0) * ctx.u(0), ctx.c(1) * ctx.u(1), ctx.u(2))
            t1 = (ctx.c(0) * ctx.u(-1), ctx.c(1) * ctx.u(0) ** q,
                  ctx.u(1) ** q)
            for a, b in zip(t0, t1):
                assert frobenius_star(a) == b

        # standard-monomial counts do not depend on the monomial order
        for q, bound in ((2, 14), (3, 12)):
            ctx = context_for_q(q)
            gb1 = buchberger(ctx.ideal_generators(), bound=bound)
            alt = PolyRing(ctx.field, S7_NAMES, weights=s7_weights(q),
                           order="grlex")
            gb2 = buchberger([g.remap(alt) for g in ctx.ideal_generators()],
                             bound=bound)
            for d in range(bound + 1):
                assert standard_monomial_count(gb1, d) == \
                    standard_monomial_count(gb2, d), (q, d)
