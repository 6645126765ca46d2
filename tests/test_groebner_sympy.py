"""Differential test: buchberger against sympy's groebner over GF(p).

Seeded random systems in three variables, homogeneous and inhomogeneous,
under grevlex and lex, plus weighted-homogeneous systems in a weighted ring
under weighted grevlex and lex; both sides must return the same reduced
basis.  Sympy knows no weighted order, so the test hands it one as a
monomial key.  A slow test compares the 11-variable lex elimination basis
of elimination_crosscheck at q=3.
"""

import random

import pytest

sympy = pytest.importorskip("sympy")

from sympy.polys.orderings import MonomialOrder  # noqa: E402

from modinvar.gens import context_for_q  # noqa: E402
from modinvar.gf import ff_make  # noqa: E402
from modinvar.groebner import buchberger  # noqa: E402
from modinvar.mpoly import PolyRing  # noqa: E402
from modinvar.verify import _elimination_generators  # noqa: E402

NAMES = ("x", "y", "z")
WEIGHTS = (2, 3, 1)


class WeightedGrevlex(MonomialOrder):
    """Weighted degree first, ties broken as in grevlex."""

    alias = "wgrevlex"
    is_global = True

    def __init__(self, weights):
        self.weights = tuple(weights)

    def __call__(self, m):
        return (sum(w * e for w, e in zip(self.weights, m)),
                tuple(-e for e in reversed(m)))

    def __eq__(self, other):
        return isinstance(other, WeightedGrevlex) and \
            other.weights == self.weights

    def __hash__(self):
        return hash((WeightedGrevlex, self.weights))


def monomials(deg, weights):
    return [(a, b, c) for a in range(deg + 1) for b in range(deg + 1)
            for c in range(deg + 1)
            if a * weights[0] + b * weights[1] + c * weights[2] == deg]


def random_system(rng, p, weights=(1, 1, 1), homogeneous=True,
                  degrees=(2, 3)):
    """Three or four polynomials of (weighted) degree drawn from degrees, as
    {exponents: coefficient} dicts with coefficients in 1..p-1.  An
    inhomogeneous system mixes in lower-degree terms."""
    system = []
    for _ in range(rng.choice((3, 4))):
        deg = rng.choice(degrees)
        mons = monomials(deg, weights)
        if not homogeneous:
            mons += [m for d in range(deg) for m in monomials(d, weights)]
        picked = rng.sample(mons, min(len(mons), rng.randint(2, 4)))
        system.append({m: rng.randrange(1, p) for m in picked})
    return system


def modinvar_basis(system, p, order, weights=None):
    ring = PolyRing(ff_make(p), NAMES, weights=weights, order=order)
    gens = [ring.from_pairs(poly.items()) for poly in system]
    gb = buchberger(gens)
    # over a prime field a coefficient index is the residue itself
    return sorted(sorted((ring.unpack(k), c) for k, c in g.terms.items())
                  for g in gb.basis)


def sympy_basis(system, p, order, names=NAMES):
    syms = sympy.symbols(names)
    exprs = [sum(c * sympy.prod(s ** e for s, e in zip(syms, m))
                 for m, c in poly.items()) for poly in system]
    gb = sympy.groebner(exprs, *syms, modulus=p, order=order)
    return sorted(
        sorted((m, int(c) % p)
               for m, c in sympy.Poly(g, *syms, modulus=p).terms())
        for g in gb.exprs)


def assert_bases_match(rng, p, homogeneous, order):
    for _ in range(10):
        system = random_system(rng, p, homogeneous=homogeneous)
        assert modinvar_basis(system, p, order) == \
            sympy_basis(system, p, order), system


@pytest.mark.parametrize("p", (2, 3, 5))
def test_reduced_basis_matches_sympy(p):
    assert_bases_match(random.Random(1000 + p), p, True, "grevlex")


@pytest.mark.parametrize("homogeneous, order", ((True, "lex"),
                                                (False, "grevlex"),
                                                (False, "lex")))
@pytest.mark.parametrize("p", (2, 3, 5))
def test_lex_and_inhomogeneous_bases_match_sympy(p, homogeneous, order):
    rng = random.Random(1000 + p + (0 if homogeneous else 100)
                        + (0 if order == "grevlex" else 10))
    assert_bases_match(rng, p, homogeneous, order)


@pytest.mark.parametrize("order", ("grevlex", "lex"))
@pytest.mark.parametrize("homogeneous", (True, False))
@pytest.mark.parametrize("p", (2, 3, 5))
def test_weighted_reduced_basis_matches_sympy(p, homogeneous, order):
    # weights (2, 3, 1) at degrees 3..5 change most grevlex bases
    rng = random.Random(2000 + p + (0 if homogeneous else 100)
                        + (0 if order == "grevlex" else 10))
    sympy_order = WeightedGrevlex(WEIGHTS) if order == "grevlex" else "lex"
    for _ in range(10):
        system = random_system(rng, p, weights=WEIGHTS,
                               homogeneous=homogeneous, degrees=(3, 4, 5))
        assert modinvar_basis(system, p, order, WEIGHTS) == \
            sympy_basis(system, p, sympy_order), system


@pytest.mark.slow
def test_elimination_basis_matches_sympy_q3():
    # the 11-variable lex basis of elimination_crosscheck; sympy needs
    # about 80 s here and does not finish at q=2 within 300 s
    gens = _elimination_generators(context_for_q(3))
    ring = gens[0].ring
    system = [{ring.unpack(k): c for k, c in g.terms.items()} for g in gens]
    gb = buchberger(gens)
    ours = sorted(sorted((ring.unpack(k), c) for k, c in g.terms.items())
                  for g in gb.basis)
    assert len(ours) == 162
    assert ours == sympy_basis(system, 3, "lex", ring.names)
