"""Differential test: buchberger against sympy's groebner over GF(p).

Seeded random homogeneous systems in three unweighted variables under
grevlex; both sides must return the same reduced basis.
"""

import random

import pytest

sympy = pytest.importorskip("sympy")

from modinvar.gf import ff_make  # noqa: E402
from modinvar.groebner import buchberger  # noqa: E402
from modinvar.mpoly import PolyRing  # noqa: E402

NAMES = ("x", "y", "z")


def random_system(rng, p):
    """Three or four homogeneous polynomials of degree 2 or 3, as
    {exponents: coefficient} dicts with coefficients in 1..p-1."""
    system = []
    for _ in range(rng.choice((3, 4))):
        deg = rng.choice((2, 3))
        mons = [(a, b, deg - a - b) for a in range(deg + 1)
                for b in range(deg + 1 - a)]
        picked = rng.sample(mons, rng.randint(2, 4))
        system.append({m: rng.randrange(1, p) for m in picked})
    return system


def modinvar_basis(system, p):
    ring = PolyRing(ff_make(p), NAMES, order="grevlex")
    gens = [ring.from_pairs(poly.items()) for poly in system]
    gb = buchberger(gens)
    # over a prime field a coefficient index is the residue itself
    return sorted(sorted((ring.unpack(k), c) for k, c in g.terms.items())
                  for g in gb.basis)


def sympy_basis(system, p):
    syms = sympy.symbols(NAMES)
    exprs = [sum(c * sympy.prod(s ** e for s, e in zip(syms, m))
                 for m, c in poly.items()) for poly in system]
    gb = sympy.groebner(exprs, *syms, modulus=p, order="grevlex")
    return sorted(
        sorted((m, int(c) % p)
               for m, c in sympy.Poly(g, *syms, modulus=p).terms())
        for g in gb.exprs)


@pytest.mark.parametrize("p", (2, 3, 5))
def test_reduced_basis_matches_sympy(p):
    rng = random.Random(1000 + p)
    for _ in range(10):
        system = random_system(rng, p)
        assert modinvar_basis(system, p) == sympy_basis(system, p), system
