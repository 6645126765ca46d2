"""Exact elimination: rank and solve over GF(p) against sympy's DomainMatrix,
rank_gf2 against the generic elimination, and the regular-representation
lift over GF(p^s) against brute-force enumeration."""

import itertools
import random

import numpy as np
import pytest
from sympy import GF
from sympy.polys.matrices import DomainMatrix

from modinvar import linalg
from modinvar.gf import ff_from_q, ff_make


def sympy_rref(A, p):
    K = GF(p)
    rows, cols = len(A), len(A[0])
    dm = DomainMatrix([[K(int(v)) for v in row] for row in A], (rows, cols),
                      K)
    R, pivots = dm.rref()
    return [[int(K.to_sympy(v)) % p for v in row] for row in R.to_list()], \
        list(pivots)


def shaped(rng, p, rows, cols, kind):
    """A random matrix over GF(p) of the given kind."""
    A = [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]
    if kind == "deficient" and rows > 1:
        # last row: a combination of the others
        coef = [rng.randrange(p) for _ in range(rows - 1)]
        A[-1] = [sum(c * A[i][j] for i, c in enumerate(coef)) % p
                 for j in range(cols)]
    elif kind == "zero-rows":
        for i in range(0, rows, 2):
            A[i] = [0] * cols
    elif kind == "sparse":
        A = [[v if rng.random() < 0.2 else 0 for v in row] for row in A]
    return A


def cases():
    rng = random.Random(20241018)
    out = []
    for p in (2, 3, 5, 7):
        for kind in ("dense", "deficient", "zero-rows", "sparse"):
            for rows, cols in ((1, 1), (4, 1), (1, 5), (5, 5), (7, 4),
                               (4, 9), (12, 12)):
                out.append((p, shaped(rng, p, rows, cols, kind)))
        out.append((p, [[0] * 3 for _ in range(4)]))
    return out


CASES = cases()


@pytest.mark.parametrize("p,A", CASES)
def test_rank_modp_matches_sympy(p, A):
    _R, pivots = sympy_rref(A, p)
    assert linalg.rank_modp(np.array(A), p) == len(pivots)


@pytest.mark.parametrize("p,A", CASES)
def test_solve_modp_matches_sympy_rref(p, A):
    rng = random.Random(len(A) * 31 + len(A[0]) + p)
    cols = len(A[0])
    # a consistent right-hand side (A times a random vector), and a random
    # one, which is inconsistent whenever rank [A | b] > rank A
    y = [rng.randrange(p) for _ in range(cols)]
    for b in ([sum(a * v for a, v in zip(row, y)) % p for row in A],
              [rng.randrange(p) for _ in A]):
        aug = [row + [v] for row, v in zip(A, b)]
        R, pivots = sympy_rref(aug, p)
        x = linalg.solve_modp(A, b, p)
        if cols in pivots:
            assert x is None
            continue
        expect = [0] * cols
        for r, col in enumerate(pivots):
            expect[col] = R[r][cols]
        assert [int(v) for v in x] == expect


def test_solve_modp_inconsistent_returns_none():
    for p in (2, 3, 5, 7):
        A = [[1, 2 % p], [2 % p, 4 % p], [0, 0]]
        assert linalg.solve_modp(A, [1, 2 % p, 1], p) is None
        assert linalg.solve_modp([[0]], [1], p) is None
        assert [int(v) for v in linalg.solve_modp([[0]], [0], p)] == [0]


def test_rank_gf2_matches_generic_elimination():
    rng = np.random.default_rng(7)
    for _ in range(300):
        rows = int(rng.integers(1, 40))
        cols = int(rng.integers(1, 140))
        density = rng.uniform(0.05, 0.9)
        A = (rng.random((rows, cols)) < density).astype(np.int8)
        if rng.random() < 0.3:
            A[rng.integers(rows)] = A[rng.integers(rows)]
        expect = len(linalg._rref(A.copy(), 2, cols))
        assert linalg.rank_gf2(A) == expect
        assert linalg.rank_modp(A, 2) == expect


def elements_apply(field, row, x):
    acc = 0
    for a, v in zip(row, x):
        acc = field.add_i(acc, field.mul_i(a, v))
    return acc


def brute_rank(field, A):
    """rank = cols - log_q |kernel|, the kernel found by enumeration."""
    cols = len(A[0])
    kernel = sum(1 for x in itertools.product(range(field.q), repeat=cols)
                 if all(elements_apply(field, row, x) == 0 for row in A))
    dim = 0
    while field.q ** dim < kernel:
        dim += 1
    assert field.q ** dim == kernel
    return cols - dim


def brute_pivots(field, A):
    """Column j is a pivot iff it is outside the span of the columns before."""
    ranks = [0] + [brute_rank(field, [row[:j + 1] for row in A])
                   for j in range(len(A[0]))]
    return [j for j in range(len(A[0])) if ranks[j + 1] > ranks[j]]


EXTENSIONS = (4, 8, 9)


def small_systems(field, rng):
    for rows in (1, 2, 3):
        for cols in (1, 2, 3):
            A = [[rng.randrange(field.q) for _ in range(cols)]
                 for _ in range(rows)]
            if rows > 1 and rng.random() < 0.5:
                c = rng.randrange(1, field.q)
                A[-1] = [field.mul_i(c, v) for v in A[0]]
            yield A


@pytest.mark.parametrize("q", EXTENSIONS)
def test_rank_field_matches_brute_force(q):
    field = ff_from_q(q)
    rng = random.Random(q)
    for _ in range(4):
        for A in small_systems(field, rng):
            assert linalg.rank_field(A, field) == brute_rank(field, A)
    assert linalg.rank_field([[0, 0], [0, 0]], field) == 0


@pytest.mark.parametrize("q", EXTENSIONS)
def test_solve_generic_matches_brute_force(q):
    field = ff_from_q(q)
    rng = random.Random(100 + q)
    inconsistent = 0
    for _ in range(3):
        for A in small_systems(field, rng):
            b = [rng.randrange(field.q) for _ in A]
            cols = len(A[0])
            sols = [x for x in itertools.product(range(q), repeat=cols)
                    if all(elements_apply(field, row, x) == v
                           for row, v in zip(A, b))]
            x = linalg.solve_generic(A, b, field)
            if not sols:
                inconsistent += 1
                assert x is None
                continue
            assert tuple(x) in sols
            free = set(range(cols)) - set(brute_pivots(field, A))
            assert all(x[j] == 0 for j in free)
    assert inconsistent


def test_prime_field_lift_is_the_identity():
    field = ff_make(5)
    A = np.array([[1, 4, 0], [3, 2, 2]])
    assert (linalg._lift(A, field) == A).all()
    big = linalg._lift(np.array([[2, 3]]), ff_from_q(4))
    # t^0 and t^1 columns of multiplication by t (index 2) and t + 1 (3),
    # t^2 = t + 1 in GF(4)
    assert big.tolist() == [[0, 1, 1, 1], [1, 1, 1, 0]]
