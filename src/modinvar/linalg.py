"""Exact Gaussian elimination over GF(p).

Every rank, factorization, solve and inverse is one elimination over the
prime field GF(p).  A rank over GF(q) = GF(p^s) takes a matrix of GF(q)
indices as it is when all its entries lie below p (index i < p is the
element i), and else lifts it to GF(p) by the regular representation: each
entry becomes the s x s matrix of multiplication by it on the basis 1, t,
..., t^(s-1), so ranks multiply by s.  For a matrix A over GF(p) that lift
is A (x) I_s up to a permutation, so skipping it changes no rank.  A
factorization, solve or inverse is over GF(p) only: the verdicts' matrices
and right-hand sides all lie there, since the seven generators and five
relations have integer coefficients, and an entry outside GF(p) raises
ValueError.  Each runs _rref, numpy integer arithmetic mod p on the
narrowest signed type that holds (p-1)^2 (vectorized, still exact; no
floating point anywhere), for every p, 2 included.

A rank over p = 2 is the one other elimination: each row is one Python
int, column 0 in the highest bit, and the rows are inserted one by one
(_xor_insert) into a greedy XOR basis keyed by leading bit; the rank is the
size of that basis, taken on the orientation with fewer rows.  The
dimension oracle and the standard-monomial walk build their
characteristic-2 rows as such ints from the start and insert them directly,
with no numpy matrix: any int rows do, whatever their bit layout, since a
rank does not depend on the order of the columns.

A solve factors first and then applies the factorization, so one matrix
factored once serves any number of right-hand sides: the pivot rows P and
pivot columns of the matrix E give an invertible square E[P, pivots], whose
inverse maps b[P] to the pivot entries of the solution.  A 2-D right-hand
side holds one right-hand side per column.  Every solution is re-checked
against every row, a zero row too, and that check alone decides
consistency; an inverse is likewise re-checked by one product.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .gf import ff_make


def _int_type(bound):
    """The narrowest signed numpy integer type holding -bound..bound."""
    for t in (np.int8, np.int16, np.int32):
        if bound <= np.iinfo(t).max:
            return t
    return np.int64


def _rref(aug, p, ncols, order=None):
    """Reduce aug in place to reduced row echelon form over GF(p) in its
    first ncols columns; returns the pivot columns.

    Entries must lie in 0..p-1 and the dtype must hold (p-1)^2 in absolute
    value.  Row ops start at the pivot column: a pivot row is 0 left of it.
    An order array, if given, is swapped along with the rows, so order[i]
    is the original row that pivot row i was reduced from.
    """
    rows = aug.shape[0]
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        if rank == rows:
            break
        hits = np.flatnonzero(aug[rank:, col])
        if hits.size == 0:
            continue
        if hits[0]:
            piv = rank + hits[0]
            aug[[rank, piv]] = aug[[piv, rank]]
            if order is not None:
                order[[rank, piv]] = order[[piv, rank]]
        inv = pow(int(aug[rank, col]), -1, p)
        aug[rank, col:] = aug[rank, col:] * inv % p
        others = np.flatnonzero(aug[:, col])
        others = others[others != rank]
        if others.size:
            aug[others, col:] = (aug[others, col:] - np.outer(
                aug[others, col], aug[rank, col:])) % p
        pivots.append(col)
    return pivots


def _bit_rows(A):
    """The rows of a 0/1 matrix as Python ints, column j at bit width-1-j,
    and width: the column count rounded up to whole bytes."""
    packed = np.packbits(np.asarray(A, dtype=np.uint8), axis=1)
    n = packed.shape[1]
    if n == 0:
        return [0] * packed.shape[0], 0
    data = packed.tobytes()
    return ([int.from_bytes(data[i:i + n], "big")
             for i in range(0, len(data), n)], 8 * n)


def _xor_insert(basis, row):
    """Reduce the int row by the XOR basis {leading bit_length: row} and
    insert what is left under its leading bit.  Returns whether it entered:
    a row that reduces to 0 is dropped."""
    while row:
        lead = row.bit_length()
        pivot = basis.get(lead)
        if pivot is None:
            basis[lead] = row
            return True
        row ^= pivot
    return False


def _xor_basis(rows, cols):
    """Eliminate over GF(2) on int rows: insert each row (_xor_insert) until
    cols rows are in.  Returns the basis {leading bit_length: row}."""
    basis = {}
    for row in rows:
        if len(basis) == cols:
            break
        _xor_insert(basis, row)
    return basis


def rank_gf2(A):
    """Rank over GF(2) of a 0/1 numpy matrix: the size of the XOR basis of
    its rows, or of its columns when there are fewer of those."""
    A = np.asarray(A, dtype=np.uint8)
    if A.shape[0] > A.shape[1]:
        A = A.T
    return len(_xor_basis(_bit_rows(A)[0], A.shape[1]))


def rank_modp(A, p):
    """Rank over GF(p), p prime, of an integer numpy matrix.  Over p = 2
    the residue is the low bit, which two's complement keeps for negative
    entries too; numpy's integer % is a division, about 100 times slower."""
    if p == 2:
        return rank_gf2(np.asarray(A) & 1)
    A = np.asarray(A)
    aug = (A % p).astype(_int_type((p - 1) ** 2), copy=False)
    return len(_rref(aug, p, A.shape[1]))


def solve_modp(A, b, p):
    """One exact solution of A x = b over GF(p), or None if inconsistent.

    Free variables are set to 0, so the solution is canonical for a fixed
    column order.
    """
    return solve_generic(np.asarray(A) % p, np.asarray(b) % p, ff_make(p))


@functools.lru_cache(maxsize=None)
def _regular(field):
    """reg[i, r, k]: coefficient of t^r in (element i) * t^k."""
    p, s = field.p, field.s
    reg = [[field._coeffs[field.mul_i(i, p ** k)] for k in range(s)]
           for i in range(field.q)]
    return np.array(reg, dtype=_int_type((p - 1) ** 2)).transpose(0, 2, 1)


def _lift(M, field):
    """The matrix of GF(q) indices M over GF(p): entry (i, j) becomes the
    block rows i*s.., columns j*s.. of multiplication by M[i, j]."""
    M = np.asarray(M)
    rows, cols = M.shape
    s = field.s
    return _regular(field)[M].transpose(0, 2, 1, 3).reshape(rows * s,
                                                            cols * s)


def rank_field(rows, field):
    """Rank over any FieldParams of a matrix of field indices: over GF(p)
    as it is when every entry lies below p, else of the lift of its nonzero
    rows, divided by s."""
    A = np.asarray(rows)
    if not A.size:
        return 0
    p = field.p
    if A.max() < p:
        return rank_modp(A, p)
    return rank_modp(_lift(A[A.any(axis=1)], field), p) // field.s


class Factorization(NamedTuple):
    """A matrix E over GF(p) factored for solving: E has pivot columns
    pivots, and E[rows, pivots] has inverse inv."""

    rows: np.ndarray
    pivots: np.ndarray
    inv: np.ndarray


def _over_prime_field(M, p, what):
    """M as a numpy array, after checking that every entry lies in GF(p):
    raises ValueError naming the first one that does not."""
    M = np.asarray(M)
    outside = np.argwhere((M < 0) | (M >= p))
    if outside.size:
        at = tuple(int(i) for i in outside[0])
        raise ValueError("%s entry %d at %s is not in GF(%d)"
                         % (what, M[at], at, p))
    return M


def inverse_field(M, field):
    """The inverse over GF(p), p = field.p, of a square matrix M, from one
    elimination of [M | I], or None unless M times it is I mod p: that
    re-check alone decides, as in solve_factored.  Raises ValueError on an
    entry outside GF(p)."""
    p = field.p
    M = _over_prime_field(M, p, "matrix")
    n = M.shape[0]
    # signed, so that a row operation on a uint8 block cannot wrap
    narrow = _int_type((p - 1) ** 2)
    aug = np.hstack([M.astype(narrow), np.eye(n, dtype=narrow)])
    _rref(aug, p, n)
    inv = aug[:, n:]
    wide = _int_type(n * (p - 1) ** 2)
    if np.any(M.astype(wide) @ inv.astype(wide) % p != np.eye(n, dtype=wide)):
        return None
    return inv


def factor_field(rows, field):
    """Factor a matrix over GF(p), p = field.p: one elimination, which also
    records the original row of each pivot, and inverse_field of the pivot
    square E[rows, pivots].  Raises ValueError on an entry outside
    GF(p)."""
    p = field.p
    E = _over_prime_field(rows, p, "matrix")
    aug = E.astype(_int_type((p - 1) ** 2))
    order = np.arange(E.shape[0])
    pivots = np.array(_rref(aug, p, E.shape[1], order), dtype=np.intp)
    rows = order[:pivots.size].copy()
    return Factorization(rows, pivots,
                         inverse_field(E[np.ix_(rows, pivots)], field))


def solve_factored(fact, rows, rhs, field):
    """Exact solve of rows x = rhs over GF(p), p = field.p, given the
    factorization of rows; returns x as a list with free variables 0, or
    None.  A 2-D rhs is several right-hand sides, one per column; x is then
    a list of rows, one column per right-hand side, and None unless every
    column is consistent.

    The pivot entries are inv @ b[fact.rows], and the re-check of every row
    decides consistency.  Raises ValueError on an entry of rows or rhs
    outside GF(p).
    """
    p = field.p
    E = _over_prime_field(rows, p, "matrix")
    b = _over_prime_field(rhs, p, "right-hand side")
    wide = _int_type(E.shape[1] * (p - 1) ** 2 + p)
    b = b.astype(wide)
    x = np.zeros((E.shape[1],) + b.shape[1:], dtype=wide)
    x[fact.pivots] = fact.inv.astype(wide) @ b[fact.rows] % p
    if np.any((E @ x - b) % p):
        return None
    return x.tolist()


def solve_generic(rows, rhs, field):
    """Exact solve of rows x = rhs over GF(p), p = field.p; returns a list
    with free variables 0, or None.  Raises ValueError on an entry outside
    GF(p)."""
    return solve_factored(factor_field(rows, field), rows, rhs, field)
