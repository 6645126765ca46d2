"""Exact elimination: rank, solve and inverse over GF(p) against sympy's
DomainMatrix, rank_gf2 against the generic elimination, ranks over GF(p^s)
(lifted by the regular representation) and solves over GF(p) within GF(p^s)
against brute-force enumeration, the prime-field rule (a matrix over GF(p)
is eliminated without the lift) against an oracle that always lifts, and
the refusal of a factorization, solve or inverse with an entry outside
GF(p)."""

import itertools
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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
    """Wide and tall (the transpose) random matrices, up to 300 columns (rows
    of several words, padding bits), and all-zero, 1 x n, n x 1, 0-row and
    0-column ones."""
    rng = np.random.default_rng(7)
    cases = [(int(rng.integers(1, 40)), int(rng.integers(1, 140)),
              rng.uniform(0.05, 0.9)) for _ in range(300)]
    cases += [(int(rng.integers(40, 300)), int(rng.integers(1, 100)),
               rng.uniform(0.05, 0.9)) for _ in range(100)]
    cases += [(int(rng.integers(1, 20)), int(rng.integers(150, 300)),
               rng.uniform(0.05, 0.9)) for _ in range(20)]
    for n in (1, 7, 8, 9, 63, 64, 65, 130):
        for rows, cols in ((1, n), (n, 1), (0, n), (n, 0), (n, n)):
            cases += [(rows, cols, 0.0), (rows, cols, 0.5)]
    for rows, cols, density in cases:
        A = (rng.random((rows, cols)) < density).astype(np.int8)
        if rows and rng.random() < 0.3:
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


def small_systems(field, rng, values):
    """Matrices of up to 3 x 3 with entries below values, half of those
    with more than one row ending in a multiple of the first row."""
    for rows in (1, 2, 3):
        for cols in (1, 2, 3):
            A = [[rng.randrange(values) for _ in range(cols)]
                 for _ in range(rows)]
            if rows > 1 and rng.random() < 0.5:
                c = rng.randrange(1, values)
                A[-1] = [field.mul_i(c, v) for v in A[0]]
            yield A


@pytest.mark.parametrize("q", EXTENSIONS)
def test_rank_field_matches_brute_force(q):
    field = ff_from_q(q)
    rng = random.Random(q)
    for _ in range(4):
        for A in small_systems(field, rng, field.q):
            assert linalg.rank_field(A, field) == brute_rank(field, A)
    assert linalg.rank_field([[0, 0], [0, 0]], field) == 0


@pytest.mark.parametrize("q", EXTENSIONS)
def test_solve_generic_matches_brute_force(q):
    """A and b over GF(p): the solution is one of those found by
    enumerating all of GF(q)^cols, with every free variable 0."""
    field = ff_from_q(q)
    rng = random.Random(100 + q)
    inconsistent = 0
    for _ in range(3):
        for A in small_systems(field, rng, field.p):
            b = [rng.randrange(field.p) for _ in A]
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


# ---------------------------------------------------------------------------
# one factorization, many right-hand sides


def rref_solve(A, b, p):
    """The solution with free variables 0 read off the reduced echelon form
    of [A | b], or None when b is a pivot column: a from-scratch solve."""
    A = np.asarray(A, dtype=np.int64) % p
    cols = A.shape[1]
    aug = np.column_stack([A, np.asarray(b, dtype=np.int64) % p])
    pivots = linalg._rref(aug, p, cols + 1)
    if cols in pivots:
        return None
    x = [0] * cols
    for r, col in enumerate(pivots):
        x[col] = int(aug[r, cols])
    return x


def field_system(field, rng, rows, cols, kind):
    """A matrix over GF(p) with some all-zero rows; for kind "deficient" a
    last nonzero row that repeats a multiple of another, and for kind
    "low-rank" nonzero rows that are combinations of at most cols // 2
    rows, some repeated, so the columns are dependent too."""
    p = field.p
    A = [[rng.randrange(p) if rng.random() < 0.6 else 0
          for _ in range(cols)] for _ in range(rows)]
    if kind == "low-rank":
        base = A[:max(1, cols // 2)]
        for i in range(rows):
            if i % 4 == 3:
                A[i] = A[i - 1]
                continue
            row = [0] * cols
            for b in base:
                c = rng.randrange(p)
                row = [field.add_i(v, field.mul_i(c, w))
                       for v, w in zip(row, b)]
            A[i] = row
    for i in range(0, rows, 3):
        A[i] = [0] * cols
    if kind == "deficient" and rows > 2:
        c = rng.randrange(1, p)
        A[-1] = [field.mul_i(c, v) for v in A[1]]
    return A


def right_hand_sides(field, rng, A, count):
    """Over GF(p): consistent ones (A times a random vector), random ones,
    and one that is nonzero only on an all-zero row of A."""
    p = field.p
    cols = len(A[0])
    out = []
    for _ in range(count):
        y = [rng.randrange(p) for _ in range(cols)]
        out.append([elements_apply(field, row, y) for row in A])
        out.append([rng.randrange(p) for _ in A])
    zero_rows = [i for i, row in enumerate(A) if not any(row)]
    if zero_rows:
        y = [rng.randrange(p) for _ in range(cols)]
        b = [elements_apply(field, row, y) for row in A]
        b[zero_rows[-1]] = rng.randrange(1, p)
        out.append(b)
    return out


def scratch_solve(A, b, field):
    """The GF(q) solution of a from-scratch solve of the lifted [A | b]."""
    s = field.s
    big = linalg._lift(np.column_stack([A, b]), field)
    cols = len(A[0]) * s
    x = rref_solve(big[:, :cols], big[:, cols], field.p)
    if x is None:
        return None
    return (np.array(x).reshape(-1, s) @ field.p ** np.arange(s)).tolist()


@pytest.mark.parametrize("q", (2, 3, 5, 7, 4, 8, 9))
def test_one_factorization_solves_every_right_hand_side(q):
    """Systems over GF(p), at q = 4, 8 and 9 too, against a from-scratch
    solve of their lift to GF(p) by the regular representation of GF(q)."""
    field = ff_from_q(q)
    rng = random.Random(7000 + q)
    seen = {"none": 0, "zero-row": 0}
    for rows, cols in ((1, 1), (4, 3), (3, 5), (6, 6), (9, 4), (13, 7),
                       (60, 6), (150, 14)):
        for kind in ("random", "deficient", "low-rank"):
            A = field_system(field, rng, rows, cols, kind)
            fact = linalg.factor_field(A, field)
            assert all(any(A[i]) for i in fact.rows)
            for b in right_hand_sides(field, rng, A, 4):
                x = linalg.solve_factored(fact, A, b, field)
                assert x == scratch_solve(A, b, field)
                assert x == linalg.solve_generic(A, b, field)
                if x is None:
                    seen["none"] += 1
                    if any(b[i] for i, row in enumerate(A) if not any(row)):
                        seen["zero-row"] += 1
                else:
                    assert [elements_apply(field, row, x) for row in A] == b
    assert seen["none"] and seen["zero-row"]


@pytest.mark.parametrize("q", (2, 3, 5, 4, 9))
def test_a_matrix_right_hand_side_equals_the_column_solves(q):
    """Several right-hand sides at once, one per column of B, give the
    column-by-column solutions as the columns of X; one inconsistent
    column makes the whole solve None."""
    field = ff_from_q(q)
    rng = random.Random(8200 + q)
    inconsistent = 0
    for rows, cols in ((1, 1), (4, 3), (6, 6), (13, 7), (40, 9)):
        for kind in ("random", "low-rank"):
            A = field_system(field, rng, rows, cols, kind)
            fact = linalg.factor_field(A, field)
            columns = right_hand_sides(field, rng, A, 3)
            sols = [linalg.solve_factored(fact, A, b, field)
                    for b in columns]
            good = [b for b, x in zip(columns, sols) if x is not None]
            X = linalg.solve_factored(fact, A, np.array(good).T, field)
            assert X == np.array([x for x in sols if x is not None]).T.tolist()
            assert X == linalg.solve_generic(A, np.array(good).T, field)
            for b, x in zip(columns, sols):
                if x is None:
                    inconsistent += 1
                    assert linalg.solve_factored(
                        fact, A, np.array(good + [b]).T, field) is None
    assert inconsistent


@pytest.mark.parametrize("q", (3, 4, 9))
def test_entries_outside_the_prime_field_are_refused(q):
    """factor_field, solve_factored and solve_generic lift nothing: the
    index p (the element t when q > p, no element at all when q = p) in
    the matrix or in the right-hand side raises ValueError naming it."""
    field = ff_from_q(q)
    p = field.p
    A = [[1, 0], [0, 1]]
    fact = linalg.factor_field(A, field)
    bad = [[1, 0], [p, 1]]
    in_matrix = re.escape("matrix entry %d at (1, 0) is not in GF(%d)"
                          % (p, p))
    with pytest.raises(ValueError, match=in_matrix):
        linalg.factor_field(bad, field)
    with pytest.raises(ValueError, match=in_matrix):
        linalg.solve_factored(fact, bad, [1, 1], field)
    with pytest.raises(ValueError, match=in_matrix):
        linalg.solve_generic(bad, [1, 1], field)
    for rhs, at in (([1, p], "(1,)"), ([[1, 0], [0, p]], "(1, 1)")):
        in_rhs = re.escape("right-hand side entry %d at %s is not in GF(%d)"
                           % (p, at, p))
        with pytest.raises(ValueError, match=in_rhs):
            linalg.solve_factored(fact, A, rhs, field)
        with pytest.raises(ValueError, match=in_rhs):
            linalg.solve_generic(A, rhs, field)


@pytest.mark.parametrize("p,A", CASES)
def test_factor_modp_inverts_the_pivot_square(p, A):
    """factor_field over GF(p): sympy's pivot columns, and A[rows, pivots]
    times inv is the identity."""
    A = np.array(A) % p
    field = ff_make(p)
    fact = linalg.factor_field(A, field)
    _R, pivots = sympy_rref(A.tolist(), p)
    assert list(fact.pivots) == pivots
    r = len(pivots)
    assert len(set(fact.rows.tolist())) == r
    square = A[np.ix_(fact.rows, fact.pivots)]
    assert ((square @ fact.inv) % p == np.eye(r, dtype=int)).all()
    rng = random.Random(p * 1000 + A.size)
    for _ in range(4):
        b = [rng.randrange(p) for _ in range(A.shape[0])]
        assert linalg.solve_factored(fact, A, b, field) == rref_solve(A, b, p)


def sympy_inverse(A, p):
    """sympy's inverse of the square A over GF(p), or None if singular."""
    K = GF(p)
    dm = DomainMatrix([[K(int(v)) for v in row] for row in A],
                      (len(A), len(A)), K)
    if dm.rank() < len(A):
        return None
    return [[int(K.to_sympy(v)) % p for v in row]
            for row in dm.inv().to_list()]


@pytest.mark.parametrize("p,A", [(p, A) for p, A in CASES
                                 if len(A) == len(A[0])])
def test_inverse_field_matches_sympy(p, A):
    """inverse_field over GF(p) on every square case: sympy's inverse, or
    None on a singular matrix; a read-only uint8 copy gives the same."""
    field = ff_make(p)
    want = sympy_inverse(A, p)
    block = np.array(A, dtype=np.uint8)
    block.flags.writeable = False
    for M in (A, block):
        inv = linalg.inverse_field(M, field)
        if want is None:
            assert inv is None
        else:
            assert inv.tolist() == want
    assert block.tolist() == A


def test_inverse_field_refuses_an_entry_outside_the_prime_field():
    for p in (2, 3, 5, 7):
        field = ff_make(p)
        with pytest.raises(ValueError, match=re.escape(
                "matrix entry %d at (0, 1) is not in GF(%d)" % (p, p))):
            linalg.inverse_field([[1, p], [0, 1]], field)
        with pytest.raises(ValueError, match="matrix entry -1 at"):
            linalg.inverse_field([[-1]], field)


def test_inconsistent_only_on_a_zero_row():
    """b agrees with a consistent system except on an all-zero row of A:
    no zero row is a pivot row, and the re-check of every row must catch
    it."""
    for q in (2, 3, 4, 9):
        field = ff_from_q(q)
        A = [[1, 0], [0, 0], [0, 1], [0, 0]]
        fact = linalg.factor_field(A, field)
        assert sorted(fact.rows.tolist()) == [0, 2]
        assert linalg.solve_factored(fact, A, [1, 0, 1, 0], field) == [1, 1]
        for bad in ([1, 1, 1, 0], [1, 0, 1, field.p - 1]):
            assert linalg.solve_factored(fact, A, bad, field) is None
            assert linalg.solve_generic(A, bad, field) is None
        assert linalg.solve_modp([[0, 0], [1, 0]], [1, 0], 3) is None


# ---------------------------------------------------------------------------
# the prime-field rule: a matrix over GF(p) is eliminated as it is


def lifted_rank(A, field):
    """The oracle: the rank of the lift of A's nonzero rows, divided by s."""
    A = np.asarray(A)
    return linalg.rank_modp(linalg._lift(A[A.any(axis=1)], field),
                            field.p) // field.s


def lifted_pivots(A, field):
    """The oracle: the pivot columns of the lift of A's nonzero rows."""
    A = np.asarray(A)
    L = linalg._lift(A[A.any(axis=1)], field).astype(np.int64)
    return linalg._rref(L, field.p, L.shape[1])


def pivots_of_the_lift(fact, field):
    """Each pivot j of the GF(p) matrix as the s columns j*s, ...,
    j*s + s - 1 of its lift A (x) I_s."""
    return [j * field.s + k for j in fact.pivots for k in range(field.s)]


def assert_inverts_the_pivot_square(fact, A, field):
    square = np.asarray(A, dtype=np.int64)[np.ix_(fact.rows, fact.pivots)]
    r = len(fact.pivots)
    assert ((square @ fact.inv) % field.p == np.eye(r, dtype=int)).all()


@st.composite
def prime_field_systems(draw):
    """(field, A, b, outside): a matrix A over GF(p) with some zero rows
    in GF(q), q = 4, 8 or 9, ending in a repeat of a nonzero row when there
    is one; the right-hand side A y of a vector y over GF(p); and a place
    and a value outside GF(p) to put in A."""
    field = ff_from_q(draw(st.sampled_from(EXTENSIONS)))
    p = field.p
    rows = draw(st.integers(1, 10))
    cols = draw(st.integers(1, 7))
    entry = st.integers(0, p - 1)
    A = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                      min_size=rows, max_size=rows))
    for i in draw(st.lists(st.integers(0, rows - 1), max_size=3)):
        A[i] = [0] * cols
    nonzero = [i for i, row in enumerate(A) if any(row)]
    if nonzero:
        A.append(list(A[draw(st.sampled_from(nonzero))]))
    y = draw(st.lists(entry, min_size=cols, max_size=cols))
    b = [int(v) for v in (np.array(A) @ np.array(y)) % p]
    outside = (draw(st.integers(0, len(A) - 1)),
               draw(st.integers(0, cols - 1)),
               draw(st.integers(p, field.q - 1)))
    return field, A, b, outside


@settings(max_examples=80, deadline=None)
@given(prime_field_systems())
def test_prime_field_rule_matches_the_lift(system):
    """rank_field, factor_field and solve_factored on a matrix over GF(p)
    skip the lift and agree with the oracle that takes it, on a consistent
    right-hand side and on inconsistent ones, on a repeated row or on a
    zero row.  A matrix with one entry outside GF(p) has the rank of its
    lift, and factor_field refuses it."""
    field, A, inside, (i, j, v) = system
    p = field.p
    fact = linalg.factor_field(A, field)
    assert linalg.rank_field(A, field) == lifted_rank(A, field) \
        == len(fact.pivots)
    assert pivots_of_the_lift(fact, field) == lifted_pivots(A, field)
    assert_inverts_the_pivot_square(fact, A, field)

    x = linalg.solve_factored(fact, A, inside, field)
    assert x == scratch_solve(A, inside, field)
    assert [elements_apply(field, row, x) for row in A] == inside
    bad = []
    if any(A[-1]):
        b = list(inside)
        b[-1] = field.add_i(b[-1], 1)  # the repeat disagrees
        bad.append(b)
    zero = [r for r, row in enumerate(A) if not any(row)]
    if zero:
        b = list(inside)
        b[zero[0]] = 1
        bad.append(b)
    for b in bad:
        assert linalg.solve_factored(fact, A, b, field) is None
        assert scratch_solve(A, b, field) is None

    outside = [list(row) for row in A]
    outside[i][j] = v
    assert p <= v < field.q
    assert linalg.rank_field(outside, field) == lifted_rank(outside, field)
    with pytest.raises(ValueError):
        linalg.factor_field(outside, field)


@pytest.mark.parametrize("q", (2, 3, 4, 9))
def test_uint8_block_factors_like_an_int_matrix(q):
    """A read-only uint8 block, as the module fit passes, goes straight to
    factor_field: its row operations must not wrap."""
    field = ff_from_q(q)
    rng = random.Random(9100 + q)
    for rows, cols in ((5, 3), (12, 8), (40, 9), (90, 14)):
        for kind in ("random", "low-rank"):
            A = field_system(field, rng, rows, cols, kind)
            block = np.array(A, dtype=np.uint8)
            block.flags.writeable = False
            fact = linalg.factor_field(block, field)
            wide = linalg.factor_field(np.array(A, dtype=np.int64), field)
            assert pivots_of_the_lift(fact, field) == lifted_pivots(A, field)
            for got, want in zip(fact, wide):
                assert np.array_equal(got, want)
            assert_inverts_the_pivot_square(fact, A, field)
            for b in right_hand_sides(field, rng, A, 3):
                x = linalg.solve_factored(fact, block, b, field)
                assert x == scratch_solve(A, b, field)
