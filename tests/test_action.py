"""Group enumeration, the diagonal action, and the two ring endomorphisms."""

import json
import math
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import modinvar
from modinvar import action, groebner, linalg
from modinvar.action import (
    Mat2,
    SingularMatrix,
    act,
    enumerate_gl2,
    enumerate_sl2,
    frobenius_star,
    generating_set_gl2,
    invariant_bidegree_dimension,
    invariant_dimension,
    involution_star,
    is_invariant,
)
from modinvar.gf import ff_from_q, ff_make
from modinvar.gens import context_for_q
from modinvar.groebner import TimeoutExceeded
from modinvar.mpoly import PolyRing

# invariant dimensions by degree, frozen from the stacked generating-set
# oracle (rank of T-I, D-I, W-I over GF(q)) that the transvection-only
# oracle replaced
DIMS_Q4 = [1, 0, 1, 0, 1, 2, 1, 2, 1, 2, 4, 2, 6, 2, 6, 8, 6, 12, 6, 12, 13,
           12, 19, 12, 22, 20, 22, 30, 22, 36, 33, 36, 44, 36, 53, 48, 57,
           60, 57, 74, 70]
DIMS_Q5 = [1, 0, 1, 0, 1, 0, 3, 0, 3, 0, 3, 0, 6, 0, 6, 0, 6, 0, 10, 0, 12,
           0, 12, 0, 19, 0, 23, 0, 23, 0, 31]


def r4(q):
    return PolyRing(ff_from_q(q), ("x1", "x2", "y1", "y2"))


@pytest.mark.parametrize("q", (2, 3, 4, 5))
def test_group_orders(q):
    F = ff_from_q(q)
    gl = enumerate_gl2(F)
    sl = enumerate_sl2(F)
    assert len(gl) == (q * q - 1) * (q * q - q)
    assert len(sl) == q * (q * q - 1)
    assert len(set(gl)) == len(gl)
    one = F.one
    for g in sl:
        assert g.det() == one
    assert set(sl) <= set(gl)


def test_mat2_algebra():
    F = ff_make(5)
    g = Mat2(F, (F.elem(1), F.elem(2), F.elem(3), F.elem(4)))
    h = g.inverse()
    assert g @ h == Mat2.identity(F)
    assert h @ g == Mat2.identity(F)
    sing = Mat2(F, (F.elem(1), F.elem(2), F.elem(2), F.elem(4)))
    assert sing.det() == F.zero
    with pytest.raises(SingularMatrix):
        sing.inverse()


def test_mat2_from_indices_extension_field():
    # index-level constructor must agree with element-level over GF(4);
    # note Mat2(F, ints) reads ints as prime-subfield literals, not indices
    F = ff_from_q(4)
    g = Mat2.from_indices(F, (2, 3, 1, 0))
    h = Mat2(F, tuple(F.from_index(i) for i in (2, 3, 1, 0)))
    assert g == h
    assert g.entry(0, 0) == F.t
    assert (g @ g.inverse()) == Mat2.identity(F)
    assert Mat2(F, (0, 1, 1, 0)) == Mat2.from_indices(F, (0, 1, 1, 0))


def test_act_is_group_action():
    R = r4(3)
    f = R.parse("x1^2*y2 + 2*x2*y1 + y1*y2")
    F = R.field
    els = enumerate_gl2(F)
    assert act(Mat2.identity(F), f) == f
    for g, h in ((els[3], els[17]), (els[40], els[9])):
        assert act(g, act(h, f)) == act(g @ h, f)


def test_act_is_ring_map():
    R = r4(2)
    f = R.parse("x1*y1 + x2")
    g = R.parse("y2^2 + x1")
    for m in enumerate_gl2(R.field):
        assert act(m, f * g) == act(m, f) * act(m, g)
        assert act(m, f + g) == act(m, f) + act(m, g)


def test_generating_set_generates():
    # closure of the small generating set is the whole group
    for q in (2, 3, 4, 5):
        F = ff_from_q(q)
        gens = generating_set_gl2(F)
        seen = {Mat2.identity(F)}
        frontier = list(seen)
        while frontier:
            nxt = []
            for g in frontier:
                for s in gens:
                    w = g @ s
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            frontier = nxt
        assert len(seen) == len(enumerate_gl2(F))


@pytest.mark.parametrize("q", (2, 3, 4))
def test_involution_star_properties(q):
    ctx = context_for_q(q)
    R = ctx.R4
    f = R.parse("x1^2*y2 + x2*y1^3")
    g = R.parse("y2 + x1*x2")
    assert involution_star(involution_star(f)) == f
    assert involution_star(f * g) == involution_star(f) * involution_star(g)
    assert involution_star(f + g) == involution_star(f) + involution_star(g)
    for i in (1, 2):
        assert involution_star(ctx.u(-i)) == ctx.u(i)
        assert involution_star(ctx.u(i)) == ctx.u(-i)
    assert involution_star(ctx.u(0)) == ctx.u(0)
    assert involution_star(ctx.d(2)) == ctx.ds(2)
    assert involution_star(ctx.c(1)) == ctx.cs(1)


@pytest.mark.parametrize("q", (2, 3, 4))
def test_frobenius_star_on_u_family(q):
    ctx = context_for_q(q)
    assert frobenius_star(ctx.u(0)) == ctx.u(-1)
    assert frobenius_star(ctx.u(1)) == ctx.u(0) ** q
    assert frobenius_star(ctx.u(2)) == ctx.u(1) ** q
    # x-side generators are untouched
    assert frobenius_star(ctx.c(0)) == ctx.c(0)
    assert frobenius_star(ctx.c(1)) == ctx.c(1)


@pytest.mark.parametrize("q", (2, 3, 4))
def test_frobenius_star_maps_t0_to_t1(q):
    # the three summands of the first relation map to those of the second
    ctx = context_for_q(q)
    t0_parts = (ctx.c(0) * ctx.u(0), ctx.c(1) * ctx.u(1), ctx.u(2))
    t1_parts = (ctx.c(0) * ctx.u(-1), ctx.c(1) * ctx.u(0) ** q,
                ctx.u(1) ** q)
    for a, b in zip(t0_parts, t1_parts):
        assert frobenius_star(a) == b


def test_is_invariant_reports_witness():
    R = r4(2)
    F = R.field
    ok, w = is_invariant(R.parse("x1 + x2"), enumerate_gl2(F))
    assert not ok and w is not None
    ok, w = is_invariant(act(w, R.parse("x1 + x2")), [Mat2.identity(F)])
    assert ok and w is None


def test_invariant_dimension_oracle():
    # brute-force kernel dims, frozen: q=2 degrees 0..6
    F = ff_from_q(2)
    assert [invariant_dimension(F, d) for d in range(7)] == \
        [1, 0, 3, 4, 6, 10, 17]


def test_invariant_dimension_group_mode_agrees():
    F = ff_from_q(3)
    for d in (4, 6):
        assert invariant_dimension(F, d) == sum(
            action._full_group_dimension(F, a, d - a) for a in range(d + 1))


@pytest.mark.parametrize("q,dims", ((4, DIMS_Q4), (5, DIMS_Q5)))
def test_invariant_dimension_frozen(q, dims):
    F = ff_from_q(q)
    assert [invariant_dimension(F, d) for d in range(len(dims))] == dims


@pytest.mark.parametrize("q,top", ((2, 8), (3, 8), (4, 5)))
def test_oracle_matches_full_group_on_every_block(q, top):
    F = ff_from_q(q)
    unbalanced = killed = 0
    for d in range(top + 1):
        for a in range(d + 1):
            b = d - a
            dim = invariant_bidegree_dimension(F, a, b)
            assert dim == action._full_group_dimension(F, a, b), (a, b)
            if (a - b) % (q - 1):
                # scalars act by lambda^(b-a): no invariants at all
                assert dim == 0
                killed += 1
            elif a != b and dim:
                unbalanced += 1
    assert unbalanced
    assert killed or q == 2


@pytest.mark.slow
@pytest.mark.parametrize("q,top", ((4, 12), (8, 4)))
def test_bit_column_oracle_matches_full_group_on_every_block(q, top):
    """Over characteristic 2 the oracle ranks GF(2) bit columns: on every
    block up to the top degree it agrees with the exhaustive oracle, which
    stacks g - I over all of GL2(F_q) and ranks it over GF(q)."""
    F = ff_from_q(q)
    for d in range(top + 1):
        for a in range(d + 1):
            assert invariant_bidegree_dimension(F, a, d - a) == \
                action._full_group_dimension(F, a, d - a), (a, d - a)


def int64_orbit_matrix(field, a, b):
    """The oracle: the (T - I) orbit-sum matrix of the (a, b) block as
    invariant_bidegree_dimension built it in int64, unreduced, and its
    column count."""
    q, p = field.q, field.p
    reps, mates = [], []
    for e1 in range(a + 1):
        for e3 in range(e1 % (q - 1), b + 1, q - 1):
            mate = (a - e1, b - e3)
            if (e1, e3) <= mate:
                reps.append((e1, e3))
                mates.append(mate)
    n = max(a, b)
    binom = np.zeros((n + 1, n + 1), dtype=np.int64)
    binom[:, 0] = 1
    for i in range(1, n + 1):
        binom[i, 1:] = (binom[i - 1, 1:] + binom[i - 1, :-1]) % p
    tx = binom[:a + 1, :a + 1].T.copy()
    odd = np.add.outer(np.arange(a + 1), np.arange(a + 1)) % 2 == 1
    tx[odd] = -tx[odd]
    ty = binom[:b + 1, :b + 1].T[::-1, ::-1]

    def t_columns(monomials):
        e1s = [m[0] for m in monomials]
        e3s = [m[1] for m in monomials]
        cols = (tx[:, None, e1s] * ty[None, :, e3s]).reshape(-1, len(e1s))
        cols[[e1 * (b + 1) + e3 for e1, e3 in monomials],
             np.arange(len(e1s))] -= 1
        return cols

    mat = t_columns(reps)
    pair = [k for k, (r, m) in enumerate(zip(reps, mates)) if r != m]
    if pair:
        mat[:, pair] += t_columns([mates[k] for k in pair])
    return mat, len(reps)


def decoded_bit_columns(cols, size):
    """The 0/1 matrix, size rows, whose column j is the GF(2) bit column
    cols[j]: row k is bit k."""
    return np.array([[(col >> k) & 1 for col in cols] for k in range(size)],
                    dtype=np.int64).reshape(size, len(cols))


def capture_oracle_matrices(p, seen, real=True):
    """(name, stand-in) for the linalg function that ranks the oracle's
    matrix at p: rank_modp at odd p, _xor_basis of the int bit columns at
    p = 2.  The stand-in records the matrix in seen and returns what the
    function returns, or with real=False an empty rank."""
    name = "_xor_basis" if p == 2 else "rank_modp"
    rank = getattr(linalg, name)
    empty = {} if p == 2 else 0

    def capture(mat, arg):
        seen.append(mat)
        return rank(mat, arg) if real else empty
    return name, capture


def assert_oracle_matrix(p, mat, want, cols):
    """mat, as captured by capture_oracle_matrices, is the int64
    construction want with cols columns: entry for entry in the narrow type
    at odd p, and column by column mod 2 at p = 2."""
    if p == 2:
        assert len(mat) == cols
        bits = decoded_bit_columns(mat, want.shape[0])
        for j in range(cols):
            assert np.array_equal(bits[:, j], want[:, j] % 2), j
        return
    assert mat.shape == (want.shape[0], cols)
    assert mat.dtype == linalg._int_type(2 * (p - 1) ** 2 + 1)
    assert np.array_equal(mat, want)


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_narrow_oracle_matches_the_int64_construction(p, monkeypatch):
    """At every supported p the oracle builds the same (T - I) matrix as the
    int64 construction, in the narrow type (as GF(2) bit columns at p = 2),
    and so the same dimension: on the small bidegrees and on those near 2p,
    where the binomials mod p run through every value up to p - 1, so the
    entries reach (p-1)^2, within the bound 2(p-1)^2 + 1."""
    field = ff_make(p)
    seen = []
    rank_modp = linalg.rank_modp
    monkeypatch.setattr(linalg, *capture_oracle_matrices(p, seen))
    near = range(2 * p - 2, 2 * p + 2)
    blocks = [(a, b) for a in range(7) for b in range(7)]
    blocks += [(a, b) for a in near for b in near]
    bound = 2 * (p - 1) ** 2 + 1
    largest = 0
    for a, b in blocks:
        del seen[:]
        dim = invariant_bidegree_dimension(field, a, b)
        if (a - b) % (p - 1):
            assert dim == 0 and not seen
            continue
        (mat,) = seen
        want, cols = int64_orbit_matrix(field, a, b)
        assert_oracle_matrix(p, mat, want, cols)
        assert dim == cols - rank_modp(want % p, p), (a, b)
        largest = max(largest, int(np.abs(want).max()))
    assert (p - 1) ** 2 <= largest <= bound


def test_narrow_oracle_type_holds_its_bound():
    """The oracle's type holds 2(p-1)^2 + 1 and is the narrowest that
    does: int8 at every supported p."""
    narrower = {np.int16: np.int8, np.int32: np.int16, np.int64: np.int32}
    for p in (2, 3, 5, 7, 11, 13, 127, 251, 65521):
        bound = 2 * (p - 1) ** 2 + 1
        t = linalg._int_type(bound)
        assert np.iinfo(t).max >= bound
        if t in narrower:
            assert np.iinfo(narrower[t]).max < bound
        if p <= 7:
            assert t is np.int8


@pytest.mark.parametrize("q,blocks", (
    (5, ((0, 0), (1, 1), (2, 2), (3, 3), (0, 4), (4, 0), (1, 2))),
    (7, ((1, 1), (2, 2), (0, 6), (2, 3))),
    (8, ((1, 1), (2, 2), (0, 7))),
    (9, ((1, 1), (2, 2), (0, 8)))))
def test_oracle_matches_full_group_at_larger_p(q, blocks):
    F = ff_from_q(q)
    for a, b in blocks:
        assert invariant_bidegree_dimension(F, a, b) == \
            action._full_group_dimension(F, a, b)


@pytest.mark.parametrize("q", (3, 4))
def test_negative_bidegree_is_empty(q, monkeypatch):
    """A block with a negative degree has no monomials: both paths give 0,
    and the oracle returns before it touches a binomial table."""
    monkeypatch.setattr(action, "_BINOMIALS", {})
    F = ff_from_q(q)
    for a, b in ((-1, 2), (2, -1), (-1, -1), (-3, 0)):
        assert invariant_bidegree_dimension(F, a, b) == 0
        assert action._full_group_dimension(F, a, b) == 0
    assert invariant_dimension(F, -2) == 0
    assert action._BINOMIALS == {}


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_binomial_tables_hold_the_binomials(p, monkeypatch):
    """binom[i, j] = C(j, i) mod p and signed[i, j] is that times
    (-1)^(i+j), in the oracle's type, read-only; near 2p, where the
    binomials mod p take every value, and after growing to 40."""
    monkeypatch.setattr(action, "_BINOMIALS", {})
    for n in (2 * p + 2, 40):
        binom, signed = action._binomial_tables(p, n)
        want = np.array([[math.comb(j, i) % p for j in range(n + 1)]
                         for i in range(n + 1)])
        sign = np.array([[(-1) ** (i + j) for j in range(n + 1)]
                         for i in range(n + 1)])
        assert np.array_equal(binom, want)
        assert np.array_equal(signed, sign * want)
        assert binom.dtype == signed.dtype == \
            linalg._int_type(2 * (p - 1) ** 2 + 1)
        for t in (binom, signed, *action._BINOMIALS[p]):
            with pytest.raises(ValueError):
                t[0, 0] = 0
            with pytest.raises(ValueError):
                t[n, n] += 1


def test_binomial_tables_one_per_prime(monkeypatch):
    """A smaller n gets the leading slice of the table a larger n grew,
    and only one pair of tables is held per prime."""
    monkeypatch.setattr(action, "_BINOMIALS", {})
    big = action._binomial_tables(5, 60)
    small = action._binomial_tables(5, 10)
    for b, s in zip(big, small):
        assert b.shape == (61, 61) and s.shape == (11, 11)
        assert np.shares_memory(b, s)
        assert np.array_equal(s, b[:11, :11])
    assert list(action._BINOMIALS) == [5]
    assert all(t.shape == (61, 61) for t in action._BINOMIALS[5])


FRESH_DIMS = """\
import sys
from modinvar.action import invariant_dimension
from modinvar.gf import ff_from_q
q, top = int(sys.argv[1]), int(sys.argv[2])
print([invariant_dimension(ff_from_q(q), d) for d in range(top + 1)])
"""


def test_fields_of_one_prime_share_its_tables(monkeypatch):
    """q = 2, 4, 8 and then q = 3, 9, each run degree by degree in turn in
    one process, grow and share the tables of p = 3 (p = 2 holds none), and
    still give the dimensions that a fresh process gives for each q alone
    (DIMS_Q4 at q = 4)."""
    tops = {2: 24, 4: 40, 8: 40, 3: 24, 9: 40}
    src = os.path.dirname(os.path.dirname(os.path.abspath(modinvar.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    fresh = {q: subprocess.Popen([sys.executable, "-c", FRESH_DIMS, str(q),
                                  str(top)],
                                 stdout=subprocess.PIPE, text=True, env=env)
             for q, top in tops.items() if q != 4}
    monkeypatch.setattr(action, "_BINOMIALS", {})
    dims = {q: [] for q in tops}
    try:
        for family in ((2, 4, 8), (3, 9)):
            for d in range(max(tops[q] for q in family) + 1):
                for q in family:
                    if d <= tops[q]:
                        dims[q].append(invariant_dimension(ff_from_q(q), d))
    finally:
        outs = {q: proc.communicate(timeout=60)[0]
                for q, proc in fresh.items()}
    assert dims[4] == DIMS_Q4
    for q, proc in fresh.items():
        assert proc.returncode == 0
        assert dims[q] == json.loads(outs[q]), q
    # p = 2 reads its binomials' parities off the bits: no table
    assert sorted(action._BINOMIALS) == [3]


@st.composite
def congruent_blocks(draw):
    """(p, a, b) with p in 2, 3, 5, 7 and a = b mod p-1, a, b <= 30."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    a = draw(st.integers(0, 30))
    r = a % (p - 1)
    b = r + (p - 1) * draw(st.integers(0, (30 - r) // (p - 1)))
    return p, a, b


@settings(max_examples=100, deadline=None)
@given(congruent_blocks())
def test_oracle_matrix_is_the_int64_construction(block):
    """The matrix the oracle ranks is the int64 construction's, entry for
    entry and column for column (mod 2, on bit columns, at p = 2), on every
    block it ranks."""
    p, a, b = block
    seen = []
    with mock.patch.object(linalg,
                           *capture_oracle_matrices(p, seen, False)):
        invariant_bidegree_dimension(ff_make(p), a, b)
    want, cols = int64_orbit_matrix(ff_make(p), a, b)
    (mat,) = seen
    assert_oracle_matrix(p, mat, want, cols)


class ExpiringClock:
    """A time.monotonic stand-in: 0.0 for the first `reads` reads, then a
    time past any deadline used here.  Counts every read."""

    def __init__(self, reads=None):
        self.reads = 0
        self.limit = reads

    def __call__(self):
        self.reads += 1
        if self.limit is not None and self.reads >= self.limit:
            return 1e9
        return 0.0


def test_invariant_dimension_checks_deadline_per_block(monkeypatch):
    F = ff_from_q(4)
    clock = ExpiringClock()
    monkeypatch.setattr(groebner.time, "monotonic", clock)
    assert invariant_dimension(F, 10, deadline=1.0) == DIMS_Q4[10]
    assert clock.reads == 11  # one check before each of the 11 blocks
    for k in (1, 6, 11):
        clock = ExpiringClock(k)
        monkeypatch.setattr(groebner.time, "monotonic", clock)
        with pytest.raises(TimeoutExceeded):
            invariant_dimension(F, 10, deadline=1.0)
        assert clock.reads == k
