"""GL2(F_q) acting on F_q[x1,x2,y1,y2], plus the twisted Frobenius and the
swap involution.

Convention (validated by u0 = x1*y1 + x2*y2 staying fixed): g sends
y_i -> sum_j g[j][i] y_j and x_i -> sum_j inv(g)[i][j] x_j, which makes
act(g, act(h, f)) == act(g @ h, f) a left action.
"""

from __future__ import annotations

import itertools

from . import _kernels as K
from .gf import FieldMismatch
from .groebner import check_deadline
from .mpoly import Polynomial, PolyRing, RingMismatch

R4_NAMES = ("x1", "x2", "y1", "y2")


class ActionError(Exception):
    pass


class SingularMatrix(ActionError):
    pass


class Mat2:
    """2x2 matrix over a FieldParams; entries stored as coefficient indices."""

    __slots__ = ("field", "e")

    def __init__(self, field, entries):
        self.field = field
        self.e = tuple(field.elem(v).i for v in entries)
        if len(self.e) != 4:
            raise ActionError("need 4 entries")

    @classmethod
    def from_indices(cls, field, indices):
        """Internal constructor from coefficient indices (not literals)."""
        m = cls.__new__(cls)
        m.field = field
        m.e = tuple(indices)
        return m

    @classmethod
    def identity(cls, field):
        return cls.from_indices(field, (1, 0, 0, 1))

    def entry(self, i, j):
        return self.field.from_index(self.e[2 * i + j])

    def det(self):
        f = self.field
        a, b, c, d = self.e
        return f.from_index(f.add_i(f.mul_i(a, d), f.neg_i(f.mul_i(b, c))))

    def inverse(self):
        f = self.field
        det = self.det()
        if not det.i:
            raise SingularMatrix("matrix %s is singular" % self)
        di = f.inv_i(det.i)
        a, b, c, d = self.e
        return Mat2.from_indices(
            f, (f.mul_i(di, d), f.mul_i(di, f.neg_i(b)),
                f.mul_i(di, f.neg_i(c)), f.mul_i(di, a)))

    def __matmul__(self, other):
        if not isinstance(other, Mat2) or other.field != self.field:
            raise FieldMismatch("matrix product across fields")
        f = self.field
        a, b, c, d = self.e
        e, g, h, i = other.e
        mul, add = f.mul_i, f.add_i
        return Mat2.from_indices(
            f, (add(mul(a, e), mul(b, h)), add(mul(a, g), mul(b, i)),
                add(mul(c, e), mul(d, h)), add(mul(c, g), mul(d, i))))

    def __eq__(self, other):
        return (isinstance(other, Mat2) and self.field == other.field
                and self.e == other.e)

    def __hash__(self):
        return hash((self.field.q, self.e))

    def __repr__(self):
        lit = self.field.literal
        fe = self.field.from_index
        a, b, c, d = (lit(fe(v)) for v in self.e)
        return "[[%s,%s],[%s,%s]]" % (a, b, c, d)


def enumerate_gl2(field):
    """All invertible 2x2 matrices, lexicographic by entry indices."""
    out = []
    q = field.q
    for a, b, c, d in itertools.product(range(q), repeat=4):
        if field.add_i(field.mul_i(a, d), field.neg_i(field.mul_i(b, c))):
            out.append(Mat2.from_indices(field, (a, b, c, d)))
    return out


def enumerate_sl2(field):
    out = []
    q = field.q
    for a, b, c, d in itertools.product(range(q), repeat=4):
        det = field.add_i(field.mul_i(a, d), field.neg_i(field.mul_i(b, c)))
        if det == 1:
            out.append(Mat2.from_indices(field, (a, b, c, d)))
    return out


def multiplicative_generator(field):
    """Smallest-index generator of F_q^*."""
    q = field.q
    for idx in range(1, q):
        e = field.from_index(idx)
        seen = 1
        acc = e
        while acc.i != 1:
            acc = acc * e
            seen += 1
        if seen == q - 1:
            return e
    raise ActionError("no multiplicative generator found")


def generating_set_gl2(field):
    """Transvection, diagonal torus element, swap; generates GL2(F_q)."""
    zeta = multiplicative_generator(field)
    return [Mat2(field, (1, 1, 0, 1)),
            Mat2(field, (zeta, 0, 0, 1)),
            Mat2(field, (0, 1, 1, 0))]


def _require_r4(ring):
    if ring.names != R4_NAMES:
        raise RingMismatch("action needs variables %s" % (R4_NAMES,))


def action_images(g, ring):
    """Substitution images of x1,x2,y1,y2 under g."""
    _require_r4(ring)
    if g.field != ring.field:
        raise FieldMismatch("group element field differs from ring field")
    gi = g.inverse()
    f = ring.field
    x1, x2, y1, y2 = (ring.var(nm) for nm in R4_NAMES)
    fe = f.from_index
    return {
        "x1": x1 * fe(gi.e[0]) + x2 * fe(gi.e[1]),
        "x2": x1 * fe(gi.e[2]) + x2 * fe(gi.e[3]),
        "y1": y1 * fe(g.e[0]) + y2 * fe(g.e[2]),
        "y2": y1 * fe(g.e[1]) + y2 * fe(g.e[3]),
    }


def act(g, f):
    """Image of f under the group element g (exact expansion)."""
    return f.substitute(action_images(g, f.ring))


def frobenius_star(f):
    """The twisted Frobenius: x_i -> x_i, y_i -> y_i^q."""
    _require_r4(f.ring)
    q = f.ring.field.q
    ring = f.ring
    out = {}
    for k, c in f.terms.items():
        e1, e2, e3, e4 = ring.unpack(k)
        out[ring.pack((e1, e2, q * e3, q * e4))] = c
    return Polynomial(ring, out)


_SWAP = {"x1": "y2", "x2": "y1", "y1": "x2", "y2": "x1"}


def involution_star(f):
    """The order-2 swap x1<->y2, x2<->y1 (exponent tuple reversal)."""
    _require_r4(f.ring)
    return f.remap(f.ring, _SWAP)


def is_invariant(f, elements, deadline=None):
    """(True, None) if every listed element fixes f, else (False, witness).
    The deadline is checked before each element."""
    for g in elements:
        check_deadline(deadline)
        if act(g, f) != f:
            return False, g
    return True, None


def invariant_bidegree_dimension(field, a, b, use_full_group=False):
    """dim of the GL2-invariants of x-degree a and y-degree b.

    The action maps x-monomials to x-polynomials and y-monomials to
    y-polynomials, so each bidegree block is an independent kernel problem
    on the monomials x1^e1 x2^(a-e1) y1^e3 y2^(b-e3).

    GL2 is generated by the torus element D = diag(zeta, 1), the swap W and
    the transvection T = [[1,1],[0,1]] (generating_set_gl2).  Scalars act by
    lambda^(b-a), so the block is 0 unless a = b mod q-1.  D scales a
    monomial by zeta^(e3-e1), so its fixed space is spanned by the monomials
    with e1 = e3 mod q-1; W maps (e1, e3) to (a-e1, b-e3), so the fixed
    space of both is spanned by W-orbit sums of those.  Only T is imposed by
    rank: T x1 = x1 - x2, T y2 = y1 + y2 and x2, y1 are fixed, so T has
    integer entries and its rank over GF(p) is its rank over GF(q).  The
    binomials, T and T - I are built in the narrowest signed integer type
    that holds 2(p-1)^2 + 1, the largest entry of an orbit-sum column: int8
    for every p up to 7.

    use_full_group instead stacks g - I for every g in GL2(F_q) and takes
    the rank over GF(q): the exhaustive cross-check of the above.
    """
    # imported on first use: importing numpy before the rest of the package
    # is compiled adds about 2 MB to the peak memory of every process that
    # imports modinvar
    import numpy as np

    from . import linalg

    if use_full_group:
        return _full_group_dimension(field, a, b)
    q, p = field.q, field.p
    if (a - b) % (q - 1):
        return 0
    # one column per swap orbit {(e1, e3), (a-e1, b-e3)} of torus-fixed
    # monomials, as (representative, mate) in block order e1*(b+1) + e3
    reps, mates = [], []
    for e1 in range(a + 1):
        for e3 in range(e1 % (q - 1), b + 1, q - 1):
            mate = (a - e1, b - e3)
            if (e1, e3) <= mate:
                reps.append((e1, e3))
                mates.append(mate)
    # binom[i, j] = C(i, j) mod p
    n = max(a, b)
    binom = np.zeros((n + 1, n + 1),
                     dtype=linalg._int_type(2 * (p - 1) ** 2 + 1))
    binom[:, 0] = 1
    for i in range(1, n + 1):
        binom[i, 1:] = (binom[i - 1, 1:] + binom[i - 1, :-1]) % p
    # tx[i, e1]: coefficient of x1^i x2^(a-i) in (x1 - x2)^e1 x2^(a-e1)
    tx = binom[:a + 1, :a + 1].T.copy()
    odd = np.add.outer(np.arange(a + 1), np.arange(a + 1)) % 2 == 1
    tx[odd] = -tx[odd]
    # ty[f3, e3]: coefficient of y1^f3 y2^(b-f3) in y1^e3 (y1 + y2)^(b-e3)
    ty = binom[:b + 1, :b + 1].T[::-1, ::-1]

    def t_columns(monomials):
        # columns of T = kron(tx, ty) at these monomials, minus identity
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
    return len(reps) - linalg.rank_modp(mat, p)


def _full_group_dimension(field, a, b):
    """dim of the GL2-invariants of the (a, b) block as the kernel of g - I
    stacked over every g in GL2(F_q), rank over GF(q)."""
    from . import linalg

    elements = enumerate_gl2(field)
    ring = PolyRing(field, R4_NAMES)
    mons = [(i, a - i, j, b - j) for i in range(a + 1) for j in range(b + 1)]
    ncols = len(mons)
    index = {ring.pack(e): col for col, e in enumerate(mons)}
    fld = field
    mat = [[0] * ncols for _ in range(len(elements) * ncols)]
    for bi, g in enumerate(elements):
        imgs = action_images(g, ring)
        xpow1 = [ring.one, imgs["x1"]]
        xpow2 = [ring.one, imgs["x2"]]
        ypow1 = [ring.one, imgs["y1"]]
        ypow2 = [ring.one, imgs["y2"]]
        for lst in (xpow1, xpow2, ypow1, ypow2):
            while len(lst) <= max(a, b):
                lst.append(lst[-1] * lst[1])
        xcache = {}
        ycache = {}
        base = bi * ncols
        for col, (e1, e2, e3, e4) in enumerate(mons):
            xk = xcache.get(e1)
            if xk is None:
                xk = xcache[e1] = (xpow1[e1] * xpow2[e2]).terms
            yk = ycache.get(e3)
            if yk is None:
                yk = ycache[e3] = (ypow1[e3] * ypow2[e4]).terms
            prod = K.mul_terms(xk, yk, fld)
            for kk, cc in prod.items():
                mat[base + index[kk]][col] = cc
            row = mat[base + col]
            row[col] = fld.add_i(row[col], fld.neg_i(1))
    return ncols - linalg.rank_field(mat, fld)


def invariant_dimension(field, d, use_full_group=False, deadline=None):
    """dim of the degree-d GL2-invariants of F_q[x1,x2,y1,y2], summed over
    the (x-degree, y-degree) blocks.  Raises TimeoutExceeded when the
    deadline (a time.monotonic() reading) passes before a block."""
    total = 0
    for xd in range(d + 1):
        check_deadline(deadline)
        total += invariant_bidegree_dimension(field, xd, d - xd,
                                              use_full_group)
    return total
