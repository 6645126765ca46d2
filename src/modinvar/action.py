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
    """The elements of enumerate_gl2 of determinant 1, in its order."""
    return [g for g in enumerate_gl2(field) if g.det().i == 1]


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


# per prime p: the binomial table C(j, i) mod p and the same table signed by
# (-1)^(i+j), read-only, grown to the largest degree asked for
_BINOMIALS = {}


def _binomial_tables(p, n):
    """(binom, signed) for i, j <= n: binom[i, j] = C(j, i) mod p and
    signed[i, j] = (-1)^(i+j) C(j, i) mod p, as read-only leading slices of
    the one pair of tables held for p, in the oracle's narrow type.  A
    larger n grows the held pair, keeping its columns and adding the new
    ones by Pascal's rule."""
    held = _BINOMIALS.get(p)
    if held is None or held[0].shape[0] <= n:
        import numpy as np

        from . import linalg

        binom = np.zeros((n + 1, n + 1),
                         dtype=linalg._int_type(2 * (p - 1) ** 2 + 1))
        binom[0] = 1
        start = 1
        if held is not None:
            start = held[0].shape[0]
            binom[:start, :start] = held[0]
        for j in range(start, n + 1):
            binom[1:, j] = (binom[1:, j - 1] + binom[:-1, j - 1]) % p
        odd = np.add.outer(np.arange(n + 1), np.arange(n + 1)) % 2
        signed = np.where(odd, -binom, binom)
        binom.flags.writeable = signed.flags.writeable = False
        held = _BINOMIALS[p] = (binom, signed)
    return tuple(t[:n + 1, :n + 1] for t in held)


def invariant_bidegree_dimension(field, a, b):
    """dim of the GL2-invariants of x-degree a and y-degree b.

    The action maps x-monomials to x-polynomials and y-monomials to
    y-polynomials, so each bidegree block is an independent kernel problem
    on the monomials x1^e1 x2^(a-e1) y1^e3 y2^(b-e3).  A block with a
    negative degree is empty.

    GL2 is generated by the torus element D = diag(zeta, 1), the swap W and
    the transvection T = [[1,1],[0,1]] (generating_set_gl2).  Scalars act by
    lambda^(b-a), so the block is 0 unless a = b mod q-1.  D scales a
    monomial by zeta^(e3-e1), so its fixed space is spanned by the monomials
    with e1 = e3 mod q-1; W maps (e1, e3) to (a-e1, b-e3), so the fixed
    space of both is spanned by W-orbit sums of those.  Only T is imposed by
    rank: T x1 = x1 - x2, T y2 = y1 + y2 and x2, y1 are fixed, so T has
    integer entries and its rank over GF(p) is its rank over GF(q).

    T is kron(tx, ty).  For p = 2 the columns are GF(2) bit columns built
    as Python ints and ranked by linalg's XOR basis, with no table
    (_gf2_bidegree_dimension).  For odd p both factors are slices of two
    tables that depend on p alone, built once per process and grown to the
    largest degree asked for (_binomial_tables): tx is a leading block of
    the signed binomials, ty one of the unsigned, with both axes reversed.
    The tables, T and T - I are in the narrowest signed integer type that
    holds 2(p-1)^2 + 1, the largest entry of an orbit-sum column: int8 for
    every p up to 7.  The columns of every orbit's representative and of
    every mate apart from it come from one product of the two factors; the
    identity is subtracted from all of them at once, each mate column is
    added into its representative's, and the representative columns are
    copied out compact for the rank.

    _full_group_dimension, which stacks g - I for every g in GL2(F_q) and
    takes the rank over GF(q), is the exhaustive cross-check of the above.
    """
    q, p = field.q, field.p
    if a < 0 or b < 0 or (a - b) % (q - 1):
        return 0
    if p == 2:
        return _gf2_bidegree_dimension(q, a, b)
    # imported on first use: importing numpy before the rest of the package
    # is compiled adds about 2 MB to the peak memory of every process that
    # imports modinvar
    import numpy as np

    from . import linalg

    # the monomial (e1, e3) is row e1*(b+1) + e3 of the block, and its swap
    # mate (a-e1, b-e3) is row size-1 minus that.  One column per swap
    # orbit of torus-fixed monomials, at the representative (e1, e3) <= its
    # mate, in block order.
    size = (a + 1) * (b + 1)
    e1, e3 = np.divmod(np.arange(size), b + 1)
    reps = np.flatnonzero(((e1 - e3) % (q - 1) == 0)
                          & ((2 * e1 < a) | ((2 * e1 == a) & (2 * e3 <= b))))
    mates = size - 1 - reps
    paired = np.flatnonzero(reps != mates)
    rows = np.concatenate((reps, mates[paired]))
    binom, signed = _binomial_tables(p, max(a, b))
    # tx[i, e1]: coefficient of x1^i x2^(a-i) in (x1 - x2)^e1 x2^(a-e1)
    tx = signed[:a + 1, :a + 1]
    # ty[f3, e3]: coefficient of y1^f3 y2^(b-f3) in y1^e3 (y1 + y2)^(b-e3)
    ty = binom[:b + 1, :b + 1][::-1, ::-1]
    cols = (tx[:, None, e1[rows]] * ty[None, :, e3[rows]]).reshape(size, -1)
    cols[rows, np.arange(rows.size)] -= 1
    cols[:, paired] += cols[:, reps.size:]
    # a compact copy frees the mate columns before the rank: on the largest
    # q=9 blocks they are as large again as the matrix it ranks
    cols = cols[:, :reps.size].copy()
    return reps.size - linalg.rank_modp(cols, p)


def _gf2_bidegree_dimension(q, a, b):
    """invariant_bidegree_dimension over GF(q), q a power of 2, on GF(2)
    bit columns: the same orbit representatives, mates and (T - I)
    columns, each column one Python int with row e1*(b+1) + e3 at that bit,
    ranked by the XOR basis of linalg.

    By Lucas' theorem C(n, i) is odd iff i & n == i: over GF(2),
    (1 + z)^n is the product of 1 + z^k over the bits k of n.  So the tx
    column of e1 is X(e1), the sum of 2^(i*(b+1)) over i & e1 == i, and the
    ty column of e3 is Y(e3), the sum of 2^f3 over (b-f3) & (b-e3) == b-f3.
    With k the lowest bit of e1, X(e1) is X(e1 - k) ORed with itself
    shifted up k*(b+1) bits; with k the lowest bit of b - e3, Y(e3) is
    Y(e3 + k) ORed with itself shifted down k bits.  Y(e3) is below
    2^(b+1), so the product X(e1)*Y(e3) has no carries and is their
    Kronecker product: the T column of (e1, e3)."""
    from . import linalg

    width = b + 1
    xcol = [1]
    for e1 in range(1, a + 1):
        rest = xcol[e1 & (e1 - 1)]
        xcol.append(rest | rest << ((e1 & -e1) * width))
    ydown = [1 << b]     # Y(b - m) at m
    for m in range(1, width):
        rest = ydown[m & (m - 1)]
        ydown.append(rest | rest >> (m & -m))

    # one column per swap orbit of torus-fixed monomials, at the
    # representative (e1, e3) <= its mate (a-e1, b-e3), plus the mate's
    cols = []
    for e1 in range(a // 2 + 1):
        x, xmate, row = xcol[e1], xcol[a - e1], e1 * width
        mate = (a - e1) * width + b
        for e3 in range(e1 % (q - 1), width, q - 1):
            col = (x * ydown[b - e3]) ^ (1 << (row + e3))
            if 2 * e1 == a and 2 * e3 >= b:
                if 2 * e3 == b:
                    cols.append(col)
                break
            cols.append(col ^ (xmate * ydown[e3]) ^ (1 << (mate - e3)))
    return len(cols) - len(linalg._xor_basis(cols, len(cols)))


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


def invariant_dimension(field, d, deadline=None):
    """dim of the degree-d GL2-invariants of F_q[x1,x2,y1,y2], summed over
    the (x-degree, y-degree) blocks.  Raises TimeoutExceeded when the
    deadline (a time.monotonic() reading) passes before a block."""
    total = 0
    for xd in range(d + 1):
        check_deadline(deadline)
        total += invariant_bidegree_dimension(field, xd, d - xd)
    return total
