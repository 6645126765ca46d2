"""The seven fundamental invariants, the h_s family, the abstract 7-variable
ring that surjects onto the invariant ring, and the free-module basis.

Everything lives in one cached per-field context so repeated CLI calls and
test cases share the (sometimes expensive) constructions: each context keeps
one memo, read through InvariantContext.memo.  It holds the generator
families, the relations, the basis list, and the value and pullback of every
basis element asked for, each built once; verify adds invariant
dimensions, the product certificates' data in the C-last ring, the
reference module fit's blocks with their factorizations, and the certificate
verifier's checks that pi sends the relations to 0 ("relations-vanish") and
each pullback to its basis value ("pullback-value"), each kept beside the
objects it compared, to the same memo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .action import R4_NAMES, involution_star
from .gf import ff_from_q
from .mpoly import CHUNK, MASK, PolyRing

S7_NAMES = ("C0", "C1", "C0s", "C1s", "Um1", "U0", "U1")
RELATION_NAMES = ("T1", "T1s", "T00", "T01", "T10")
# chunks 2 and 0 of an R4 key plus itself shifted down one chunk: the
# x-degree and the y-degree (InvariantContext.r4_bidegree)
_BIDEGREE_MASK = MASK << 2 * CHUNK | MASK

# the swap automorphism of the abstract ring, as a variable renaming
_S7_SWAP = {"C0": "C0s", "C1": "C1s", "C0s": "C0", "C1s": "C1",
            "Um1": "U1", "U1": "Um1"}


class GensError(Exception):
    pass


class IndexOutOfRange(GensError):
    pass


class UnknownName(GensError):
    pass


def s7_bidegrees(q):
    """(x-degree, y-degree) of each abstract variable's image."""
    return ((q * q - 1, 0), (q * q - q, 0), (0, q * q - 1), (0, q * q - q),
            (1, q), (1, 1), (q, 1))


def s7_weights(q):
    """Weighted degrees matching the images: deg c0 = q^2-1 and so on, each
    the x-degree plus the y-degree."""
    return tuple(a + b for a, b in s7_bidegrees(q))


def identity_indices(name, q):
    """The range of s for an indexed identity of the catalogue, None for an
    identity without an index: Rs takes 0..q-2, Ks and Kss 1..q-1, HsId
    0..q-1.  identity_poly checks s against it, the relations suite checks
    every s in it, and `show` defaults to its first."""
    if name == "Rs":
        return range(q - 1)
    if name in ("Ks", "Kss"):
        return range(1, q)
    if name == "HsId":
        return range(q)
    return None


@dataclass(frozen=True)
class BasisSpec:
    """One member of the free-module basis over F_q[c0,c1,c0*,c1*].

    kind "A": um1^i * u1^j * (d2s*d2)^t          0<=i,j<=q-1, 0<=t<=q-2
    kind "B": um1^i * u1^j * u0^k * (d2s*d2)^t   0<=i,j<=q-2, 1<=k<=q,
                                                 0<=t<=q-2
    kind "C": (h_s*d2s^s) * u0^k * (d2s*d2)^t    1<=s<=q-2, 0<=k<=q-1,
              and its swap-image twin            0<=t<=q-2-s

    The C ranges are pinned by the degreewise dimension count of the
    invariant ring: each (s,k,t) contributes the element and its swap image
    (h_(q-1-s)*d2^s)*u0^k*(d2s*d2)^t, and t is capped by q-2-s, which is
    the unique placement making the module series match the dimensions
    measured from the group action at q in {3,4,5}.
    """

    kind: str
    i: int = 0
    j: int = 0
    k: int = 0
    s: int = 0
    t: int = 0
    star: bool = False

    def label(self):
        """Canonical text form, also accepted by parse()."""
        if self.kind == "A":
            return "A:%d,%d,%d" % (self.i, self.j, self.t)
        if self.kind == "B":
            return "B:%d,%d,%d,%d" % (self.i, self.j, self.k, self.t)
        head = "Cs" if self.star else "C"
        return "%s:%d,%d,%d" % (head, self.s, self.k, self.t)

    @classmethod
    def parse(cls, text):
        """Inverse of label(): A:i,j,t  B:i,j,k,t  C:s,k,t  Cs:s,k,t."""
        head, sep, rest = text.partition(":")
        if not sep:
            raise IndexOutOfRange("basis spec needs kind:params, got %r"
                                  % (text,))
        try:
            nums = [int(v) for v in rest.split(",")]
        except ValueError:
            raise IndexOutOfRange("non-integer parameter in %r" % (text,))
        if head == "A" and len(nums) == 3:
            return cls("A", i=nums[0], j=nums[1], t=nums[2])
        if head == "B" and len(nums) == 4:
            return cls("B", i=nums[0], j=nums[1], k=nums[2], t=nums[3])
        if head in ("C", "Cs") and len(nums) == 3:
            return cls("C", s=nums[0], k=nums[1], t=nums[2],
                       star=head == "Cs")
        raise IndexOutOfRange("malformed basis spec %r" % (text,))

    def validate(self, q):
        if self.kind == "A":
            ok = 0 <= self.t <= q - 2 \
                and 0 <= self.i <= q - 1 and 0 <= self.j <= q - 1 \
                and self.k == 0 and self.s == 0 and not self.star
        elif self.kind == "B":
            ok = 0 <= self.t <= q - 2 \
                and 0 <= self.i <= q - 2 and 0 <= self.j <= q - 2 \
                and 1 <= self.k <= q and self.s == 0 and not self.star
        elif self.kind == "C":
            ok = 1 <= self.s <= q - 2 and 0 <= self.k <= q - 1 \
                and 0 <= self.t <= q - 2 - self.s \
                and self.i == 0 and self.j == 0
        else:
            raise IndexOutOfRange("unknown basis kind %r" % (self.kind,))
        if not ok:
            raise IndexOutOfRange("parameters %r out of range for q=%d"
                                  % (self, q))

    def degree(self, q):
        self.validate(q)
        if self.kind == "A":
            return (self.i + self.j) * (q + 1) + self.t * (2 * q + 2)
        if self.kind == "B":
            return (self.i + self.j) * (q + 1) + 2 * self.k \
                + self.t * (2 * q + 2)
        return (q * q - q) + self.s * (q + 1) + 2 * self.k \
            + self.t * (2 * q + 2)


class InvariantContext:
    """All named polynomials for one base field, built once and cached."""

    def __init__(self, field):
        self.field = field
        self.q = field.q
        self.R4 = PolyRing(field, R4_NAMES)
        self.S7 = PolyRing(field, S7_NAMES, weights=s7_weights(field.q))
        self.bidegrees = s7_bidegrees(field.q)
        self._memo = {}

    def memo(self, key, build):
        """The value stored under key; build() makes and stores it when there
        is none.  A build that raises stores nothing."""
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = build()
            return value

    # ---- scalar helpers -------------------------------------------------

    def binom(self, n, k):
        return self.field.elem(math.comb(n, k))

    def r4_bidegree(self, f):
        """(x-degree, y-degree) of a bihomogeneous element of the base ring.

        Read off the packed keys [wdeg | x1 | x2 | y1 | y2]: adding a key
        to itself shifted down one chunk puts x1 + x2 in chunk 2 and
        y1 + y2 in chunk 0, neither of which carries over its chunk.
        """
        if not f.terms:
            return None
        bds = {(k + (k >> CHUNK)) & _BIDEGREE_MASK for k in f.terms}
        if len(bds) > 1:
            raise GensError("polynomial is not bihomogeneous")
        bd = bds.pop()
        return bd >> 2 * CHUNK, bd & MASK

    def s7_bidegree(self, F):
        """(x-degree, y-degree) of a bihomogeneous 7-variable polynomial."""
        bd = None
        for k in F.terms:
            exps = F.ring.unpack(k)
            a = sum(e * bx for e, (bx, _) in zip(exps, self.bidegrees))
            b = sum(e * by for e, (_, by) in zip(exps, self.bidegrees))
            if bd is None:
                bd = (a, b)
            elif bd != (a, b):
                raise GensError("polynomial is not bihomogeneous")
        return bd

    # ---- the generators -------------------------------------------------

    def u(self, i):
        """u_i = x1^(q^i) y1 + x2^(q^i) y2 for i>=0, the y-twisted mirror
        for i<0."""
        return self.memo(("u", i), lambda: self._build_u(i))

    def _build_u(self, i):
        if not -3 <= i <= 3:
            raise IndexOutOfRange("u index %d outside [-3, 3]" % i)
        R, q = self.R4, self.q
        e = q ** abs(i)
        if i >= 0:
            return R.var("x1", e) * R.var("y1") + R.var("x2", e) * R.var("y2")
        return R.var("x1") * R.var("y1", e) + R.var("x2") * R.var("y2", e)

    def d(self, i):
        """Two-variable determinants d0, d1, d2 in x1, x2."""
        return self.memo(("d", i), lambda: self._build_d(i))

    def _build_d(self, i):
        if i not in (0, 1, 2):
            raise IndexOutOfRange("d index %d outside [0, 2]" % i)
        R, q = self.R4, self.q
        lo, hi = {0: (q, q * q), 1: (1, q * q), 2: (1, q)}[i]
        return R.var("x1", lo) * R.var("x2", hi) \
            - R.var("x1", hi) * R.var("x2", lo)

    def ds(self, i):
        return self.memo(("ds", i), lambda: involution_star(self.d(i)))

    def c(self, i):
        """c0 = d0/d2, c1 = d1/d2 (exact divisions)."""
        return self.memo(("c", i), lambda: self._build_c(i))

    def _build_c(self, i):
        if i not in (0, 1):
            raise IndexOutOfRange("c index %d outside [0, 1]" % i)
        f = self.d(i).divide_exact(self.d(2))
        # cross-check: d0/d2 must agree with d2^(q-1)
        if i == 0 and f != self.d(2) ** (self.q - 1):
            raise GensError("c0 disagrees with d2^(q-1)")
        return f

    def cs(self, i):
        return self.memo(("cs", i), lambda: involution_star(self.c(i)))

    def h_numerator(self, s):
        """u1^(s+1) d2s^(q-1-s) + um1^(q-s) d2^s, divisible by u0^q."""
        q = self.q
        if not 0 <= s <= q - 1:
            raise IndexOutOfRange("h index %d outside [0, %d]" % (s, q - 1))
        return self.u(1) ** (s + 1) * self.ds(2) ** (q - 1 - s) \
            + self.u(-1) ** (q - s) * self.d(2) ** s

    def h(self, s):
        return self.memo(("h", s), lambda: self.h_numerator(s).divide_exact(
            self.u(0) ** self.q))

    def generators(self):
        """The seven generators keyed by display name."""
        return {
            "c0": self.c(0), "c1": self.c(1),
            "c0s": self.cs(0), "c1s": self.cs(1),
            "um1": self.u(-1), "u0": self.u(0), "u1": self.u(1),
        }

    # ---- the abstract side ----------------------------------------------

    def pi_images(self):
        gen = self.generators()
        order = ("c0", "c1", "c0s", "c1s", "um1", "u0", "u1")
        return {s7: gen[name] for s7, name in zip(S7_NAMES, order)}

    def pi(self, F):
        """Evaluation of an abstract 7-variable polynomial at the gens."""
        return F.substitute(self.pi_images(), ring=self.R4)

    def S7var(self, name, power=1):
        return self.S7.var(name, power)

    def w_poly(self):
        """W = Um1*U1 - U0^(q+1), the abstract form of d2*d2s."""
        return self.memo("W", lambda: self.S7var("Um1") * self.S7var("U1")
                         - self.S7var("U0") ** (self.q + 1))

    def _tail_sum_s7(self, lo):
        """sum_{i=lo}^{q-1} (-1)^i binom(q-1,i) (Um1*U1)^(q-1-i)
        U0^((q+1)(i-1))."""
        q, S = self.q, self.S7
        P = S.zero
        mm = self.S7var("Um1") * self.S7var("U1")
        u0 = self.S7var("U0")
        for i in range(lo, q):
            coef = self.binom(q - 1, i)
            if i % 2:
                coef = -coef
            P = P + mm ** (q - 1 - i) * u0 ** ((q + 1) * (i - 1)) * coef
        return P

    def relation_tail_s7(self):
        """The full tail sum (from i=1) appearing in the two mixed
        relations."""
        return self.memo("tail1", lambda: self._tail_sum_s7(1))

    def delta_sum_s7(self):
        """The correction term delta: the tail sum from i=2, equal after
        expansion to the double sum over powers of W."""
        return self.memo("Delta", self._build_delta_sum_s7)

    def _build_delta_sum_s7(self):
        q, S = self.q, self.S7
        P = self._tail_sum_s7(2)
        # expansion cross-check against the W-form double sum
        alt = S.zero
        mm = self.S7var("Um1") * self.S7var("U1")
        W = self.w_poly()
        for i in range(2, q):
            for j in range(i):
                coef = self.binom(q - 1, i) * self.binom(i - 1, j)
                if (i + j) % 2:
                    coef = -coef
                alt = alt + mm ** (q - 2 - j) * W ** j * coef
        if P != alt:
            raise GensError("the two tail-sum expansions disagree")
        # the i=1 term peels off as (Um1*U1)^(q-2), so the full tail is
        # delta plus that monomial
        if self.relation_tail_s7() != P + mm ** (q - 2):
            raise GensError("tail sum split is inconsistent")
        return P

    def delta_r4(self):
        """The tail sum evaluated in the base ring, pinned to the exact
        division oracle (c1 c0s - c1s u1^(q-1) - um1^(q-1) u0 u1^(q-2)) /
        (um1 u0)."""
        return self.memo("delta", self._build_delta_r4)

    def _build_delta_r4(self):
        q = self.q
        f = self.pi(self.delta_sum_s7())
        num = self.c(1) * self.cs(0) - self.cs(1) * self.u(1) ** (q - 1) \
            - self.u(-1) ** (q - 1) * self.u(0) * self.u(1) ** (q - 2)
        oracle = num.divide_exact(self.u(-1) * self.u(0))
        if f != oracle:
            raise GensError("tail sum disagrees with its division oracle")
        return f

    def ks_sum(self, s):
        """sum_{i=1}^{s} (-1)^i binom(s,i) (um1*u1)^(s-i) (u0^(q+1))^(i-1)."""
        R, q = self.R4, self.q
        P = R.zero
        mm = self.u(-1) * self.u(1)
        u0 = self.u(0)
        for i in range(1, s + 1):
            coef = self.binom(s, i)
            if i % 2:
                coef = -coef
            P = P + mm ** (s - i) * u0 ** ((q + 1) * (i - 1)) * coef
        return P

    def relation(self, name):
        """Abstract ideal generators T1, T1s, T00, T01, T10."""
        return self.memo(("rel", name), lambda: self._build_relation(name))

    def _build_relation(self, name):
        q = self.q
        V = self.S7var
        if name == "T1":
            F = V("C0") * V("Um1") - V("C1") * V("U0") ** q + V("U1") ** q
        elif name == "T1s":
            F = V("C0s") * V("U1") - V("C1s") * V("U0") ** q \
                + V("Um1") ** q
        elif name == "T00":
            F = V("C0") * V("C0s") - self.w_poly() ** (q - 1)
        elif name == "T10":
            F = V("C1") * V("C0s") - V("C1s") * V("U1") ** (q - 1) \
                - V("Um1") * V("U0") * self.relation_tail_s7()
        elif name == "T01":
            F = V("C0") * V("C1s") - V("C1") * V("Um1") ** (q - 1) \
                - V("U0") * V("U1") * self.relation_tail_s7()
        else:
            raise UnknownName("no abstract relation named %r" % (name,))
        return F

    def ideal_generators(self):
        """The five defining relations, fixed order."""
        return [self.relation(n) for n in RELATION_NAMES]

    # ---- identity polynomials (must expand to zero) ----------------------

    def identity_poly(self, name, s=None):
        """Base-ring difference for each named relation; zero iff it holds.
        An indexed identity takes s in identity_indices(name, q)."""
        q = self.q
        indices = identity_indices(name, q)
        if indices is not None and s not in indices:
            raise IndexOutOfRange("%s needs %d <= s <= %d, got %r"
                                  % (name, indices[0], indices[-1], s))
        u, d, ds, c, cs, h = self.u, self.d, self.ds, self.c, self.cs, self.h
        if name == "T0":
            return c(0) * u(0) - c(1) * u(1) + u(2)
        if name == "T1":
            return c(0) * u(-1) - c(1) * u(0) ** q + u(1) ** q
        if name == "T1s":
            return cs(0) * u(1) - cs(1) * u(0) ** q + u(-1) ** q
        if name == "K00":
            return d(2) * ds(2) - (u(-1) * u(1) - u(0) ** (q + 1))
        if name == "T00":
            return c(0) * cs(0) - (u(-1) * u(1) - u(0) ** (q + 1)) ** (q - 1)
        if name == "T10":
            return c(1) * cs(0) - cs(1) * u(1) ** (q - 1) \
                - u(-1) * u(0) * self.pi(self.relation_tail_s7())
        if name == "T01":
            return c(0) * cs(1) - c(1) * u(-1) ** (q - 1) \
                - u(0) * u(1) * self.pi(self.relation_tail_s7())
        if name == "delta":
            return u(-1) ** (q - 1) * u(0) * u(1) ** (q - 2) \
                - (c(1) * cs(0) - cs(1) * u(1) ** (q - 1)
                   - u(-1) * u(0) * self.delta_r4())
        if name == "Rs":
            return h(s) * u(1) - u(0) * u(-1) ** (q - 1 - s) * d(2) ** s \
                - ds(2) * h(s + 1)
        if name == "Ks":
            return h(s) * ds(2) ** s - cs(1) * u(1) ** s \
                - u(-1) ** (q - s) * u(0) * self.ks_sum(s)
        if name == "Kss":
            return h(q - 1 - s) * d(2) ** s - c(1) * u(-1) ** s \
                - u(0) * u(1) ** (q - s) * self.ks_sum(s)
        if name == "HsId":
            return u(0) ** q * h(s) * ds(2) ** s - cs(0) * u(1) ** (s + 1) \
                - u(-1) ** (q - s) * (d(2) * ds(2)) ** s
        raise UnknownName("no identity named %r" % (name,))

    # ---- free-module basis ----------------------------------------------

    def basis_value(self, spec):
        """The basis element as an explicit invariant polynomial, built once
        per spec and kept in the memo."""
        return self.memo(("value", spec), lambda: self._build_value(spec))

    def _build_value(self, spec):
        spec.validate(self.q)
        q = self.q
        dd = self.ds(2) * self.d(2)
        if spec.kind == "A":
            return self.u(-1) ** spec.i * self.u(1) ** spec.j * dd ** spec.t
        if spec.kind == "B":
            return self.u(-1) ** spec.i * self.u(1) ** spec.j \
                * self.u(0) ** spec.k * dd ** spec.t
        if spec.star:
            core = self.h(q - 1 - spec.s) * self.d(2) ** spec.s
        else:
            core = self.h(spec.s) * self.ds(2) ** spec.s
        return core * self.u(0) ** spec.k * dd ** spec.t

    def s7_star(self, F):
        """The swap automorphism on the abstract ring: C0<->C0s, C1<->C1s,
        Um1<->U1, U0 fixed.  Commutes with the evaluation map and the
        variable-reversing swap on the concrete ring."""
        return F.remap(self.S7, _S7_SWAP)

    def x_pullback(self, i, j, t):
        """Abstract preimage of um1^i u1^j (d2s d2)^t, built once per
        (i, j, t) and kept in the memo."""
        return self.memo(("x_pullback", i, j, t), lambda: (
            self.S7var("Um1") ** i * self.S7var("U1") ** j
            * self.w_poly() ** t))

    def z_pullback(self, s, k, t):
        """Abstract preimage of (h_s d2s^s) u0^k (d2s d2)^t, read off the
        expansion of h_s d2s^s over the seven generators."""
        q = self.q
        F = self.S7var("C1s") * self.S7var("U0") ** k * self.x_pullback(0, s, t)
        u0 = self.S7var("U0")
        for i in range(1, s + 1):
            coef = self.binom(s, i)
            if i % 2:
                coef = -coef
            F = F + u0 ** ((q + 1) * (i - 1) + k + 1) \
                * self.x_pullback(q - i, s - i, t) * coef
        return F

    def basis_pullback(self, spec):
        """A 7-variable polynomial mapping onto the basis element, built once
        per spec and kept in the memo."""
        return self.memo(("pullback", spec),
                         lambda: self._build_pullback(spec))

    def _build_pullback(self, spec):
        spec.validate(self.q)
        if spec.kind == "A":
            return self.x_pullback(spec.i, spec.j, spec.t)
        if spec.kind == "B":
            return self.S7var("U0") ** spec.k \
                * self.x_pullback(spec.i, spec.j, spec.t)
        F = self.z_pullback(spec.s, spec.k, spec.t)
        return self.s7_star(F) if spec.star else F

    def enumerate_basis(self):
        """All basis members, family A then B then C, lexicographic: a
        tuple, built once and kept in the memo."""
        return self.memo("basis", self._build_basis)

    def _build_basis(self):
        q = self.q
        out = []
        for i in range(q):
            for j in range(q):
                for t in range(q - 1):
                    out.append(BasisSpec("A", i=i, j=j, t=t))
        for i in range(q - 1):
            for j in range(q - 1):
                for k in range(1, q + 1):
                    for t in range(q - 1):
                        out.append(BasisSpec("B", i=i, j=j, k=k, t=t))
        for s in range(1, q - 1):
            for k in range(q):
                for t in range(q - 1 - s):
                    out.append(BasisSpec("C", s=s, k=k, t=t))
                    out.append(BasisSpec("C", s=s, k=k, t=t, star=True))
        return tuple(out)

    def census(self):
        """Family sizes; the total must equal the group order."""
        q = self.q
        a = q * q * (q - 1)
        b = q * (q - 1) ** 3
        c = q * (q - 1) * (q - 2)
        return {"A": a, "B": b, "C": c, "total": a + b + c,
                "group_order": (q * q - 1) * (q * q - q)}


_CONTEXTS = {}


def context(field):
    key = (field.p, field.s, field.modulus)
    ctx = _CONTEXTS.get(key)
    if ctx is None:
        ctx = _CONTEXTS[key] = InvariantContext(field)
    return ctx


def context_for_q(q, modulus=None):
    return context(ff_from_q(q, modulus))
