"""Term-dict kernels: the inner loops of polynomial arithmetic and reduction.

Polynomial terms are dict[packed_monomial_int, coeff_index_int]; packed keys
add under monomial multiplication (16-bit chunks, wdeg chunk on top).
Coefficients are field indices and every kernel does its arithmetic through
the field's flat add/mul/neg tables, prime fields included; `field` is the
`gf.FieldParams` of the ring.  One product loop serves every product:
iadd_mul accumulates c * A * B into a term dict in place, so a sum of
products (a certificate identity, a cofactor fold) builds no dict per
partial product or partial sum, and mul_terms is iadd_mul into a fresh
dict.  A kernel that needs the term order takes the ring's order key
`okey` (see `mpoly.PolyRing`), never the name of the order.
Every order key is affine in the packed key, okey(a + b) == okey(a) +
okey(b) - okey(0), so reduction works on the combined keys
E(k) = okey(k) << W | k of a MonicBasis: a heap of plain ints, and one
addition per product term.
"""

import heapq

BACKEND = "python"

CHUNK = 16
MASK = 0xFFFF


def iadd_mul(acc, A, B, c, field):
    """acc += c * A * B, in place, for term dicts A and B and a coefficient
    index c; returns acc.  Each product term is one addition of keys and
    one table lookup into acc, with no dict for the product."""
    if not A or not B or not c:
        return acc
    if len(B) < len(A):
        A, B = B, A
    q, mul_flat, add_flat = field.q, field.mul_flat, field.add_flat
    cq = c * q
    for ka, ca in A.items():
        caq = mul_flat[cq + ca] * q
        for kb, cb in B.items():
            k = ka + kb
            v = add_flat[acc.get(k, 0) * q + mul_flat[caq + cb]]
            if v:
                acc[k] = v
            elif k in acc:
                del acc[k]
    return acc


def mul_terms(A, B, field):
    """Term-merge product of two term dicts."""
    return iadd_mul({}, A, B, 1, field)


def add_terms(A, B, field, subtract):
    """A + B (or A - B) as a fresh dict."""
    q, add_flat, neg_flat = field.q, field.add_flat, field.neg_flat
    out = dict(A)
    for k, cb in B.items():
        if subtract:
            cb = neg_flat[cb]
        v = add_flat[out.get(k, 0) * q + cb]
        if v:
            out[k] = v
        elif k in out:
            del out[k]
    return out


def scale_terms(A, c, kshift, field):
    """c * monomial(kshift) * A as a fresh dict; c must be nonzero."""
    mul_flat = field.mul_flat
    cq = c * field.q
    return {k + kshift: mul_flat[cq + v] for k, v in A.items()}


def iadd_scaled(acc, A, c, kshift, field):
    """acc += c * monomial(kshift) * A, in place; c nonzero."""
    q, mul_flat, add_flat = field.q, field.mul_flat, field.add_flat
    cq = c * q
    for k, v in A.items():
        kk = k + kshift
        w = add_flat[acc.get(kk, 0) * q + mul_flat[cq + v]]
        if w:
            acc[kk] = w
        elif kk in acc:
            del acc[kk]


def neg_terms(A, field):
    neg_flat = field.neg_flat
    return {k: neg_flat[v] for k, v in A.items()}


class DivisorIndex:
    """Leading keys of a basis that only grows, indexed by exponent support.

    A key's support, one add-and-mask, has the guard bit of every nonzero
    exponent chunk set.  A leading key can divide k only when its support
    lies inside k's, so for each support met so far the index keeps the
    ascending basis indices with such a leading support (Bachmann and
    Schoenemann, ISSAC 1998).  add() appends the new index to every list
    whose support holds the new key's, so a lookup is one dict get.  The
    first divisor it finds is the first one in basis order.
    """

    __slots__ = ("keys", "supports", "by_support", "guard", "lexmask",
                 "fill", "lexguard")

    def __init__(self, n):
        self.keys = []
        self.supports = []
        self.by_support = {}
        self.lexmask = (1 << (CHUNK * n)) - 1
        self.fill = self.lexguard = 0
        for i in range(n):
            self.fill |= 0x7FFF << (CHUNK * i)
            self.lexguard |= 0x8000 << (CHUNK * i)
        self.guard = self.lexguard | (0x8000 << (CHUNK * n))

    def support(self, k):
        return ((k & self.lexmask) + self.fill) & self.lexguard

    def add(self, k):
        """Append the leading key of the next basis element."""
        i = len(self.keys)
        s = self.support(k)
        self.keys.append(k)
        self.supports.append(s)
        for t, got in self.by_support.items():
            if s | t == t:
                got.append(i)

    def first_divisor(self, k):
        """Index of the first leading key dividing k, or -1."""
        # self.support(k), inlined: this runs for every reduced term
        s = ((k & self.lexmask) + self.fill) & self.lexguard
        got = self.by_support.get(s)
        if got is None:
            got = self.by_support[s] = [
                i for i, t in enumerate(self.supports) if t | s == s]
        guard, keys = self.guard, self.keys
        kg = k | guard
        for i in got:
            if (kg - keys[i]) & guard == guard:
                return i
        return -1


class MonicBasis:
    """A monic basis as the reduction kernel reads it.

    Element i is the leading key keys[i], coefficient 1, plus the term dict
    tails[i], whose terms all lie below it.  Every ring's order key is
    affine in the packed key, okey(a + b) == okey(a) + okey(b) - okey(0),
    so the combined key E(k) = okey(k) << W | k, W = CHUNK * (n + 1) the
    width of a packed key, is too: E(a + b) == E(a) + E(b) - E(0), and
    combined keys compare as the monomials do.  Beside each plain tail the
    basis keeps the combined tail {E(k): c} and the combined leading key
    E(keys[i]); both are built by add() and rebuilt by set_tail().
    """

    __slots__ = ("index", "keys", "tails", "ekeys", "etails", "okey",
                 "width", "ezero")

    def __init__(self, n, okey, elements=()):
        self.index = DivisorIndex(n)
        self.keys = self.index.keys
        self.tails = []
        self.ekeys = []
        self.etails = []
        self.okey = okey
        self.width = CHUNK * (n + 1)
        self.ezero = self.ekey(0)
        for lt, tail in elements:
            self.add(lt, tail)

    def ekey(self, k):
        """The combined key E(k) of packed key k."""
        return self.okey(k) << self.width | k

    def combined(self, terms):
        """The term dict with every key k replaced by E(k)."""
        okey, width = self.okey, self.width
        return {okey(k) << width | k: c for k, c in terms.items()}

    def add(self, lt, tail):
        """Append the element lt + tail."""
        self.index.add(lt)
        self.tails.append(tail)
        self.ekeys.append(self.ekey(lt))
        self.etails.append(self.combined(tail))

    def set_tail(self, i, tail):
        """Replace the tail of element i, which keeps its leading key."""
        self.tails[i] = tail
        self.etails[i] = self.combined(tail)


def spair_terms(basis, i, j, si, sj, field):
    """Combined terms of si * basis[i] - sj * basis[j], where the monomials
    si and sj (packed keys) make the two leading terms cancel."""
    q, add_flat, neg_flat = field.q, field.add_flat, field.neg_flat
    shi = basis.ekey(si) - basis.ezero
    shj = basis.ekey(sj) - basis.ezero
    out = {e + shi: c for e, c in basis.etails[i].items()}
    for e, c in basis.etails[j].items():
        e += shj
        out[e] = add_flat[out.get(e, 0) * q + neg_flat[c]]
    return out


def normal_form_terms(f, basis, field, track):
    """Complete reduction of f by a MonicBasis.

    f is a term dict, or an S-pair (i, j, si, sj) taken as
    spair_terms(basis, i, j, si, sj).  Terms are held under their combined
    keys in a heap of plain ints and taken highest first, each reduced by
    the first basis element whose leading term divides it: if E is the
    term's combined key and E_i the leading one's, a tail term E_t becomes
    E_t + (E - E_i), one addition and one dict lookup.
    Returns (remainder_dict, cofactors) where cofactors[i] is a term dict with
    f = sum_i cofactors[i] * basis[i] + remainder (None unless track).
    """
    q, mul_flat, add_flat, neg_flat = field.q, field.mul_flat, \
        field.add_flat, field.neg_flat
    keys, ekeys, etails = basis.keys, basis.ekeys, basis.etails
    first_divisor = basis.index.first_divisor
    kmask = (1 << basis.width) - 1
    heappop, heappush = heapq.heappop, heapq.heappush
    if type(f) is tuple:
        pending = spair_terms(basis, *f, field)
    else:
        pending = basis.combined(f)
    heap = [-e for e in pending]
    heapq.heapify(heap)
    remainder = {}
    cof = [None] * len(keys) if track else None
    while heap:
        # each combined key enters the heap once: every term a step adds
        # lies below the term it reduces
        e = -heappop(heap)
        c = pending.pop(e)
        if not c:
            continue
        k = e & kmask
        hit = first_divisor(k)
        if hit < 0:
            remainder[k] = c
            continue
        if track:
            d = cof[hit]
            if d is None:
                d = cof[hit] = {}
            # leading monomials strictly decrease, so the quotient is fresh
            d[k - keys[hit]] = c
        shift = e - ekeys[hit]
        cq = neg_flat[c] * q
        for et, ct in etails[hit].items():
            et += shift
            v = pending.get(et)
            if v is None:
                pending[et] = mul_flat[cq + ct]
                heappush(heap, -et)
            else:
                pending[et] = add_flat[v * q + mul_flat[cq + ct]]
    return remainder, cof
