"""Term-dict kernels: the inner loops of polynomial arithmetic and reduction.

Polynomial terms are dict[packed_monomial_int, coeff_index_int]; packed keys
add under monomial multiplication (16-bit chunks, wdeg chunk on top).
Coefficients are field indices and every kernel does its arithmetic through
the field's flat add/mul/neg tables, prime fields included; `field` is the
`gf.FieldParams` of the ring.
"""

import heapq

BACKEND = "python"

CHUNK = 16
MASK = 0xFFFF


def mul_terms(A, B, field):
    """Term-merge product of two term dicts."""
    if not A or not B:
        return {}
    if len(B) < len(A):
        A, B = B, A
    q, mul_flat, add_flat = field.q, field.mul_flat, field.add_flat
    out = {}
    for ka, ca in A.items():
        cq = ca * q
        for kb, cb in B.items():
            k = ka + kb
            c = mul_flat[cq + cb]
            prev = out.get(k, 0)
            v = add_flat[prev * q + c]
            if v:
                out[k] = v
            elif k in out:
                del out[k]
    return out


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


def grevlex_okey(k, n):
    """Order key whose integer comparison realizes weighted grevlex.

    Ties on wdeg break by the complemented exponents of the LAST variable
    first, so that chunk sits highest below the degree chunk.
    """
    o = 0
    shift = CHUNK * (n - 1)
    rest = k >> (CHUNK * n)  # wdeg chunk
    for _ in range(n):
        o |= (MASK - (k & MASK)) << shift  # e_{n-1} lands highest
        k >>= CHUNK
        shift -= CHUNK
    return (rest << (CHUNK * n)) | o


def leading_key(terms, n, order_code):
    """Packed key of the leading monomial; order_code 0=grlex 1=grevlex 2=lex."""
    if order_code == 0:
        return max(terms)
    if order_code == 2:
        lexmask = (1 << (CHUNK * n)) - 1
        best = None
        bestk = -1
        for k in terms:
            kk = k & lexmask
            if kk > bestk:
                bestk = kk
                best = k
        return best
    best = None
    besto = -1
    for k in terms:
        o = grevlex_okey(k, n)
        if o > besto:
            besto = o
            best = k
    return best


class DivisorIndex:
    """Leading keys of a basis that only grows, indexed by exponent support.

    A key's support, one add-and-mask, has the guard bit of every nonzero
    exponent chunk set.  A leading key can divide k only when its support
    lies inside k's, so for each support met so far the index keeps the
    ascending basis indices with such a leading support (Bachmann and
    Schoenemann, ISSAC 1998), and extends the list when the basis has grown.
    The first divisor it finds is the first one in basis order.
    """

    __slots__ = ("n", "keys", "supports", "by_support", "guard", "lexmask",
                 "fill", "lexguard")

    def __init__(self, n, keys=()):
        self.n = n
        self.keys = []
        self.supports = []
        self.by_support = {}
        self.lexmask = (1 << (CHUNK * n)) - 1
        self.fill = self.lexguard = 0
        for i in range(n):
            self.fill |= 0x7FFF << (CHUNK * i)
            self.lexguard |= 0x8000 << (CHUNK * i)
        self.guard = self.lexguard | (0x8000 << (CHUNK * n))
        for k in keys:
            self.add(k)

    def support(self, k):
        return ((k & self.lexmask) + self.fill) & self.lexguard

    def add(self, k):
        """Append the leading key of the next basis element."""
        self.keys.append(k)
        self.supports.append(self.support(k))

    def candidates(self, s):
        """Ascending indices of the leading keys whose support lies in s."""
        nb = len(self.keys)
        entry = self.by_support.get(s)
        if entry is None:
            start, got = 0, []
        else:
            start, got = entry
            if start == nb:
                return got
        sups = self.supports
        got.extend(i for i in range(start, nb) if sups[i] | s == s)
        self.by_support[s] = (nb, got)
        return got

    def first_divisor(self, k):
        """Index of the first leading key dividing k, or -1."""
        guard, keys = self.guard, self.keys
        kg = k | guard
        # self.support(k), inlined: this runs for every reduced term
        for i in self.candidates(((k & self.lexmask) + self.fill)
                                 & self.lexguard):
            if (kg - keys[i]) & guard == guard:
                return i
        return -1


def normal_form_terms(f, index, tails, order_code, field, track):
    """Complete reduction of f by a monic basis given as (index, tails).

    index is the basis's DivisorIndex; tails[i] holds basis[i] minus its
    leading term index.keys[i] (leading coefficient 1).  Each term is
    reduced by the first basis element whose leading term divides it.
    Returns (remainder_dict, cofactors) where cofactors[i] is a term dict with
    f = sum_i cofactors[i] * basis[i] + remainder (None unless track).
    """
    q, mul_flat, add_flat, neg_flat = field.q, field.mul_flat, \
        field.add_flat, field.neg_flat
    n, lt_keys, first_divisor = index.n, index.keys, index.first_divisor
    nb = len(lt_keys)
    pending = dict(f)
    if order_code == 0:
        heap = [-k for k in pending]
    elif order_code == 1:
        heap = [(-grevlex_okey(k, n), k) for k in pending]
    else:
        lexmask = index.lexmask
        heap = [(-(k & lexmask), k) for k in pending]
    heapq.heapify(heap)
    remainder = {}
    cof = [None] * nb if track else None
    while heap:
        if order_code == 0:
            k = -heapq.heappop(heap)
        else:
            k = heapq.heappop(heap)[1]
        if k not in pending:
            continue
        c = pending.pop(k)
        if not c:
            continue
        hit = first_divisor(k)
        if hit < 0:
            remainder[k] = c
            continue
        kq = k - lt_keys[hit]
        if track:
            d = cof[hit]
            if d is None:
                d = cof[hit] = {}
            d[kq] = c  # leading monomials strictly decrease, so kq is fresh
        tail = tails[hit]
        if not tail:
            continue
        cq = neg_flat[c] * q
        for kt, ct in tail.items():
            kk = kt + kq
            fresh = kk not in pending
            v = add_flat[pending.get(kk, 0) * q + mul_flat[cq + ct]]
            pending[kk] = v
            if fresh:
                if order_code == 0:
                    heapq.heappush(heap, -kk)
                elif order_code == 1:
                    heapq.heappush(heap, (-grevlex_okey(kk, n), kk))
                else:
                    heapq.heappush(heap, (-(kk & lexmask), kk))
    return remainder, cof
