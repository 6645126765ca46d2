"""Buchberger's algorithm over the packed-monomial rings.

Supports degree-truncated runs (sound for weighted-homogeneous inputs: the
truncated basis decides membership in every weighted degree up to the bound)
and representation tracking, where each basis element carries its expression
as a combination of the original generators.
"""

from __future__ import annotations

import heapq
import time

from . import _kernels as K
from .mpoly import EXP_CAP, ExponentOverflow, Polynomial, RingMismatch, \
    iadd_product


class GroebnerError(Exception):
    pass


class InhomogeneousWithTruncation(GroebnerError):
    pass


class DegreeBoundExceeded(GroebnerError):
    pass


class TimeoutExceeded(GroebnerError):
    pass


class GroebnerBasis:
    """Monic, inter-reduced truncated basis, in increasing leading-term order.

    reps[k], present when tracked, is a list of cofactor polynomials with
    basis[k] == sum_t reps[k][t] * inputs[t].  monic is the basis as the
    reduction kernel reads it (a `_kernels.MonicBasis`), index its divisor
    index and lt_keys the leading keys; every normal form modulo the basis
    reuses them.
    """

    __slots__ = ("ring", "basis", "monic", "index", "lt_keys", "reps",
                 "bound", "inputs", "pairs_processed")

    def __init__(self, ring, basis, monic, reps, bound, inputs,
                 pairs_processed):
        self.ring = ring
        self.basis = basis
        self.monic = monic
        self.index = monic.index
        self.lt_keys = monic.keys
        self.reps = reps
        self.bound = bound
        self.inputs = inputs
        self.pairs_processed = pairs_processed

    def __len__(self):
        return len(self.basis)


def check_deadline(deadline):
    if deadline is not None and time.monotonic() > deadline:
        raise TimeoutExceeded("computation exceeded its time budget")


class _CriticalPairs:
    """Pending S-pairs, updated by the Gebauer-Moeller criteria whenever an
    element is added (Gebauer and Moeller, JSC 6, 1988).

    Leading exponents are re-packed into chunks wide enough that one product
    with the packed weights leaves the weighted degree in a middle chunk.  A
    pair's lcm is then a chunkwise max, its weight one multiplication, "m
    divides L" the guard test ((L | guard) - m) & guard == guard, and two
    leading terms are coprime when their support masks share no bit.
    Pending pairs map (i, j), i < j, to their packed lcm; they are popped in
    (weight, i, j) order from a heap, and a pair a criterion has dropped
    since it was pushed is skipped.  Only pushed pairs are weighed, unless
    a degree bound needs every weight.
    """

    def __init__(self, ring, bound, deadline):
        n = ring.n
        # room below each guard bit for any weighted partial sum
        width = (n * EXP_CAP * max(ring.weights)).bit_length() + 1
        self.width = width
        self.guard = sum(1 << (width * v + width - 1) for v in range(n))
        self.fill = self.guard - sum(1 << (width * v) for v in range(n))
        self.weigher = sum(w << (width * v)
                           for v, w in enumerate(ring.weights))
        self.wshift = width * (n - 1)
        self.wmask = (1 << width) - 1
        self.ring = ring
        self.bound = bound
        self.deadline = deadline
        self.lts = []
        self.supports = []
        self.pending = {}
        self.heap = []
        # every pair (i < j) within the bound, over all elements ever added,
        # counted when created, so also when a criterion drops it
        self.created = 0

    def add(self, key):
        """Update the pairs for a new element with leading key `key`."""
        check_deadline(self.deadline)
        width, guard, weigher = self.width, self.guard, self.weigher
        wshift, wmask, bound = self.wshift, self.wmask, self.bound
        lts, sups = self.lts, self.supports
        t = len(lts)
        b = 0
        for e in self.ring.unpack(key):
            b = (b << width) | e
        st = (b + self.fill) & guard
        top = width - 1

        def lcm(a):
            # chunkwise max: g flags the chunks where a >= b, and
            # g - (g >> top) masks their exponent bits
            g = ((a | guard) - b) & guard
            return b ^ ((a ^ b) & (g - (g >> top)))

        # one int per new pair (i, t), sorting as (lcm, shares support, i):
        # a proper divisor of an lcm packs to a smaller int, and coprime
        # pairs come first among equal lcms
        ib = t.bit_length()
        sh = ib + 1
        cands = [lcm(a) << sh | (s & st != 0) << ib | i
                 for i, a, s in zip(range(t), lts, sups)]
        if bound is not None:
            cands = [c for c in cands
                     if ((c >> sh) * weigher >> wshift) & wmask <= bound]
        cands.sort()
        self.created += len(cands)
        check_deadline(self.deadline)
        # criterion B: drop an old pair whose lcm the new leading term
        # divides unless the lcm is that of the new term with either side
        pending = self.pending
        dropped = [ij for ij, L in pending.items()
                   if ((L | guard) - b) & guard == guard
                   and L != lcm(lts[ij[0]]) and L != lcm(lts[ij[1]])]
        for ij in dropped:
            del pending[ij]
        lts.append(b)
        sups.append(st)
        # criteria M and F: keep the first pair of each lcm that no kept
        # lcm divides; every divisor of an lcm comes before it, so each is
        # tested against what was kept.  A kept coprime pair (product
        # criterion) is not pushed, but still takes out pairs above it.
        check_deadline(self.deadline)
        kept = []
        heap = self.heap
        imask = (1 << ib) - 1
        prev = -1
        for c in cands:
            L = c >> sh
            if L == prev:
                continue
            prev = L
            Lg = L | guard
            for other in kept:
                if (Lg - other) & guard == guard:
                    break
            else:
                kept.append(L)
                if c >> ib & 1:
                    i = c & imask
                    pending[i, t] = L
                    heapq.heappush(heap, ((L * weigher >> wshift) & wmask,
                                          i, t))

    def pop(self):
        """The next pending pair (i, j), or None when none is left."""
        heap, pending = self.heap, self.pending
        while heap:
            _, i, j = heapq.heappop(heap)
            if pending.pop((i, j), None) is not None:
                return i, j
        return None


def buchberger(gens, bound=None, track=False, deadline=None):
    """Truncated Groebner basis of the ideal generated by gens.

    With bound set, every generator must be homogeneous for the ring's
    weights, and only S-pairs of lcm weight <= bound are processed.
    """
    inputs = [g for g in gens]
    if not inputs:
        raise GroebnerError("no generators")
    ring = inputs[0].ring
    for g in inputs:
        if g.ring != ring:
            raise RingMismatch("generators from different rings")
        if bound is not None and g and not g.is_homogeneous():
            raise InhomogeneousWithTruncation(
                "degree truncation needs weighted-homogeneous generators")
    fld = ring.field
    minus = fld.neg_flat[1]

    basis = []
    monic = K.MonicBasis(ring.n, ring.okey)
    lt_keys = monic.keys
    reps = [] if track else None
    zero = ring.zero
    pairs = _CriticalPairs(ring, bound, deadline)

    def nf(f):
        return K.normal_form_terms(f, monic, fld, track)

    def add_element(f, rep):
        lc = f.leading_coeff()
        if lc.i != 1:
            inv = lc.inverse()
            f = f * inv
            if track:
                rep = [r * inv for r in rep]
        basis.append(f)
        k = f.leading_key()
        t = dict(f.terms)
        del t[k]
        monic.add(k, t)
        if track:
            reps.append(rep)
        pairs.add(k)

    def unit_rep(t):
        return [ring.one if i == t else zero for i in range(len(inputs))]

    # seed with the reduced nonzero inputs
    for t, g in enumerate(inputs):
        if not g:
            continue
        r_terms, cof = nf(g.terms)
        if not r_terms:
            continue
        rep = _fold(unit_rep(t), cof, reps, minus) if track else None
        add_element(Polynomial(ring, r_terms), rep)

    while True:
        check_deadline(deadline)
        ij = pairs.pop()
        if ij is None:
            break
        i, j = ij
        klcm = ring.pack(tuple(map(max, ring.unpack(lt_keys[i]),
                                   ring.unpack(lt_keys[j]))))
        si = klcm - lt_keys[i]
        sj = klcm - lt_keys[j]
        r_terms, cof = nf((i, j, si, sj))
        if not r_terms:
            continue
        rep = None
        if track:
            mi = Polynomial(ring, {si: 1})
            mj = Polynomial(ring, {sj: 1})
            rep = _fold([mi * a - mj * b for a, b in zip(reps[i], reps[j])],
                        cof, reps, minus)
        add_element(Polynomial(ring, r_terms), rep)

    basis, monic, reps = _inter_reduce(ring, basis, monic, reps, deadline)
    return GroebnerBasis(ring, basis, monic, reps, bound, inputs,
                         pairs.created)


def _inter_reduce(ring, basis, work, reps, deadline):
    """The reduced basis in increasing leading-term order, with its
    MonicBasis.

    Minimalisation first: a proper divisor has a strictly smaller order key,
    so a scan in increasing key order only looks back at what was kept, and
    the index of the kept keys is the final one.  Then one pass reduces each
    tail against the whole basis: no tail term is divisible by its own
    leading term, so element i is reduced by elements below it only, whose
    tails are final by then.
    """
    track = reps is not None
    order = sorted(range(len(basis)), key=work.ekeys.__getitem__)
    monic = K.MonicBasis(ring.n, ring.okey)
    kept = []
    for k in order:
        check_deadline(deadline)
        if monic.index.first_divisor(work.keys[k]) < 0:
            monic.add(work.keys[k], work.tails[k])
            kept.append(k)
    basis = [basis[k] for k in kept]
    reps = [reps[k] for k in kept] if track else None
    for i, tail in enumerate(monic.tails):
        check_deadline(deadline)
        r, cof = K.normal_form_terms(tail, monic, ring.field, track)
        if r == tail:
            continue
        terms = dict(r)
        terms[monic.keys[i]] = 1
        basis[i] = Polynomial(ring, terms)
        monic.set_tail(i, r)
        if track:
            reps[i] = _fold(reps[i], cof, reps, ring.field.neg_flat[1])
    return basis, monic, reps


def _fold(rep, cof, reps, c):
    """rep + c * sum_k cof[k] * reps[k], for a coefficient index c, where
    cof[k] is a term dict (empty or None where basis element k does not
    occur).  Each entry accumulates in one term dict."""
    ring = rep[0].ring
    acc = [dict(a.terms) for a in rep]
    for k, terms in enumerate(cof):
        if terms:
            f = Polynomial(ring, terms)
            for t, b in zip(acc, reps[k]):
                if b:
                    iadd_product(t, f, b, c)
    return [Polynomial(ring, t) for t in acc]


def normal_form(f, gb, track=False):
    """Remainder of f modulo gb; with track also the cofactors on gb.basis."""
    if f.ring != gb.ring:
        raise RingMismatch("polynomial not in the basis ring")
    if gb.bound is not None and f and f.wdeg() > gb.bound:
        raise DegreeBoundExceeded(
            "degree %d beyond the computed bound %d" % (f.wdeg(), gb.bound))
    r_terms, cof = K.normal_form_terms(f.terms, gb.monic, gb.ring.field,
                                       track)
    if not track:
        return Polynomial(gb.ring, r_terms)
    return Polynomial(gb.ring, r_terms), \
        [Polynomial(gb.ring, c or {}) for c in cof]


def cofactors_on_inputs(gb, cof):
    """Rewrite cofactors over gb.basis as cofactors over gb.inputs."""
    if gb.reps is None:
        raise GroebnerError("basis was computed without tracking")
    return _fold([gb.ring.zero] * len(gb.inputs), [c.terms for c in cof],
                 gb.reps, 1)


def in_ideal(f, gb):
    """Membership test, valid up to the basis bound."""
    return not normal_form(f, gb)


def standard_monomial_count(gb, d):
    """Number of monomials of weighted degree d outside the leading-term
    ideal; equals dim of degree-d part of ring/ideal for homogeneous ideals.

    The recursion fixes one exponent after another and carries the packed
    key, adding a variable's unit key per step, so no leaf packs a tuple.
    A prefix that a leading term divides ends its branch: every monomial
    that extends it, or raises its last exponent, is divisible too."""
    if gb.bound is not None and d > gb.bound:
        raise DegreeBoundExceeded(
            "degree %d beyond the computed bound %d" % (d, gb.bound))
    if d < 0:
        return 0
    if d > EXP_CAP:
        raise ExponentOverflow("weighted degree %d out of range" % d)
    ring = gb.ring
    weights = ring.weights
    nv = ring.n
    units = [ring.pack(tuple(int(i == j) for j in range(nv)))
             for i in range(nv)]
    first_divisor = gb.index.first_divisor
    count = 0

    def rec(pos, rem, key):
        nonlocal count
        w, unit = weights[pos], units[pos]
        if pos == nv - 1:
            if not rem % w and first_divisor(key + rem // w * unit) < 0:
                count += 1
            return
        while rem >= 0 and first_divisor(key) < 0:
            rec(pos + 1, rem, key)
            rem -= w
            key += unit

    rec(0, d, 0)
    return count
