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
from .mpoly import EXP_CAP, Polynomial, RingMismatch


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
    basis[k] == sum_t reps[k][t] * inputs[t].  index is the divisor index of
    the leading keys (lt_keys is its key list); every normal form modulo the
    basis reuses it.
    """

    __slots__ = ("ring", "basis", "lt_keys", "tails", "reps", "bound",
                 "inputs", "pairs_processed", "index")

    def __init__(self, ring, basis, index, tails, reps, bound, inputs,
                 pairs_processed):
        self.ring = ring
        self.basis = basis
        self.index = index
        self.lt_keys = index.keys
        self.tails = tails
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
    since it was pushed is skipped.
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
        sups = self.supports
        t = len(self.lts)
        b = 0
        for e in self.ring.unpack(key):
            b = (b << width) | e
        st = (b + self.fill) & guard
        top = width - 1
        lcms = []
        cands = []
        for i, a in enumerate(self.lts):
            m = (((a | guard) - b) & guard) >> top
            L = b ^ ((a ^ b) & ((m << width) - m))
            lcms.append(L)
            w = (L * weigher >> wshift) & wmask
            if bound is None or w <= bound:
                # coprime pairs (False) sort first within a weight
                cands.append((w, sups[i] & st != 0, i, L))
        self.lts.append(b)
        sups.append(st)
        self.created += len(cands)
        check_deadline(self.deadline)
        # criterion B: drop an old pair whose lcm the new leading term
        # divides unless the lcm is that of the new term with either side
        pending = self.pending
        dropped = [ij for ij, L in pending.items()
                   if ((L | guard) - b) & guard == guard
                   and L != lcms[ij[0]] and L != lcms[ij[1]]]
        for ij in dropped:
            del pending[ij]
        # criteria M and F: keep a new pair only when no kept pair's lcm
        # divides its lcm; candidates come in weight order, so each is
        # tested against what was kept.  A kept coprime pair (product
        # criterion) is not pushed, but still takes out pairs above it.
        check_deadline(self.deadline)
        cands.sort()
        kept = []
        heap = self.heap
        for w, shares, i, L in cands:
            Lg = L | guard
            for other in kept:
                if (Lg - other) & guard == guard:
                    break
            else:
                kept.append(L)
                if shares:
                    pending[i, t] = L
                    heapq.heappush(heap, (w, i, t))

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
    order_code = ring.order_code

    basis = []
    index = K.DivisorIndex(ring.n)
    lt_keys = index.keys
    tails = []
    reps = [] if track else None
    zero = ring.zero
    pairs = _CriticalPairs(ring, bound, deadline)

    def nf(terms):
        return K.normal_form_terms(terms, index, tails, order_code, fld,
                                   track)

    def add_element(f, rep):
        lc = f.leading_coeff()
        if lc.i != 1:
            inv = lc.inverse()
            f = f * inv
            if track:
                rep = [r * inv for r in rep]
        basis.append(f)
        k = f.leading_key()
        index.add(k)
        t = dict(f.terms)
        del t[k]
        tails.append(t)
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
        rep = None
        if track:
            rep = unit_rep(t)
            for kk, cterms in enumerate(cof):
                if cterms:
                    cpoly = Polynomial(ring, cterms)
                    rep = [rep[i] - cpoly * reps[kk][i]
                           for i in range(len(inputs))]
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
        spoly = K.add_terms(K.scale_terms(basis[i].terms, 1, si, fld),
                            K.scale_terms(basis[j].terms, 1, sj, fld),
                            fld, True)
        if not spoly:
            continue
        r_terms, cof = nf(spoly)
        if not r_terms:
            continue
        rep = None
        if track:
            mi = Polynomial(ring, {si: 1})
            mj = Polynomial(ring, {sj: 1})
            rep = [mi * reps[i][t] - mj * reps[j][t]
                   for t in range(len(inputs))]
            for kk, cterms in enumerate(cof):
                if cterms:
                    cpoly = Polynomial(ring, cterms)
                    rep = [rep[t] - cpoly * reps[kk][t]
                           for t in range(len(inputs))]
        add_element(Polynomial(ring, r_terms), rep)

    basis, index, tails, reps = _inter_reduce(ring, basis, lt_keys, tails,
                                              reps, deadline)
    return GroebnerBasis(ring, basis, index, tails, reps, bound, inputs,
                         pairs.created)


def _inter_reduce(ring, basis, lt_keys, tails, reps, deadline):
    """The reduced basis in increasing leading-term order, with its index.

    Minimalisation first: a proper divisor has a strictly smaller order key,
    so a scan in increasing key order only looks back at what was kept, and
    the index of the kept keys is the final one.  Then one pass reduces each
    tail against the whole basis: no tail term is divisible by its own
    leading term, so element i is reduced by elements below it only, whose
    tails are final by then.
    """
    track = reps is not None
    order = sorted(range(len(basis)), key=lambda k: ring.okey(lt_keys[k]))
    index = K.DivisorIndex(ring.n)
    kept = []
    for k in order:
        check_deadline(deadline)
        if index.first_divisor(lt_keys[k]) < 0:
            index.add(lt_keys[k])
            kept.append(k)
    basis = [basis[k] for k in kept]
    tails = [tails[k] for k in kept]
    reps = [reps[k] for k in kept] if track else None
    for i, tail in enumerate(tails):
        check_deadline(deadline)
        r, cof = K.normal_form_terms(tail, index, tails, ring.order_code,
                                     ring.field, track)
        if r == tail:
            continue
        terms = dict(r)
        terms[index.keys[i]] = 1
        basis[i] = Polynomial(ring, terms)
        tails[i] = r
        if track:
            rep = reps[i]
            for kk, cterms in enumerate(cof):
                if cterms:
                    cpoly = Polynomial(ring, cterms)
                    rep = [rep[t] - cpoly * reps[kk][t]
                           for t in range(len(rep))]
            reps[i] = rep
    return basis, index, tails, reps


def normal_form(f, gb, track=False):
    """Remainder of f modulo gb; with track also the cofactors on gb.basis."""
    if f.ring != gb.ring:
        raise RingMismatch("polynomial not in the basis ring")
    if gb.bound is not None and f and f.wdeg() > gb.bound:
        raise DegreeBoundExceeded(
            "degree %d beyond the computed bound %d" % (f.wdeg(), gb.bound))
    r_terms, cof = K.normal_form_terms(f.terms, gb.index, gb.tails,
                                       gb.ring.order_code, gb.ring.field,
                                       track)
    if not track:
        return Polynomial(gb.ring, r_terms)
    return Polynomial(gb.ring, r_terms), \
        [Polynomial(gb.ring, c or {}) for c in cof]


def cofactors_on_inputs(gb, cof):
    """Rewrite cofactors over gb.basis as cofactors over gb.inputs."""
    if gb.reps is None:
        raise GroebnerError("basis was computed without tracking")
    out = [gb.ring.zero] * len(gb.inputs)
    for k, c in enumerate(cof):
        if not c:
            continue
        rep = gb.reps[k]
        for t in range(len(out)):
            if rep[t]:
                out[t] = out[t] + c * rep[t]
    return out


def in_ideal(f, gb):
    """Membership test, valid up to the basis bound."""
    return not normal_form(f, gb)


def standard_monomial_count(gb, d):
    """Number of monomials of weighted degree d outside the leading-term
    ideal; equals dim of degree-d part of ring/ideal for homogeneous ideals."""
    ring = gb.ring
    weights = ring.weights
    nv = ring.n
    first_divisor = gb.index.first_divisor
    count = 0
    exps = [0] * nv

    def rec(pos, rem):
        nonlocal count
        if pos == nv - 1:
            w = weights[pos]
            if rem % w:
                return
            exps[pos] = rem // w
            if first_divisor(ring.pack(tuple(exps))) < 0:
                count += 1
            return
        w = weights[pos]
        for e in range(rem // w + 1):
            exps[pos] = e
            rec(pos + 1, rem - e * w)
        exps[pos] = 0

    rec(0, d)
    return count
