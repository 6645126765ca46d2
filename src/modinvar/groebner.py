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
from .mpoly import Polynomial, RingMismatch


class GroebnerError(Exception):
    pass


class InhomogeneousWithTruncation(GroebnerError):
    pass


class DegreeBoundExceeded(GroebnerError):
    pass


class TimeoutExceeded(GroebnerError):
    pass


class GroebnerBasis:
    """Monic, inter-reduced truncated basis.

    reps[k], present when tracked, is a list of cofactor polynomials with
    basis[k] == sum_t reps[k][t] * inputs[t].
    """

    __slots__ = ("ring", "basis", "lt_keys", "tails", "reps", "bound",
                 "inputs", "pairs_processed")

    def __init__(self, ring, basis, lt_keys, tails, reps, bound, inputs,
                 pairs_processed):
        self.ring = ring
        self.basis = basis
        self.lt_keys = lt_keys
        self.tails = tails
        self.reps = reps
        self.bound = bound
        self.inputs = inputs
        self.pairs_processed = pairs_processed

    def __len__(self):
        return len(self.basis)


def _lcm_exps(e1, e2):
    return tuple(a if a > b else b for a, b in zip(e1, e2))


def _is_coprime(e1, e2):
    return all(a == 0 or b == 0 for a, b in zip(e1, e2))


def check_deadline(deadline):
    if deadline is not None and time.monotonic() > deadline:
        raise TimeoutExceeded("computation exceeded its time budget")


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
    n, order_code, guard = ring.n, ring.order_code, ring.guard

    basis = []
    lt_keys = []
    lt_exps = []
    tails = []
    reps = [] if track else None
    zero = ring.zero

    def nf(terms):
        return K.normal_form_terms(terms, lt_keys, tails, n, order_code,
                                   guard, fld, track)

    def add_element(f, rep):
        lc = f.leading_coeff()
        if lc.i != 1:
            inv = lc.inverse()
            f = f * inv
            if track:
                rep = [r * inv for r in rep]
        idx = len(basis)
        basis.append(f)
        k = f.leading_key()
        lt_keys.append(k)
        lt_exps.append(ring.unpack(k))
        t = dict(f.terms)
        del t[k]
        tails.append(t)
        if track:
            reps.append(rep)
        return idx

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

    heap = []
    done = set()

    def push_pairs(j):
        ej = lt_exps[j]
        for i in range(j):
            le = _lcm_exps(lt_exps[i], ej)
            w = sum(e * wt for e, wt in zip(le, ring.weights))
            if bound is not None and w > bound:
                done.add((i, j))
                continue
            heapq.heappush(heap, (w, i, j))

    for j in range(len(basis)):
        push_pairs(j)

    pairs_processed = 0
    while heap:
        check_deadline(deadline)
        w, i, j = heapq.heappop(heap)
        if (i, j) in done:
            continue
        done.add((i, j))
        pairs_processed += 1
        ei, ej = lt_exps[i], lt_exps[j]
        if _is_coprime(ei, ej):
            continue
        le = _lcm_exps(ei, ej)
        # chain criterion: k strictly inside the lcm with both side pairs done
        skip = False
        for k in range(len(basis)):
            if k == i or k == j:
                continue
            ek = lt_exps[k]
            if all(a <= b for a, b in zip(ek, le)):
                pik = (min(i, k), max(i, k))
                pjk = (min(j, k), max(j, k))
                if pik in done and pjk in done and ek != ei and ek != ej:
                    skip = True
                    break
        if skip:
            continue
        klcm = ring.pack(le)
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
        idx = add_element(Polynomial(ring, r_terms), rep)
        push_pairs(idx)

    _inter_reduce(ring, basis, lt_keys, lt_exps, tails, reps, track, nf,
                  deadline)

    # deterministic order: increasing leading term
    order = sorted(range(len(basis)), key=lambda k: ring.okey(lt_keys[k]))
    basis = [basis[k] for k in order]
    lt_keys = [lt_keys[k] for k in order]
    tails = [tails[k] for k in order]
    if track:
        reps = [reps[k] for k in order]
    return GroebnerBasis(ring, basis, lt_keys, tails, reps, bound, inputs,
                         pairs_processed)


def _inter_reduce(ring, basis, lt_keys, lt_exps, tails, reps, track, nf,
                  deadline):
    """Drop redundant elements, then reduce each tail against the others."""
    fld = ring.field
    # minimalize: a proper divisor has strictly smaller order key, so a scan
    # in increasing key order only needs to look back at what was kept
    order = sorted(range(len(basis)), key=lambda k: ring.okey(lt_keys[k]))
    kept = []
    for idx in order:
        e = lt_exps[idx]
        if any(all(a <= b for a, b in zip(lt_exps[kidx], e))
               for kidx in kept):
            continue
        kept.append(idx)
    basis[:] = [basis[k] for k in kept]
    lt_keys[:] = [lt_keys[k] for k in kept]
    lt_exps[:] = [lt_exps[k] for k in kept]
    tails[:] = [tails[k] for k in kept]
    if track:
        reps[:] = [reps[k] for k in kept]

    changed = True
    while changed:
        changed = False
        for i in range(len(basis)):
            check_deadline(deadline)
            # hide element i, then fully reduce it against the rest; its
            # leading term survives (nothing else divides it)
            keep_idx = [j for j in range(len(basis)) if j != i]
            keep_keys = [lt_keys[j] for j in keep_idx]
            keep_tails = [tails[j] for j in keep_idx]
            r, cof = K.normal_form_terms(basis[i].terms, keep_keys,
                                         keep_tails, ring.n, ring.order_code,
                                         ring.guard, fld, track)
            if r == basis[i].terms:
                continue
            if not r:
                raise GroebnerError("minimal basis element vanished during "
                                    "inter-reduction")
            f = Polynomial(ring, r)
            lc = f.leading_coeff()
            rep = None
            if track:
                rep = reps[i]
                for kk, cterms in enumerate(cof):
                    if cterms:
                        cpoly = Polynomial(ring, cterms)
                        src = reps[keep_idx[kk]]
                        rep = [rep[t] - cpoly * src[t]
                               for t in range(len(rep))]
            if lc.i != 1:
                inv = lc.inverse()
                f = f * inv
                if track:
                    rep = [x * inv for x in rep]
            basis[i] = f
            k = f.leading_key()
            lt_keys[i] = k
            lt_exps[i] = ring.unpack(k)
            t = dict(f.terms)
            del t[k]
            tails[i] = t
            if track:
                reps[i] = rep
            changed = True


def normal_form(f, gb, track=False):
    """Remainder of f modulo gb; with track also the cofactors on gb.basis."""
    if f.ring != gb.ring:
        raise RingMismatch("polynomial not in the basis ring")
    if gb.bound is not None and f and f.wdeg() > gb.bound:
        raise DegreeBoundExceeded(
            "degree %d beyond the computed bound %d" % (f.wdeg(), gb.bound))
    r_terms, cof = K.normal_form_terms(f.terms, gb.lt_keys, gb.tails,
                                       gb.ring.n, gb.ring.order_code,
                                       gb.ring.guard, gb.ring.field, track)
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
    lts = sorted(gb.lt_keys)
    guard = ring.guard
    count = 0
    exps = [0] * nv

    def rec(pos, rem):
        nonlocal count
        if pos == nv - 1:
            w = weights[pos]
            if rem % w:
                return
            exps[pos] = rem // w
            k = ring.pack(tuple(exps))
            kg = k | guard
            for m in lts:
                if m > k:
                    break
                if (kg - m) & guard == guard:
                    return
            count += 1
            return
        w = weights[pos]
        for e in range(rem // w + 1):
            exps[pos] = e
            rec(pos + 1, rem - e * w)
        exps[pos] = 0

    rec(0, d)
    return count
