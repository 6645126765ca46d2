"""Buchberger's algorithm over the packed-monomial rings.

Supports degree-truncated runs (sound for weighted-homogeneous inputs: the
truncated basis decides membership in every weighted degree up to the bound),
representation tracking, where each basis element carries its expression
as a combination of the original generators, and Hilbert-driven runs, which
skip the S-pairs of every degree whose standard monomials already number
what the ideal leaves.
"""

from __future__ import annotations

import heapq
import time
from operator import mul

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
    reduction kernel reads it (a `_kernels.MonicBasis`, the one store of
    each element's tail during the run; basis is built from it at the end),
    index its divisor index and lt_keys the leading keys; every normal form
    modulo the basis reuses them.
    """

    __slots__ = ("ring", "basis", "monic", "index", "lt_keys", "reps",
                 "bound", "inputs", "pairs_processed", "pairs_skipped",
                 "pairs_reduced", "zero_reductions", "_counts")

    def __init__(self, ring, basis, monic, reps, bound, inputs,
                 pairs_processed, pairs_skipped, pairs_reduced,
                 zero_reductions):
        self.ring = ring
        self.basis = basis
        self.monic = monic
        self.index = monic.index
        self.lt_keys = monic.keys
        self.reps = reps
        self.bound = bound
        self.inputs = inputs
        self.pairs_processed = pairs_processed
        # S-pairs a Hilbert-driven run left unreduced
        self.pairs_skipped = pairs_skipped
        # S-pairs reduced, and those of them that reduced to 0
        self.pairs_reduced = pairs_reduced
        self.zero_reductions = zero_reductions
        self._counts = None

    def __len__(self):
        return len(self.basis)

    def standard_counts(self):
        """The HilbertCount of the leading terms under the ring's weights,
        built on first use and kept."""
        if self._counts is None:
            counts = HilbertCount(self.ring,
                                  [(w,) for w in self.ring.weights])
            for k in self.lt_keys:
                counts.add(k, counts.colon(k))
            self._counts = counts
        return self._counts


def check_deadline(deadline):
    if deadline is not None and time.monotonic() > deadline:
        raise TimeoutExceeded("computation exceeded its time budget")


class _WideKeys:
    """The ring's keys re-packed one exponent per chunk, the first variable
    in the highest chunk, each chunk topped by a guard bit.  A chunk is
    wide enough that the product with degrees of at most `top` per
    variable, packed the same way, leaves the weighted degree in chunk
    n - 1 (shift wshift, mask wmask).  (b + fill) & guard marks the
    variables that b uses."""

    def __init__(self, ring, top):
        n = ring.n
        # room below each guard bit for any weighted partial sum
        width = (n * EXP_CAP * top).bit_length() + 1
        self.ring = ring
        self.top = top
        self.width = width
        self.guard = sum(1 << (width * v + width - 1) for v in range(n))
        self.fill = self.guard - sum(1 << (width * v) for v in range(n))
        self.wshift = width * (n - 1)
        self.wmask = (1 << width) - 1

    def _pack(self, key):
        b = 0
        for e in self.ring.unpack(key):
            b = (b << self.width) | e
        return b


class _CriticalPairs(_WideKeys):
    """Pending S-pairs, updated by the Gebauer-Moeller criteria whenever an
    element is added (Gebauer and Moeller, JSC 6, 1988).

    Leading exponents are re-packed as _WideKeys lays them out, for degrees
    of at most `top` (the largest weight unless given).  A pair's lcm is
    then a chunkwise max, its weight one multiplication, "m divides L" the
    guard test ((L | guard) - m) & guard == guard, and two leading terms
    are coprime when their support masks share no bit.  Pending pairs map
    (i, j), i < j, to their packed lcm; they are popped in (weight, i, j)
    order from a heap, and a pair a criterion has dropped since it was
    pushed is skipped.  Only pushed pairs are weighed, unless a degree
    bound needs every weight.  add returns the minimal generators of the
    colon ideal of the earlier leading terms by the new one, which its
    criteria find on the way, so that a HilbertCount of the same top takes
    them as they are.
    """

    def __init__(self, ring, bound, deadline, top=None):
        super().__init__(ring, max(ring.weights) if top is None else top)
        self.weigher = sum(w << (self.width * v)
                           for v, w in enumerate(ring.weights))
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
        """Update the pairs for a new element with leading key `key`;
        returns the minimal generators of (earlier leading terms : key)."""
        check_deadline(self.deadline)
        width, guard, weigher = self.width, self.guard, self.weigher
        wshift, wmask, bound = self.wshift, self.wmask, self.bound
        lts, sups = self.lts, self.supports
        t = len(lts)
        b = self._pack(key)
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
        cands.sort()
        if bound is None:
            self.created += t
        else:
            self.created += sum(1 for c in cands
                                if ((c >> sh) * weigher >> wshift) & wmask
                                <= bound)
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
        # The kept lcms are minimal among all of them, the bound aside: a
        # divisor weighs no more, so the bound then keeps the same pairs,
        # and the kept lcms less b generate the colon minimally.
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
                    w = (L * weigher >> wshift) & wmask
                    if bound is None or w <= bound:
                        i = c & imask
                        pending[i, t] = L
                        heapq.heappush(heap, (w, i, t))
        return [L - b for L in kept]

    def pop(self):
        """The next pending pair as (i, j, packed lcm), or None when none
        is left."""
        heap, pending = self.heap, self.pending
        while heap:
            _, i, j = heapq.heappop(heap)
            L = pending.pop((i, j), None)
            if L is not None:
                return i, j, L
        return None


# a HilbertCount box grows by this many degrees beyond the one asked for:
# the lcm degrees of successive S-pairs climb a few at a time
_SLACK = 8


def _times_one_minus(poly, d):
    """poly * (1 - t^d) as a fresh numerator, for a packed degree d."""
    out = dict(poly)
    _iadd_shifted(out, poly, d, -1)
    return out


def _iadd_shifted(acc, poly, d, scale):
    """acc += scale * t^d * poly, in place, for numerators acc and poly."""
    for k, c in poly.items():
        k += d
        v = acc.get(k, 0) + scale * c
        if v:
            acc[k] = v
        else:
            del acc[k]


def _check_grading(ring, grading):
    """grading as a tuple of degree tuples, once it gives each variable of
    ring r nonnegative ints, not all 0."""
    grading = tuple(tuple(d) for d in grading)
    if len(grading) != ring.n:
        raise GroebnerError("the grading has %d degrees for %d variables"
                            % (len(grading), ring.n))
    r = len(grading[0])
    for d in grading:
        if not r or len(d) != r or not any(d) or any(
                not isinstance(e, int) or isinstance(e, bool) or e < 0
                for e in d):
            raise GroebnerError("each degree must be %d nonnegative "
                                "ints, not all 0; got %r" % (r, d))
    return grading


class HilbertCount(_WideKeys):
    """Standard monomials of a growing monomial ideal M, counted by degree.

    grading gives each variable of ring a degree: a tuple of r nonnegative
    ints, not all 0 (as _check_grading checks them), so that each degree
    holds finitely many monomials.  If
    P(c) is their number in degree c, an ideal I leaves
    sum_g K_I[g] * P(c - g) standard monomials of degree c, where K_I, its
    numerator, is the Hilbert series of ring/I times prod_v (1 - t^deg v).
    add(key, colon) puts one more monomial m into M, given the minimal
    generators of M : m, and updates K_M by
    K_(M+m) = K_M - t^deg m * K_(M:m), the numerator of the colon ideal
    coming from Bigatti's pivot recursion (Bigatti, JPAA 119, 1997).
    target, when given, is the degree tuples of the generators of a graph
    ideal J (see _graph_degrees), whose numerator K_J is
    prod (1 - t^deg) over them; without it K_J is 0.  excess(c) is the
    count in degree c under M less the one under J.

    Monomials are re-packed as _WideKeys lays them out, for degrees of at
    most the largest weight or grading component, so that a _CriticalPairs
    of the same top shares the layout.  A degree packs its components into
    chunks of the same width, the first lowest, and their sum, its total
    degree, above them, so packed degrees add as the tuples do; a
    numerator is a dict {packed degree: int}.  Only D = K_M - K_J is
    kept, sparse, as a list of buckets indexed by total degree, each a
    numerator without zero terms: the terms of D below a degree c lie in
    the buckets up to c's total, and excess(c) reads them against P, which
    is held dense, as Python ints in a numpy object array over the box of
    the degrees asked for so far, so every count is exact.  Every bucket
    is empty exactly when M and J have the same Hilbert series.
    """

    def __init__(self, ring, grading, target=None, deadline=None):
        super().__init__(ring, max(max(ring.weights), max(map(max, grading))))
        width = self.width
        r = len(grading[0])
        self.grading = grading
        self.emask = (1 << (width - 1)) - 1
        self.weighers = [sum(d[i] << (width * v)
                             for v, d in enumerate(grading))
                         for i in range(r)]
        self.dguard = sum(1 << (width * i + width - 1) for i in range(r))
        self.deadline = deadline
        self.gens = []
        self.shifts = [width * i for i in range(r)]
        self.tshift = width * r
        self.box = (0,) * r
        self.counts = None
        self.diff = [{0: 1}]
        if target is not None:
            numerator = {0: 1}
            for c in target:
                numerator = _times_one_minus(numerator, self.degree_key(c))
            self._iadd_diff(numerator, 0, -1)

    def _degree(self, b):
        d = total = 0
        for i, w in enumerate(self.weighers):
            a = (b * w >> self.wshift) & self.wmask
            d |= a << (self.width * i)
            total += a
        return d | total << self.tshift

    def degree_key(self, c):
        """The packed form of the degree tuple c."""
        return sum(a << (self.width * i) for i, a in enumerate(c)) \
            | sum(c) << self.tshift

    def degree_tuple(self, d):
        """The degree tuple of the packed degree d."""
        return tuple([(d >> s) & self.wmask for s in self.shifts])

    def _iadd_diff(self, poly, d, scale):
        """D += scale * t^d * poly."""
        diff, tshift = self.diff, self.tshift
        for k, c in poly.items():
            k += d
            total = k >> tshift
            while len(diff) <= total:
                diff.append({})
            bucket = diff[total]
            v = bucket.get(k, 0) + scale * c
            if v:
                bucket[k] = v
            else:
                del bucket[k]
                if not bucket:
                    # a fresh dict: an emptied one keeps its table
                    diff[total] = {}

    def colon(self, key):
        """The minimal generators of M : m, for the monomial m with the
        ring's packed key `key`, packed as _WideKeys lays them out."""
        m = self._pack(key)
        guard, top = self.guard, self.width - 1
        # chunkwise saturating g - m: the guard bits flag the chunks where
        # g >= m, and only those keep their difference
        return self._minimal(
            [(d := (g | guard) - m) & ((s := d & guard) - (s >> top))
             for g in self.gens])

    def add(self, key, colon):
        """Put the monomial `key` (the ring's packed key) into M, given the
        minimal generators `colon` of M : key."""
        check_deadline(self.deadline)
        m = self._pack(key)
        self.gens.append(m)
        self._iadd_diff(self._numerator(colon), self._degree(m), -1)

    def excess(self, c):
        """The standard monomials of packed degree c under M less those
        under the target."""
        i = self.degree_tuple(c)
        if any(a >= b for a, b in zip(i, self.box)):
            self._grow(i)
        counts, g = self.counts, self.dguard
        cg = c | g
        n = 0
        for bucket in self.diff[:sum(i) + 1]:
            for k, v in bucket.items():
                if (cg - k) & g == g:
                    n += v * counts[self.degree_tuple(c - k)]
        return n

    def _grow(self, c):
        """Rebuild P over a box that holds the degree c."""
        # imported on first use, as in action
        import numpy as np

        box = tuple(b if a < b else a + 1 + _SLACK
                    for b, a in zip(self.box, c))
        # P = 1 / prod_v (1 - t^deg v), each factor as
        # prod_j (1 + t^(2^j deg v)): one shifted add per j
        counts = np.zeros(box, dtype=object)
        counts[(0,) * len(box)] = 1
        for d in self.grading:
            top = min((b - 1) // e for b, e in zip(box, d) if e)
            s = 1
            while s <= top:
                counts[tuple(slice(s * e, None) for e in d)] += \
                    counts[tuple(slice(0, b - s * e) for b, e in zip(box, d))]
                s *= 2
        self.box, self.counts = box, counts

    def _minimal(self, gens):
        """The minimal generators among gens: a divisor packs to a smaller
        int, so each is tested against the smaller ones kept."""
        guard = self.guard
        kept = []
        for g in sorted(set(gens)):
            gg = g | guard
            for k in kept:
                if (gg - k) & guard == guard:
                    break
            else:
                kept.append(g)
        return kept

    def _numerator(self, gens):
        """K of the ideal that the minimal generators gens generate.

        A generator that shares no variable with another one splits off as
        a factor 1 - t^deg.  Among the rest, the pivot p is x^e, x the
        variable in most of them and e the lower median of its positive
        exponents, and K(I) = K(I + (p)) + t^deg p * K(I : p).  p lies
        outside I and both ideals are larger than I, so the recursion ends.
        """
        guard, fill = self.guard, self.fill
        sups = [(g + fill) & guard for g in gens]
        once = twice = 0
        for s in sups:
            twice |= once & s
            once |= s
        out = {0: 1}
        rest, rsups = [], []
        for g, s in zip(gens, sups):
            if s & twice:
                rest.append(g)
                rsups.append(s)
            else:
                out = _times_one_minus(out, self._degree(g))
        if not rest:
            return out
        most, bit = 0, 0
        while twice:
            low = twice & -twice
            twice ^= low
            k = sum(1 for s in rsups if s & low)
            if k > most:
                most, bit = k, low
        shift = bit.bit_length() - self.width
        emask = self.emask
        exps = sorted(g >> shift & emask for g, s in zip(rest, rsups)
                      if s & bit)
        e = exps[(len(exps) - 1) // 2]
        p = e << shift
        plus = [g for g in rest if g >> shift & emask < e]
        plus.append(p)
        colon = [g - (min(g >> shift & emask, e) << shift) for g in rest]
        k = self._numerator(plus)
        _iadd_shifted(k, self._numerator(self._minimal(colon)),
                      self._degree(p), 1)
        if len(out) == 1:
            return k
        prod = {}
        for d, c in out.items():
            _iadd_shifted(prod, k, d, c)
        return prod


def _graph_degrees(ring, grading, inputs):
    """The degree tuple of each input, once the inputs are checked to be
    homogeneous for the grading and in graph form: each input has a term
    c*v whose variable v occurs in no other term of any input.  Each such v
    is then the rest of its input over -c, so the ring modulo the ideal they
    generate is the polynomial ring in the other variables, and the
    numerator of its Hilbert series is prod (1 - t^deg) over the inputs."""
    exps = [[ring.unpack(k) for k in g.terms] for g in inputs]
    uses = [0] * ring.n
    for es in exps:
        for e in es:
            for v, a in enumerate(e):
                if a:
                    uses[v] += 1
    columns = list(zip(*grading))
    out = []
    for t, (g, es) in enumerate(zip(inputs, exps)):
        if not g:
            raise GroebnerError("generator %d is 0, not in graph form" % t)
        degrees = {tuple([sum(map(mul, e, col)) for col in columns])
                   for e in es}
        if len(degrees) != 1:
            raise GroebnerError("generator %d is not homogeneous for the "
                                "grading" % t)
        if not any(sum(e) == 1 and uses[e.index(1)] == 1 for e in es):
            raise GroebnerError(
                "generator %d is not in graph form: it has no term c*v whose "
                "variable v occurs in no other term of any generator" % t)
        out.append(degrees.pop())
    return out


def _check_bound(bound):
    """A degree bound is None or an int from 0 to EXP_CAP, as in verify."""
    if bound is not None and (not isinstance(bound, int)
                              or isinstance(bound, bool)
                              or not 0 <= bound <= EXP_CAP):
        raise GroebnerError("bound must be None or an int from 0 to %d, "
                            "got %r" % (EXP_CAP, bound))


def buchberger(gens, bound=None, track=False, deadline=None, grading=None):
    """Truncated Groebner basis of the ideal generated by gens.

    With bound set, every generator must be homogeneous for the ring's
    weights, and only S-pairs of lcm weight <= bound are processed.

    grading, one degree per variable as HilbertCount takes it, makes the
    run Hilbert-driven (Traverso, JSC 22, 1996).  The generators must then
    be homogeneous for it and in graph form (see _graph_degrees), which
    fixes the numerator K_J of the ideal J.  Before it reduces an S-pair
    whose lcm has degree c, the run compares the standard monomials of
    degree c under the current leading terms with dim (R/J)_c, and skips
    the pair when they are equal: LT(G) lies in LT(J), so the two then
    agree in degree c, and every element of J of degree c reduces to 0.
    The result is the same reduced basis as without the grading.  The
    count and the pair update share one _WideKeys layout: the count takes
    the colon of each new leading term from the pair update, and a popped
    pair's degree comes from its packed lcm, so a skipped pair is never
    unpacked.  Each degree's count is cached until the next leading term
    is added, the only event that changes it.
    """
    _check_bound(bound)
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
    hilbert = None
    if grading is not None:
        grading = _check_grading(ring, grading)
        hilbert = HilbertCount(ring, grading,
                               _graph_degrees(ring, grading, inputs),
                               deadline)
    fld = ring.field
    minus = fld.neg_flat[1]

    monic = K.MonicBasis(ring.n, ring.okey)
    lt_keys = monic.keys
    reps = [] if track else None
    zero = ring.zero
    pairs = _CriticalPairs(ring, bound, deadline,
                           None if hilbert is None else hilbert.top)
    # the deficit of each degree met since the last leading term was added:
    # its standard monomials beyond dim (R/J) of that degree
    deficits = {}
    skipped = reduced = zeros = 0

    def nf(f):
        return K.normal_form_terms(f, monic, fld, track)

    def add_element(terms, rep):
        tail = monic.combined(terms)
        top = max(tail)
        lc = tail.pop(top)
        if lc != 1:
            inv = fld.inv_i(lc)
            tail = K.scale_terms(tail, inv, 0, fld)
            if track:
                rep = [r * fld.from_index(inv) for r in rep]
        k = top & monic.kmask
        monic.add(k, tail)
        if track:
            reps.append(rep)
        colon = pairs.add(k)
        if hilbert is not None:
            hilbert.add(k, colon)
            deficits.clear()

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
        add_element(r_terms, rep)

    while True:
        check_deadline(deadline)
        popped = pairs.pop()
        if popped is None:
            break
        i, j, wide = popped
        if hilbert is not None:
            c = hilbert._degree(wide)
            left = deficits.get(c)
            if left is None:
                left = deficits[c] = hilbert.excess(c)
                if left < 0:
                    raise GroebnerError(
                        "the leading terms leave fewer standard monomials "
                        "than the ideal in degree %r"
                        % (hilbert.degree_tuple(c),))
            if left == 0:
                skipped += 1
                continue
        klcm = ring.pack(tuple(map(max, ring.unpack(lt_keys[i]),
                                   ring.unpack(lt_keys[j]))))
        si = klcm - lt_keys[i]
        sj = klcm - lt_keys[j]
        reduced += 1
        r_terms, cof = nf((i, j, si, sj))
        if not r_terms:
            zeros += 1
            continue
        rep = None
        if track:
            mi = Polynomial(ring, {si: 1})
            mj = Polynomial(ring, {sj: 1})
            rep = _fold([mi * a - mj * b for a, b in zip(reps[i], reps[j])],
                        cof, reps, minus)
        add_element(r_terms, rep)

    if hilbert is not None and bound is None and any(hilbert.diff):
        raise GroebnerError("the finished basis leaves another Hilbert "
                            "series than the graph ideal")
    basis, monic, reps = _inter_reduce(ring, monic, reps, deadline)
    return GroebnerBasis(ring, basis, monic, reps, bound, inputs,
                         pairs.created, skipped, reduced, zeros)


def _inter_reduce(ring, work, reps, deadline):
    """The reduced basis in increasing leading-term order, with its
    MonicBasis.

    Minimalisation first: a proper divisor has a strictly smaller order key,
    so a scan in increasing key order only looks back at what was kept, and
    the index of the kept keys is the final one.  A kept element keeps its
    combined tail as it is.  Then one pass reduces each tail that has a term
    some leading term divides: no tail term is divisible by its own leading
    term, so element i is reduced by elements below it only, whose tails
    are final by then.  The Polynomials of the basis are built last.
    """
    track = reps is not None
    order = sorted(range(len(work.keys)), key=work.ekeys.__getitem__)
    monic = K.MonicBasis(ring.n, ring.okey)
    first_divisor = monic.index.first_divisor
    kept = []
    for k in order:
        check_deadline(deadline)
        if first_divisor(work.keys[k]) < 0:
            monic.add(work.keys[k], work.etails[k])
            kept.append(k)
    reps = [reps[k] for k in kept] if track else None
    kmask = monic.kmask
    for i, tail in enumerate(monic.etails):
        check_deadline(deadline)
        if all(first_divisor(e & kmask) < 0 for e in tail):
            continue
        r, cof = K.reduce_combined(dict(tail), monic, ring.field, track)
        monic.etails[i] = monic.combined(r)
        if track:
            reps[i] = _fold(reps[i], cof, reps, ring.field.neg_flat[1])
    basis = [Polynomial(ring, {e & kmask: c for e, c in tail.items()}
                        | {k: 1})
             for k, tail in zip(monic.keys, monic.etails)]
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

    Read off the numerator of the leading terms' Hilbert series
    (gb.standard_counts()), built on the first count and kept."""
    if not isinstance(d, int) or isinstance(d, bool):
        raise GroebnerError("degree must be an int, got %r" % (d,))
    if gb.bound is not None and d > gb.bound:
        raise DegreeBoundExceeded(
            "degree %d beyond the computed bound %d" % (d, gb.bound))
    if d < 0:
        return 0
    if d > EXP_CAP:
        raise ExponentOverflow("weighted degree %d out of range" % d)
    counts = gb.standard_counts()
    return counts.excess(counts.degree_key((d,)))
