"""Check suites that turn every claimed property of the invariant ring into
a machine verdict: identity expansion, group invariance, the three-way
dimension count, degreewise kernel certification, and product-reduction
certificates with independent re-verification.

Every suite returns a SuiteReport whose JSON form is byte-stable for a fixed
configuration: timings, version data and the traceback of any item that
raised unexpectedly live in a separate volatile block.
"""

from __future__ import annotations

import heapq
import json
import math
import random
import time
import traceback
from collections.abc import Sequence
from dataclasses import dataclass, field as dataclass_field
from typing import NamedTuple

import numpy as np

from . import _kernels as K
from . import groebner, linalg
from ._version import __version__
from .action import R4_NAMES, enumerate_gl2, enumerate_sl2, \
    involution_star, invariant_dimension, is_invariant
from .gens import BasisSpec, RELATION_NAMES, S7_NAMES, \
    context, identity_indices, s7_bidegrees, s7_weights
from .groebner import TimeoutExceeded, buchberger, check_deadline, \
    normal_form, standard_monomial_count
from .mpoly import CHUNK, EXP_CAP, MASK, Polynomial, PolyRing, \
    RingMismatch, iadd_product


class VerifyError(Exception):
    pass


class NotExpressible(VerifyError):
    """A product failed to fit in the free module, or the C-last
    construction found the relations or the basis not to be what a free
    module needs; firing on valid input would falsify the module-basis
    property itself."""


# ---------------------------------------------------------------------------
# report plumbing


@dataclass
class CheckItem:
    name: str
    status: str          # pass | fail | skipped | timeout
    detail: str = ""
    elapsed_ms: float = 0.0
    traceback: str = ""  # of an unexpected exception; volatile only


@dataclass
class SuiteReport:
    suite: str
    q: int
    params: dict
    items: list = dataclass_field(default_factory=list)

    @property
    def overall(self):
        return "pass" if all(it.status == "pass" for it in self.items) \
            else "fail"

    @property
    def timed_out(self):
        return any(it.status == "timeout" for it in self.items)

    def to_dict(self, include_volatile=True):
        doc = {
            "suite": self.suite,
            "q": self.q,
            "params": self.params,
            "items": [{"name": it.name, "status": it.status,
                       "detail": it.detail} for it in self.items],
            "overall": self.overall,
        }
        if include_volatile:
            doc["volatile"] = {
                "timings": {it.name: round(it.elapsed_ms, 3)
                            for it in self.items},
                "version": __version__,
            }
            tracebacks = {it.name: it.traceback for it in self.items
                          if it.traceback}
            if tracebacks:
                doc["volatile"]["tracebacks"] = tracebacks
        return doc

    def to_json(self, include_volatile=True):
        return json.dumps(self.to_dict(include_volatile), indent=2,
                          sort_keys=True)

    def to_text(self):
        lines = ["suite %s  q=%d  %s" % (self.suite, self.q,
                                         json.dumps(self.params,
                                                    sort_keys=True))]
        for it in self.items:
            line = "[%s] %s" % (it.status, it.name)
            if it.detail:
                line += "  %s" % it.detail
            lines.append(line)
        lines.append("overall: %s" % self.overall)
        return "\n".join(lines)


class _Recorder:
    """Runs items in order, converting the first deadline overrun into a
    timeout item and everything after it into skipped items."""

    def __init__(self, deadline=None):
        self.items = []
        self.deadline = deadline
        self.dead = False

    def run(self, name, fn):
        if self.dead:
            self.items.append(CheckItem(name, "skipped",
                                        "time budget exhausted"))
            return
        if self.deadline is not None and time.monotonic() > self.deadline:
            self.dead = True
            self.items.append(CheckItem(name, "timeout",
                                        "time budget exhausted"))
            return
        t0 = time.monotonic()
        trace = ""
        try:
            ok, detail = fn()
            status = "pass" if ok else "fail"
        except TimeoutExceeded as exc:
            self.dead = True
            status, detail = "timeout", str(exc)
        except Exception as exc:  # noqa: BLE001 - verdicts must not crash
            status, detail = "fail", "%s: %s" % (type(exc).__name__, exc)
            trace = traceback.format_exc()
        self.items.append(CheckItem(name, status, detail,
                                    (time.monotonic() - t0) * 1000.0, trace))


def _clip(poly, limit=160):
    text = str(poly)
    return text if len(text) <= limit else text[:limit] + " ..."


def _zero_item(poly):
    if not poly:
        return True, "expands to 0"
    return False, "nonzero difference: %s" % _clip(poly)


def default_max_degree(q):
    """Degree bound of the hilbert, kernel and controls suites when none is
    given.  From q=3 on it is deg T00 = 2(q^2-1), the highest degree of
    the five relations, so every relation lies inside the bound."""
    return 24 if q == 2 else 2 * (q * q - 1)


def _check_max_degree(max_degree):
    """A degree bound must be an int, nonnegative and fit in a packed key."""
    if not isinstance(max_degree, int) or isinstance(max_degree, bool):
        raise VerifyError("max_degree must be an integer, got %r"
                          % (max_degree,))
    if max_degree < 0:
        raise VerifyError("max_degree must be nonnegative")
    if max_degree > EXP_CAP:
        raise VerifyError("max_degree must be at most %d, the largest "
                          "weighted degree a packed key holds" % EXP_CAP)


# ---------------------------------------------------------------------------
# shared results, kept in the per-field context's memo


def _exact_gb(ctx, bound, deadline=None):
    """The Gröbner basis of the relation ideal truncated at exactly bound,
    built on every call.  The five relations are already a Gröbner basis,
    so it is those five: 0.4-1.5 ms at every (q, bound) from (2, 24) to
    (16, 510) on a 2-CPU VM, too little to keep."""
    return buchberger(ctx.ideal_generators(), bound=bound, deadline=deadline)


def _groebner_item(ctx, bound, deadline, state):
    """The groebner item of the hilbert and kernel suites: the exact-bound
    basis, kept in state["gb"] for the items after it."""
    gb = state["gb"] = _exact_gb(ctx, bound, deadline)
    return True, "%d basis elements, %d pairs processed" \
        % (len(gb.basis), gb.pairs_processed)


def _cached_dim(ctx, d, deadline=None):
    return ctx.memo(("dim", d), lambda: invariant_dimension(
        ctx.field, d, deadline=deadline))


def _module_series(q, degrees, bound):
    """Coefficients through T^bound of (sum of T^d over degrees) divided by
    (1-T^(q^2-1))^2 (1-T^(q^2-q))^2."""
    coef = [0] * (bound + 1)
    for d in degrees:
        if d <= bound:
            coef[d] += 1
    for w in (q * q - 1, q * q - 1, q * q - q, q * q - q):
        for d in range(w, bound + 1):
            coef[d] += coef[d - w]
    return coef


def hilbert_series_from_basis(ctx, bound):
    """Coefficients through T^bound of the Hilbert series of the free module
    on the basis over F_q[c0,c1,c0*,c1*]."""
    q = ctx.q
    return _module_series(
        q, [spec.degree(q) for spec in ctx.enumerate_basis()], bound)


def _block_vector(poly, a, b):
    """Coefficient indices of a bihomogeneous base-ring polynomial of
    bidegree (a, b) as a bytearray, one uint8 slot (every index is below
    q <= 256) per monomial x1^e1 x2^(a-e1) y1^e3 y2^(b-e3) at e1*(b+1) + e3.

    Reads e1 and e3 straight off the packed keys and never looks at e2 or
    e4: the caller vouches for the bidegree."""
    n = poly.ring.n
    sh1 = CHUNK * (n - 1)   # x1, the first variable
    sh3 = CHUNK * (n - 3)   # y1, the third
    width = b + 1
    vec = bytearray((a + 1) * width)
    for key, cidx in poly.terms.items():
        vec[((key >> sh1) & MASK) * width + ((key >> sh3) & MASK)] = cidx
    return vec


# ---------------------------------------------------------------------------
# relations


def check_relations(field, deadline=None):
    ctx = context(field)
    q = ctx.q
    rec = _Recorder(deadline)

    for name in ("T0", "T1", "T1s", "K00", "T00", "T10", "T01", "delta"):
        rec.run(name, lambda n=name: _zero_item(ctx.identity_poly(n)))
    for name, label in (("Rs", "Rs"), ("Ks", "Ks"), ("Kss", "Kss"),
                        ("HsId", "Hs")):
        for s in identity_indices(name, q):
            rec.run("%s(%d)" % (label, s), lambda n=name, v=s: _zero_item(
                ctx.identity_poly(n, s=v)))

    def hdiv(s):
        back = ctx.h(s) * ctx.u(0) ** q
        if back == ctx.h_numerator(s):
            return True, "u0^q divides the h_%d numerator exactly" % s
        return False, "division certificate broken for h_%d" % s

    def hstar(s):
        diff = involution_star(ctx.h(s)) - ctx.h(q - 1 - s)
        if not diff:
            return True, "h_%d swap-image equals h_%d" % (s, q - 1 - s)
        return False, "nonzero difference: %s" % _clip(diff)

    for s in range(q):
        rec.run("hdiv(%d)" % s, lambda v=s: hdiv(v))
    for s in range(q):
        rec.run("hstar(%d)" % s, lambda v=s: hstar(v))

    def boundary():
        a = ctx.h(0) - ctx.cs(1)
        b = ctx.h(q - 1) - ctx.c(1)
        if not a and not b:
            return True, "h_0 = c1s and h_%d = c1" % (q - 1)
        return False, "nonzero difference: %s" % _clip(a if a else b)

    rec.run("hboundary", boundary)

    for name in RELATION_NAMES:
        def vanish(n=name):
            rel = ctx.relation(n)
            ctx.s7_bidegree(rel)  # raises unless bihomogeneous
            return _zero_item(ctx.pi(rel))
        rec.run("pi(%s)" % name, vanish)

    return SuiteReport("relations", q, {}, rec.items)


# ---------------------------------------------------------------------------
# invariance


def check_invariance(field, deadline=None):
    ctx = context(field)
    q = ctx.q
    rec = _Recorder(deadline)
    gl2 = enumerate_gl2(field)
    sl2 = enumerate_sl2(field)

    def fixed(poly, elements, group):
        ok, witness = is_invariant(poly, elements, deadline)
        if ok:
            return True, "fixed by all %d elements of %s" % (len(elements),
                                                             group)
        return False, "moved by %r" % (witness,)

    for name in ("c0", "c1", "c0s", "c1s", "um1", "u0", "u1"):
        poly = ctx.generators()[name]
        rec.run("gl2(%s)" % name, lambda f=poly: fixed(f, gl2, "GL2"))
    rec.run("gl2(d2*d2s)",
            lambda: fixed(ctx.d(2) * ctx.ds(2), gl2, "GL2"))
    for s in range(q):
        rec.run("sl2(h(%d))" % s,
                lambda v=s: fixed(ctx.h(v), sl2, "SL2"))

    def d2_control():
        ok, witness = is_invariant(ctx.d(2), gl2, deadline)
        if q == 2:
            if ok:
                return True, "d2 fixed by all of GL2 (every determinant is 1)"
            return False, "moved by %r" % (witness,)
        if not ok:
            return True, "d2 moved by %r as it must be" % (witness,)
        return False, "d2 unexpectedly fixed by all of GL2"

    rec.run("d2-control", d2_control)
    return SuiteReport("invariance", q, {}, rec.items)


# ---------------------------------------------------------------------------
# hilbert: three independent dimension counts


def check_hilbert(field, max_degree, deadline=None):
    _check_max_degree(max_degree)
    ctx = context(field)
    q = ctx.q
    rec = _Recorder(deadline)

    def census():
        cen = ctx.census()
        if cen["total"] == cen["group_order"]:
            return True, "%d basis members = |GL2(F_%d)|" % (cen["total"], q)
        return False, "basis count %d but group order %d" \
            % (cen["total"], cen["group_order"])

    rec.run("census", census)

    state = {}
    rec.run("groebner",
            lambda: _groebner_item(ctx, max_degree, deadline, state))
    series = hilbert_series_from_basis(ctx, max_degree)

    for d in range(max_degree + 1):
        def tri(v=d):
            a = _cached_dim(ctx, v, deadline)
            b = series[v]
            c = standard_monomial_count(state["gb"], v)
            if a == b == c:
                return True, "action=%d series=%d quotient=%d" % (a, b, c)
            return False, "action=%d series=%d quotient=%d disagree" \
                % (a, b, c)
        rec.run("d=%d" % d, tri)

    return SuiteReport("hilbert", q, {"max_degree": max_degree}, rec.items)


# ---------------------------------------------------------------------------
# kernel certification


def _standard_image_ranks(ctx, gb, bound, deadline=None):
    """For each degree d <= bound, the rank of the evaluation of all standard
    monomials of the quotient ring, split into bidegree blocks.

    Returns (counts, ranks): counts[d] is the number of standard monomials of
    weighted degree d and ranks[d] the dimension of their image span.
    Raises TimeoutExceeded when the deadline passes during the enumeration
    or before a block's rank.

    The walk fixes one exponent after another and carries the packed key,
    the bidegree (a, b) and the image of the prefix; its weighted degree is
    a + b.  A prefix is pruned once a leading term divides its key, found
    by the basis's own divisor index, as every reduction finds its
    reducer.  standard_monomial_count, which the
    standard-monomials item compares against, enumerates nothing: it reads
    the numerator of the leading terms' Hilbert series
    (groebner.HilbertCount), so each kernel run checks by enumeration the
    count that the Hilbert-driven elimination's skips rest on.

    Over characteristic 2, when every image of the seven generators has
    all its coefficients 1 (as the generators' integer coefficients give),
    an image is a GF(2) bit row: one Python int with the monomial
    x1^e1 x2^(a-e1) y1^e3 y2^(b-e3) at bit e1*(bound+1) + e3 (e3 <= bound,
    so no two monomials share a bit).  A product with a generator's image
    is the XOR of the prefix shifted by each of the image's terms, and each
    standard monomial's row goes straight into the XOR basis of its
    bidegree block (linalg._xor_insert); a row that reduces to 0 is
    dropped, so the walk keeps no more rows than the ranks.

    Otherwise the image is a polynomial, and each bidegree block keeps its
    block vectors (_block_vector) as the rows of one uint8 matrix, appended
    to a bytearray: one byte per entry and no object per row.  A block's
    matrix is released once its rank is taken; rank_field eliminates it
    over GF(p) as it is whenever every entry lies there, as every image of
    the seven generators does.
    """
    S = ctx.S7
    n = S.n
    images = [ctx.pi_images()[name] for name in S7_NAMES]
    bidegs = ctx.bidegrees
    units = [S.pack(tuple(int(i == j) for j in range(n))) for i in range(n)]
    first_divisor = gb.index.first_divisor
    counts = [0] * (bound + 1)
    ranks = [0] * (bound + 1)

    bits = ctx.field.p == 2 and all(set(img.terms.values()) == {1}
                                    for img in images)
    if bits:
        sh1 = CHUNK * (ctx.R4.n - 1)   # x1, the first variable
        sh3 = CHUNK * (ctx.R4.n - 3)   # y1, the third
        shifts = [[((key >> sh1) & MASK) * (bound + 1) + ((key >> sh3) & MASK)
                   for key in img.terms] for img in images]
        bases = {}

        def times(row, pos):
            out = 0
            for shift in shifts[pos]:
                out ^= row << shift
            return out

        def leaf(row, a, b):
            if linalg._xor_insert(bases.setdefault((a, b), {}), row):
                ranks[a + b] += 1

        one = 1
    else:
        buckets = {}

        def times(poly, pos):
            return poly * images[pos]

        def leaf(poly, a, b):
            buckets.setdefault((a, b), bytearray()).extend(
                _block_vector(poly, a, b))

        one = ctx.R4.one

    def walk(pos, key, image, a, b):
        check_deadline(deadline)
        if pos == n:
            counts[a + b] += 1
            leaf(image, a, b)
            return
        da, db = bidegs[pos]
        while first_divisor(key) < 0:
            walk(pos + 1, key, image, a, b)
            a += da
            b += db
            if a + b > bound:
                break
            key += units[pos]
            image = times(image, pos)

    walk(0, 0, one, 0, 0)

    if not bits:
        for a, b in sorted(buckets):
            check_deadline(deadline)
            rows = np.frombuffer(buckets.pop((a, b)), dtype=np.uint8)
            ranks[a + b] += linalg.rank_field(
                rows.reshape(-1, (a + 1) * (b + 1)), ctx.field)
    return counts, ranks


def check_kernel(field, max_degree, deadline=None):
    _check_max_degree(max_degree)
    ctx = context(field)
    q = ctx.q
    rec = _Recorder(deadline)

    def vanishing():
        bad = []
        for name in RELATION_NAMES:
            if ctx.pi(ctx.relation(name)):
                bad.append(name)
        if not bad:
            return True, "all five relations evaluate to 0"
        return False, "nonvanishing relations: %s" % ", ".join(bad)

    rec.run("relations-in-kernel", vanishing)

    state = {}
    rec.run("groebner",
            lambda: _groebner_item(ctx, max_degree, deadline, state))

    def image_ranks():
        counts, ranks = _standard_image_ranks(ctx, state["gb"], max_degree,
                                              deadline)
        state["counts"] = counts
        state["ranks"] = ranks
        mismatch = [d for d in range(max_degree + 1)
                    if counts[d] != standard_monomial_count(state["gb"], d)]
        if mismatch:
            return False, "standard-monomial census disagrees at %s" \
                % mismatch[:4]
        return True, "evaluated %d standard monomials" % sum(counts)

    rec.run("standard-monomials", image_ranks)

    for d in range(max_degree + 1):
        def certify(v=d):
            quo = state["counts"][v]
            img = state["ranks"][v]
            dim = _cached_dim(ctx, v, deadline)
            if quo == img == dim:
                return True, "dim (S/I)_%d = image rank = dim R_%d = %d" \
                    % (v, v, dim)
            return False, "quotient=%d image=%d invariants=%d disagree" \
                % (quo, img, dim)
        rec.run("d=%d" % d, certify)

    return SuiteReport("kernel", q, {"max_degree": max_degree}, rec.items)


# ---------------------------------------------------------------------------
# product reduction certificates


@dataclass
class ReductionCertificate:
    q: int
    f: BasisSpec
    g: BasisSpec
    ell: dict              # BasisSpec -> polynomial in C0,C1,C0s,C1s
    cofactors: list        # five 7-variable polynomials, one per relation

    def to_dict(self):
        return {
            "q": self.q,
            "f": self.f.label(),
            "g": self.g.label(),
            "ell": {spec.label(): str(poly)
                    for spec, poly in sorted(self.ell.items(),
                                             key=lambda kv: kv[0].label())},
            # strict: a certificate without one cofactor per relation raises
            # rather than lose one from the report
            "cofactors": {name: str(poly) for name, poly in
                          zip(RELATION_NAMES, self.cofactors, strict=True)},
        }


def _build_fit_block(ctx, degree, dx, dy, deadline):
    """The module-fit block of the key (degree, dx, dy): a tuple of
    candidate labels (spec, (a, b, c, e)) and the read-only uint8 matrix of
    GF(q) indices whose column j is the block vector of C0^a C1^b C0s^c
    C1s^e times the value of spec, for label j.  C0, C1 (weights q^2-1,
    q^2-q) are x-only and C0s, C1s y-only, so a spec of value bidegree
    (vx, vy) takes the (a, b) of x-degree dx - vx, each with the (c, e) of
    y-degree dy - vy.

    Each column is the polynomial product of the N-monomial's image and
    the value, read off with _block_vector.  The memo keeps the bidegree of
    each basis value under ("bidegree", spec) and the image of each
    N-monomial under ("nimage", a, b, c, e).  The deadline is checked
    before each basis element."""
    q = ctx.q
    w1 = q * q - 1
    w2 = q * q - q

    def splits(r):   # (a, b) with a*w1 + b*w2 = r, a ascending
        return [(a, (r - a * w1) // w2) for a in range(r // w1 + 1)
                if (r - a * w1) % w2 == 0]

    cols = []
    labels = []
    for spec in ctx.enumerate_basis():
        check_deadline(deadline)
        if spec.degree(q) > degree:
            continue
        value = ctx.basis_value(spec)
        vx, vy = ctx.memo(("bidegree", spec),
                          lambda: ctx.r4_bidegree(value))
        for a, b in splits(dx - vx):
            for c, e in splits(dy - vy):
                mono = (a, b, c, e)
                labels.append((spec, mono))
                image = ctx.memo(("nimage",) + mono, lambda: (
                    ctx.c(0) ** a * ctx.c(1) ** b * ctx.cs(0) ** c
                    * ctx.cs(1) ** e))
                cols.append(_block_vector(image * value, dx, dy))
    if not cols:
        raise NotExpressible("no module candidates in degree %d" % degree)
    matrix = np.array(cols, dtype=np.uint8).T  # field indices are < 256
    matrix.flags.writeable = False
    return tuple(labels), matrix


def _fit_in_module(ctx, target, degree, deadline=None):
    """Write a bihomogeneous invariant as an N-combination of the basis, by
    exact linear algebra in its bidegree block.  Returns BasisSpec -> N-poly
    (a polynomial supported on C0, C1, C0s, C1s), or raises NotExpressible.
    It needs only the basis values, no Groebner basis.  Labels are unique
    within a block, so each nonzero entry of the solution is one term.

    No suite calls it: reduce_product finds ell from the C-last normal
    form.  It stays as the independent reference the tests compare that
    ell against.

    The block matrix depends only on (degree, bidegree), so each context
    builds it once, from polynomial products of the N-monomial images and
    the basis values (_build_fit_block), and keeps it in its memo under
    ("fit", degree, dx, dy); it factors it once, under ("factor", degree,
    dx, dy).  A build that raises, a timeout included, stores neither.
    Only the right-hand side is built per target, and every target's
    solution is re-checked against the whole block by
    linalg.solve_factored.
    """
    dx, dy = ctx.r4_bidegree(target)
    labels, block = ctx.memo(("fit", degree, dx, dy), lambda: _build_fit_block(
        ctx, degree, dx, dy, deadline))
    fact = ctx.memo(("factor", degree, dx, dy),
                    lambda: linalg.factor_field(block, ctx.field))
    sol = linalg.solve_factored(fact, block, _block_vector(target, dx, dy),
                                ctx.field)
    if sol is None:
        raise NotExpressible("target of degree %d is outside the module "
                             "span" % degree)

    ell = {}
    for x, (spec, mono) in zip(sol, labels):
        if x:
            ell.setdefault(spec, {})[ctx.S7.pack(mono + (0, 0, 0))] = x
    return {spec: Polynomial(ctx.S7, terms) for spec, terms in ell.items()}


# S7's variables with the C's last.  Under weighted grevlex in this order the
# five relations are already a Groebner basis, and every leading term is a
# U-monomial, so S7/I is free over k[C0, C1, C0s, C1s] on the U-monomials
# B_U outside the leading terms (Bayer and Stillman, Invent. Math. 87, 1987).
_CLAST_NAMES = ("Um1", "U0", "U1", "C0", "C1", "C0s", "C1s")
# the U-exponent chunks of a C-last key, below its weighted degree
_CLAST_UMASK = ((1 << 3 * CHUNK) - 1) << 4 * CHUNK
# the U-exponent chunks of an S7 key: Um1, U0 and U1 are its last variables
_S7_UMASK = (1 << 3 * CHUNK) - 1


def _u_basis(ring, gb, q):
    """B_U: the packed keys of the U-monomials no leading term of gb
    divides.  The pure powers Um1^q, U0^(q^2-1) and U1^q among the leading
    terms bound every exponent."""
    first_divisor = gb.index.first_divisor
    keys = (ring.pack((a, b, c, 0, 0, 0, 0)) for a in range(q)
            for b in range(q * q - 1) for c in range(q))
    return [key for key in keys if first_divisor(key) < 0]


class _CLast(NamedTuple):
    """The product certificates' data in the C-last ring, built once per
    context by _build_clast.  For spec index m: pullbacks[m] is the pullback
    p_m in ring, and NF(p_m) = sum_b L_{m,b}(C) b, with p_m - NF(p_m) =
    sum_i cofactors[m][i] rel_i (term dicts).  Relation i is u times the
    Groebner basis element k for (k, u) = on_basis[i], so its cofactor is
    u times that element's.  tails[m] holds the terms of NF(p_m) outside
    its constant part L(0), and shifts[m] their C-monomials.  units maps
    the U-exponent bits of each b in B_U to its packed key, and blocks maps
    a degree d to the keys of B_U of degree d and, for each, the row of the
    inverse of L(0)'s block of degree d as {spec index: coefficient}."""

    ring: PolyRing
    gb: object
    on_basis: list
    index: dict
    pullbacks: list
    cofactors: list
    tails: list
    shifts: list
    units: dict
    blocks: dict


def _build_clast(ctx, relations, deadline=None):
    """The C-last data of ctx (_CLast) for the relations T1, T1s, T00,
    T01, T10 in that order.

    Raises NotExpressible, before it enumerates B_U, unless the relations
    form a Groebner basis in the C-last order with the five pure-U leading
    terms, and each element of the reduced basis is a constant times one
    relation (distinct leading terms make that match one to one); and
    unless every block of L(0) is square and nonsingular.  Then B_U is
    finite and the basis M is a k[C]-basis of S7/I.  Each block B is
    inverted once, by one elimination of [B | I] (linalg.inverse_field),
    and each row of its inverse is kept as Python ints.  Checks the
    deadline before each basis pullback and each block."""
    q, fld = ctx.q, ctx.field
    weight = dict(zip(ctx.S7.names, ctx.S7.weights))
    ring = PolyRing(fld, _CLAST_NAMES,
                    weights=[weight[nm] for nm in _CLAST_NAMES])
    # once per context, through the groebner module: the names verify
    # imports serve the reduction made per product alone
    gb = groebner.buchberger([rel.remap(ring) for rel in relations],
                             track=True, deadline=deadline)
    leading = sorted(ring.unpack(key) for key in gb.lt_keys)
    # U1^q, Um1^q, U0^(q^2-1), U0^(q^2-q-1) U1 and Um1 U0^(q^2-q-1)
    if leading != sorted(exps + (0, 0, 0, 0) for exps in (
            (0, 0, q), (q, 0, 0), (0, q * q - 1, 0), (0, q * q - q - 1, 1),
            (1, q * q - q - 1, 0))):
        raise NotExpressible("the relations in the C-last order have "
                             "leading terms %s, not the five pure-U ones"
                             % leading)
    on_basis = [None] * len(relations)
    for k, rep in enumerate(gb.reps):
        entries = [(i, r.terms) for i, r in enumerate(rep) if r]
        if len(entries) != 1 or set(entries[0][1]) != {0}:
            raise NotExpressible("the reduced basis element %d is not a "
                                 "constant times one relation" % k)
        i, terms = entries[0]
        on_basis[i] = k, terms[0]
    units = {key & _CLAST_UMASK: key for key in _u_basis(ring, gb, q)}

    specs = ctx.enumerate_basis()
    pullbacks, cofactors, tails, shifts, constant = [], [], [], [], []
    for spec in specs:
        check_deadline(deadline)
        pull = ctx.basis_pullback(spec).remap(ring)
        rem, cof = groebner.normal_form(pull, gb, track=True)
        pullbacks.append(pull)
        cofactors.append([K.scale_terms(cof[k].terms, u, 0, fld)
                          for k, u in on_basis])
        tail, shift, at0 = {}, set(), {}
        for key, c in rem.terms.items():
            unit = units[key & _CLAST_UMASK]
            if key == unit:
                at0[key] = c
            else:
                tail[key] = c
                shift.add(key - unit)
        tails.append(tail)
        shifts.append(shift)
        constant.append(at0)

    rows_of, cols_of = {}, {}
    for m, spec in enumerate(specs):
        rows_of.setdefault(spec.degree(q), []).append(m)
    for key in units.values():
        cols_of.setdefault(ring.key_wdeg(key), []).append(key)
    blocks = {}
    for d in sorted(set(rows_of) | set(cols_of)):
        check_deadline(deadline)
        rows, cols = rows_of.get(d, []), sorted(cols_of.get(d, []))
        if len(rows) != len(cols):
            raise NotExpressible("the block of L(0) in degree %d is %d x %d, "
                                 "not square" % (d, len(rows), len(cols)))
        block = np.array([[constant[m].get(key, 0) for key in cols]
                          for m in rows], dtype=np.uint8)
        inverse = linalg.inverse_field(block, fld)
        if inverse is None:
            raise NotExpressible("the block of L(0) in degree %d is singular"
                                 % d)
        # Python ints: a numpy scalar would wrap in the kernels' index sums
        blocks[d] = cols, [{m: x for m, x in zip(rows, row) if x}
                           for row in inverse.tolist()]
    return _CLast(ring, gb, on_basis,
                  {spec: m for m, spec in enumerate(specs)},
                  pullbacks, cofactors, tails, shifts, units, blocks)


def _clast(ctx, deadline=None):
    """ctx's C-last data (_CLast), kept in its memo under "clast".  A
    refusal is kept too: the message of a NotExpressible build goes under
    "clast-refusal", and every later call raises it again without building.
    A timeout keeps nothing."""
    refusal = ctx.memo("clast-refusal", list)
    if refusal:
        raise NotExpressible(refusal[0])
    try:
        return ctx.memo("clast", lambda: _build_clast(
            ctx, ctx.ideal_generators(), deadline))
    except NotExpressible as exc:
        refusal.append(str(exc))
        raise


def reduce_product(field, spec_f, spec_g, deadline=None):
    """Certificate that the product of two basis elements lies in the free
    module modulo the relation ideal: an N-combination ell plus cofactors
    witnessing f*g - ell as an exact combination of the five relations.

    One tracked normal form in the C-last ring (_build_clast, built once per
    context under this deadline) gives P = pf*pg = sum_i c_i rel_i +
    sum_b l_b(C) b.  ell solves ell L = l by back-substitution in increasing
    C-degree: at each C-monomial g, ell_g is the part of l_g that the lower
    ones leave unexplained times the inverse of L(0)'s block of degree
    deg P - deg g, and ell_g (L - L(0)) is pushed to the higher g's.  ell is
    unique, since the basis is a k[C]-basis of S7/I.  The cofactors are
    c_i - sum_m ell_m e_{m,i}; they are one valid choice among many."""
    ctx = context(field)
    q = ctx.q
    spec_f.validate(q)
    spec_g.validate(q)
    degree = spec_f.degree(q) + spec_g.degree(q)
    cl = _clast(ctx, deadline)
    ring, units, fld = cl.ring, cl.units, ctx.field
    product = cl.pullbacks[cl.index[spec_f]] * cl.pullbacks[cl.index[spec_g]]
    rem, cof = normal_form(product, cl.gb, track=True)
    cofactors = [K.scale_terms(cof[k].terms, u, 0, fld)
                 for k, u in cl.on_basis]

    pending = dict(rem.terms)
    heap = sorted({key - units[key & _CLAST_UMASK] for key in pending})
    seen = set(heap)
    ell = {}
    while heap:
        gamma = heapq.heappop(heap)
        block = cl.blocks.get(degree - ring.key_wdeg(gamma))
        if block is None:
            continue
        coords = {}
        for key, row in zip(*block):
            c = pending.pop(gamma + key, 0)
            if c:
                K.iadd_scaled(coords, row, c, 0, fld)
        for m, x in coords.items():
            ell.setdefault(m, {})[gamma] = x
            minus = fld.neg_flat[x]
            K.iadd_scaled(pending, cl.tails[m], minus, gamma, fld)
            for acc, terms in zip(cofactors, cl.cofactors[m]):
                K.iadd_scaled(acc, terms, minus, gamma, fld)
            for shift in cl.shifts[m]:
                if gamma + shift not in seen:
                    seen.add(gamma + shift)
                    heapq.heappush(heap, gamma + shift)
    if pending:
        raise NotExpressible("the normal form of the product is outside the "
                             "span of the basis")
    specs = ctx.enumerate_basis()
    S7 = ctx.S7
    return ReductionCertificate(
        q, spec_f, spec_g,
        {specs[m]: Polynomial(ring, ell[m]).remap(S7) for m in sorted(ell)},
        [Polynomial(ring, terms).remap(S7) for terms in cofactors])


def _kept(ctx, key, sources, build):
    """build(), kept in ctx's memo under key beside the objects of sources
    it read: when one of them is no longer the object kept, it is built
    again."""
    kept = ctx.memo(key, list)
    if not kept or any(a is not b for a, b in zip(kept[0], sources)):
        kept[:] = sources, build()
    return kept[1]


def verify_certificate(field, cert):
    """Re-verify a certificate by pure expansion: the exact 7-variable
    cofactor identity on the full ell, then the facts about the context
    that carry it to the evaluated module identity pi(ell) = f*g in the
    base ring.  Shares nothing with the construction beyond polynomial
    arithmetic: it reads no C-last data, fit block, factorization or
    Groebner basis, and takes the image of a pullback from pi, never from
    basis_value.

    A certificate needs exactly one cofactor per relation, and fails
    otherwise.  An ell or cofactor polynomial outside S7 raises
    RingMismatch, and a product beyond EXP_CAP ExponentOverflow, as the
    polynomial product would.  The cofactor identity accumulates pf*pg -
    sum_b ell_b p_b - sum_r c_r r in one term dict (mpoly.iadd_product),
    which must come out empty.

    pi is a ring homomorphism, so once that identity holds, sum_b pi(ell_b)
    pi(p_b) = pi(pf) pi(pg) - sum_r pi(c_r) pi(r).  The evaluated identity
    then follows from three facts that do not depend on the certificate:
    pi(r) = 0 for the five relations, pi(pf) = value(f) and pi(pg) =
    value(g).  Each is checked once and kept in the memo beside the objects
    it compared (_kept): the relations under "relations-vanish", and each
    pullback with its value under ("pullback-value", spec), so a relation,
    pullback or value replaced in the memo is compared again."""
    ctx = context(field)
    S7 = ctx.S7
    if len(cert.cofactors) != len(RELATION_NAMES):
        return False, "certificate has %d cofactors, not %d (one per " \
            "relation)" % (len(cert.cofactors), len(RELATION_NAMES))
    # a polynomial of another ring raises before its keys are read
    for poly in (*cert.ell.values(), *cert.cofactors):
        if not isinstance(poly, Polynomial) \
                or poly.ring is not S7 and poly.ring != S7:
            raise RingMismatch("certificate polynomial %r is not in %r"
                               % (poly, S7))
    if any(key & _S7_UMASK for npoly in cert.ell.values()
           for key in npoly.terms):
        return False, "ell coefficient uses a non-N variable"

    # pf*pg - sum_b ell_b p_b - sum_r c_r r, accumulated in one term dict
    pf, pg = ctx.basis_pullback(cert.f), ctx.basis_pullback(cert.g)
    relations = tuple(ctx.relation(name) for name in RELATION_NAMES)
    identity = {}
    iadd_product(identity, pf, pg)
    minus = ctx.field.neg_flat[1]
    for spec, npoly in cert.ell.items():
        iadd_product(identity, ctx.basis_pullback(spec), npoly, minus)
    for cofactor, rel in zip(cert.cofactors, relations):
        iadd_product(identity, rel, cofactor, minus)
    if identity:
        return False, "cofactor identity fails: %s" \
            % _clip(Polynomial(S7, identity))

    bad = _kept(ctx, "relations-vanish", relations, lambda: [
        name for name, rel in zip(RELATION_NAMES, relations) if ctx.pi(rel)])
    if bad:
        return False, "nonvanishing relations: %s" % ", ".join(bad)
    for spec, pull in ((cert.f, pf), (cert.g, pg)):
        value = ctx.basis_value(spec)
        if not _kept(ctx, ("pullback-value", spec), (pull, value),
                     lambda: ctx.pi(pull) == value):
            return False, "evaluated ell does not match the product"
    return True, "certificate verified by expansion (%d ell terms)" \
        % sum(len(p) for p in cert.ell.values())


def _congruence(lhs, rhs, basis):
    """Whether lhs - rhs reduces to 0 modulo basis, in basis's ring."""
    red = normal_form((lhs - rhs).remap(basis.ring), basis)
    if not red:
        return True, "congruence holds"
    return False, "nonzero normal form: %s" % _clip(red)


def _carry_decomposition(q):
    bad = []
    for i1 in range(q):
        for i2 in range(q):
            li, i3 = divmod(i1 + i2, q)
            if li not in (0, 1) or (li == 0 and i3 > q - 1) \
                    or (li == 1 and i3 > q - 2):
                bad.append((i1, i2))
    for t1 in range(q - 1):
        for t2 in range(q - 1):
            lt, t3 = divmod(t1 + t2, q - 1)
            if lt not in (0, 1) or (lt == 0 and t3 > q - 2) \
                    or (lt == 1 and t3 > q - 3):
                bad.append(("t", t1, t2))
    return bad


def _sample_count(sample):
    """sample as the report records it: "all", or a positive pair count as
    a decimal string.  Anything else raises VerifyError."""
    if sample == "all":
        return sample
    try:
        n = int(sample) if isinstance(sample, (int, str)) else 0
    except ValueError:
        n = 0
    if n < 1 or isinstance(sample, bool):
        raise VerifyError("sample takes 'all' or a positive pair count, "
                          "got %r" % (sample,))
    return str(n)


class _Pairs(Sequence):
    """The pairs (specs[i], specs[j]) with i <= j, ordered by i and then j,
    without building them: pair k is found from k alone, so sampling a few
    of the n(n+1)/2 pairs holds only the pairs drawn."""

    def __init__(self, specs):
        self._specs = specs
        self._len = len(specs) * (len(specs) + 1) // 2

    def __len__(self):
        return self._len

    def __getitem__(self, k):
        if not 0 <= k < self._len:
            raise IndexError("pair index out of range")
        # the pairs from row i on number m(m+1)/2, m = n - i
        rest = self._len - k
        m = (math.isqrt(8 * rest + 1) - 1) // 2
        if m * (m + 1) // 2 < rest:
            m += 1
        i = len(self._specs) - m
        return self._specs[i], self._specs[i + m * (m + 1) // 2 - rest]


def _product_congruence(ctx, basis, deadline=None):
    """The A-family product rule with exponent carries, modulo basis (a
    Gröbner basis of the relations, in S7 or in the C-last ring): for
    every pair of A-specs (i, j, t), (i', j', t'), with (I, J, T) their sum,

        x_pullback(i, j, t) * x_pullback(i', j', t')
            = carry_i^li * carry_j^lj * carry_t^lt * x_pullback(I', J', T')

    where (li, I') = divmod(I, q), (lj, J') = divmod(J, q) and
    (lt, T') = divmod(T, q - 1).  The carries are what T1s, T1 and T00 make
    of Um1^q, U1^q and W^(q-1): C1s*U0^q - C0s*U1, C1*U0^q - C0*Um1 and
    C0*C0s.

    No pair is visited.  One normal form per A-spec, in basis order, proves
    x_pullback(i, j, t) congruent to Um1^i * U1^j * W^t, and one per carry
    proves Um1^q, U1^q and W^(q-1) congruent to their carries:
    q^2 (q-1) + 3 in all.  Every pair follows, since congruence modulo the
    relations respects products: its left side is congruent to
    Um1^I * U1^J * W^T = (Um1^q)^li * (U1^q)^lj * (W^(q-1))^lt
    * Um1^I' * U1^J' * W^T', so to the carries times x_pullback(I', J', T'),
    as (I', J', T') is an A-spec.  congruence:exponent-carry checks that
    every sum splits so.  A failing spec is named as its pair with A:0,0,0,
    a failing carry by its power."""
    q = ctx.q
    U0, U1, Um1 = ctx.S7var("U0"), ctx.S7var("U1"), ctx.S7var("Um1")
    C0, C1, C0s, C1s = (ctx.S7var(nm) for nm in ("C0", "C1", "C0s", "C1s"))
    um1_pow = [Um1 ** e for e in range(q + 1)]
    u1_pow = [U1 ** e for e in range(q + 1)]
    w_pow = [ctx.w_poly() ** e for e in range(q)]

    def reduce(f):
        check_deadline(deadline)
        return normal_form(f.remap(basis.ring), basis)

    a_specs = [sp for sp in ctx.enumerate_basis() if sp.kind == "A"]
    for sp in a_specs:
        red = reduce(um1_pow[sp.i] * u1_pow[sp.j] * w_pow[sp.t]
                     - ctx.x_pullback(sp.i, sp.j, sp.t))
        if red:
            return False, "pair %s * %s: nonzero normal form %s" \
                % (a_specs[0].label(), sp.label(), _clip(red))
    U0q = U0 ** q
    for power, lhs, carry in (
            ("Um1^%d" % q, um1_pow[q], C1s * U0q - C0s * U1),
            ("U1^%d" % q, u1_pow[q], C1 * U0q - C0 * Um1),
            ("W^%d" % (q - 1), w_pow[q - 1], C0 * C0s)):
        red = reduce(lhs - carry)
        if red:
            return False, "carry %s: nonzero normal form %s" \
                % (power, _clip(red))
    n = len(a_specs)
    return True, "congruence holds for all %d pairs" % (n * (n + 1) // 2)


def check_products(field, sample="all", seed=0, deadline=None):
    sample = _sample_count(sample)
    # random.Random(None) would seed from system entropy
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise VerifyError("seed must be an integer, got %r" % (seed,))
    ctx = context(field)
    q = ctx.q
    params = {"sample": sample}
    if sample != "all":
        params["seed"] = seed
    rec = _Recorder(deadline)

    pairs = _Pairs(ctx.enumerate_basis())
    if sample != "all":
        rng = random.Random(seed)
        pairs = rng.sample(pairs, min(int(sample), len(pairs)))

    for f, g in pairs:
        def one(a=f, b=g):
            cert = reduce_product(field, a, b, deadline=deadline)
            return verify_certificate(field, cert)
        rec.run("reduce(%s,%s)" % (f.label(), g.label()), one)

    U0 = ctx.S7var("U0")
    U1 = ctx.S7var("U1")
    Um1 = ctx.S7var("Um1")

    # the C-last basis of the certificates, built by the first item to run
    def gb():
        return _clast(ctx, deadline).gb

    rec.run("congruence:base", lambda: _congruence(
        Um1 ** (q - 1) * U0,
        ctx.S7var("C1s") * U1 - ctx.z_pullback(1, 0, 0), gb()))
    for s in range(1, q - 1):
        rec.run("congruence:recursion(%d)" % s, lambda v=s: _congruence(
            ctx.z_pullback(v, 0, 0) * U1,
            U0 * Um1 ** (q - 1 - v) * ctx.w_poly() ** v
            + ctx.z_pullback(v + 1, 0, 0), gb()))

    def decomposition():
        bad = _carry_decomposition(q)
        if not bad:
            return True, "carry ranges verified for all index pairs"
        return False, "range violation at %s" % bad[:4]

    rec.run("congruence:exponent-carry", decomposition)

    rec.run("congruence:products",
            lambda: _product_congruence(ctx, gb(), deadline))

    return SuiteReport("products", q, params, rec.items)


# ---------------------------------------------------------------------------
# whole-kernel crosscheck by variable elimination


def _elimination_generators(ctx):
    """V - image(V) for the seven abstract variables V, in the 11-variable
    ring of the four base variables and the seven abstract ones, under lex
    with the base variables highest."""
    names = R4_NAMES + S7_NAMES
    weights = (1, 1, 1, 1) + tuple(s7_weights(ctx.q))
    R11 = PolyRing(ctx.field, names, weights=weights, order="lex")
    images = ctx.pi_images()
    return [R11.var(nm) - images[nm].remap(R11) for nm in S7_NAMES]


def _elimination_grading(q):
    """The (x-degree, y-degree) of each variable of the elimination ring.
    Each generator V - image(V) is bihomogeneous, and V occurs nowhere
    else, so R11 modulo them is F_q[x1, x2, y1, y2], of dimension
    (a+1)(b+1) in bidegree (a, b), whatever the relations are."""
    return ((1, 0), (1, 0), (0, 1), (0, 1)) + s7_bidegrees(q)


def elimination_crosscheck(field, deadline=None):
    """Independent, all-degrees computation of the evaluation kernel.

    Works in the combined 11-variable ring under a lex order that places the
    four base variables above the seven abstract ones: the pure abstract
    part of a full lex basis of <V - image(V)> generates the whole kernel,
    with no degree bound. The lex basis is Hilbert-driven by the bigrading,
    which skips the S-pairs of each bidegree once it is complete. The suite
    passes when its reduced basis equals the reduced basis of the five
    known relations.
    """
    ctx = context(field)
    q = ctx.q
    rec = _Recorder(deadline)
    state = {}

    def lex_elimination():
        gb = buchberger(_elimination_generators(ctx), deadline=deadline,
                        grading=_elimination_grading(q))
        R11 = gb.ring
        pure = [f for f in gb.basis
                if not any(any(R11.unpack(k)[:4]) for k in f.terms)]
        if not pure:
            return False, "no eliminated elements in a %d-element basis" \
                % len(gb.basis)
        state["pure"] = pure
        return True, "basis size %d, eliminated %d" \
            % (len(gb.basis), len(pure))

    rec.run("lex-elimination", lex_elimination)

    def ideal_equality():
        if "pure" not in state:
            return False, "no eliminated ideal to compare"
        S7 = ctx.S7
        elim = [f.remap(S7) for f in state["pure"]]
        gb_elim = buchberger(elim, deadline=deadline)
        gb_ideal = buchberger(ctx.ideal_generators(), deadline=deadline)
        a = sorted(str(f) for f in gb_elim.basis)
        b = sorted(str(f) for f in gb_ideal.basis)
        if a != b:
            only_a = [f for f in a if f not in b]
            only_b = [f for f in b if f not in a]
            return False, "reduced bases differ; kernel-only %d, " \
                "relations-only %d" % (len(only_a), len(only_b))
        return True, "reduced bases identical (%d elements)" % len(a)

    rec.run("ideal-equality", ideal_equality)
    return SuiteReport("elimination", q, {}, rec.items)


# ---------------------------------------------------------------------------
# negative controls: every deliberate corruption must be caught


def negative_controls(field, max_degree=None, deadline=None):
    ctx = context(field)
    q = ctx.q
    if max_degree is None:
        max_degree = default_max_degree(q)
    _check_max_degree(max_degree)
    rec = _Recorder(deadline)

    def corrupted_t1():
        good = ctx.relation("T1")
        flipped = good + ctx.S7var("C1") * ctx.S7var("U0") ** q * 2 \
            if field.p > 2 else good + ctx.S7var("C1") * ctx.S7var("U0") ** q
        image = ctx.pi(flipped)
        if image:
            return True, "sign flip detected: %s" % _clip(image)
        return False, "corrupted relation still evaluates to 0"

    rec.run("corrupted-T1", corrupted_t1)

    def dropped_t10():
        gens = [ctx.relation(n) for n in RELATION_NAMES if n != "T10"]
        small = buchberger(gens, bound=max_degree, track=False,
                           deadline=deadline)
        for d in range(max_degree + 1):
            count = standard_monomial_count(small, d)
            if count != _cached_dim(ctx, d, deadline):
                return True, "dimension excess detected at degree %d " \
                    "(%d > %d)" % (d, count, _cached_dim(ctx, d))
        return False, "dropping a relation went unnoticed through degree " \
            "%d" % max_degree

    rec.run("dropped-T10", dropped_t10)

    def misplaced_family():
        if q == 2:
            return True, "skipped: the uncoupled range is empty at q=2"
        # family C with its t range uncoupled from s: one element per
        # (s, k, t) instead of a pair over the coupled range
        degrees = [spec.degree(q) for spec in ctx.enumerate_basis()
                   if spec.kind != "C"]
        degrees += [q * q - q + s * (q + 1) + 2 * k + t * (2 * q + 2)
                    for s in range(1, q - 1) for k in range(q)
                    for t in range(q - 1)]
        coef = _module_series(q, degrees, max_degree)
        for d in range(max_degree + 1):
            if coef[d] != _cached_dim(ctx, d, deadline):
                return True, "uncoupled basis ranges detected at degree %d " \
                    "(%d != %d)" % (d, coef[d], _cached_dim(ctx, d))
        return False, "uncoupled basis ranges went unnoticed through " \
            "degree %d" % max_degree

    rec.run("misplaced-family-C", misplaced_family)

    def noninvariant():
        ok, witness = is_invariant(ctx.R4.var("x1"), enumerate_gl2(field),
                                   deadline)
        if not ok:
            return True, "x1 moved by %r" % (witness,)
        return False, "x1 reported invariant"

    rec.run("noninvariant-witness", noninvariant)

    def nonmember():
        gb = _exact_gb(ctx, max_degree, deadline)
        red = normal_form(ctx.S7var("U0"), gb)
        if red:
            return True, "U0 has nonzero normal form as it must"
        return False, "U0 reduced to 0"

    rec.run("nonmember-nonzero", nonmember)
    return SuiteReport("controls", q, {"max_degree": max_degree}, rec.items)
