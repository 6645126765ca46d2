"""Check suites that turn every claimed property of the invariant ring into
a machine verdict: identity expansion, group invariance, the three-way
dimension count, degreewise kernel certification, and product-reduction
certificates with independent re-verification.

Every suite returns a SuiteReport whose JSON form is byte-stable for a fixed
configuration: timings, version data and the traceback of any item that
raised unexpectedly live in a separate volatile block.
"""

from __future__ import annotations

import json
import random
import time
import traceback
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from . import linalg
from ._version import __version__
from .action import R4_NAMES, enumerate_gl2, enumerate_sl2, \
    involution_star, invariant_dimension, is_invariant
from .gens import BasisSpec, RELATION_NAMES, S7_NAMES, context, s7_weights
from .groebner import TimeoutExceeded, buchberger, check_deadline, \
    cofactors_on_inputs, normal_form, standard_monomial_count
from .mpoly import CHUNK, MASK, Polynomial, PolyRing


class VerifyError(Exception):
    pass


class NotExpressible(VerifyError):
    """A product failed to fit in the free module; firing on valid input
    would falsify the module-basis property itself."""


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


# ---------------------------------------------------------------------------
# shared results, kept in the per-field context's memo


def _exact_gb(ctx, bound, deadline=None):
    """The Gröbner basis of the relation ideal truncated at exactly bound.
    Report items print its size and pair count, so they must not see a
    basis built earlier in the process for another bound."""
    bases = ctx.memo("gb", dict)
    gb = bases.get(bound)
    if gb is None:
        gb = bases[bound] = buchberger(ctx.ideal_generators(), bound=bound,
                                       track=True, deadline=deadline)
    return gb


def _cached_gb(ctx, bound, deadline=None):
    """A held basis truncated at bound or higher, else one built at bound:
    remainders of polynomials of degree <= bound do not depend on which."""
    bases = ctx.memo("gb", dict)
    top = max(bases, default=-1)
    return bases[top] if top >= bound else _exact_gb(ctx, bound, deadline)


def _cached_dim(ctx, d, deadline=None):
    return ctx.memo(("dim", d), lambda: invariant_dimension(
        ctx.field, d, deadline=deadline))


def _pow_list(ctx, name, base, upto):
    lst = ctx.memo(("pow", name), lambda: [base.ring.one])
    while len(lst) <= upto:
        lst.append(lst[-1] * base)
    return lst


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
    bidegree (a, b), one slot per monomial x1^e1 x2^(a-e1) y1^e3 y2^(b-e3)
    at e1*(b+1) + e3.

    Reads e1 and e3 straight off the packed keys and never looks at e2 or
    e4: the caller vouches for the bidegree."""
    n = poly.ring.n
    sh1 = CHUNK * (n - 1)   # x1, the first variable
    sh3 = CHUNK * (n - 3)   # y1, the third
    width = b + 1
    vec = [0] * ((a + 1) * width)
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
    for s in range(q - 1):
        rec.run("Rs(%d)" % s,
                lambda v=s: _zero_item(ctx.identity_poly("Rs", s=v)))
    for s in range(1, q):
        rec.run("Ks(%d)" % s,
                lambda v=s: _zero_item(ctx.identity_poly("Ks", s=v)))
    for s in range(1, q):
        rec.run("Kss(%d)" % s,
                lambda v=s: _zero_item(ctx.identity_poly("Kss", s=v)))
    for s in range(q):
        rec.run("Hs(%d)" % s,
                lambda v=s: _zero_item(ctx.identity_poly("HsId", s=v)))

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
        ok, witness = is_invariant(poly, elements)
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
        if q == 2:
            ok, witness = is_invariant(ctx.d(2), gl2)
            if ok:
                return True, "d2 fixed by all of GL2 (every determinant is 1)"
            return False, "moved by %r" % (witness,)
        ok, witness = is_invariant(ctx.d(2), gl2)
        if not ok:
            return True, "d2 moved by %r as it must be" % (witness,)
        return False, "d2 unexpectedly fixed by all of GL2"

    rec.run("d2-control", d2_control)
    return SuiteReport("invariance", q, {}, rec.items)


# ---------------------------------------------------------------------------
# hilbert: three independent dimension counts


def check_hilbert(field, max_degree, deadline=None):
    if max_degree < 0:
        raise VerifyError("max_degree must be nonnegative")
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

    def make_gb():
        gb = _exact_gb(ctx, max_degree, deadline)
        state["gb"] = gb
        return True, "%d basis elements, %d pairs processed" \
            % (len(gb.basis), gb.pairs_processed)

    rec.run("groebner", make_gb)
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
    """
    S = ctx.S7
    field = ctx.field
    n = S.n
    weights = S.weights
    images = [ctx.pi_images()[name] for name in S7_NAMES]
    bidegs = ctx.bidegrees
    lts = [S.unpack(k) for k in gb.lt_keys]

    counts = [0] * (bound + 1)
    buckets = {}
    exps = [0] * n

    def dominated(pos):
        # some leading term fits inside the exponents fixed so far
        for lt in lts:
            ok = True
            for i in range(n):
                if i <= pos:
                    if lt[i] > exps[i]:
                        ok = False
                        break
                elif lt[i]:
                    ok = False
                    break
            if ok:
                return True
        return False

    def emit(poly, wd):
        a = b = 0
        for i in range(n):
            if exps[i]:
                da, db = bidegs[i]
                a += exps[i] * da
                b += exps[i] * db
        counts[wd] += 1
        buckets.setdefault((wd, a, b), []).append(_block_vector(poly, a, b))

    def rec(pos, poly, wd):
        check_deadline(deadline)
        if pos == n:
            emit(poly, wd)
            return
        e = 0
        cur = poly
        while True:
            exps[pos] = e
            if dominated(pos):
                break
            rec(pos + 1, cur, wd + e * weights[pos])
            e += 1
            if wd + e * weights[pos] > bound:
                break
            cur = cur * images[pos]
        exps[pos] = 0

    rec(0, ctx.R4.one, 0)

    ranks = [0] * (bound + 1)
    for (wd, _a, _b), rows in sorted(buckets.items()):
        check_deadline(deadline)
        ranks[wd] += linalg.rank_field(rows, field)
    return counts, ranks


def check_kernel(field, max_degree, deadline=None):
    if max_degree < 0:
        raise VerifyError("max_degree must be nonnegative")
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

    def make_gb():
        gb = _exact_gb(ctx, max_degree, deadline)
        state["gb"] = gb
        return True, "%d basis elements, %d pairs processed" \
            % (len(gb.basis), gb.pairs_processed)

    rec.run("groebner", make_gb)

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
            "cofactors": {name: str(poly) for name, poly in
                          zip(RELATION_NAMES, self.cofactors)},
        }


_N_VARS = frozenset((0, 1, 2, 3))


def _n_monomials(q, degree):
    """All (a, b, c, e) with a,c weighing q^2-1 and b,e weighing q^2-q
    summing to the requested degree, in lexicographic order."""
    w1 = q * q - 1
    w2 = q * q - q
    out = []
    for a in range(degree // w1 + 1):
        r1 = degree - a * w1
        for b in range(r1 // w2 + 1):
            r2 = r1 - b * w2
            for c in range(r2 // w1 + 1):
                r3 = r2 - c * w1
                if r3 % w2 == 0:
                    out.append((a, b, c, r3 // w2))
    return out


def _build_fit_block(ctx, degree, dx, dy, deadline):
    """The module-fit block of the key (degree, dx, dy): a tuple of
    candidate labels (spec, (a, b, c, e)) and the read-only uint8 matrix of
    GF(q) indices whose column j is the block vector of C0^a C1^b C0s^c
    C1s^e times the value of spec, for label j.  The bidegree of each basis
    value is kept in the memo too.  The deadline is checked before each
    basis element."""
    q = ctx.q
    w1 = q * q - 1
    w2 = q * q - q

    c0p = _pow_list(ctx, "c0", ctx.c(0), degree // w1 + 1)
    c1p = _pow_list(ctx, "c1", ctx.c(1), degree // w2 + 1)
    c0sp = _pow_list(ctx, "c0s", ctx.cs(0), degree // w1 + 1)
    c1sp = _pow_list(ctx, "c1s", ctx.cs(1), degree // w2 + 1)

    cols = []
    labels = []
    for spec in ctx.enumerate_basis():
        check_deadline(deadline)
        dv = spec.degree(q)
        if dv > degree:
            continue
        value = ctx.basis_value(spec)
        vx, vy = ctx.memo(("bidegree", spec),
                          lambda: ctx.r4_bidegree(value))
        for (a, b, c, e) in _n_monomials(q, degree - dv):
            nx = a * w1 + b * w2
            ny = c * w1 + e * w2
            if (vx + nx, vy + ny) != (dx, dy):
                continue
            labels.append((spec, (a, b, c, e)))
            cols.append(_block_vector(
                c0p[a] * c1p[b] * c0sp[c] * c1sp[e] * value, dx, dy))
    if not cols:
        raise NotExpressible("no module candidates in degree %d" % degree)
    matrix = np.array(cols, dtype=np.uint8).T  # field indices are < 256
    matrix.flags.writeable = False
    return tuple(labels), matrix


def _fit_in_module(ctx, target, degree, deadline=None):
    """Write a bihomogeneous invariant as an N-combination of the basis, by
    exact linear algebra in its bidegree block.  Returns BasisSpec -> N-poly
    (a polynomial supported on C0, C1, C0s, C1s), or raises NotExpressible.

    The block matrix depends only on (degree, bidegree), so each context
    builds it once and keeps it in its memo under ("fit", degree, dx, dy);
    a build that raises, a timeout included, stores nothing.  Only the
    right-hand side is built per target, and every target is still solved,
    and its solution re-checked, by linalg.solve_generic.
    """
    field = ctx.field
    S = ctx.S7
    dx, dy = ctx.r4_bidegree(target)
    labels, block = ctx.memo(("fit", degree, dx, dy), lambda: _build_fit_block(
        ctx, degree, dx, dy, deadline))
    sol = linalg.solve_generic(block, _block_vector(target, dx, dy), field)
    if sol is None:
        raise NotExpressible("target of degree %d is outside the module "
                             "span" % degree)

    ell = {}
    for x, (spec, (a, b, c, e)) in zip(sol, labels):
        x = int(x)
        if not x:
            continue
        key = S.pack((a, b, c, e, 0, 0, 0))
        cur = ell.get(spec)
        if cur is None:
            cur = ell[spec] = Polynomial(S, {})
        cur.terms[key] = field.add_i(cur.terms.get(key, 0), x)
    return {spec: poly for spec, poly in ell.items() if poly}


def reduce_product(field, spec_f, spec_g, gb=None, deadline=None):
    """Certificate that the product of two basis elements lies in the free
    module modulo the relation ideal: an N-combination ell plus cofactors
    witnessing f*g - ell as an exact combination of the five relations."""
    ctx = context(field)
    q = ctx.q
    spec_f.validate(q)
    spec_g.validate(q)
    pf = ctx.basis_pullback(spec_f)
    pg = ctx.basis_pullback(spec_g)
    prod = pf * pg
    degree = spec_f.degree(q) + spec_g.degree(q)
    if gb is None or gb.bound < degree:
        gb = _cached_gb(ctx, degree, deadline)
    rem, cof = normal_form(prod, gb, track=True)
    cof1 = cofactors_on_inputs(gb, cof)

    target = ctx.basis_value(spec_f) * ctx.basis_value(spec_g)
    ell = _fit_in_module(ctx, target, degree, deadline=deadline)

    ell_s7 = ctx.S7.zero
    for spec, npoly in ell.items():
        ell_s7 = ell_s7 + npoly * ctx.basis_pullback(spec)
    rem2, cof_extra = normal_form(rem - ell_s7, gb, track=True)
    if rem2:
        raise NotExpressible("normal form of the fitted remainder is not 0")
    cof2 = cofactors_on_inputs(gb, cof_extra)
    cofactors = [a + b for a, b in zip(cof1, cof2)]
    return ReductionCertificate(q, spec_f, spec_g, ell, cofactors)


def verify_certificate(field, cert):
    """Re-verify a certificate by pure expansion: the exact 7-variable
    cofactor identity and the evaluated module identity.  Shares nothing with
    the construction beyond polynomial arithmetic."""
    ctx = context(field)
    for npoly in cert.ell.values():
        for key in npoly.terms:
            exps = ctx.S7.unpack(key)
            if any(exps[i] for i in range(4, 7)):
                return False, "ell coefficient uses a non-N variable"

    ell_s7 = ctx.S7.zero
    for spec, npoly in cert.ell.items():
        ell_s7 = ell_s7 + npoly * ctx.basis_pullback(spec)
    lhs = ctx.basis_pullback(cert.f) * ctx.basis_pullback(cert.g) - ell_s7
    rhs = ctx.S7.zero
    for cofactor, name in zip(cert.cofactors, RELATION_NAMES):
        rhs = rhs + cofactor * ctx.relation(name)
    if lhs != rhs:
        return False, "cofactor identity fails: %s" % _clip(lhs - rhs)

    value = ctx.basis_value(cert.f) * ctx.basis_value(cert.g)
    if ctx.pi(ell_s7) != value:
        return False, "evaluated ell does not match the product"
    return True, "certificate verified by expansion (%d ell terms)" \
        % sum(len(p) for p in cert.ell.values())


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


def check_products(field, sample="all", seed=0, deadline=None):
    ctx = context(field)
    q = ctx.q
    params = {"sample": sample}
    if sample != "all":
        params["seed"] = seed
    rec = _Recorder(deadline)

    specs = ctx.enumerate_basis()
    max_deg = max(sp.degree(q) for sp in specs)
    gb = _cached_gb(ctx, 2 * max_deg, deadline)

    pairs = [(specs[i], specs[j]) for i in range(len(specs))
             for j in range(i, len(specs))]
    if sample != "all":
        want = int(sample)
        rng = random.Random(seed)
        pairs = rng.sample(pairs, min(want, len(pairs)))

    for f, g in pairs:
        def one(a=f, b=g):
            cert = reduce_product(field, a, b, gb=gb, deadline=deadline)
            return verify_certificate(field, cert)
        rec.run("reduce(%s,%s)" % (f.label(), g.label()), one)

    U0 = ctx.S7var("U0")
    U1 = ctx.S7var("U1")
    Um1 = ctx.S7var("Um1")

    def ks1():
        lhs = Um1 ** (q - 1) * U0
        rhs = ctx.S7var("C1s") * U1 - ctx.z_pullback(1, 0, 0)
        red = normal_form(lhs - rhs, gb)
        if not red:
            return True, "congruence holds"
        return False, "nonzero normal form: %s" % _clip(red)

    rec.run("congruence:base", ks1)

    for s in range(1, q - 1):
        def step(v=s):
            lhs = ctx.z_pullback(v, 0, 0) * U1
            rhs = U0 * Um1 ** (q - 1 - v) * ctx.w_poly() ** v \
                + ctx.z_pullback(v + 1, 0, 0)
            red = normal_form(lhs - rhs, gb)
            if not red:
                return True, "congruence holds"
            return False, "nonzero normal form: %s" % _clip(red)
        rec.run("congruence:recursion(%d)" % s, step)

    def decomposition():
        bad = _carry_decomposition(q)
        if not bad:
            return True, "carry ranges verified for all index pairs"
        return False, "range violation at %s" % bad[:4]

    rec.run("congruence:exponent-carry", decomposition)

    def product_congruence():
        C0 = ctx.S7var("C0")
        C1 = ctx.S7var("C1")
        C0s = ctx.S7var("C0s")
        C1s = ctx.S7var("C1s")
        checked = 0
        a_specs = [sp for sp in specs if sp.kind == "A"]
        for na, fa in enumerate(a_specs):
            for gb_spec in a_specs[na:]:
                li, i3 = divmod(fa.i + gb_spec.i, q)
                lj, j3 = divmod(fa.j + gb_spec.j, q)
                lt, t3 = divmod(fa.t + gb_spec.t, q - 1)
                lhs = ctx.x_pullback(fa.i, fa.j, fa.t) \
                    * ctx.x_pullback(gb_spec.i, gb_spec.j, gb_spec.t)
                rhs = (C1s * U0 ** q - C0s * U1) ** li \
                    * (C1 * U0 ** q - C0 * Um1) ** lj \
                    * (C0 * C0s) ** lt * ctx.x_pullback(i3, j3, t3)
                red = normal_form(lhs - rhs, gb)
                if red:
                    return False, "pair %s * %s: nonzero normal form %s" \
                        % (fa.label(), gb_spec.label(), _clip(red))
                checked += 1
        return True, "congruence holds for all %d pairs" % checked

    rec.run("congruence:products", product_congruence)

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


def elimination_crosscheck(field, deadline=None):
    """Independent, all-degrees computation of the evaluation kernel.

    Works in the combined 11-variable ring under a lex order that places the
    four base variables above the seven abstract ones: the pure abstract
    part of a full lex basis of <V - image(V)> generates the whole kernel,
    with no degree bound. The suite passes when its reduced basis equals the
    reduced basis of the five known relations.
    """
    ctx = context(field)
    q = ctx.q
    rec = _Recorder(deadline)
    state = {}

    def lex_elimination():
        gb = buchberger(_elimination_generators(ctx), deadline=deadline)
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
        ok, witness = is_invariant(ctx.R4.var("x1"), enumerate_gl2(field))
        if not ok:
            return True, "x1 moved by %r" % (witness,)
        return False, "x1 reported invariant"

    rec.run("noninvariant-witness", noninvariant)

    def nonmember():
        gb = _cached_gb(ctx, max_degree, deadline)
        red = normal_form(ctx.S7var("U0"), gb)
        if red:
            return True, "U0 has nonzero normal form as it must"
        return False, "U0 reduced to 0"

    rec.run("nonmember-nonzero", nonmember)
    return SuiteReport("controls", q, {"max_degree": max_degree}, rec.items)
