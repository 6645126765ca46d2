"""Sparse multivariate polynomials over GF(q) with weighted graded orders.

Monomials are packed into ints, 16-bit chunks laid out
[wdeg | e_0 | ... | e_{n-1}], so packed keys add under monomial
multiplication and integer comparison of keys realizes weighted graded lex.
Each ring fixes its order key once, a function on packed keys whose integer
values compare as the monomials do in the ring's order; for grlex it is the
key itself. Each chunk keeps its top bit clear as a guard for the packed
divisibility test.
"""

from __future__ import annotations

import functools

from . import _kernels as K
from ._kernels import CHUNK, MASK
from .gf import FieldElement, FieldError, FieldMismatch

EXP_CAP = 0x7FFF  # guard bit must stay clear

MINUS_INF = float("-inf")


class PolyError(Exception):
    pass


class RingMismatch(PolyError):
    pass


class NotDivisible(PolyError):
    pass


class MissingImage(PolyError):
    pass


class ExponentOverflow(PolyError):
    pass


class ParseError(PolyError):
    def __init__(self, message, position):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


class UnknownVariable(ParseError):
    pass


class PolyRing:
    """Descriptor for F_q[names] with per-variable weights and a term order.

    okey(k) is the order key of packed key k: an int that compares as the
    monomial does in the ring's order.  It is affine in k, okey(a + b) ==
    okey(a) + okey(b) - okey(0), which the reduction kernel relies on.
    """

    def __init__(self, field, names, weights=None, order="grevlex"):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise PolyError("duplicate variable names")
        self.field = field
        self.names = names
        self.n = len(names)
        self.weights = tuple(weights) if weights is not None else (1,) * self.n
        if len(self.weights) != self.n or any(w < 1 for w in self.weights):
            raise PolyError("weights must be positive, one per variable")
        self.order = order
        self._index = {nm: i for i, nm in enumerate(names)}
        self._wshift = CHUNK * self.n
        self.lexmask = (1 << self._wshift) - 1
        if order == "grlex":
            self.okey = int
        elif order == "lex":
            self.okey = self.lexmask.__and__
        elif order == "grevlex":
            n, wshift, lexmask = self.n, self._wshift, self.lexmask

            def okey(k):
                # wdeg, then the complemented exponents with the LAST
                # variable's chunk highest: ties go to the smaller last one
                o = k >> wshift
                k ^= lexmask
                for _ in range(n):
                    o = (o << CHUNK) | (k & MASK)
                    k >>= CHUNK
                return o

            self.okey = okey
        else:
            raise PolyError("unknown order %r" % order)
        self._hash = hash((field, names, self.weights, order))
        g = 0
        for i in range(self.n + 1):
            g |= 0x8000 << (CHUNK * i)
        self.guard = g

    # --- monomial packing ---

    def pack(self, exps):
        if len(exps) != self.n:
            raise PolyError("expected %d exponents" % self.n)
        wdeg = 0
        key = 0
        for e, w in zip(exps, self.weights):
            if not 0 <= e <= EXP_CAP:
                raise ExponentOverflow("exponent %d out of range" % e)
            key = (key << CHUNK) | e
            wdeg += e * w
        if wdeg > EXP_CAP:
            raise ExponentOverflow("weighted degree %d out of range" % wdeg)
        return (wdeg << self._wshift) | key

    def unpack(self, key):
        out = []
        for i in range(self.n - 1, -1, -1):
            out.append((key >> (CHUNK * i)) & MASK)
        return tuple(out)

    def key_wdeg(self, key):
        return key >> self._wshift

    def key_divides(self, m, k):
        """True when monomial m divides monomial k (packed keys)."""
        g = self.guard
        return ((k | g) - m) & g == g

    # --- constructors ---

    def from_dict(self, terms):
        return Polynomial(self, dict(terms))

    @property
    def zero(self):
        return Polynomial(self, {})

    @property
    def one(self):
        return Polynomial(self, {0: 1})

    def const(self, c):
        c = self.field.elem(c)
        return Polynomial(self, {0: c.i} if c.i else {})

    def var(self, name, power=1):
        i = self._index.get(name)
        if i is None:
            raise PolyError("no variable %r in %r" % (name, self.names))
        exps = [0] * self.n
        exps[i] = power
        return Polynomial(self, {self.pack(exps): 1})

    def monomial(self, exps, coeff=1):
        c = self.field.elem(coeff)
        return Polynomial(self, {self.pack(exps): c.i} if c.i else {})

    def from_pairs(self, pairs):
        """Sum of (exps, coeff) terms; duplicates accumulate."""
        terms = {}
        fld = self.field
        for exps, coeff in pairs:
            c = fld.elem(coeff).i
            if not c:
                continue
            k = self.pack(exps)
            v = fld.add_i(terms.get(k, 0), c)
            if v:
                terms[k] = v
            elif k in terms:
                del terms[k]
        return Polynomial(self, terms)

    # --- text form ---

    def parse(self, text):
        """Parse 'term ((+|-) term)*' in the external grammar."""
        fld = self.field
        pos = 0
        end = len(text)

        def skip_ws(i):
            while i < end and text[i].isspace():
                i += 1
            return i

        def parse_coeff(i):
            if text[i] == "[":
                j = text.find("]", i)
                if j < 0:
                    raise ParseError("unterminated '['", i)
                try:
                    c = fld.parse_literal(text[i:j + 1])
                except FieldError as exc:
                    raise ParseError(str(exc), i) from None
                return c.i, j + 1
            j = i
            while j < end and text[j].isdigit():
                j += 1
            if j == i:
                raise ParseError("expected a coefficient or variable", i)
            return fld.elem(int(text[i:j])).i, j

        def parse_varpow(i):
            j = i
            while j < end and (text[j].isalnum() or text[j] == "_"):
                j += 1
            name = text[i:j]
            vi = self._index.get(name)
            if vi is None:
                raise UnknownVariable("unknown variable %r" % name, i)
            e = 1
            j2 = skip_ws(j)
            if j2 < end and text[j2] == "^":
                j2 = skip_ws(j2 + 1)
                j3 = j2
                while j3 < end and text[j3].isdigit():
                    j3 += 1
                if j3 == j2:
                    raise ParseError("expected an exponent", j2)
                e = int(text[j2:j3])
                if e > EXP_CAP:
                    raise ExponentOverflow("exponent %d out of range" % e)
                return vi, e, j3
            return vi, e, j

        terms = {}
        pos = skip_ws(pos)
        if pos >= end:
            raise ParseError("empty input", 0)
        sign = 1
        if text[pos] in "+-":
            sign = -1 if text[pos] == "-" else 1
            pos = skip_ws(pos + 1)
        while True:
            if pos >= end:
                raise ParseError("expected a term", pos)
            ch = text[pos]
            coeff = 1
            exps = [0] * self.n
            if ch.isdigit() or ch == "[":
                coeff, pos = parse_coeff(pos)
            elif ch.isalpha():
                vi, e, pos = parse_varpow(pos)
                exps[vi] += e
            else:
                raise ParseError("unexpected character %r" % ch, pos)
            while True:
                p2 = skip_ws(pos)
                if p2 < end and text[p2] == "*":
                    p2 = skip_ws(p2 + 1)
                    if p2 < end and text[p2].isalpha():
                        vi, e, pos = parse_varpow(p2)
                        exps[vi] += e
                    else:
                        raise ParseError("expected a variable after '*'", p2)
                else:
                    pos = p2
                    break
            if sign < 0:
                coeff = fld.neg_i(coeff)
            if coeff:
                k = self.pack(exps)
                v = fld.add_i(terms.get(k, 0), coeff)
                if v:
                    terms[k] = v
                elif k in terms:
                    del terms[k]
            if pos >= end:
                break
            if text[pos] not in "+-":
                raise ParseError("expected '+' or '-'", pos)
            sign = -1 if text[pos] == "-" else 1
            pos = skip_ws(pos + 1)
        return Polynomial(self, terms)

    def __eq__(self, other):
        return (isinstance(other, PolyRing)
                and self.field == other.field
                and self.names == other.names
                and self.weights == other.weights
                and self.order == other.order)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "PolyRing(GF(%d), %s, order=%s)" % (
            self.field.q, "[%s]" % ",".join(self.names), self.order)


@functools.lru_cache(maxsize=None)
def _remap_plan(src, ring, mapping):
    """How a packed key of src moves to ring under the var_map whose items
    are the frozenset mapping: (moves, missing, weights).  Kept per
    (src, ring, mapping); rings are compared by value, so equal rings share
    a plan.  Each move (mask, left, right) takes a run of chunks that keep
    their order and spacing, (k & mask) << left >> right; the runs are
    disjoint, so the moved key ORs them together.  missing masks the
    chunks of the variables with no place in ring.  The weighted degree
    moves as a chunk when every placed variable keeps its weight; otherwise
    weights lists (shift, weight) of each placed variable's chunk, and the
    degree is recomputed.  Raises as remap does for a bad map."""
    if ring.field != src.field:
        raise FieldMismatch("remap must preserve the field")
    var_map = dict(mapping)
    for nm in var_map:
        if nm not in src._index:
            raise PolyError("no variable %r in %r" % (nm, src.names))
    dest = [ring._index.get(var_map.get(nm, nm)) for nm in src.names]
    placed = [j for j in dest if j is not None]
    if len(set(placed)) != len(placed):
        raise PolyError("var_map sends two variables to one")
    missing = 0
    pairs = []    # (source chunk, target chunk), chunk 0 the lowest
    for i, j in enumerate(dest):
        if j is None:
            missing |= MASK << CHUNK * (src.n - 1 - i)
        else:
            pairs.append((src.n - 1 - i, ring.n - 1 - j))
    weights = None
    if all(src.weights[i] == ring.weights[j]
           for i, j in enumerate(dest) if j is not None):
        pairs.append((src.n, ring.n))
    else:
        weights = tuple((CHUNK * (src.n - 1 - i), ring.weights[j])
                        for i, j in enumerate(dest) if j is not None)
    runs = []     # [first source chunk, first target chunk, length]
    for s, t in sorted(pairs):
        if runs and runs[-1][0] + runs[-1][2] == s \
                and runs[-1][1] + runs[-1][2] == t:
            runs[-1][2] += 1
        else:
            runs.append([s, t, 1])
    moves = tuple((((1 << CHUNK * length) - 1) << CHUNK * s,
                   max(CHUNK * (t - s), 0), max(CHUNK * (s - t), 0))
                  for s, t, length in runs)
    return moves, missing, weights


def iadd_product(acc, f, g, c=1):
    """acc += c * f * g, in place, on the term dict acc of f's ring, for
    polynomials f and g and a coefficient index c.  Checks what f * g
    checks, but builds no Polynomial: a sum of products accumulates in one
    dict."""
    f._check_product(g)
    K.iadd_mul(acc, f.terms, g.terms, c, f.ring.field)


class Polynomial:
    """Immutable sparse polynomial; terms is dict[packed_key, coeff_index]."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms

    # --- inspection ---

    def __bool__(self):
        return bool(self.terms)

    def __len__(self):
        return len(self.terms)

    def wdeg(self):
        """Weighted degree, or MINUS_INF for the zero polynomial."""
        if not self.terms:
            return MINUS_INF
        # the weighted degree fills the top bits of every key
        return max(self.terms) >> self.ring._wshift

    def is_homogeneous(self):
        if not self.terms:
            return True
        sh = self.ring._wshift
        degs = {k >> sh for k in self.terms}
        return len(degs) == 1

    def sorted_keys(self):
        return sorted(self.terms, key=self.ring.okey, reverse=True)

    def items(self):
        """(exponent tuple, FieldElement) pairs, descending in the ring order."""
        r = self.ring
        return [(r.unpack(k), r.field.from_index(self.terms[k]))
                for k in self.sorted_keys()]

    def leading_key(self):
        if not self.terms:
            raise PolyError("zero polynomial has no leading term")
        return max(self.terms, key=self.ring.okey)

    def leading_coeff(self):
        return self.ring.field.from_index(self.terms[self.leading_key()])

    def coeff(self, exps):
        return self.ring.field.from_index(self.terms.get(self.ring.pack(exps), 0))

    def _check(self, other):
        if not isinstance(other, Polynomial):
            raise RingMismatch("expected a Polynomial, got %r" % (other,))
        if other.ring is not self.ring and other.ring != self.ring:
            raise RingMismatch("mixing %r and %r" % (self.ring, other.ring))

    def _check_product(self, other):
        """What self * other checks of a Polynomial other: one ring, and a
        product degree a packed key holds."""
        self._check(other)
        a, b = self.terms, other.terms
        # the weighted degree fills the top bits of every key
        sh = self.ring._wshift
        if a and b and (max(a) >> sh) + (max(b) >> sh) > EXP_CAP:
            raise ExponentOverflow("product degree out of range")

    # --- arithmetic ---

    def __add__(self, other):
        if isinstance(other, (FieldElement, int)):
            other = self.ring.const(other)
        self._check(other)
        return Polynomial(self.ring, K.add_terms(
            self.terms, other.terms, self.ring.field, False))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (FieldElement, int)):
            other = self.ring.const(other)
        self._check(other)
        return Polynomial(self.ring, K.add_terms(
            self.terms, other.terms, self.ring.field, True))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Polynomial(self.ring, K.neg_terms(self.terms, self.ring.field))

    def __mul__(self, other):
        if isinstance(other, (FieldElement, int)):
            c = self.ring.field.elem(other)
            if not c.i:
                return self.ring.zero
            return Polynomial(self.ring, K.scale_terms(
                self.terms, c.i, 0, self.ring.field))
        self._check_product(other)
        return Polynomial(self.ring, K.mul_terms(
            self.terms, other.terms, self.ring.field))

    __rmul__ = __mul__

    def __pow__(self, e):
        if e < 0:
            raise PolyError("negative power of a polynomial")
        acc = self.ring.one
        base = self
        while e:
            if e & 1:
                acc = acc * base
            base = base * base if e > 1 else base
            e >>= 1
        return acc

    def divide_exact(self, g):
        """Quotient self/g when g divides exactly; NotDivisible otherwise."""
        self._check(g)
        if not g.terms:
            from .gf import DivisionByZero
            raise DivisionByZero("polynomial division by zero")
        if not self.terms:
            return self.ring.zero
        r = self.ring
        f = r.field
        ltk = g.leading_key()
        lc = g.terms[ltk]
        if lc != 1:
            inv = f.inv_i(lc)
            g = g * f.from_index(inv)
        else:
            inv = 1
        basis = K.MonicBasis(r.n, r.okey)
        basis.add(ltk, basis.combined(
            {k: c for k, c in g.terms.items() if k != ltk}))
        rem, cof = K.normal_form_terms(self.terms, basis, f, True)
        if rem:
            raise NotDivisible("remainder has %d terms" % len(rem))
        q = cof[0] or {}
        quot = Polynomial(r, q)
        if inv != 1:
            quot = quot * f.from_index(inv)
        return quot

    # --- substitution / evaluation ---

    def substitute(self, images, ring=None):
        """Ring map sending each variable to images[name]; exact expansion."""
        src = self.ring
        target = ring
        canon = {}
        for nm, img in images.items():
            if nm not in src._index:
                raise PolyError("image given for unknown variable %r" % nm)
            if isinstance(img, Polynomial):
                if target is None:
                    target = img.ring
                elif img.ring != target:
                    raise RingMismatch("images live in different rings")
            canon[nm] = img
        if target is None:
            target = src
        if target.field != src.field:
            raise FieldMismatch("substitution must preserve the field")
        for nm, img in canon.items():
            if not isinstance(img, Polynomial):
                canon[nm] = target.const(img)
        fld = src.field
        used = [False] * src.n
        for k in self.terms:
            for i in range(src.n):
                if (k >> (CHUNK * (src.n - 1 - i))) & MASK:
                    used[i] = True
        for i, u in enumerate(used):
            if u and src.names[i] not in canon:
                raise MissingImage("no image for variable %r" % src.names[i])
        pows = {}  # var index -> list of powers of the image

        def power(i, e):
            lst = pows.get(i)
            if lst is None:
                lst = pows[i] = [target.one, canon[src.names[i]]]
            while len(lst) <= e:
                lst.append(lst[-1] * lst[1])
            return lst[e]

        out = {}
        for k, c in self.terms.items():
            exps = src.unpack(k)
            prod = None
            for i, e in enumerate(exps):
                if not e:
                    continue
                piece = power(i, e)
                prod = piece if prod is None else prod * piece
            if prod is None:
                prod = target.one
            K.iadd_scaled(out, prod.terms, c, 0, fld)
        return Polynomial(target, out)

    def remap(self, ring, var_map=None):
        """The same polynomial in another ring over the same field, each
        variable renamed by var_map (a name it omits keeps its name).

        Works on packed keys and keeps every coefficient; a variable in use
        that has no place in the target ring raises MissingImage.  Each key
        moves by the plan of its (source ring, target ring, var_map): a few
        masked shifts of runs of chunks (_remap_plan), built once and kept
        by ring equality.
        """
        src = self.ring
        moves, missing, weights = _remap_plan(
            src, ring, frozenset(var_map.items() if var_map else ()))
        terms = self.terms
        if missing:
            for k in terms:
                if k & missing:
                    i = next(i for i in range(src.n)
                             if k >> CHUNK * (src.n - 1 - i) & MASK
                             and missing >> CHUNK * (src.n - 1 - i) & MASK)
                    raise MissingImage("variable %r has no place in %r"
                                       % (src.names[i], ring))
        out = {}
        for k, c in terms.items():
            new = 0
            for mask, left, right in moves:
                new |= (k & mask) << left >> right
            if weights is not None:
                wdeg = sum((k >> shift & MASK) * w for shift, w in weights)
                if wdeg > EXP_CAP:
                    raise ExponentOverflow("weighted degree %d out of range"
                                           % wdeg)
                new |= wdeg << ring._wshift
            out[new] = c
        return Polynomial(ring, out)

    def evaluate(self, point):
        """Value at a point given as {name: FieldElement}."""
        fld = self.ring.field
        vals = []
        for nm in self.ring.names:
            if nm in point:
                vals.append(fld.elem(point[nm]))
            else:
                vals.append(None)
        total = fld.zero
        for k, c in self.terms.items():
            exps = self.ring.unpack(k)
            v = fld.from_index(c)
            for i, e in enumerate(exps):
                if e:
                    if vals[i] is None:
                        raise MissingImage("no value for %r" % self.ring.names[i])
                    v = v * vals[i] ** e
            total = total + v
        return total

    # --- comparison / text ---

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            if other == 0:
                return not self.terms
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    __hash__ = None

    def __str__(self):
        if not self.terms:
            return "0"
        r = self.ring
        fld = r.field
        parts = []
        for k in self.sorted_keys():
            c = self.terms[k]
            exps = r.unpack(k)
            bits = []
            for nm, e in zip(r.names, exps):
                if e == 1:
                    bits.append(nm)
                elif e > 1:
                    bits.append("%s^%d" % (nm, e))
            lit = fld.literal(fld.from_index(c))
            if not bits:
                parts.append(lit)
            elif c == 1:
                parts.append("*".join(bits))
            else:
                parts.append(lit + "*" + "*".join(bits))
        return " + ".join(parts)

    def __repr__(self):
        s = str(self)
        return s if len(s) <= 120 else "<%d-term polynomial>" % len(self.terms)
