"""Sparse multivariate polynomials over GF(q) with weighted graded orders.

Monomials are packed into ints, 16-bit chunks laid out
[wdeg | e_0 | ... | e_{n-1}], so packed keys add under monomial
multiplication and integer comparison of keys realizes weighted graded lex.
Grevlex and lex comparisons go through derived keys. Each chunk keeps its
top bit clear as a guard for the packed divisibility test.
"""

from __future__ import annotations

from . import _kernels as K
from .gf import FieldElement, FieldMismatch

CHUNK = 16
MASK = 0xFFFF
EXP_CAP = 0x7FFF  # guard bit must stay clear

MINUS_INF = float("-inf")

_ORDER_CODES = {"grlex": 0, "grevlex": 1, "lex": 2}


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
    """Descriptor for F_q[names] with per-variable weights and a term order."""

    def __init__(self, field, names, weights=None, order="grevlex"):
        if order not in _ORDER_CODES:
            raise PolyError("unknown order %r" % order)
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
        self.order_code = _ORDER_CODES[order]
        self._index = {nm: i for i, nm in enumerate(names)}
        self._wshift = CHUNK * self.n
        self.lexmask = (1 << self._wshift) - 1
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

    def okey(self, key):
        code = self.order_code
        if code == 0:
            return key
        if code == 2:
            return key & self.lexmask
        return K.grevlex_okey(key, self.n)

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
                except FieldMismatch as exc:
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
        return hash((self.field, self.names, self.weights, self.order))

    def __repr__(self):
        return "PolyRing(GF(%d), %s, order=%s)" % (
            self.field.q, "[%s]" % ",".join(self.names), self.order)


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
        return K.leading_key(self.terms, self.ring.n, self.ring.order_code)

    def leading_monomial(self):
        return self.ring.unpack(self.leading_key())

    def leading_coeff(self):
        return self.ring.field.from_index(self.terms[self.leading_key()])

    def coeff(self, exps):
        return self.ring.field.from_index(self.terms.get(self.ring.pack(exps), 0))

    def _check(self, other):
        if not isinstance(other, Polynomial):
            raise RingMismatch("expected a Polynomial, got %r" % (other,))
        if other.ring is not self.ring and other.ring != self.ring:
            raise RingMismatch("mixing %r and %r" % (self.ring, other.ring))

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
        self._check(other)
        if self.terms and other.terms:
            if self.wdeg() + other.wdeg() > EXP_CAP:
                raise ExponentOverflow("product degree out of range")
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
        tail = dict(g.terms)
        del tail[ltk]
        rem, cof = K.normal_form_terms(
            self.terms, K.DivisorIndex(r.n, [ltk]), [tail], r.order_code, f,
            True)
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
        that has no place in the target ring raises MissingImage.
        """
        src = self.ring
        if ring.field != src.field:
            raise FieldMismatch("remap must preserve the field")
        var_map = var_map or {}
        for nm in var_map:
            if nm not in src._index:
                raise PolyError("no variable %r in %r" % (nm, src.names))
        dest = [ring._index.get(var_map.get(nm, nm)) for nm in src.names]
        placed = [j for j in dest if j is not None]
        if len(set(placed)) != len(placed):
            raise PolyError("var_map sends two variables to one")
        out = {}
        n = ring.n
        for k, c in self.terms.items():
            new = [0] * n
            for i, e in enumerate(src.unpack(k)):
                if e:
                    j = dest[i]
                    if j is None:
                        raise MissingImage("variable %r has no place in %r"
                                           % (src.names[i], ring))
                    new[j] = e
            out[ring.pack(new)] = c
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
