"""Exact arithmetic in small finite fields GF(p^s).

Elements are indices 0..q-1 into precomputed tables; index i encodes the
coefficient tuple (c0, c1, ..., c_{s-1}) of c0 + c1*t + ... via i = sum c_k p^k,
so enumeration order is 0, 1, ..., p-1, t, t+1, ...

Every field is table-driven, prime fields included: GF(p) is the case s = 1,
GF(p)[t]/(t), whose index i is the residue i itself.  Only the text format
(`literal`, `parse_literal`) and the generator `t` treat prime fields apart.
"""

from __future__ import annotations

import functools
import re


class FieldError(Exception):
    pass


class NotPrime(FieldError):
    pass


class Reducible(FieldError):
    pass


class UnsupportedSize(FieldError):
    pass


class FieldMismatch(FieldError):
    pass


class DivisionByZero(FieldError, ZeroDivisionError):
    pass


MAX_Q = 256

# builtin irreducible moduli, coefficients ascending (constant first, monic)
_MODULUS_TABLE = {
    4: (1, 1, 1),          # t^2 + t + 1
    8: (1, 1, 0, 1),       # t^3 + t + 1
    9: (1, 0, 1),          # t^2 + 1
    16: (1, 1, 0, 0, 1),   # t^4 + t + 1
    25: (2, 0, 1),         # t^2 + 2
    27: (1, 2, 0, 1),      # t^3 + 2t + 1
}


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _polymul_mod(a, b, modulus, p):
    """Product of coefficient tuples reduced mod (modulus, p)."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                prod[i + j] = (prod[i + j] + ca * cb) % p
    s = len(modulus) - 1
    # reduce: t^s = -(modulus minus leading term)
    for k in range(len(prod) - 1, s - 1, -1):
        c = prod[k]
        if c:
            prod[k] = 0
            for j in range(s):
                prod[k - s + j] = (prod[k - s + j] - c * modulus[j]) % p
    return tuple(prod[:s]) if s > 0 else ()


def _poly_divmod(num, den, p):
    """Long division of coefficient lists over GF(p); den monic assumed."""
    num = list(num)
    dd = len(den) - 1
    while len(num) >= len(den):
        c = num[-1]
        if c:
            shift = len(num) - len(den)
            for j in range(dd + 1):
                num[shift + j] = (num[shift + j] - c * den[j]) % p
        num.pop()
    while num and num[-1] == 0:
        num.pop()
    return num  # remainder


def _check_irreducible(modulus, p):
    s = len(modulus) - 1
    for k in range(1, s // 2 + 1):
        # trial-divide by every monic polynomial of degree k
        for idx in range(p ** k):
            cand = []
            v = idx
            for _ in range(k):
                cand.append(v % p)
                v //= p
            cand.append(1)
            if not _poly_divmod(modulus, cand, p):
                raise Reducible(
                    "modulus has a degree-%d factor over GF(%d)" % (k, p))


# numbers of at most 99 digits, so int() never refuses one
_MODULUS_TERM = re.compile(
    r"([0-9]{1,99})|(?:([0-9]{1,99})\s*\*?\s*)?t(?:\s*\^\s*([0-9]{1,99}))?")


def _parse_terms(text, p):
    """{exponent: coefficient mod p} of a polynomial literal in t.

    Terms are c, t, c*t, t^e or c*t^e joined by '+' and '-'; any other
    text raises FieldError.
    """
    coeffs = {}
    for piece in text.replace("-", "+-").split("+"):
        piece = piece.strip()
        if not piece:
            continue
        neg = piece.startswith("-")
        if neg:
            piece = piece[1:].strip()
        m = _MODULUS_TERM.fullmatch(piece)
        if m is None:
            raise FieldError("malformed polynomial in t: %r" % text)
        const, c, e = m.groups()
        c, e = (int(const), 0) if const else (int(c or 1), int(e or 1))
        coeffs[e] = (coeffs.get(e, 0) + (-c if neg else c)) % p
    if not coeffs:
        raise FieldError("malformed polynomial in t: %r" % text)
    return coeffs


def parse_modulus(text, p):
    """Parse a modulus literal like 't^3+2*t+1' into an ascending tuple.
    The degree is checked against MAX_Q before the tuple is built."""
    coeffs = _parse_terms(text, p)
    deg = max(coeffs)
    if deg >= MAX_Q.bit_length() or p ** deg > MAX_Q:
        raise UnsupportedSize("modulus degree %d: GF(%d^%d) > %d" % (
            deg, p, deg, MAX_Q))
    return tuple(coeffs.get(k, 0) for k in range(deg + 1))


class FieldParams:
    """Immutable description of GF(p^s) with full operation tables."""

    def __init__(self, p, s, modulus):
        self.p = p
        self.s = s
        self.q = p ** s
        self.modulus = modulus  # ascending tuple or None when s == 1
        self._build_tables()

    def _build_tables(self):
        p, q = self.p, self.q
        # a prime field is GF(p)[t]/(t): one coefficient, t = 0
        modulus = self.modulus or (0, 1)
        coeffs = [self._index_to_coeffs(i) for i in range(q)]
        self._coeffs = coeffs
        add = [0] * (q * q)
        mul = [0] * (q * q)
        for a in range(q):
            ca = coeffs[a]
            for b in range(q):
                cb = coeffs[b]
                add[a * q + b] = self._coeffs_to_index(
                    tuple((x + y) % p for x, y in zip(ca, cb)))
                mul[a * q + b] = self._coeffs_to_index(
                    _polymul_mod(ca, cb, modulus, p))
        self.add_flat = add
        self.mul_flat = mul
        self.neg_flat = [self._coeffs_to_index(tuple((-x) % p for x in coeffs[a]))
                         for a in range(q)]
        inv = [0] * q
        for a in range(1, q):
            for b in range(1, q):
                if mul[a * q + b] == 1:
                    inv[a] = b
                    break
        self.inv_flat = inv
        frob = [0] * q
        for a in range(q):
            # a^p by square-and-multiply over indices
            base, e, acc = a, p, 1
            while e:
                if e & 1:
                    acc = mul[acc * q + base]
                base = mul[base * q + base]
                e >>= 1
            frob[a] = acc
        self.frob_flat = frob

    def _index_to_coeffs(self, i):
        out = []
        for _ in range(self.s):
            out.append(i % self.p)
            i //= self.p
        return tuple(out)

    def _coeffs_to_index(self, coeffs):
        i = 0
        for c in reversed(coeffs):
            i = i * self.p + c
        return i

    # index-level ops (kernels use the flat tables directly)

    def add_i(self, a, b):
        return self.add_flat[a * self.q + b]

    def mul_i(self, a, b):
        return self.mul_flat[a * self.q + b]

    def neg_i(self, a):
        return self.neg_flat[a]

    def inv_i(self, a):
        if a == 0:
            raise DivisionByZero("inverse of 0 in %s" % self)
        return self.inv_flat[a]

    def frob_i(self, a):
        return self.frob_flat[a]

    # element-level API

    def elem(self, i):
        if isinstance(i, FieldElement):
            if i.field is not self:
                raise FieldMismatch("element of %s used in %s" % (i.field, self))
            return i
        return FieldElement(self, int(i) % self.p)

    def from_coeffs(self, coeffs):
        if len(coeffs) > self.s:
            raise UnsupportedSize("coefficient tuple longer than s=%d" % self.s)
        coeffs = tuple(c % self.p for c in coeffs) + (0,) * (self.s - len(coeffs))
        return FieldElement(self, self._coeffs_to_index(coeffs))

    def from_index(self, i):
        if not 0 <= i < self.q:
            raise UnsupportedSize("index %d outside GF(%d)" % (i, self.q))
        return FieldElement(self, i)

    @property
    def zero(self):
        return FieldElement(self, 0)

    @property
    def one(self):
        return FieldElement(self, 1)

    @property
    def t(self):
        if self.s == 1:
            raise UnsupportedSize("no generator t in a prime field")
        return FieldElement(self, self.p)

    def elements(self):
        return [FieldElement(self, i) for i in range(self.q)]

    def parse_literal(self, text):
        """Coefficient literal: decimal for prime fields, '[...]' otherwise."""
        text = text.strip()
        if text.startswith("["):
            if not text.endswith("]") or self.s == 1:
                raise FieldMismatch("bracketed literal %r in %s" % (text, self))
            # t^e by repeated squaring, so e never sizes the work
            acc = self.zero
            for e, c in _parse_terms(text[1:-1] or "0", self.p).items():
                acc = acc + self.t ** e * c
            return acc
        return self.elem(int(text))

    def literal(self, e):
        """Canonical text form of an element (inverse of parse_literal)."""
        if self.s == 1:
            return str(e.i)
        coeffs = self._coeffs[e.i]
        parts = []
        for k in range(self.s - 1, -1, -1):
            c = coeffs[k]
            if not c:
                continue
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append("t" if c == 1 else "%d*t" % c)
            else:
                parts.append("t^%d" % k if c == 1 else "%d*t^%d" % (c, k))
        return "[%s]" % "+".join(parts) if parts else "[0]"

    def __eq__(self, other):
        return (isinstance(other, FieldParams)
                and (self.p, self.s, self.modulus) == (other.p, other.s, other.modulus))

    def __hash__(self):
        return hash((self.p, self.s, self.modulus))

    def __repr__(self):
        return "GF(%d)" % self.q


class FieldElement:
    __slots__ = ("field", "i")

    def __init__(self, field, i):
        self.field = field
        self.i = i

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise FieldMismatch("mixing %s and %s" % (self.field, other.field))
            return other.i
        if isinstance(other, int):
            return other % self.field.p
        return NotImplemented

    def __add__(self, other):
        b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.add_i(self.i, b))

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, self.field.neg_i(self.i))

    def __sub__(self, other):
        b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.add_i(self.i, self.field.neg_i(b)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.mul_i(self.i, b))

    __rmul__ = __mul__

    def __truediv__(self, other):
        b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.mul_i(self.i, self.field.inv_i(b)))

    def __pow__(self, e):
        if e < 0:
            return FieldElement(self.field, self.field.inv_i(self.i)) ** (-e)
        acc = FieldElement(self.field, 1)
        base = self
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
        return acc

    def inverse(self):
        return FieldElement(self.field, self.field.inv_i(self.i))

    def frobenius(self):
        """The p-power Frobenius a -> a^p."""
        return FieldElement(self.field, self.field.frob_i(self.i))

    @property
    def coeffs(self):
        return self.field._coeffs[self.i]

    def __bool__(self):
        return self.i != 0

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.field == other.field and self.i == other.i
        if isinstance(other, int):
            return self.i == other % self.field.p and (self.i < self.field.p)
        return NotImplemented

    def __hash__(self):
        return hash((self.field.q, self.i))

    def __repr__(self):
        return self.field.literal(self)


@functools.lru_cache(maxsize=None)
def _ff_make_cached(p, s, modulus):
    return FieldParams(p, s, modulus)


def ff_make(p, s=1, modulus=None):
    """Construct GF(p^s); modulus may be an ascending tuple or a text literal."""
    if not _is_prime(p):
        raise NotPrime("%d is not prime" % p)
    if s < 1:
        raise UnsupportedSize("s must be >= 1")
    q = p ** s
    if q > MAX_Q:
        raise UnsupportedSize("GF(%d) exceeds the supported bound %d" % (q, MAX_Q))
    if s == 1:
        if modulus is not None:
            raise UnsupportedSize("modulus given for a prime field")
        return _ff_make_cached(p, 1, None)
    if modulus is None:
        if q not in _MODULUS_TABLE:
            raise UnsupportedSize(
                "no builtin modulus for GF(%d); pass one explicitly" % q)
        modulus = _MODULUS_TABLE[q]
    elif isinstance(modulus, str):
        modulus = parse_modulus(modulus, p)
    else:
        modulus = tuple(c % p for c in modulus)
    if len(modulus) != s + 1:
        raise UnsupportedSize("modulus degree %d, expected %d" % (len(modulus) - 1, s))
    if modulus[-1] != 1:
        raise Reducible("modulus must be monic")
    _check_irreducible(modulus, p)
    return _ff_make_cached(p, s, modulus)


def ff_from_q(q, modulus=None):
    """Factor q = p^s (NotPrime if q is not a prime power) and build the field."""
    for p in range(2, q + 1):
        if _is_prime(p) and q % p == 0:
            s = 0
            m = q
            while m % p == 0:
                m //= p
                s += 1
            if m != 1:
                raise NotPrime("%d is not a prime power" % q)
            return ff_make(p, s, modulus)
    raise NotPrime("%d is not a prime power" % q)
