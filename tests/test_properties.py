"""Hypothesis properties of the table-driven arithmetic.

The term kernels run on the field's flat tables for every field.  Here they
are compared with independent references: plain integers mod p over GF(2),
GF(3), GF(5), and coefficient tuples multiplied by gf._polymul_mod over
GF(4), GF(9); the in-place product iadd_mul is compared with mul_terms.
Also: text round trips, pack/unpack, the division
identity of tracked normal forms, and the combined-key reduction kernel with
its support-indexed divisor search against a plain scan for the first
divisor.
"""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modinvar import _kernels as K
from modinvar.gf import _polymul_mod, ff_from_q
from modinvar.groebner import buchberger, normal_form
from modinvar.mpoly import PolyRing

PRIME = (2, 3, 5)
EXTENSION = (4, 9)
FIELDS = PRIME + EXTENSION
NAMES = ("x", "y", "z")

SETTINGS = settings(max_examples=60, deadline=None)


@functools.lru_cache(maxsize=None)
def ring(q):
    return PolyRing(ff_from_q(q), NAMES)


def reference_ops(field):
    """(add, mul) on field indices, computed without the field's tables."""
    p = field.p
    if field.s == 1:
        return (lambda a, b: (a + b) % p), (lambda a, b: a * b % p)
    s, modulus = field.s, field.modulus

    def digits(i):
        return tuple(i // p ** k % p for k in range(s))

    def index(coeffs):
        return sum(c * p ** k for k, c in enumerate(coeffs))

    def add(a, b):
        return index([(x + y) % p for x, y in zip(digits(a), digits(b))])

    def mul(a, b):
        return index(_polymul_mod(digits(a), digits(b), modulus, p))

    return add, mul


def reference_combine(field, out, A, c=1, kshift=0):
    """out += c * monomial(kshift) * A in reference arithmetic; drops 0s."""
    add, mul = reference_ops(field)
    out = dict(out)
    for k, v in A.items():
        out[k + kshift] = add(out.get(k + kshift, 0), mul(c, v))
    return {k: v for k, v in out.items() if v}


def reference_mul(field, A, B):
    out = {}
    for kb, cb in B.items():
        out = reference_combine(field, out, A, cb, kb)
    return out


exponents = st.tuples(*[st.integers(0, 4)] * len(NAMES))


@st.composite
def terms(draw, q):
    raw = draw(st.dictionaries(exponents, st.integers(1, q - 1), max_size=8))
    return {ring(q).pack(e): c for e, c in raw.items()}


@pytest.mark.parametrize("q", FIELDS)
@SETTINGS
@given(data=st.data())
def test_kernels_match_reference_arithmetic(q, data):
    field = ring(q).field
    A = data.draw(terms(q))
    B = data.draw(terms(q))
    c = data.draw(st.integers(1, q - 1))
    shift = ring(q).pack(data.draw(exponents))
    minus_one = field.p - 1  # the index of -1 in every field

    assert K.mul_terms(A, B, field) == reference_mul(field, A, B)
    assert K.add_terms(A, B, field, False) == reference_combine(field, A, B)
    assert K.add_terms(A, B, field, True) == \
        reference_combine(field, A, B, minus_one)
    assert K.neg_terms(A, field) == reference_combine(field, {}, A,
                                                      minus_one)
    assert K.scale_terms(A, c, shift, field) == \
        reference_combine(field, {}, A, c, shift)
    acc = dict(B)
    K.iadd_scaled(acc, A, c, shift, field)
    assert acc == reference_combine(field, B, A, c, shift)


@pytest.mark.parametrize("q", (2, 3, 4, 9))
@SETTINGS
@given(data=st.data())
def test_iadd_mul_accumulates_a_scaled_product(q, data):
    """iadd_mul(acc, A, B, c) is acc + c * mul_terms(A, B), in place, and
    acc = -c * A * B cancels to {}."""
    field = ring(q).field
    acc, A, B = (data.draw(terms(q)) for _ in range(3))
    c = data.draw(st.integers(1, q - 1))
    product = K.mul_terms(A, B, field)
    got = dict(acc)
    assert K.iadd_mul(got, A, B, c, field) is got
    assert got == reference_combine(field, acc, product, c)
    minus_c = reference_ops(field)[1](field.p - 1, c)
    cancel = reference_combine(field, {}, product, minus_c)
    assert K.iadd_mul(cancel, A, B, c, field) == {}


@pytest.mark.parametrize("q", FIELDS)
@SETTINGS
@given(data=st.data())
def test_parse_str_round_trip(q, data):
    R = ring(q)
    f = R.from_dict(data.draw(terms(q)))
    assert R.parse(str(f)) == f
    e = R.field.from_index(data.draw(st.integers(0, q - 1)))
    assert R.field.parse_literal(R.field.literal(e)) == e
    assert R.field.from_coeffs(e.coeffs) == e


@SETTINGS
@given(exps=st.tuples(*[st.integers(0, 300)] * 4),
       weights=st.tuples(*[st.integers(1, 6)] * 4))
def test_pack_unpack_round_trip(exps, weights):
    R = PolyRing(ff_from_q(3), ("a", "b", "c", "d"), weights=weights)
    k = R.pack(exps)
    assert R.unpack(k) == exps
    assert R.key_wdeg(k) == sum(e * w for e, w in zip(exps, weights))


@st.composite
def homogeneous(draw, q, degree):
    R = ring(q)
    raw = draw(st.dictionaries(
        st.tuples(st.integers(0, degree), st.integers(0, degree)).filter(
            lambda e: sum(e) <= degree),
        st.integers(1, q - 1), min_size=1, max_size=4))
    return R.from_dict({R.pack((a, b, degree - a - b)): c
                        for (a, b), c in raw.items()})


@pytest.mark.parametrize("q", FIELDS)
@SETTINGS
@given(data=st.data())
def test_tracked_normal_form_is_a_division(q, data):
    R = ring(q)
    bound = 6
    gens = [data.draw(homogeneous(q, d)) for d in
            data.draw(st.lists(st.integers(2, 3), min_size=1, max_size=3))]
    gb = buchberger(gens, bound=bound)
    f = R.from_dict(data.draw(terms(q)))
    if f and f.wdeg() > bound:
        f = R.from_dict({k: c for k, c in f.terms.items()
                         if R.key_wdeg(k) <= bound})
    r, cof = normal_form(f, gb, track=True)
    total = r
    for c, g in zip(cof, gb.basis):
        total = total + c * g
    assert total == f
    for k in r.terms:
        assert not any(R.key_divides(m, k) for m in gb.lt_keys)


def plain_normal_form(f, lt_keys, tails, R, field):
    """Reference reduction: highest term first, each reduced by the first
    leading key in basis order that divides it, found by scanning them all."""
    minus_one = field.p - 1
    pending = dict(f)
    remainder = {}
    cof = [{} for _ in lt_keys]
    while pending:
        k = max(pending, key=R.okey)
        c = pending.pop(k)
        hit = next((i for i, m in enumerate(lt_keys)
                    if R.key_divides(m, k)), None)
        if hit is None:
            remainder[k] = c
            continue
        kq = k - lt_keys[hit]
        cof[hit][kq] = c
        K.iadd_scaled(pending, tails[hit], field.mul_i(minus_one, c), kq,
                      field)
    return remainder, cof


@st.composite
def monic_basis(draw, R, size):
    """Monic polynomials given as (leading key, tail); not a Groebner basis,
    which the division does not need."""
    out = []
    for _ in range(size):
        terms = draw(terms_in(R, min_size=1))
        lt = max(terms, key=R.okey)
        inv = R.field.inv_i(terms[lt])
        tail = {k: R.field.mul_i(inv, c) for k, c in terms.items()
                if k != lt}
        out.append((lt, tail))
    return out


@st.composite
def terms_in(draw, R, min_size=0):
    q = R.field.q
    raw = draw(st.dictionaries(exponents, st.integers(1, q - 1),
                               min_size=min_size, max_size=6))
    return {R.pack(e): c for e, c in raw.items()}


def monic_terms(lt, tail):
    terms = dict(tail)
    terms[lt] = 1
    return terms


@pytest.mark.parametrize("order", ("grlex", "grevlex", "lex"))
@pytest.mark.parametrize("q", (2, 3, 4))
@SETTINGS
@given(data=st.data())
def test_indexed_divisor_search_is_the_first_divisor(q, order, data):
    # one basis shared by calls while it grows and while its tails are
    # replaced in place, as the inter-reduction does: cached support lists
    # must pick up the appended elements, and the combined tails the new
    # plain ones
    R = PolyRing(ff_from_q(q), NAMES, order=order)
    field = R.field
    basis = K.MonicBasis(R.n, R.okey)
    fs = []

    def check(f, want_r, want_cof):
        r, cof = K.normal_form_terms(f, basis, field, True)
        assert r == want_r
        assert [c or {} for c in cof] == want_cof
        r, none = K.normal_form_terms(f, basis, field, False)
        assert r == want_r and none is None

    for grow in (data.draw(st.integers(0, 3)), data.draw(st.integers(1, 4))):
        for lt, tail in data.draw(monic_basis(R, grow)):
            basis.add(lt, tail)
        if basis.keys and data.draw(st.booleans()):
            i = data.draw(st.integers(0, len(basis.keys) - 1))
            lt = basis.keys[i]
            basis.set_tail(i, {k: c for k, c in data.draw(terms_in(R)).items()
                               if R.okey(k) < R.okey(lt)})
        fs.append(data.draw(terms_in(R)))
        for f in fs:
            check(f, *plain_normal_form(f, basis.keys, basis.tails, R, field))
        if not basis.keys:
            continue
        # the S-pair entry seeds the same S-polynomial as the term kernels
        i = data.draw(st.integers(0, len(basis.keys) - 1))
        j = data.draw(st.integers(0, len(basis.keys) - 1))
        lcm = R.pack(tuple(map(max, R.unpack(basis.keys[i]),
                               R.unpack(basis.keys[j]))))
        si, sj = lcm - basis.keys[i], lcm - basis.keys[j]
        spoly = K.add_terms(
            K.scale_terms(monic_terms(basis.keys[i], basis.tails[i]), 1, si,
                          field),
            K.scale_terms(monic_terms(basis.keys[j], basis.tails[j]), 1, sj,
                          field),
            field, True)
        check((i, j, si, sj),
              *plain_normal_form(spoly, basis.keys, basis.tails, R, field))
    for k in basis.keys:
        first = next(i for i, m in enumerate(basis.keys)
                     if R.key_divides(m, k))
        assert basis.index.first_divisor(k) == first
