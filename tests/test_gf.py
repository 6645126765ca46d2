"""Field arithmetic: exhaustive axioms at every supported size."""

import time

import pytest

from modinvar.gf import (
    FieldError,
    FieldMismatch,
    NotPrime,
    Reducible,
    UnsupportedSize,
    ff_from_q,
    ff_make,
    parse_modulus,
)
from modinvar.mpoly import PolyRing

SUPPORTED_Q = (2, 3, 4, 5, 7, 8, 9)


def test_prime_field_arithmetic():
    F = ff_make(5)
    a = F.elem(3)
    b = F.elem(4)
    assert (a + b).i == 2
    assert (a - b).i == 4
    assert (a * b).i == 2
    assert (a / b).i == 2  # 3 * 4^{-1} = 3 * 4 = 12 = 2
    assert (-a).i == 2
    assert (a ** 0).i == 1
    assert (a ** -1).i == F.inv_i(3)


def test_ff_from_q_factors_prime_powers():
    F4 = ff_from_q(4)
    assert (F4.p, F4.s) == (2, 2)
    F9 = ff_from_q(9)
    assert (F9.p, F9.s) == (3, 2)
    F8 = ff_from_q(8)
    assert (F8.p, F8.s) == (2, 3)
    with pytest.raises(NotPrime):
        ff_from_q(6)
    with pytest.raises(NotPrime):
        ff_from_q(1)


def test_modulus_must_be_irreducible():
    # t^2 + 1 factors over GF(5) since 2^2 = -1
    with pytest.raises(Reducible):
        ff_make(5, 2, parse_modulus("t^2+1", 5))
    # but is irreducible over GF(3)
    F = ff_make(3, 2, parse_modulus("t^2+1", 3))
    assert F.q == 9


def test_unsupported_size_rejected():
    with pytest.raises(UnsupportedSize):
        ff_make(2, 20)


@pytest.mark.parametrize("q", SUPPORTED_Q)
def test_field_axioms_exhaustive(q):
    """Commutativity, associativity, distributivity, identities, inverses."""
    F = ff_from_q(q)
    els = list(F.elements())
    assert len(els) == q
    zero, one = F.zero, F.one
    for a in els:
        assert a + zero == a
        assert a * one == a
        assert a + (-a) == zero
        assert a * zero == zero
        if a != zero:
            assert a * a.inverse() == one
    for a in els:
        for b in els:
            assert a + b == b + a
            assert a * b == b * a
            for c in els:
                assert (a + b) + c == a + (b + c)
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c


@pytest.mark.parametrize("q", SUPPORTED_Q)
def test_power_map_is_identity(q):
    # a^q = a for every element
    F = ff_from_q(q)
    for a in F.elements():
        assert a ** q == a


@pytest.mark.parametrize("q", SUPPORTED_Q)
def test_frobenius_properties(q):
    F = ff_from_q(q)
    els = list(F.elements())
    for a in els:
        assert a.frobenius() == a ** F.p
    for a in els:
        for b in els:
            assert (a + b).frobenius() == a.frobenius() + b.frobenius()
            assert (a * b).frobenius() == a.frobenius() * b.frobenius()
    for a in els:
        b = a
        for _ in range(F.s):
            b = b.frobenius()
        assert b == a


def test_extension_literals_round_trip():
    F = ff_from_q(4)
    for a in F.elements():
        assert F.parse_literal(F.literal(a)) == a


def test_field_instances_cached():
    assert ff_from_q(4) is ff_from_q(4)
    assert ff_make(7) is ff_from_q(7)


def test_cross_field_mixing_rejected():
    a = ff_from_q(4).one
    b = ff_from_q(8).one
    with pytest.raises(FieldMismatch):
        a + b


def test_literal_exponent_is_reduced_by_squaring():
    # t has order 3 in GF(4), so t^(3*10^9) = 1; the exponent must not set
    # the number of steps
    F = ff_from_q(4)
    R = PolyRing(F, ("x", "y"))
    t0 = time.monotonic()
    assert R.parse("[t^3000000000]*x") == R.var("x")
    assert F.parse_literal("[t^3000000001+t^2]") == F.parse_literal("[1]")
    assert time.monotonic() - t0 < 1.0


def test_modulus_degree_is_checked_before_the_tuple():
    t0 = time.monotonic()
    with pytest.raises(UnsupportedSize):
        parse_modulus("t^3000000000+1", 2)
    with pytest.raises(UnsupportedSize):
        ff_from_q(4, modulus="t^3000000+1")
    with pytest.raises(FieldError):
        parse_modulus("t^%s" % ("9" * 5000), 3)
    assert time.monotonic() - t0 < 1.0
    assert parse_modulus("t^8+t^4+t^3+t+1", 2) == (1, 1, 0, 1, 1, 0, 0, 0, 1)
    with pytest.raises(UnsupportedSize):
        parse_modulus("t^4+1", 5)    # GF(625)
