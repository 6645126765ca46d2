"""Sparse weighted-graded polynomial arithmetic."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modinvar.gens import s7_weights
from modinvar.gf import FieldMismatch, ff_from_q, ff_make
from modinvar.mpoly import (
    CHUNK,
    EXP_CAP,
    MINUS_INF,
    ExponentOverflow,
    MissingImage,
    NotDivisible,
    ParseError,
    PolyError,
    PolyRing,
    RingMismatch,
)


def ring5():
    return PolyRing(ff_make(5), ("x1", "x2", "y1", "y2"))


def test_parse_str_round_trip():
    R = ring5()
    f = R.parse("x1^2*x2 + 3*y1*y2^4 + 2")
    assert R.parse(str(f)) == f
    assert str(R.zero) == "0"
    assert str(R.one) == "1"


def test_str_canonical_order():
    # terms print in descending monomial order for the ring's order
    R = PolyRing(ff_make(2), ("x1", "x2", "y1", "y2"))
    f = R.parse("x1*x2^2 + x1^2*x2")
    assert str(f) == "x1^2*x2 + x1*x2^2"


def test_arithmetic_small_oracle():
    # (x1 + 2*y2)^2 = x1^2 + 4*x1*y2 + 4*y2^2 over GF(5)
    R = ring5()
    f = (R.var("x1") + 2 * R.var("y2")) ** 2
    assert f == R.parse("x1^2 + 4*x1*y2 + 4*y2^2")


def test_char_p_freshman_dream():
    # (f + g)^p = f^p + g^p
    R = PolyRing(ff_make(2), ("x1", "x2", "y1", "y2"))
    f = R.parse("x1 + x2*y1")
    g = R.parse("y2^3 + x1*x2")
    assert (f + g) ** 4 == f ** 4 + g ** 4


def test_scalar_and_subtraction():
    R = ring5()
    f = R.parse("x1 + y1")
    assert f - f == R.zero
    assert 0 * f == R.zero
    assert (3 * f) + (2 * f) == R.zero
    assert -f == 4 * f


def test_weighted_degree_and_homogeneity():
    R = PolyRing(ff_make(3), ("a", "b"), weights=(2, 3))
    f = R.parse("a^3 + b^2")
    assert f.wdeg() == 6
    assert f.is_homogeneous()
    assert not (f + R.var("a")).is_homogeneous()


def test_leading_data_depends_on_order():
    F = ff_make(7)
    names = ("x", "y", "z")
    f_text = "x*y^2*z + x^3 + y^4"
    grlex = PolyRing(F, names, order="grlex").parse(f_text)
    grevlex = PolyRing(F, names, order="grevlex").parse(f_text)
    lex = PolyRing(F, names, order="lex").parse(f_text)
    assert grlex.ring.unpack(grlex.leading_key()) == (1, 2, 1)
    assert grevlex.ring.unpack(grevlex.leading_key()) == (0, 4, 0)
    assert lex.ring.unpack(lex.leading_key()) == (3, 0, 0)


def reference_order_key(order, weights, exps):
    """The term order written on exponent tuples: weighted degree first
    (not for lex); then grlex compares the first exponents, grevlex takes
    the smaller last exponent as larger, and lex compares exponents alone."""
    if order == "lex":
        return exps
    wdeg = sum(w * e for w, e in zip(weights, exps))
    if order == "grlex":
        return (wdeg,) + exps
    return (wdeg,) + tuple(-e for e in reversed(exps))


def compare(a, b):
    return (a > b) - (a < b)


@pytest.mark.parametrize("weights", ((1,) * 7, s7_weights(4)))
@pytest.mark.parametrize("order", ("grlex", "grevlex", "lex"))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_order_key_matches_the_reference_order(order, weights, data):
    R = PolyRing(ff_make(2), S7_VARS, weights=weights, order=order)
    # small exponents, so that weighted degrees often tie, or large ones
    exps = st.tuples(*[st.integers(0, 2)] * R.n) \
        | st.tuples(*[st.integers(0, 300)] * R.n)
    a = data.draw(exps)
    b = data.draw(exps | st.permutations(a).map(tuple))
    assert compare(R.okey(R.pack(a)), R.okey(R.pack(b))) == compare(
        reference_order_key(order, weights, a),
        reference_order_key(order, weights, b))


@pytest.mark.parametrize("weights", ((1,) * 7, s7_weights(4)))
@pytest.mark.parametrize("order", ("grlex", "grevlex", "lex"))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_order_key_is_affine_in_the_packed_key(order, weights, data):
    # the reduction kernel adds combined keys okey(k) << W | k, so every
    # order key must turn monomial products into sums
    R = PolyRing(ff_make(2), S7_VARS, weights=weights, order=order)
    exps = st.tuples(*[st.integers(0, 150)] * R.n)
    a, b = data.draw(exps), data.draw(exps)
    ab = tuple(x + y for x, y in zip(a, b))
    assert R.okey(R.pack(ab)) == \
        R.okey(R.pack(a)) + R.okey(R.pack(b)) - R.okey(0)


def test_divide_exact():
    R = ring5()
    f = R.parse("x1^3*x2 + 2*x1^2*y1")
    g = R.parse("x1^2")
    assert f.divide_exact(g) * g == f
    with pytest.raises(NotDivisible):
        R.var("x1").divide_exact(R.var("x2"))
    with pytest.raises(NotDivisible):
        # divides as monomials but not as polynomials
        R.parse("x1^2 + x2").divide_exact(R.parse("x1 + x2"))


def test_substitute_into_other_ring():
    R = ring5()
    S = PolyRing(ff_make(5), ("u", "v"))
    f = R.parse("x1^2 + x2*y1")
    img = f.substitute(
        {"x1": S.var("u"), "x2": S.var("v"), "y1": S.var("u")}, ring=S
    )
    assert img == S.parse("u^2 + u*v")
    with pytest.raises(MissingImage):
        f.substitute({"x1": S.var("u")}, ring=S)


def test_substitute_rejects_mixed_targets():
    R = ring5()
    S1 = PolyRing(ff_make(5), ("u",))
    S2 = PolyRing(ff_make(5), ("v",))
    f = R.parse("x1 + x2")
    with pytest.raises(RingMismatch):
        f.substitute({"x1": S1.var("u"), "x2": S2.var("v")})


def test_evaluate():
    R = ring5()
    f = R.parse("x1*x2^2 + 3")
    assert f.evaluate({"x1": 2, "x2": 3}).i == (2 * 9 + 3) % 5
    with pytest.raises(MissingImage):
        f.evaluate({"x1": 1})


def test_cross_ring_arithmetic_rejected():
    R = ring5()
    S = PolyRing(ff_make(5), ("u", "v"))
    with pytest.raises(RingMismatch):
        R.var("x1") + S.var("u")


def test_parse_errors():
    R = ring5()
    with pytest.raises(ParseError):
        R.parse("x1 + zz")
    with pytest.raises(ParseError):
        R.parse("x1 ++ x2 @")


def test_exponent_overflow_guard():
    R = ring5()
    with pytest.raises(ExponentOverflow):
        R.var("x1", 70000)
    with pytest.raises(ExponentOverflow):
        R.var("x1", 60000) * R.var("x1", 60000)


def test_pack_unpack_round_trip():
    R = PolyRing(ff_make(3), ("a", "b", "c"), weights=(1, 2, 5))
    for exps in ((0, 0, 0), (1, 2, 3), (7, 0, 11)):
        k = R.pack(exps)
        assert R.unpack(k) == exps
        assert R.key_wdeg(k) == exps[0] + 2 * exps[1] + 5 * exps[2]


def test_extension_field_coefficients():
    # GF(4) coefficient printing keeps parenthesized literals parseable
    R = PolyRing(ff_from_q(4), ("x", "y"))
    t = R.field.t
    f = R.var("x") * t + R.var("y") * (t * t)
    assert R.parse(str(f)) == f
    assert f + f == R.zero


@pytest.mark.parametrize("text", ("[t^x]*x", "[1,1]*y", "[*t]", "[t^-1]"))
def test_malformed_bracket_literal_is_a_parse_error(text):
    R = PolyRing(ff_from_q(4), ("x", "y"))
    with pytest.raises(ParseError) as info:
        R.parse(text)
    assert info.value.position == 0


# --- moving polynomials between rings ---

R4_VARS = ("x1", "x2", "y1", "y2")
S7_VARS = ("C0", "C1", "C0s", "C1s", "Um1", "U0", "U1")


def random_poly(ring, rng, names=None, terms=8, top=5):
    """Random polynomial supported on the given variables of ring."""
    names = ring.names if names is None else names
    out = {}
    for _ in range(terms):
        exps = [0] * ring.n
        for nm in names:
            exps[ring.names.index(nm)] = rng.randrange(top)
        out[ring.pack(exps)] = rng.randrange(1, ring.field.q)
    return ring.from_dict(out)


def remap_rings(q):
    fld = ff_from_q(q)
    w7 = (q * q - 1, q * q - q, q * q - 1, q * q - q, q + 1, 2, q + 1)
    R4 = PolyRing(fld, R4_VARS)
    R11 = PolyRing(fld, R4_VARS + S7_VARS, weights=(1,) * 4 + w7,
                   order="lex")
    S7 = PolyRing(fld, S7_VARS, weights=w7)
    S7_grlex = PolyRing(fld, S7_VARS, weights=w7, order="grlex")
    return R4, R11, S7, S7_grlex


@pytest.mark.parametrize("q", (3, 4, 9))
def test_remap_matches_parse_of_str(q):
    import random

    rng = random.Random(q)
    R4, R11, S7, S7_grlex = remap_rings(q)
    for _ in range(20):
        f = random_poly(R4, rng)
        assert f.remap(R11) == R11.parse(str(f))
        g = random_poly(R11, rng, names=S7_VARS)
        assert g.remap(S7) == S7.parse(str(g))
        h = random_poly(S7, rng)
        assert h.remap(S7_grlex) == S7_grlex.parse(str(h))
        assert h.remap(R11) == R11.parse(str(h))


@pytest.mark.parametrize("q", (3, 4, 9))
def test_remap_renaming_matches_substitution(q):
    import random

    rng = random.Random(10 + q)
    R4 = remap_rings(q)[0]
    swap = {"x1": "y2", "x2": "y1", "y1": "x2", "y2": "x1"}
    images = {a: R4.var(b) for a, b in swap.items()}
    for _ in range(20):
        f = random_poly(R4, rng)
        assert f.remap(R4, swap) == f.substitute(images)


@pytest.mark.parametrize("q", (3, 4, 9))
def test_remap_round_trip(q):
    import random

    rng = random.Random(20 + q)
    R4, R11, S7, S7_grlex = remap_rings(q)
    swap = {"C0": "C0s", "C0s": "C0", "Um1": "U1", "U1": "Um1"}
    for _ in range(20):
        f = random_poly(R4, rng)
        assert f.remap(R11).remap(R4) == f
        h = random_poly(S7, rng)
        assert h.remap(S7_grlex).remap(S7) == h
        assert h.remap(S7, swap).remap(S7, swap) == h


def _remap_by_unpacking(f, ring, var_map=None):
    """The reference remap: unpack each key, move its exponents, repack."""
    src = f.ring
    if ring.field != src.field:
        raise FieldMismatch("remap must preserve the field")
    var_map = var_map or {}
    for nm in var_map:
        if nm not in src.names:
            raise PolyError("no variable %r in %r" % (nm, src.names))
    names = {nm: j for j, nm in enumerate(ring.names)}
    dest = [names.get(var_map.get(nm, nm)) for nm in src.names]
    placed = [j for j in dest if j is not None]
    if len(set(placed)) != len(placed):
        raise PolyError("var_map sends two variables to one")
    out = {}
    for k, c in f.terms.items():
        new = [0] * ring.n
        for i, e in enumerate(src.unpack(k)):
            if e:
                if dest[i] is None:
                    raise MissingImage(src.names[i])
                new[dest[i]] = e
        out[ring.pack(new)] = c
    return ring.from_dict(out)


def _package_ring_pairs(q):
    """(source ring, target ring, var_map, source variables) of every move
    the package makes: R4 -> R11 (elimination), R11 -> S7 (back from it),
    S7 <-> the C-last ring (product certificates), and the swaps of R4
    (involution_star) and of S7 (s7_star)."""
    from modinvar.action import _SWAP
    from modinvar.gens import _S7_SWAP
    from modinvar.verify import _CLAST_NAMES

    R4, R11, S7, _ = remap_rings(q)
    weight = dict(zip(S7.names, S7.weights))
    clast = PolyRing(S7.field, _CLAST_NAMES,
                     weights=[weight[nm] for nm in _CLAST_NAMES])
    return ((R4, R11, None, R4_VARS), (R11, S7, None, S7_VARS),
            (S7, clast, None, S7_VARS), (clast, S7, None, S7_VARS),
            (R4, R4, _SWAP, R4_VARS), (S7, S7, _S7_SWAP, S7_VARS))


@pytest.mark.parametrize("q", (2, 3, 4, 9))
def test_planned_remap_equals_unpacking(q):
    import random

    rng = random.Random(30 + q)
    for src, ring, var_map, names in _package_ring_pairs(q):
        for terms, top in ((0, 1), (1, 30), (8, 5), (40, 40)):
            f = random_poly(src, rng, names=names, terms=terms, top=top)
            got = f.remap(ring, var_map)
            assert got == _remap_by_unpacking(f, ring, var_map)
            assert got.ring is ring


def test_planned_remap_raises_as_unpacking_does():
    R4, R11, S7, _ = remap_rings(3)
    cases = [
        (R11.var("C0") * R11.var("x1") + R11.var("U0"), S7, None),
        (R4.var("x1") * R4.var("y2"), R4, {"x1": "z"}),
        (R4.var("y2") + R4.var("x2"), R4, {"x1": "z"}),
        (R4.zero, R4, {"w": "x1"}),
        (R4.var("x1"), R4, {"x1": "x2"}),
        (R4.zero, R4, {"x1": "x2"}),
        (R4.var("x1"), PolyRing(ff_make(5), R4_VARS), None),
    ]
    for f, ring, var_map in cases:
        try:
            want = _remap_by_unpacking(f, ring, var_map)
        except PolyError as exc:
            want = type(exc)
        except FieldMismatch as exc:
            want = type(exc)
        if isinstance(want, type):
            with pytest.raises(want):
                f.remap(ring, var_map)
            # and again, with nothing cached by the failure
            with pytest.raises(want):
                f.remap(ring, var_map)
        else:
            assert f.remap(ring, var_map) == want


def test_remap_plans_are_shared_by_equal_rings_only(monkeypatch):
    import random

    from modinvar import mpoly

    built = []
    plan = mpoly._remap_plan
    monkeypatch.setattr(mpoly, "_remap_plan", lambda *args: (
        built.append(args[1]), plan(*args))[1])
    rng = random.Random(7)
    fld = ff_from_q(5)
    w7 = s7_weights(5)
    first = PolyRing(fld, S7_VARS, weights=w7)
    twin = PolyRing(fld, S7_VARS, weights=w7)     # equal, not the same
    f = random_poly(PolyRing(fld, R4_VARS + S7_VARS,
                             weights=(1,) * 4 + w7, order="lex"),
                    rng, names=S7_VARS)
    f.remap(first)
    plans, builds = len(mpoly._REMAP_PLANS), len(built)
    g = f.remap(twin)
    assert len(built) == builds      # the plan of first serves twin
    assert len(mpoly._REMAP_PLANS) == plans and g.ring is twin
    assert g == _remap_by_unpacking(f, twin)
    # other weights: a plan of its own, with the weighted degree recomputed
    heavy = PolyRing(fld, S7_VARS, weights=[w + 1 for w in w7])
    h = f.remap(heavy)
    assert len(mpoly._REMAP_PLANS) == plans + 1
    assert len(built) == builds + 1 and built[-1] is heavy
    assert h == _remap_by_unpacking(f, heavy)
    assert h.wdeg() > f.wdeg()
    # a degree the target weights cannot hold overflows as packing does
    tall = PolyRing(fld, ("a",), weights=(EXP_CAP,))
    with pytest.raises(ExponentOverflow):
        PolyRing(fld, ("a",)).var("a", 2).remap(tall)


def test_remap_rejects_variable_without_place():
    R4, R11, S7, _ = remap_rings(3)
    f = R11.var("C0") * R11.var("x1") + R11.var("U0")
    with pytest.raises(MissingImage):
        f.remap(S7)
    with pytest.raises(MissingImage):
        R4.var("x1").remap(R4, {"x1": "z"})
    # an unused variable needs no place
    assert (R11.var("C0") + 1).remap(S7) == S7.var("C0") + 1


def test_remap_rejects_bad_maps():
    R4, R11, _, _ = remap_rings(3)
    f = R4.var("x1")
    with pytest.raises(PolyError):
        f.remap(R4, {"w": "x1"})
    with pytest.raises(PolyError):
        f.remap(R4, {"x1": "x2"})
    with pytest.raises(FieldMismatch):
        f.remap(PolyRing(ff_make(5), R4_VARS))


# --- weighted degree and the product guard ---


@pytest.mark.parametrize("order", ("grlex", "grevlex", "lex"))
def test_wdeg_is_the_top_bits_of_the_largest_key(order):
    import random

    rng = random.Random(31)
    fld = ff_from_q(4)
    R = PolyRing(fld, S7_VARS, weights=(15, 12, 15, 12, 5, 2, 5),
                 order=order)
    sh = CHUNK * R.n
    for _ in range(200):
        f = random_poly(R, rng, terms=rng.randrange(1, 12),
                        top=rng.randrange(1, 40))
        # the generator form the method used before
        assert f.wdeg() == max(k >> sh for k in f.terms)
    assert R.zero.wdeg() == MINUS_INF


def test_product_guard_fires_at_the_same_bound():
    R = PolyRing(ff_make(5), ("a", "b"), weights=(1, 3))
    f = R.var("b", EXP_CAP // 6) + R.var("a")       # wdeg 3 * (EXP_CAP // 6)
    top = EXP_CAP - f.wdeg()
    assert (f * (R.var("a", top) + 1)).wdeg() == EXP_CAP
    with pytest.raises(ExponentOverflow):
        f * (R.var("a", top + 1) + R.one)


def test_equal_rings_mix_and_different_rings_do_not():
    R = ring5()
    twin = ring5()
    assert twin is not R
    assert R.var("x1") + twin.var("x2") == R.parse("x1 + x2")
    assert R.var("x1") * twin.var("x1") == R.var("x1", 2)
    other = PolyRing(ff_make(5), ("x1", "x2", "y1", "y2"), order="lex")
    with pytest.raises(RingMismatch):
        R.var("x1") * other.var("x1")
    with pytest.raises(RingMismatch):
        R.var("x1") + PolyRing(ff_make(7), R4_VARS).var("x1")
