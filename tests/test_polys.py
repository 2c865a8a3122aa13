import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from interlace.errors import BadParametersError, BothZeroError, PolyFormatError, ZeroPolynomialError
from interlace.polys import (
    NEG_INFINITY_DEGREE,
    ONE,
    X,
    ZERO,
    Poly,
    exact_div,
    parse_poly_list,
    poly_derivative,
    poly_gcd,
    _reduce,
    _remainder_sequence,
    _remainder_step,
    pseudo_divmod,
)

small_polys = st.builds(
    lambda cs: Poly(tuple(cs)),
    st.lists(st.integers(min_value=-9, max_value=9), max_size=6),
)
rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)


def test_canonical_form():
    assert Poly((1, 2, 0, 0)).coeffs == (1, 2)
    assert Poly((0, 0)).coeffs == ()
    assert Poly(()).is_zero
    assert Poly((0, 1)).degree == 1
    assert ZERO.degree == NEG_INFINITY_DEGREE


def test_poly_takes_any_iterable_and_keeps_a_canonical_tuple_as_given():
    canonical = (1, -2, 3)
    assert Poly(canonical).coeffs is canonical
    assert Poly(()).coeffs == ()
    for given_coeffs in ([1, -2, 3], (1, -2, 3, 0, 0), [1, -2, 3, 0],
                         (c for c in (1, -2, 3, 0))):
        p = Poly(given_coeffs)
        assert type(p.coeffs) is tuple and p.coeffs == canonical
    assert Poly([0, 0]).coeffs == Poly(c for c in (0,)).coeffs == ()


@pytest.mark.parametrize("coeffs", [(1.5,), ("1",), 5, (1, None), (0.0,), (1, 0.0),
                                    [1, 0.0], (c for c in (0.0,))],
                         ids=["float", "str", "int", "None", "float-zero",
                              "trailing-float-zero", "list-float-zero", "generator-float-zero"])
def test_poly_rejects_what_is_not_integer_coefficients(coeffs):
    # every entry is checked before trailing zeros are dropped, so a float
    # zero is rejected wherever it stands
    with pytest.raises(BadParametersError, match="integer coefficients required"):
        Poly(coeffs)


def test_add_examples():
    assert Poly((1, 1)) + Poly((1, -1)) == Poly((2,))
    assert ZERO + Poly((3, 0, 2)) == Poly((3, 0, 2))
    assert X + X == Poly((0, 2))


def test_mul_examples():
    assert Poly((1, 1)) * Poly((-1, 1)) == Poly((-1, 0, 1))
    assert ZERO * Poly((5, 7)) == Poly((5, 7)) * ZERO == ZERO * ZERO == ZERO
    assert ZERO.shift_up() == ZERO and Poly((3,)).shift_up() == Poly((0, 3))
    assert X * Poly((0, 2)) == Poly((0, 0, 2))


def test_derivative_examples():
    assert poly_derivative(Poly((0, -2, 0, 1))) == Poly((-2, 0, 3))
    assert poly_derivative(Poly((5,))) == ZERO
    assert poly_derivative(ZERO) == ZERO


def test_gcd_examples():
    assert poly_gcd(Poly((-1, 0, 1)), Poly((-1, 1))) == Poly((-1, 1))
    assert poly_gcd(Poly((1, 0, 1)), X) == ONE
    assert poly_gcd(Poly((1, 2, 1)), Poly((2, 3, 1))) == Poly((1, 1))


def test_gcd_normalization():
    # primitive with positive leading coefficient regardless of input scaling
    assert poly_gcd(Poly((-2, -2)), Poly((-4, -4))) == Poly((1, 1))
    assert poly_gcd(ZERO, Poly((0, -3))) == X


def test_gcd_both_zero():
    with pytest.raises(BothZeroError):
        poly_gcd(ZERO, ZERO)


def test_eval_examples():
    assert Poly((-2, 0, 1))(Fraction(1)) == -1
    assert Poly((-2, 0, 1))(Fraction(3, 2)) == Fraction(1, 4)
    assert ZERO(Fraction(7, 3)) == 0


def test_sign_at_examples():
    x2m2 = Poly((-2, 0, 1))
    assert ZERO.sign_at(Fraction(1, 3)) == 0
    assert Poly((-5,)).sign_at(Fraction(-7, 5)) == -1
    assert x2m2.sign_at(Fraction(7, 5)) == -1  # 49/25 < 2
    assert x2m2.sign_at(Fraction(-3, 2)) == 1
    assert x2m2.sign_at(0) == -1
    assert (Poly((-1, 3)) * x2m2).sign_at(Fraction(1, 3)) == 0


big_coeffs = st.integers(min_value=-(1 << 1000), max_value=1 << 1000)
points = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(-7, 5), Fraction(-1), Fraction(3, 1024)]),
    st.fractions(max_denominator=10**6),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(big_coeffs, max_size=8), points, st.booleans(),
       st.integers(min_value=1, max_value=1 << 70))
def test_sign_at_matches_rational_evaluation(cs, t, plant_root, scale):
    p = Poly(tuple(cs))
    if plant_root:
        p = p * Poly((-t.numerator, t.denominator))  # (den x - num) vanishes at t
        assert p.sign_at(t) == 0
    v = p(t)
    assert p.sign_at(t) == (v > 0) - (v < 0)
    # the integer pair need not be in lowest terms
    assert p._sign_at(scale * t.numerator, scale * t.denominator) == p.sign_at(t)


@settings(max_examples=200, deadline=None)
@given(st.lists(big_coeffs, max_size=8), st.integers(min_value=-(1 << 200), max_value=1 << 200),
       st.integers(min_value=0, max_value=300), st.integers(min_value=1, max_value=7))
def test_value_at_a_power_of_two_is_the_homogenised_value(cs, num, t, odd):
    # den = 2^t takes the shifts of the evaluation loop, any other den its
    # multiplications: both give den^deg p(num/den) exactly
    p = Poly(tuple(cs))
    for den in (1 << t, odd << t):
        expected = 0 if p.is_zero else p(Fraction(num, den)) * den ** p.degree
        assert p._value_at(num, den) == expected


def test_text_format_round_trip():
    assert Poly.from_string("0,1,1") == Poly((0, 1, 1))
    assert Poly.from_string("0") == ZERO
    assert Poly.from_string("-1, 0, 1") == Poly((-1, 0, 1))
    assert str(Poly((0, 1, 1))) == "0,1,1"
    assert str(ZERO) == "0"
    with pytest.raises(PolyFormatError):
        Poly.from_string("1,,2")
    with pytest.raises(PolyFormatError):
        Poly.from_string("x+1")


@settings(max_examples=60, deadline=None)
@given(small_polys, small_polys, small_polys)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)


@settings(max_examples=60, deadline=None)
@given(small_polys, small_polys)
def test_degree_of_product(a, b):
    if not a.is_zero and not b.is_zero:
        assert (a * b).degree == a.degree + b.degree
    else:
        assert (a * b).is_zero


@settings(max_examples=60, deadline=None)
@given(small_polys, small_polys, rationals)
def test_eval_is_ring_homomorphism(a, b, t):
    assert (a * b)(t) == a(t) * b(t)
    assert (a + b)(t) == a(t) + b(t)


@settings(max_examples=60, deadline=None)
@given(small_polys, small_polys)
def test_gcd_divides_both(a, b):
    if a.is_zero and b.is_zero:
        return
    d = poly_gcd(a, b)
    assert pseudo_divmod(a, d)[2].is_zero and pseudo_divmod(b, d)[2].is_zero


@settings(max_examples=60, deadline=None)
@given(small_polys, small_polys)
def test_pseudo_divmod_identity(a, b):
    if b.is_zero:
        with pytest.raises(ZeroPolynomialError):
            pseudo_divmod(a, b)
        return
    s, q, r = pseudo_divmod(a, b)
    assert s >= 1
    assert s * a == q * b + r
    assert r.degree < b.degree


def test_exact_div():
    assert exact_div(Poly((-1, 0, 1)), Poly((1, 1))) == Poly((-1, 1))
    assert exact_div(Poly((-1, 0, 1)), Poly((-1, -1))) == Poly((1, -1))
    assert exact_div(ZERO, Poly((3, 2))) == ZERO
    with pytest.raises(BadParametersError, match="division is not exact"):
        exact_div(Poly((1, 0, 1)), Poly((1, 1)))
    with pytest.raises(BadParametersError, match="quotient is not integral"):  # 1/2 over Q
        exact_div(Poly((2, 2)), Poly((4, 4)))
    with pytest.raises(BadParametersError, match="division is not exact"):
        exact_div(X, Poly((1, 2)))
    with pytest.raises(ZeroPolynomialError, match="division by zero"):
        exact_div(X, ZERO)


# -- the remainder sequence against the quotient step it replaced --------------


def _reference_remainder_sequence(a: Poly, b: Poly):
    """The sequence as it was built before its step ran the division loop
    with no quotient: each term is -pseudo_divmod(a, b)[2].primitive()."""
    yield a
    while not b.is_zero:
        yield b
        if b.degree == 0:
            return
        a, b = b, -pseudo_divmod(a, b)[2].primitive()


huge_or_small = st.one_of(st.integers(min_value=-9, max_value=9),
                          st.integers(min_value=-(1 << 210), max_value=1 << 210))


@st.composite
def remainder_pairs(draw, min_degree=-1, gaps=st.integers(min_value=-2, max_value=4)):
    """(a, b) with deg b >= min_degree and deg a - deg b drawn from gaps
    (from -2 to 4: equal degrees and gaps above one included), signed
    leading coefficients, entries small or beyond 2^200, and a b that
    divides a (a zero remainder) or leaves a constant."""
    def poly(deg: int) -> Poly:
        if deg < 0:
            return ZERO
        lower = draw(st.lists(huge_or_small, min_size=deg, max_size=deg))
        return Poly(tuple(lower) + (draw(huge_or_small.filter(bool)),))

    db = draw(st.integers(min_value=min_degree, max_value=5))
    b = poly(db)
    a = poly(max(db + draw(gaps), -1))
    shape = draw(st.sampled_from(["free", "multiple", "constant"]))
    if shape != "free" and not b.is_zero:
        a = b * poly(draw(st.integers(min_value=0, max_value=3)))
        if shape == "constant":
            a = a + poly(0)
    return a, b


@settings(max_examples=300, deadline=None)
@given(remainder_pairs())
@example((Poly((-3, 0, 2, -7)), Poly((5, 1, -4, -2))))  # equal degrees, negative leads
@example((Poly((1, 0, 0, 0, 0, 1)), Poly((1, 0, 3))))  # a gap of 3
@example((Poly((2, 3, 1)) * Poly((1, 1)), Poly((2, 3, 1))))  # a zero remainder
@example((Poly((2, 3, 1)) * Poly((1, 1)) + Poly((7,)), Poly((2, 3, 1))))  # a constant one
@example((Poly((1 << 240, 3, -(1 << 230))), Poly((-(1 << 220), 1 << 201))))
def test_remainder_sequence_matches_the_quotient_step(pair):
    a, b = pair
    terms = list(_remainder_sequence(a, b))
    assert terms == list(_reference_remainder_sequence(a, b))
    for t in terms:
        assert type(t.coeffs) is tuple and all(type(c) is int for c in t.coeffs)
    if not b.is_zero:
        s, q, r = pseudo_divmod(a, b)
        assert s >= 1 and s * a == q * b + r and r.degree < b.degree


def _reference_step(a: Poly, b: Poly) -> tuple[int, ...]:
    """The step as the one division loop takes it: minus the primitive part
    of what ``_reduce`` leaves of a."""
    r = _reduce(list(a.coeffs), b.coeffs)[1]
    g = -math.gcd(*r)
    return tuple(x // g for x in r)


@settings(max_examples=400, deadline=None)
@given(remainder_pairs(1, st.sampled_from([1, 1, 1, 1, -2, -1, 0, 2, 3])))
@example((Poly((-3, 0, 2, -7)), Poly((5, 1, -4))))  # a normal step, negative leads
@example((Poly((2, 3, 1)) * Poly((1, 1)), Poly((2, 3))))  # deg drop one, zero remainder
@example((Poly((2, 3)) * Poly((1, 1)) + Poly((7,)), Poly((2, 3))))  # a constant remainder
@example((Poly((1 << 210, -3, -(1 << 209), 5)), Poly((-(1 << 210), 1 << 201, -7))))
@example((Poly((1, 0, 0, 0, 0, 1)), Poly((1, 0, 3))))  # a gap of 3
def test_remainder_step_matches_the_division_loop(pair):
    # the closed form of a degree-drop-one step and every other step give
    # the term that the one division loop gives, entry for entry
    a, b = pair
    assert _remainder_step(a.coeffs, b.coeffs) == _reference_step(a, b)


@pytest.mark.parametrize("call,error,message", [
    (lambda: parse_poly_list(" ; "), PolyFormatError, "no polynomials in ' ; '"),
    (lambda: Poly.monomial(-1), BadParametersError, "k must be nonnegative, got -1"),
    (lambda: Poly.monomial(1.5), BadParametersError, "k must be an int, got 1.5"),
    (lambda: poly_gcd(5, X), BadParametersError, "a must be a Poly, got 5"),
    (lambda: poly_gcd(X, 5), BadParametersError, "b must be a Poly, got 5"),
    (lambda: poly_derivative(5), BadParametersError, "a must be a Poly, got 5"),
    (lambda: pseudo_divmod(5, X), BadParametersError, "a must be a Poly, got 5"),
    (lambda: pseudo_divmod(X, ZERO), ZeroPolynomialError, "polynomial division by zero"),
    (lambda: exact_div(X, Poly((1, 2))), BadParametersError, "division is not exact"),
    (lambda: exact_div(X, ZERO), ZeroPolynomialError, "polynomial division by zero"),
], ids=["empty-list", "monomial-negative", "monomial-float", "gcd-int-a", "gcd-int-b",
        "derivative-int", "pseudo-divmod-int", "pseudo-divmod-zero", "exact-div-inexact",
        "exact-div-zero"])
def test_guards_raise_their_typed_error(call, error, message):
    with pytest.raises(error, match=message):
        call()
