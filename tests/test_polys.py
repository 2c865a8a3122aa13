from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interlace.errors import BothZeroError, PolyFormatError
from interlace.polys import (
    NEG_INFINITY_DEGREE,
    ONE,
    X,
    ZERO,
    Poly,
    divides,
    eval_rational,
    exact_div,
    poly_add,
    poly_derivative,
    poly_gcd,
    poly_mul,
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


def test_add_examples():
    assert poly_add(Poly((1, 1)), Poly((1, -1))) == Poly((2,))
    assert poly_add(ZERO, Poly((3, 0, 2))) == Poly((3, 0, 2))
    assert poly_add(X, X) == Poly((0, 2))


def test_mul_examples():
    assert poly_mul(Poly((1, 1)), Poly((-1, 1))) == Poly((-1, 0, 1))
    assert poly_mul(ZERO, Poly((5, 7))) == ZERO
    assert poly_mul(X, Poly((0, 2))) == Poly((0, 0, 2))


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
    assert eval_rational(Poly((-2, 0, 1)), Fraction(1)) == -1
    assert eval_rational(Poly((-2, 0, 1)), Fraction(3, 2)) == Fraction(1, 4)
    assert eval_rational(ZERO, Fraction(7, 3)) == 0


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
@given(st.lists(big_coeffs, max_size=8), points, st.booleans())
def test_sign_at_matches_rational_evaluation(cs, t, plant_root):
    p = Poly(tuple(cs))
    if plant_root:
        p = p * Poly((-t.numerator, t.denominator))  # (den x - num) vanishes at t
        assert p.sign_at(t) == 0
    v = p(t)
    assert p.sign_at(t) == (v > 0) - (v < 0)


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
    assert divides(d, a) and divides(d, b)


@settings(max_examples=60, deadline=None)
@given(small_polys, small_polys)
def test_pseudo_divmod_identity(a, b):
    if b.is_zero:
        with pytest.raises(ZeroDivisionError):
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
    with pytest.raises(ValueError):
        exact_div(Poly((1, 0, 1)), Poly((1, 1)))
    with pytest.raises(ValueError):  # exact over Q, but the quotient is 1/2
        exact_div(Poly((2, 2)), Poly((4, 4)))
