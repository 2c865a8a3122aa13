import functools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interlace import realroots
from interlace.errors import (
    CertificateMismatchError,
    EmptyIntervalError,
    NegativeLeadingCoefficientError,
    ZeroPolynomialError,
)
from interlace.polys import ONE, X, ZERO, Poly
from interlace.realroots import (
    RootCertificate,
    RootInterval,
    SturmChain,
    count_real_roots,
    in_fplus,
    interleaves,
    is_interlacing_seq,
    is_real_rooted,
    isolate_roots,
    refine_certificate,
    squarefree_part,
)


def product_of_roots(roots) -> Poly:
    p = ONE
    for a in roots:
        p = p * Poly((-a, 1))
    return p


# -- squarefree part -----------------------------------------------------------


def test_squarefree_examples():
    assert squarefree_part(Poly((1, 2, 1))) == Poly((1, 1))
    assert squarefree_part(Poly((-1, 0, 1))) == Poly((-1, 0, 1))
    assert squarefree_part(Poly((0, 0, 0, 1))) == X
    assert squarefree_part(Poly((7,))) == ONE
    with pytest.raises(ZeroPolynomialError):
        squarefree_part(ZERO)


def test_sturm_chain_shape():
    chain = SturmChain.of_squarefree(Poly((-2, 0, 1))).chain
    assert chain[0] == Poly((-2, 0, 1))
    assert chain[-1].degree == 0


# -- root counting ---------------------------------------------------------------


def test_count_examples():
    assert count_real_roots(Poly((-2, 0, 1))) == 2
    assert count_real_roots(Poly((1, 0, 1))) == 0
    # roots of x^3 - 2x are -sqrt2, 0, sqrt2; (0, +inf] holds one of them
    assert count_real_roots(Poly((0, -2, 0, 1)), lo=0) == 1
    assert count_real_roots(Poly((0, -2, 0, 1)), lo=Fraction(-3, 2), hi=Fraction(1, 2)) == 2


def test_count_half_open_convention():
    # interval is (lo, hi]: a root sitting at lo is excluded, at hi included
    assert count_real_roots(X, lo=0, hi=1) == 0
    assert count_real_roots(X, lo=-1, hi=0) == 1


def test_count_errors():
    with pytest.raises(ZeroPolynomialError):
        count_real_roots(ZERO)
    with pytest.raises(EmptyIntervalError):
        count_real_roots(X, lo=1, hi=0)


def test_count_over_non_dyadic_intervals():
    # roots -sqrt2 < -7/5 < 1/3 (double) < 1 < 7/5 < sqrt2
    rational = [Fraction(-7, 5), Fraction(1, 3), Fraction(1), Fraction(7, 5)]
    f = (Poly((7, 5)) * Poly((-1, 3)) * Poly((-1, 3)) * Poly((-1, 1)) * Poly((-7, 5))
         * Poly((-2, 0, 1)))

    def below_sqrt2(a):
        return a < 0 or a * a < 2

    def expected(lo, hi):
        n = sum(1 for a in rational if lo < a <= hi)
        n += below_sqrt2(hi) != below_sqrt2(lo)  # +sqrt2 in (lo, hi]
        n += below_sqrt2(-lo) != below_sqrt2(-hi)  # -sqrt2 in (lo, hi]
        return n

    assert count_real_roots(f, lo=Fraction(1, 3), hi=Fraction(7, 5)) == 2
    ends = sorted({Fraction(-17, 12), Fraction(-7, 5), Fraction(-2, 3), Fraction(0),
                   Fraction(1, 3), Fraction(5, 7), Fraction(1), Fraction(7, 5), Fraction(17, 12)})
    for i, lo in enumerate(ends):
        for hi in ends[i:]:
            assert count_real_roots(f, lo=lo, hi=hi) == expected(lo, hi), (lo, hi)


def test_count_matches_distinct_integer_roots():
    rng = random.Random(20240)
    for _ in range(30):
        roots = [rng.randint(-8, 8) for _ in range(rng.randint(1, 5))]
        assert count_real_roots(product_of_roots(roots)) == len(set(roots))


# -- isolation -------------------------------------------------------------------


def test_isolate_two_simple_roots():
    cert = isolate_roots(Poly((-2, 0, 1)))
    assert len(cert) == 2
    assert all(iv.multiplicity == 1 for iv in cert.intervals)
    tight = refine_certificate(Poly((-2, 0, 1)), cert, Fraction(1, 10))
    lo_iv, hi_iv = tight.intervals
    assert Fraction(-2) < lo_iv.lo < lo_iv.hi < Fraction(-1)
    assert Fraction(1) < hi_iv.lo < hi_iv.hi < Fraction(2)


def test_isolate_exact_double_root():
    cert = isolate_roots(Poly((1, 2, 1)))
    assert len(cert) == 1
    iv = cert.intervals[0]
    assert iv.is_point and iv.lo == -1 and iv.multiplicity == 2


def test_isolate_no_real_roots():
    assert len(isolate_roots(Poly((1, 0, 1)))) == 0
    with pytest.raises(ZeroPolynomialError):
        isolate_roots(ZERO)


def test_isolate_mixed_multiplicities():
    # x^2 (x+1)^3 (x^2 - 3)
    f = Poly((0, 0, 1)) * Poly((1, 1)) * Poly((1, 1)) * Poly((1, 1)) * Poly((-3, 0, 1))
    cert = isolate_roots(f)
    mults = {}
    for iv in cert.intervals:
        key = iv.lo if iv.is_point else "irrational"
        mults.setdefault(key, []).append(iv.multiplicity)
    assert mults[Fraction(0)] == [2]
    assert mults[Fraction(-1)] == [3]
    assert mults["irrational"] == [1, 1]
    assert cert.total_multiplicity() == 7


def test_isolate_non_dyadic_rational_root():
    cert = isolate_roots(Poly((-1, 3)) * Poly((-1, 3)) * Poly((2, 7)))
    points = sorted(iv.lo for iv in cert.intervals if iv.is_point)
    assert points == [Fraction(-2, 7), Fraction(1, 3)]
    mult = {iv.lo: iv.multiplicity for iv in cert.intervals}
    assert mult[Fraction(1, 3)] == 2


def test_refine_width_and_degenerate():
    f = Poly((-2, 0, 1)) * Poly((1, 1))
    cert = isolate_roots(f)
    out = refine_certificate(f, cert, Fraction(1, 1000))
    for iv in out.intervals:
        if not iv.is_point:
            assert iv.hi - iv.lo < Fraction(1, 1000)
    again = refine_certificate(f, out, Fraction(10))
    assert again == out  # already narrower than the requested width


def test_refine_rejects_foreign_certificate():
    cert = isolate_roots(Poly((-2, 0, 1)))
    with pytest.raises(CertificateMismatchError):
        refine_certificate(X, cert, Fraction(1, 4))  # wrong number of roots
    bad = RootCertificate(
        (RootInterval(Fraction(5), Fraction(6), 1), RootInterval(Fraction(7), Fraction(8), 1))
    )
    with pytest.raises(CertificateMismatchError):
        refine_certificate(Poly((-2, 0, 1)), bad, Fraction(1, 4))
    wrong_mult = RootCertificate(
        tuple(RootInterval(iv.lo, iv.hi, 5) for iv in cert.intervals)
    )
    with pytest.raises(CertificateMismatchError):
        refine_certificate(Poly((-2, 0, 1)), wrong_mult, Fraction(1, 4))


def test_refine_hand_made_non_dyadic_certificate():
    f = Poly((-2, 0, 1))
    cert = RootCertificate((RootInterval(Fraction(-5, 3), Fraction(-4, 3), 1),
                            RootInterval(Fraction(4, 3), Fraction(5, 3), 1)))
    width = Fraction(1, 1 << 40)
    lo_iv, hi_iv = refine_certificate(f, cert, width).intervals
    for iv, sign in ((lo_iv, -1), (hi_iv, 1)):
        assert 0 < iv.hi - iv.lo < width
        a, b = sorted((sign * iv.lo, sign * iv.hi))
        assert a * a < 2 < b * b


def test_gcd_chain_built_once(monkeypatch):
    # (x+1)^10 (x^2-2): the repeated-gcd chain has 10 gcds, each computed once
    f = product_of_roots([-1] * 10) * Poly((-2, 0, 1))
    calls = []
    gcd = realroots.poly_gcd

    def counted_gcd(a, b):
        calls.append((a, b))
        return gcd(a, b)

    monkeypatch.setattr(realroots, "poly_gcd", counted_gcd)
    cert = isolate_roots(f)
    assert len(calls) == 10
    assert [iv.multiplicity for iv in cert.intervals] == [1, 10, 1]
    calls.clear()
    refine_certificate(f, cert, Fraction(1, 1 << 20))
    assert len(calls) == 10


def test_refine_below_2_pow_minus_520():
    f = Poly((-2, 0, 1))
    width = Fraction(1, 1 << 520)
    out = refine_certificate(f, isolate_roots(f), width)
    assert len(out) == 2
    assert all(iv.hi - iv.lo < width for iv in out.intervals)


def test_certificate_json():
    cert = isolate_roots(Poly((1, 2, 1)))
    assert cert.to_json_obj() == [{"lo": "-1/1", "hi": "-1/1", "mult": 2}]


# -- real-rootedness ---------------------------------------------------------------


def test_is_real_rooted_examples():
    assert not is_real_rooted(Poly((1, 0, 1)))
    assert is_real_rooted(Poly((0, 1, 1)))
    assert is_real_rooted(ZERO)
    assert is_real_rooted(Poly((5,)))
    assert is_real_rooted(Poly((1, 2, 1)))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=3),
    st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=3),
)
def test_real_rooted_multiplicative(roots_a, roots_b):
    a, b = product_of_roots(roots_a), product_of_roots(roots_b)
    assert is_real_rooted(a * b) == (is_real_rooted(a) and is_real_rooted(b))


def test_real_rooted_product_with_complex_factor():
    assert not is_real_rooted(Poly((1, 0, 1)) * Poly((1, 1)))


# -- interleaving -------------------------------------------------------------------


def test_interleaves_examples():
    assert interleaves(X, Poly((-1, 0, 1)))
    assert not interleaves(Poly((-1, 0, 1)), X)
    assert interleaves(Poly((1, 1)), X)
    assert interleaves(Poly((0, 1, 1)), ZERO)
    assert interleaves(ZERO, Poly((0, 1, 1)))
    assert interleaves(ZERO, ZERO)


def test_interleaves_zero_partner_requires_real_rooted():
    assert not interleaves(Poly((1, 0, 1)), ZERO)
    assert not interleaves(ZERO, Poly((1, 0, 1)))


def test_interleaves_negative_leading_coefficient():
    with pytest.raises(NegativeLeadingCoefficientError):
        interleaves(Poly((0, -1)), X)
    with pytest.raises(NegativeLeadingCoefficientError):
        interleaves(X, Poly((1, 0, -1)))


def test_interleaves_constants():
    assert interleaves(ONE, Poly((5,)))
    assert interleaves(ONE, X)
    assert interleaves(ONE, Poly((3, 2)))
    assert not interleaves(ONE, Poly((-1, 0, 1)))  # degree gap too large
    assert not interleaves(X, Poly((3,)))


def test_interleaves_multiplicity_awareness():
    assert interleaves(Poly((0, 0, 1)), Poly((0, 0, 1)))
    assert interleaves(X, Poly((0, 0, 1)))
    assert interleaves(Poly((1, 1)), Poly((1, 2, 1)))
    assert not interleaves(Poly((2, 1)), Poly((1, 2, 1)))


def test_interleaves_shared_irrational_roots():
    assert interleaves(Poly((-2, 0, 1)), Poly((0, -2, 0, 1)))
    assert interleaves(Poly((-2, 0, 1)), Poly((-4, 0, 2)))
    assert interleaves(Poly((0, -2, 0, 1)), Poly((4, 0, -4, 0, 1)))


def test_interleaves_scaling_invariance():
    pairs = [
        (X, Poly((-1, 0, 1))),
        (Poly((1, 1)), X),
        (Poly((0, 1, 1)), Poly((0, 1))),
        (Poly((-1, 0, 1)), X),
    ]
    for f, g in pairs:
        base = interleaves(f, g)
        for s in (2, 3, 10):
            assert interleaves(s * f, g) == base
            assert interleaves(f, s * g) == base


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_interleaves_constructed_between_roots(data):
    # f with simple integer roots, g with roots strictly between consecutive
    # roots of f plus one root above: always f << g
    k = data.draw(st.integers(min_value=1, max_value=3))
    roots_f = sorted(
        data.draw(
            st.lists(
                st.integers(min_value=-10, max_value=10),
                min_size=k,
                max_size=k,
                unique=True,
            ).filter(lambda rs: all(b - a >= 2 for a, b in zip(sorted(rs), sorted(rs)[1:])))
        )
    )
    roots_g = [data.draw(st.integers(min_value=a + 1, max_value=b - 1))
               for a, b in zip(roots_f, roots_f[1:])]
    roots_g.append(roots_f[-1] + data.draw(st.integers(min_value=1, max_value=4)))
    assert interleaves(product_of_roots(roots_f), product_of_roots(roots_g))


def test_interleaves_roots_closer_than_2_pow_minus_512():
    # roots +-sqrt(2) against +-sqrt(2 + 2^-520): the negative pair breaks
    # alternation, and no fixed bisection depth separates the roots
    f = Poly((-2, 0, 1))
    g = Poly((-(1 << 521) - 1, 0, 1 << 520))
    assert not interleaves(f, g)
    assert not interleaves(g, f)


# Real numbers q + s*sqrt(2) as pairs (q, s), with q rational and s an integer.
SQRT2_PAIR = ((0, 1), (0, -1))


def _below(u, v) -> bool:
    """u < v, exactly: q < b*sqrt(2) is decided by signs and by q^2 against 2b^2."""
    q, b = u[0] - v[0], v[1] - u[1]
    if b == 0:
        return q < 0
    if b > 0:
        return q < 0 or q * q < 2 * b * b
    return q < 0 and q * q > 2 * b * b


def _descending(roots):
    key = functools.cmp_to_key(lambda u, v: -1 if _below(v, u) else (1 if _below(u, v) else 0))
    return sorted(roots, key=key)


def _weakly_alternate(alpha, beta) -> bool:
    """beta[0] >= alpha[0] >= beta[1] >= alpha[1] >= ... on descending lists."""
    if len(beta) not in (len(alpha), len(alpha) + 1):
        return False
    for i, a in enumerate(alpha):
        if _below(beta[i], a) or (i + 1 < len(beta) and _below(a, beta[i + 1])):
            return False
    return True


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.fractions(min_value=-3, max_value=3, max_denominator=5),
            st.sampled_from(["next", "both", "both2", "f", "g"]),
        ),
        unique_by=lambda t: t[0],
        max_size=6,
    ),
    st.sampled_from([None, "both", "f", "g"]),
    st.sampled_from([None, "f", "g"]),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=5),
)
def test_interleaves_matches_constructed_roots(placed, sqrt2_on, complex_on, sf, sg):
    # Roots are placed by value from the top: "next" goes to the side whose
    # turn it is (g first, so alternation holds unless another tag breaks it),
    # "both"/"both2" are shared roots of multiplicity 1/2, and "f"/"g" force a side.
    roots = {"f": [], "g": []}
    turn = "g"
    for q, tag in sorted(placed, reverse=True):
        if tag == "next":
            roots[turn].append((q, 0))
            turn = "f" if turn == "g" else "g"
        elif tag in roots:
            roots[tag].append((q, 0))
        else:
            for side in roots:
                roots[side] += [(q, 0)] * (2 if tag == "both2" else 1)
    polys = {side: ONE for side in roots}
    for side, rs in roots.items():
        for q, _ in rs:
            polys[side] = polys[side] * Poly((-q.numerator, q.denominator))
    for side in ("fg" if sqrt2_on == "both" else sqrt2_on or ""):
        polys[side] = polys[side] * Poly((-2, 0, 1))
        roots[side] += SQRT2_PAIR
    if complex_on:
        polys[complex_on] = polys[complex_on] * Poly((1, 0, 1))
        expected = False
    else:
        expected = _weakly_alternate(_descending(roots["f"]), _descending(roots["g"]))
    assert interleaves(sf * polys["f"], sg * polys["g"]) == expected


def test_is_interlacing_seq():
    assert is_interlacing_seq([])
    assert is_interlacing_seq([Poly((1, 0, 1))])  # vacuous even if not real-rooted
    assert is_interlacing_seq([X, Poly((-1, 0, 1))])
    assert is_interlacing_seq([Poly((0, 2)), X, Poly((0, 0, 1))])
    assert not is_interlacing_seq([Poly((-1, 0, 1)), X])


def test_in_fplus():
    assert in_fplus([Poly((1, 1)), X])
    assert not in_fplus([X, Poly((1, 1))])
    assert not in_fplus([Poly((-1, 0, 1)), X])  # negative coefficient short-circuits
    assert in_fplus([])
