import functools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from interlace import polys, realroots
from interlace.edgewise import e_vector, local_h
from interlace.errors import (
    BadParametersError,
    CertificateMismatchError,
    EmptyIntervalError,
    NegativeLeadingCoefficientError,
    ZeroPolynomialError,
)
from interlace.polys import ONE, X, ZERO, Poly, exact_div, poly_derivative, poly_gcd
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
    assert count_real_roots(Poly((-7,))) == count_real_roots(Poly((-7,)), lo=-1, hi=1) == 0
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


NOT_RATIONAL = [float("nan"), float("inf"), float("-inf"), "abc", "1/0", "", object(), 1j]


@pytest.mark.parametrize("bad", NOT_RATIONAL,
                         ids=["nan", "inf", "-inf", "abc", "1/0", "empty", "object", "1j"])
def test_bounds_and_widths_that_are_not_rational_numbers(bad):
    f = Poly((-2, 0, 1))
    cert = isolate_roots(f)
    with pytest.raises(BadParametersError):
        count_real_roots(f, lo=bad)
    with pytest.raises(BadParametersError):
        count_real_roots(f, hi=bad)
    with pytest.raises(BadParametersError):
        count_real_roots(f, lo=-1, hi=bad)
    with pytest.raises(BadParametersError):
        refine_certificate(f, cert, bad)
    with pytest.raises(BadParametersError):
        RootInterval(bad, 2, 1)
    with pytest.raises(BadParametersError):
        RootInterval(-2, bad, 1)


def test_bounds_and_widths_in_every_accepted_form():
    f = Poly((-2, 0, 1)) * Poly((-1, 3))  # roots -sqrt2, 1/3, sqrt2
    for lo, hi, n in [(0, 2, 2), (Fraction(1, 3), 2, 1), (0.25, 1.5, 2), ("1/3", "3/2", 1),
                      (" -3/2 ", "1e0", 2), (-2.0, "0.5", 2)]:
        assert count_real_roots(f, lo=lo, hi=hi) == n, (lo, hi)
    assert count_real_roots(f, lo=0.5) == 1 and count_real_roots(f, hi="1/3") == 2
    cert = isolate_roots(f)
    for width, same_as in [(1, Fraction(1)), (0.1, Fraction(0.1)), ("7/1000", Fraction(7, 1000)),
                           (Fraction(1, 3), Fraction(1, 3))]:
        assert refine_certificate(f, cert, width) == refine_certificate(f, cert, same_as)
    for width in (0, -1, 0.0, "-1/3"):
        with pytest.raises(BadParametersError, match="positive"):
            refine_certificate(f, cert, width)
    # None is an open end for count_real_roots, but no width
    with pytest.raises(BadParametersError, match="finite rational"):
        refine_certificate(f, cert, None)
    # interval ends take the same forms
    g = Poly((-2, 0, 1))
    exact = RootCertificate((RootInterval(Fraction(-3, 2), Fraction(-5, 4), 1),
                             RootInterval(Fraction(5, 4), Fraction(3, 2), 1)))
    for ends in [((-1.5, -1.25), (1.25, 1.5)), (("-3/2", " -1.25"), (Fraction(5, 4), "3/2"))]:
        made = RootCertificate(tuple(RootInterval(lo, hi, 1) for lo, hi in ends))
        assert made == exact
        assert refine_certificate(g, made, 1 / 8) == refine_certificate(g, exact, Fraction(1, 8))


def test_malformed_intervals_and_certificates():
    iv = RootInterval(1, 2, 1)
    assert type(iv.lo) is Fraction and type(iv.hi) is Fraction
    assert iv == RootInterval(Fraction(1), Fraction(2), 1)
    assert hash(iv) == hash(RootInterval(Fraction(1), Fraction(2), 1))
    assert iv.to_json_obj() == {"lo": "1/1", "hi": "2/1", "mult": 1}
    for lo, hi, mult in [(2, 1, 1), ("2", "1", 1), (0, 1, 0), (0, 1, -1), (0, 1, 1.5),
                         (0, 1, "1"), (0, 1, True), (0, 1, None)]:
        with pytest.raises(BadParametersError):
            RootInterval(lo, hi, mult)
    point = RootInterval(1, 1, 1)
    for intervals in [(RootInterval(0, 2, 1), RootInterval(1, 3, 1)), (point, point),
                      [iv], (iv, (2, 3, 1)), (1, 2), None]:
        with pytest.raises(BadParametersError):
            RootCertificate(intervals)
    assert len(RootCertificate((RootInterval(0, 1, 1), point, RootInterval(1, 2, 1)))) == 3


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
    # (x+1)^10 (x^2-2): the repeated-gcd chain has 10 gcds, each computed once;
    # the first is the last term of the Sturm chain, so 9 calls to poly_gcd
    f = product_of_roots([-1] * 10) * Poly((-2, 0, 1))
    calls = []
    gcd = realroots.poly_gcd

    def counted_gcd(a, b):
        calls.append((a, b))
        return gcd(a, b)

    monkeypatch.setattr(realroots, "poly_gcd", counted_gcd)
    cert = isolate_roots(f)
    assert len(calls) == 9
    assert [iv.multiplicity for iv in cert.intervals] == [1, 10, 1]
    calls.clear()
    refine_certificate(f, cert, Fraction(1, 1 << 20))
    assert len(calls) == 9


def test_refine_below_2_pow_minus_520(monkeypatch):
    f = Poly((-2, 0, 1))
    width = Fraction(1, 1 << 520)
    cert = isolate_roots(f)
    calls = _count_sign_evaluations(monkeypatch)
    out = refine_certificate(f, cert, width)
    assert len(out) == 2
    assert all(iv.hi - iv.lo < width for iv in out.intervals)
    # per interval (-3, 0) and (0, 3), where bisection makes 522 halvings:
    # its two ends checked, whose values the secants reuse, 22 evaluations in
    # 12 secant guesses and one for each of the 2 bisection steps after a miss
    assert len(calls) == 2 * (2 + 22 + 2) == 52


MIGNOTTE = Poly((-2, 400, -20000) + (0,) * 17 + (1,))  # x^20 - 2(100x - 1)^2


@pytest.mark.parametrize("f, width, expected", [
    (Poly((-3814977668324157077, 0, 3419197581502107467)), Fraction(1, 1 << 300), 56),
    (MIGNOTTE, Fraction(1, 1 << 64), 66),
    (MIGNOTTE, Fraction(1, 1 << 200), 118),
], ids=["ax^2-b 2^-300", "mignotte 2^-64", "mignotte 2^-200"])
def test_refinement_evaluation_counts(monkeypatch, f, width, expected):
    # exact counts at the one loop, validation included, whose values at the
    # ends of each refined interval the secants reuse; bisection, one
    # evaluation per halving, makes 610, 154 and 684
    cert = isolate_roots(f)
    calls = _count_sign_evaluations(monkeypatch)
    out = refine_certificate(f, cert, width)
    assert len(calls) == expected
    assert out == _reference_refine(f, cert, width)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=1 << 64).flatmap(
                lambda den: st.tuples(st.integers(min_value=-4 * den, max_value=4 * den),
                                      st.just(den))),
            st.integers(min_value=1, max_value=3),
        ),
        max_size=4,
    ),
    st.integers(min_value=0, max_value=3),
    st.booleans(),
    st.booleans(),
    st.sampled_from([1, 2, 5, -1, -3]),
)
def test_certificate_of_planted_roots(planted, k, sqrt2, complex_pair, scale):
    # rational roots with multiplicities, times x^k, x^2 - 2, x^2 + 1 and a scaling
    expected: dict[Fraction, int] = {Fraction(0): k} if k else {}
    f = Poly((0,) * k + (scale,))
    for (num, den), mult in planted:
        a = Fraction(num, den)
        expected[a] = expected.get(a, 0) + mult
        for _ in range(mult):
            f = f * Poly((-a.numerator, a.denominator))
    if sqrt2:
        f = f * Poly((-2, 0, 1))
    if complex_pair:
        f = f * Poly((1, 0, 1))
    _check_records(f)
    cert = isolate_roots(f)
    assert {iv.lo: iv.multiplicity for iv in cert.intervals if iv.is_point} == expected
    assert sum(iv.is_point for iv in cert.intervals) == len(expected)
    others = [iv for iv in cert.intervals if not iv.is_point]
    assert [iv.multiplicity for iv in others] == [1, 1] * sqrt2
    for iv in others:
        assert f(iv.lo) != 0 and f(iv.hi) != 0
    refined = refine_certificate(f, cert, Fraction(1, 1 << 30))
    assert all(iv.hi - iv.lo < Fraction(1, 1 << 30) for iv in refined.intervals)


def _fraction_bisect_once(p: Poly, lo: Fraction, hi: Fraction,
                          s_lo: int) -> tuple[Fraction, Fraction, int]:
    """One bisection step in Fraction arithmetic on an interval holding one
    simple root of p, given the sign of p at lo."""
    mid = (lo + hi) / 2
    s = p.sign_at(mid)
    if s == 0:
        return mid, mid, 0
    if s == s_lo:
        return mid, hi, s
    return lo, mid, s_lo


def _reference_rational_root_in(q: Poly, lo: Fraction, hi: Fraction) -> Fraction | None:
    """Binary search for a rational root c/L, L = |lead(q)|, in Fractions."""
    L = abs(q.leading_coefficient)
    s_lo = q.sign_at(lo)
    a, b = math.floor(lo * L) + 1, math.ceil(hi * L) - 1
    while a <= b:
        c = (a + b) // 2
        s = q.sign_at(Fraction(c, L))
        if s == 0:
            return Fraction(c, L)
        if s == s_lo:
            a = c + 1
        else:
            b = c - 1
    return None


LEADS = st.one_of(st.integers(min_value=1, max_value=1 << 200),
                  st.integers(min_value=0, max_value=200).map(lambda e: 1 << e))


@settings(max_examples=300, deadline=None)
@given(LEADS, st.integers(min_value=-(1 << 210), max_value=1 << 210), st.sampled_from(
    ["linear", "square", "square of a rational"]), st.integers(min_value=0, max_value=80),
    st.integers(min_value=0, max_value=1 << 40), st.integers(min_value=0, max_value=1 << 40))
@example(3, 7, "linear", 0, 1 << 40, 1 << 40)
@example(1 << 100, 3, "linear", 0, 5, 5)  # the dyadic root 3/2^100
def test_the_rational_probe_equals_the_binary_search(L, c, kind, k, left, right):
    # (L x - c)(x^2 + 1) has the one real root c/L, rational and on the grid
    # of its lead L; (L x^2 - c)(x^2 + 1), c > 0, the positive root
    # sqrt(c/L), which is rational for L = u^2 and c = v^2.  On an interval
    # (a/2^k, b/2^k) around that root, with a >= 0 for the square, the
    # probe finds the root the binary search over the grid c/L finds, or
    # neither finds one
    den = 1 << k
    if kind == "linear":
        q = Poly((-c, L)) * Poly((1, 0, 1))
        mid = c * den // L  # floor(root den)
    else:
        if kind == "square of a rational":
            L, c = L * L, c * c
        c = abs(c) + (kind == "square")
        q = Poly((-c, 0, L)) * Poly((1, 0, 1))
        mid = math.isqrt(c * den * den // L)
    a, b = max(mid - left, 0) if kind != "linear" else mid - left, mid + 1 + right
    assume(q._sign_at(a, den) and q._sign_at(b, den))
    assert (realroots._rational_root_in(q, a, b, den)
            == _reference_rational_root_in(q, Fraction(a, den), Fraction(b, den)))


def _reference_refine(f: Poly, cert: RootCertificate, width: Fraction) -> RootCertificate:
    """Halve every interval of a valid certificate in Fraction arithmetic until
    it is narrower than width."""
    p = squarefree_part(f)
    out = []
    for iv in cert.intervals:
        lo, hi = iv.lo, iv.hi
        if hi - lo >= width:
            s_lo = p.sign_at(lo)
            while hi - lo >= width:
                lo, hi, s_lo = _fraction_bisect_once(p, lo, hi, s_lo)
        out.append(RootInterval(lo, hi, iv.multiplicity))
    return RootCertificate(tuple(out))


def _reference_isolation(f: Poly) -> tuple[RootCertificate, int, int]:
    """Sturm bisection as it was done before one chain served isolation: the
    chain of the squarefree part, counted at both ends of every interval, and
    multiplicities from the Sturm chains of the repeated-gcd levels of f.
    Returns the certificate, the number of splits and the number of halvings
    that move intervals off the root 0."""
    gs = [f]
    while gs[-1].degree >= 1:
        gs.append(poly_gcd(gs[-1], poly_derivative(gs[-1])))
    if len(gs) == 1:
        return RootCertificate(), 0, 0
    p, *levels = [exact_div(g, d).primitive_positive() for g, d in zip(gs, gs[1:])]
    q, k = realroots._strip_x(p)
    points = [Fraction(0)] if k else []
    intervals, splits, halvings = [], 0, 0
    if q.degree >= 1:
        chain = SturmChain.of_squarefree(q)
        bound = Fraction(realroots._root_bound(q))
        stack = [(-bound, bound)]
        while stack:
            lo, hi = stack.pop()
            n = chain.count_in(lo, hi)
            if n == 1:
                root = _reference_rational_root_in(q, lo, hi)
                if root is None:
                    intervals.append((lo, hi))
                else:
                    points.append(root)
            elif n > 1:
                splits += 1
                mid = (lo + hi) / 2
                while q.sign_at(mid) == 0:
                    mid = (lo + mid) / 2
                stack += [(lo, mid), (mid, hi)]
        for i, (lo, hi) in enumerate(intervals):
            if k and lo <= 0 <= hi:
                s_lo = q.sign_at(lo)
                while lo <= 0 <= hi:
                    lo, hi, s_lo = _fraction_bisect_once(q, lo, hi, s_lo)
                    halvings += 1
                intervals[i] = (lo, hi)
    level_chains = [(s, SturmChain.of_squarefree(s)) for s in levels]
    out = []
    for lo, hi in sorted([(a, a) for a in points] + intervals):
        mult = 1
        for level, chain in level_chains:
            if not (level.sign_at(lo) == 0 if lo == hi else chain.count_in(lo, hi) == 1):
                break
            mult += 1
        out.append(RootInterval(lo, hi, mult))
    return RootCertificate(tuple(out)), splits, halvings


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.fractions(min_value=-6, max_value=6, max_denominator=1 << 20),
                  st.integers(min_value=1, max_value=3)),
        max_size=5,
    ),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=2),
    st.booleans(),
    st.sampled_from([1, 3, -1, -6]),
)
def test_isolation_equals_reference_bisection(planted, k, sqrt2, complex_pair, scale):
    f = Poly.monomial(k, scale)
    for a, mult in planted:
        for _ in range(mult):
            f = f * Poly((-a.numerator, a.denominator))
    for _ in range(sqrt2):
        f = f * Poly((-2, 0, 1))
    if complex_pair:
        f = f * Poly((1, 0, 1))
    assert isolate_roots(f) == _reference_isolation(f)[0]


def _assert_reference_json(f: Poly) -> int:
    """isolate_roots(f) prints as Sturm bisection in Fractions does; returns
    the number of halvings that move intervals off the root 0."""
    expected, _, halvings = _reference_isolation(f)
    assert json.dumps(isolate_roots(f).to_json_obj()) == json.dumps(expected.to_json_obj())
    return halvings


@pytest.mark.parametrize("r", range(3, 9))
def test_chain_isolation_next_to_the_root_0_equals_reference_bisection(r):
    # every nonzero E-vector component of index >= 1 has the factor x and
    # takes the chain; its irrational roots next to 0 are halved off it by
    # the counts of the chain
    halvings = sum(_assert_reference_json(f) for n in range(2, 21)
                   for f in e_vector(r, n).polys[1:] if not f.is_zero)
    assert halvings > 0


@pytest.mark.parametrize("coeffs", [(0, -2, 0, 100), (0, -7, 0, 10 ** 6), (0, -3, 0, 1 << 40),
                                    (0, 0, -5, 0, 7 ** 9)])
def test_roots_close_to_the_root_0_equal_reference_bisection(coeffs):
    # x^k (a x^2 - b) with a >> b: the leaves holding +-sqrt(b/a) end at 0
    # and take many halvings to leave it
    assert _assert_reference_json(Poly(coeffs)) >= 8


def _user_certificate(f: Poly, cert: RootCertificate, thirds: int,
                      widen: bool) -> RootCertificate:
    """cert with each open interval cut `thirds` times down to a third that
    still isolates its root and, if widen, each exact root r widened to the
    open interval (r - d, r + d), d a third of the gap to its nearest
    neighbour, so that bisection's first midpoint is the root itself."""
    p = squarefree_part(f)
    ivs = list(cert.intervals)
    for i, iv in enumerate(ivs):
        lo, hi = iv.lo, iv.hi
        for _ in range(thirds if not iv.is_point else 0):
            step = (hi - lo) / 3
            cuts = [lo, lo + step, hi - step, hi]
            if p.sign_at(cuts[1]) == 0 or p.sign_at(cuts[2]) == 0:
                break
            lo, hi = next((u, v) for u, v in zip(cuts, cuts[1:])
                          if p.sign_at(u) != p.sign_at(v))
        ivs[i] = RootInterval(lo, hi, iv.multiplicity)
    if widen:
        base = list(ivs)
        for i, iv in enumerate(base):
            if iv.is_point:
                left = base[i - 1].hi if i else iv.lo - 3
                right = base[i + 1].lo if i + 1 < len(base) else iv.lo + 3
                d = min(iv.lo - left, right - iv.lo) / 3
                ivs[i] = RootInterval(iv.lo - d, iv.lo + d, iv.multiplicity)
    return RootCertificate(tuple(ivs))


WIDTHS = [Fraction(1, 3), Fraction(7, 1000), Fraction(5, 7), Fraction(1, 3 ** 25),
          Fraction(1, 1 << 40), Fraction(10)]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.fractions(min_value=-6, max_value=6, max_denominator=1 << 12),
                  st.integers(min_value=1, max_value=3)),
        max_size=4,
    ),
    st.integers(min_value=0, max_value=2),
    st.lists(st.sampled_from([(2, 1), (3, 1), (5, 4), (2, 9), (7, 1 << 40)]), max_size=2,
             unique=True),
    st.booleans(),
    st.one_of(st.sampled_from(WIDTHS),
              st.fractions(min_value=Fraction(1, 10 ** 6), max_value=4, max_denominator=10 ** 6)),
    st.integers(min_value=0, max_value=3),
    st.booleans(),
)
def test_refinement_equals_fraction_bisection(planted, k, surds, complex_pair, width, thirds,
                                              widen):
    # rational roots with multiplicities, x^k, irrational roots +-sqrt(m/n)
    # and a complex pair; certificates from isolation, cut to thirds and with
    # exact roots widened to open intervals centred on them
    f = Poly.monomial(k)
    for a, mult in planted:
        for _ in range(mult):
            f = f * Poly((-a.numerator, a.denominator))
    for m, n in surds:
        f = f * Poly((-m, 0, n))
    if complex_pair:
        f = f * Poly((1, 0, 1))
    cert = _user_certificate(f, isolate_roots(f), thirds, widen)
    out = refine_certificate(f, cert, width)
    expected = _reference_refine(f, cert, width)
    assert out == expected
    assert out.to_json_obj() == expected.to_json_obj()


def test_refine_lands_on_a_rational_root():
    # (x + 1)(x - 1)(x^2 - 2) with open intervals centred on -1 and 1: the
    # first midpoints are the roots, which become point intervals
    f = Poly((1, 1)) * Poly((-1, 1)) * Poly((-2, 0, 1))
    cert = RootCertificate(tuple(RootInterval(Fraction(lo), Fraction(hi), 1) for lo, hi in
                                 [(-3, Fraction(-4, 3)), (Fraction(-4, 3), Fraction(-2, 3)),
                                  (Fraction(2, 3), Fraction(4, 3)), (Fraction(4, 3), 3)]))
    out = refine_certificate(f, cert, Fraction(1, 3))
    assert out == _reference_refine(f, cert, Fraction(1, 3))
    assert [iv.lo for iv in out.intervals if iv.is_point] == [-1, 1]


def _dyadic_widened(cert: RootCertificate, level: int, index: int) -> RootCertificate:
    """cert with each exact root r widened to an open interval of width a
    third of the gap to its nearest neighbour, on whose bisection grid r is
    first a point at the given level: r - i d to r + (2^level - i) d for an
    odd i < 2^level drawn from index."""
    ivs = list(cert.intervals)
    i = 2 * (index % (1 << (level - 1))) + 1
    for n, iv in enumerate(cert.intervals):
        if iv.is_point:
            left = cert.intervals[n - 1].hi if n else iv.lo - 3
            right = cert.intervals[n + 1].lo if n + 1 < len(ivs) else iv.lo + 3
            d = min(iv.lo - left, right - iv.lo) / (3 << level)
            ivs[n] = RootInterval(iv.lo - i * d, iv.lo + ((1 << level) - i) * d, iv.multiplicity)
    return RootCertificate(tuple(ivs))


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(st.fractions(min_value=-4, max_value=4, max_denominator=1 << 10),
                       st.integers(min_value=1, max_value=2)), max_size=2),
    st.integers(min_value=0, max_value=2),
    st.one_of(st.none(), st.tuples(st.integers(min_value=3, max_value=12),
                                   st.integers(min_value=2, max_value=60))),
    st.booleans(),
    st.integers(min_value=1, max_value=14),
    st.integers(min_value=0, max_value=1 << 13),
    st.integers(min_value=0, max_value=2),
    st.sampled_from([Fraction(10), Fraction(3, 7), Fraction(1, 3 ** 40), Fraction(1, 1 << 64),
                     Fraction(1, 1 << 9), Fraction(1, 1000)]),
)
def test_secant_refinement_returns_the_bisection_cell(planted, k, clustered, surd, level, index,
                                                     thirds, width):
    # x^k, rational roots with multiplicities, the clustered pair of
    # x^d - 2(ax - 1)^2 and +-sqrt(2); exact roots widened so that they are
    # grid points first at `level`, which refinement lands on when it makes
    # at least that many halvings, and open intervals cut to thirds
    f = Poly.monomial(k)
    for a, mult in planted:
        for _ in range(mult):
            f = f * Poly((-a.numerator, a.denominator))
    if clustered:
        d, a = clustered
        f = f * (Poly.monomial(d) - Poly((-1, a)) * Poly((-2, 2 * a)))
    if surd:
        f = f * Poly((-2, 0, 1))
    cert = _user_certificate(f, _dyadic_widened(isolate_roots(f), level, index), thirds, False)
    with pytest.MonkeyPatch.context() as mp:
        calls = _count_sign_evaluations(mp)
        bisections = _record_calls(mp, realroots, "_bisect_once")
        refine_certificate(f, cert, 1 << 200)  # the checks of cert alone
        checks = len(calls)
        out = refine_certificate(f, cert, width)
        secant = len(calls) - 2 * checks
        del calls[:]
        expected = _reference_refine(f, cert, width)
        halving = len(calls)
    assert out == expected
    assert out.to_json_obj() == expected.to_json_obj()
    # bisection makes 1 + h evaluations on an interval it halves h times; the
    # secant search at most 2 more at its ends, 2 for a final guess and 2 for
    # each miss, which a bisection step follows
    refined = sum(1 for iv in cert.intervals if iv.hi - iv.lo >= width)
    assert secant <= halving + 3 * refined + 2 * len(bisections)


def test_refinement_at_cell_widths():
    # (0, 3) holds sqrt(2): a width of exactly 3 / 2^K takes K + 1 halvings,
    # a width above the interval's none
    f = Poly((-2, 0, 1))
    cert = isolate_roots(f)
    assert cert.intervals[1].hi == 3
    for width in [Fraction(4), Fraction(3, 7)] + [Fraction(3, 1 << n) + e for n in range(12)
                                                  for e in (0, Fraction(1, 1 << 40))]:
        assert refine_certificate(f, cert, width) == _reference_refine(f, cert, width)


def test_isolation_walks_one_sequence_evaluated_once_per_split(monkeypatch):
    # (2 + x + x^2) local_h(6, 20) = x^4 h with h squarefree and not
    # palindromic, so it takes the Sturm path: the sequence of (h, h') ends
    # at a constant, so no gcd is taken, and the chain is evaluated at the
    # two ends of (-B, B), then once at the midpoint of each split and of
    # each halving that moves the leaf holding the root 0 off it
    f = Poly((2, 1, 1)) * local_h(6, 20)
    expected, splits, halvings = _reference_isolation(f)
    gcds = _record_calls(monkeypatch, realroots, "poly_gcd")
    evaluations = _record_calls(monkeypatch, SturmChain, "variations_at")
    cert = isolate_roots(f)
    assert cert == expected
    assert gcds == []
    assert len(evaluations) == splits + halvings + 2 == 45
    gcds.clear()
    evaluations.clear()
    refine_certificate(f, cert, Fraction(1, 1 << 20))
    assert gcds == [] and evaluations == []


def test_palindromic_isolation_through_the_fold(monkeypatch):
    # local_h(10, 40) = x^4 h with h palindromic of degree 32 and squarefree:
    # its roots are counted through the fold q of degree m = 16.  Its
    # separators prove q real-rooted, so no remainder sequence is built, no
    # chain is evaluated and q is not isolated: the tree of h is the one
    # tree.  With the guess failing, the chain of q is the one sequence, no
    # chain of h is evaluated and q is isolated once.  Either way the tree
    # gives the certificate of the Sturm path and h is evaluated nowhere:
    # the splits and the halvings that move the interval ending at the root
    # 0 off it take their signs from the counts, and the leaves probe the
    # roots of q.  Their probe bisects q only in a leaf of q's own tree that
    # holds two or more integers (lead(q) = 1), on its way to a cell
    # narrower than 1: never in the proven gaps, narrowed to brackets about
    # 2^-29 |w| wide around its roots w, and 30 times in the leaves of the
    # chain of q
    f = local_h(10, 40)
    h, k = realroots._strip_x(f)
    m = h.degree // 2
    assert (k, m) == (4, 16)
    with monkeypatch.context() as patched:
        patched.setattr(realroots, "_fold_counter", lambda p: None)
        sturm = isolate_roots(f)
    sequences = _record_calls(monkeypatch, realroots, "_remainder_sequence")
    evaluations = _record_calls(monkeypatch, SturmChain, "variations_at")
    isolations = _record_calls(monkeypatch, realroots, "_isolate")
    bisections = _record_calls(monkeypatch, realroots, "_bisect_once")
    degrees = []
    value_at = Poly._value_at
    monkeypatch.setattr(Poly, "_value_at",
                        lambda p, num, den: degrees.append(p.degree) or value_at(p, num, den))
    for guessed, trees in ((True, [2 * m]), (False, [2 * m, m])):
        with monkeypatch.context() as patched:
            if not guessed:
                patched.setattr(realroots, "_guessed_separators", lambda q, s: None)
            for calls in (sequences, evaluations, isolations, bisections, degrees):
                calls.clear()
            cert = isolate_roots(f)
        assert cert == sturm
        assert json.dumps(cert.to_json_obj()) == json.dumps(sturm.to_json_obj())
        assert len(cert) == 33 and cert.intervals[-1].multiplicity == 4
        assert [a.degree for a, _ in sequences] == ([] if guessed else [m])
        assert {chain.chain[0].degree for chain, *_ in evaluations} == (set() if guessed else {m})
        assert [p.degree for p, *_ in isolations] == trees  # the tree of h (then q once)
        assert degrees.count(2 * m) == 0
        assert [p.degree for p, *_ in bisections] == ([] if guessed else [m] * 30)


def test_a_proven_fold_evaluates_q_at_plus_minus_2_once(monkeypatch):
    # the signs of q at +-2 that qualify the fold also place +-2 among the
    # proven gaps of q: B(+-2) takes no second evaluation there.  The fold
    # of local_h(10, 60) has degree 24 and the side s = -2, so y = -2 and 2
    # are w = 0 and 4, and the sign at w = -s = 2 asks whether q(0) = 0; its
    # Newton polygon's points fail at their third sign (the smallest log2
    # gap of its root moduli is 0.62), and Laguerre's 23 points are proven,
    # with the signs at the Cauchy bounds -B and B known: 1 + 2 + 3 + 23
    # signs, not the 27 of Laguerre's proof alone plus at most 4
    h = local_h(10, 60)
    calls = _count_sign_evaluations(monkeypatch)
    assert is_real_rooted(h)
    assert len(calls) == 1 + 2 + 3 + 23
    assert calls[0] == (2, 1)
    assert sorted(c for c in calls if c in ((0, 1), (4, 1))) == [(0, 1), (4, 1)]


def test_palindromic_refinement_through_the_fold(monkeypatch):
    # local_h(10, 40) = x^4 h as above: refinement checks a certificate
    # against the fold's root count, which the separators of q give with no
    # remainder sequence at all (with the guess failing, the chain of q
    # alone), and refines as the Sturm path does; q is never isolated; and it
    # still rejects a dropped interval, an interval widened over two roots
    # and a wrong multiplicity of the root 0
    f = local_h(10, 40)
    m = realroots._strip_x(f)[0].degree // 2
    cert = isolate_roots(f)
    width = Fraction(1, 1 << 20)
    with monkeypatch.context() as patched:
        patched.setattr(realroots, "_fold_counter", lambda p: None)
        sturm = refine_certificate(f, cert, width)
    sequences = _record_calls(monkeypatch, realroots, "_remainder_sequence")
    isolations = _record_calls(monkeypatch, realroots, "_isolate")
    for guessed in (True, False):
        with monkeypatch.context() as patched:
            if not guessed:
                patched.setattr(realroots, "_guessed_separators", lambda q, s: None)
            sequences.clear()
            out = refine_certificate(f, cert, width)
        assert out == sturm
        assert json.dumps(out.to_json_obj()) == json.dumps(sturm.to_json_obj())
        assert [a.degree for a, _ in sequences] == ([] if guessed else [m])
        assert isolations == []
    ivs = cert.intervals
    assert len(ivs) == 33 and ivs[-1] == RootInterval(Fraction(0), Fraction(0), 4)
    assert not any(iv.is_point for iv in ivs[:-1])
    with pytest.raises(CertificateMismatchError, match="certificate lists 32 roots"):
        refine_certificate(f, RootCertificate(ivs[1:]), width)
    # the first interval widened over the second root, and (1, 2), which
    # holds no root, to keep the number of intervals
    widened = ((RootInterval(ivs[0].lo, ivs[1].hi, 1),) + ivs[2:]
               + (RootInterval(Fraction(1), Fraction(2), 1),))
    with pytest.raises(CertificateMismatchError, match="does not isolate one root"):
        refine_certificate(f, RootCertificate(widened), width)
    wrong_mult = ivs[:-1] + (RootInterval(Fraction(0), Fraction(0), 3),)
    with pytest.raises(CertificateMismatchError, match="multiplicity mismatch"):
        refine_certificate(f, RootCertificate(wrong_mult), width)


@pytest.mark.parametrize("r", range(3, 11))
def test_local_h_isolation_equals_reference_bisection(r):
    # the local h-polynomials up to degree about 40 take the fold; its count
    # agrees with the Sturm chain, and each certificate equals Sturm
    # bisection in Fractions
    for n in range(2, 42, 3):
        f = local_h(r, n)
        if f.degree > 40:
            break
        p = realroots._strip_x(f)[0]
        if p.degree >= 2:
            _check_counter(p, realroots._fold_counter(p))
        cert = isolate_roots(f)
        expected = _reference_isolation(f)[0]
        assert cert == expected
        assert json.dumps(cert.to_json_obj()) == json.dumps(expected.to_json_obj())


def _check_counter(h: Poly, counter, reference=None) -> None:
    """counter = (count, distinct, probe) of h, from ``_fold_counter`` or the
    last three fields of a root record of either path, against a reference
    (count, distinct): by default the Sturm chain of the squarefree part p of
    h that ``count_real_roots(h, lo, hi)`` builds, with its whole-line count
    and its count on (-oo, t] at the t that are no roots of p.  distinct
    equals the reference's; the count is None exactly at the roots of p and
    equals the reference's at -1, 0 and 1 and at every point where the tree
    of ``_isolate`` counts on p, so every difference of the count equals the
    chain's count between the points; and the probe gives every leaf of that
    tree the rational root that the grid probe of p finds in it.  Each count
    is checked before the tree uses it, so a wrong one fails rather than
    splitting the tree forever."""
    count, distinct, probe = counter
    p = squarefree_part(h)
    if reference is None:
        # the chain that count_real_roots(h, lo, hi) builds, built once
        chain = SturmChain.of_squarefree(p)
        reference = (lambda num, den: None if p._sign_at(num, den) == 0
                     else chain.count_in(None, Fraction(num, den)), chain.count_in(None, None))
    assert distinct == reference[1]

    def checked(num, den):
        below = count(num, den)
        assert (below is None) == (p._sign_at(num, den) == 0)
        assert below == reference[0](num, den)
        return below

    def checked_probe(q, a, b, den):
        assert q == p
        root = probe(q, a, b, den)
        assert root == realroots._rational_root_in(p, a, b, den)
        return root

    for t in (-1, 0, 1):
        checked(t, 1)
    realroots._isolate(p, checked, checked_probe)


def _check_records(f: Poly) -> None:
    """``_check_counter`` on both root records of a nonzero f: the one of
    isolation and, if f is real-rooted, the one of its verdict."""
    for r in (realroots._roots(f), realroots._roots(f, verdict=True)):
        if r is not None:
            _check_counter(r.h, r[3:])


def _proven_and_chain_folds(p: Poly) -> tuple:
    """(proven, fold, chain_fold) for a p that folds: whether the separators
    of its fold q proved q (``_separators``), ``_fold_counter(p)``, and
    ``_fold_counter(p)`` with the guess forced to fail, so on the chain of q."""
    proofs = []
    separators = realroots._separators

    def recorded(q, s):
        proofs.append(separators(q, s))
        return proofs[-1]

    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(realroots, "_separators", recorded)
        fold = realroots._fold_counter(p)
        patched.setattr(realroots, "_guessed_separators", lambda q, s: None)
        chain_fold = realroots._fold_counter(p)
    assert len(proofs) == 2 and proofs[1] is None
    return proofs[0] is not None, fold, chain_fold


# palindromes from factors d x^2 - n x + d, whose fold is d y - n: real
# roots for |n/d| > 2 of either sign, a complex pair on the unit circle for
# |n/d| < 2, a double root +-1 for |n/d| = 2; factors (v x - s u)(u x - s v)
# with the rational roots s u/v and s v/u, so y = s (u^2 + v^2)/(u v) is
# rational too (a double root for u = v); rational factors d x^2 - n x + d
# with d = u v up to 3600, n = s (u^2 + v^2 + e) and e in {0, 1}, whose
# fold d y - n has a root of large denominator, with the rational roots x
# of the factors above for e = 0 and mostly irrational ones for e = 1;
# y = c +- 2^-e, next to the dyadic ends the bisections of q cut at; maybe
# x + 1, then x^k and a scaling
PALINDROMES = (
    st.lists(st.tuples(st.integers(min_value=-40, max_value=40),
                       st.integers(min_value=1, max_value=9)), max_size=3),
    st.lists(st.tuples(st.integers(min_value=1, max_value=9), st.integers(min_value=1, max_value=9),
                       st.sampled_from([1, -1])), max_size=2),
    st.lists(st.tuples(st.integers(min_value=1, max_value=60), st.integers(min_value=1, max_value=60),
                       st.sampled_from([1, -1]), st.integers(min_value=0, max_value=1)),
             max_size=2),
    st.lists(st.tuples(st.sampled_from([-6, -3, -2, 2, 3, 5]), st.sampled_from([10, 20, 40]),
                       st.sampled_from([1, -1])), max_size=2),
    st.booleans(),
    st.integers(min_value=0, max_value=3),
    st.sampled_from([1, 3, -1, -6]),
)


def _palindrome(pairs, rational, wide, near, minus_one) -> tuple[Poly, list]:
    """The palindrome h of the factors above, and the roots y of its fold."""
    h = ONE
    ys = []
    for n, d in pairs + [(s * (u * u + v * v + e), u * v) for u, v, s, e in wide]:
        h = h * Poly((d, -n, d))
        ys.append(Fraction(n, d))
    for u, v, s in rational:
        h = h * Poly((-s * u, v)) * Poly((-s * v, u))
        ys.append(Fraction(s * (u * u + v * v), u * v))
    for c, e, s in near:
        h = h * Poly((1 << e, -(c << e) - s, 1 << e))
        ys.append(c + Fraction(s, 1 << e))
    if minus_one:
        h = h * Poly((1, 1))
    assert h.coeffs == h.coeffs[::-1]
    return h, ys


@settings(max_examples=300, deadline=None)
@given(*PALINDROMES)
def test_palindromic_isolation_equals_reference_bisection(pairs, rational, wide, near, minus_one,
                                                          k, scale):
    # a repeated y or y = +-2 makes h non-squarefree, and it falls back to
    # the Sturm path
    h, ys = _palindrome(pairs, rational, wide, near, minus_one)
    folds = h.degree >= 2 and len(set(ys)) == len(ys) and all(abs(y) != 2 for y in ys)
    p = (h * scale).primitive_positive()
    assert (realroots._fold_counter(p) is not None) == folds
    f = Poly.monomial(k, scale) * h
    _check_records(f)
    cert = isolate_roots(f)
    expected = _reference_isolation(f)[0]
    assert cert == expected
    assert json.dumps(cert.to_json_obj()) == json.dumps(expected.to_json_obj())


@settings(max_examples=300, deadline=None)
@given(*PALINDROMES)
def test_proven_fold_counts_equal_the_chain_fold(pairs, rational, wide, near, minus_one, k,
                                                 scale):
    # the fold counter from proven separators and the one from the chain of
    # q agree at every count the tree asks for; the separators prove every
    # fold whose roots y are rationals of small height, here all but the
    # ones with a factor of y = c +- 2^-e (whether h is real-rooted or not,
    # since the roots y inside (-2, 2) are real too), and a constant q, the
    # fold of x^2 + 1 with its root 0 divided out, which has no roots to
    # separate and no division on its chain
    h, ys = _palindrome(pairs, rational, wide, near, minus_one)
    if h.degree < 2 or len(set(ys)) != len(ys) or any(abs(y) == 2 for y in ys):
        return
    p = (h * scale).primitive_positive()
    proven, fold, chain_fold = _proven_and_chain_folds(p)
    assert proven or near or ys == [0]
    _check_counter(p, fold, chain_fold)
    f = Poly.monomial(k, scale) * h
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(realroots, "_guessed_separators", lambda q, s: None)
        expected = isolate_roots(f)
    assert json.dumps(isolate_roots(f).to_json_obj()) == json.dumps(expected.to_json_obj())


def _fold_y(h: Poly) -> Poly:
    """The fold q in y of a palindromic h, the reference for ``_fold``:
    x^-m g(x) = q(x + 1/x) with g = h, or h / (x + 1) for an odd degree,
    from q = c_m + sum_{j>=1} c_{m+j} D_j(y) over the coefficients c of g,
    D_0 = 2, D_1 = y and D_{j+1} = y D_j - D_{j-1}."""
    if h.degree % 2:
        h = exact_div(h, Poly((1, 1)))
    c = h.coeffs
    m = len(c) // 2
    q = [c[m]] + [0] * m
    d_prev, d = [2], [0, 1]
    for cj in c[m + 1:]:
        for i, e in enumerate(d):
            q[i] += cj * e
        d_next = [0] + d
        for i, e in enumerate(d_prev):
            d_next[i] -= e
        d_prev, d = d, d_next
    return Poly(tuple(q))


def _taylor_shift(q: Poly, s: int) -> Poly:
    """q(w + s), by repeated synthetic division."""
    cs = list(q.coeffs)
    for i in range(len(cs) - 1):
        for k in range(len(cs) - 2, i - 1, -1):
            cs[k] += s * cs[k + 1]
    return Poly(tuple(cs))


def _check_fold(h: Poly) -> None:
    """``_fold(h)`` is (q(w + s), s) for the fold q of ``_fold_y``, with
    s = 2 exactly when the roots of q sum to more than 0; for s = -2, the
    reversed coefficients of Q are the gamma-vector of h:
    h = sum_i gamma_i x^i (1 + x)^(d - 2i), d = deg h."""
    q = _fold_y(h)
    s = 2 if q.degree >= 1 and q.coeffs[-2] < 0 else -2
    assert realroots._fold(h) == (_taylor_shift(q, s), s)
    if s == -2:
        gammas, m = realroots._fold(h)[0].coeffs[::-1], q.degree
        expanded = ZERO
        for i, gamma in enumerate(gammas):
            term = Poly.monomial(i, gamma)
            for _ in range(2 * m - 2 * i):
                term = term * Poly((1, 1))
            expanded = expanded + term
        assert (expanded * Poly((1, 1)) if h.degree % 2 else expanded) == h


def test_fold_equals_the_shifted_fold_in_y_on_the_local_h_grid():
    # the stripped local h-polynomials of r 3-12 and n 2-60: all of their
    # folds have the side s = -2, so Q is their gamma-polynomial; at -x an
    # even degree has its roots, and the roots of its fold, above 0: s = 2
    sides = set()
    for r in range(3, 13):
        for n in range(2, 61):
            h = realroots._strip_x(local_h(r, n))[0]
            _check_fold(h)
            sides.add(realroots._fold(h)[1])
            if h.degree % 2 == 0 and h.degree >= 2:
                at_minus_x = Poly(tuple(-c if i % 2 else c for i, c in enumerate(h.coeffs)))
                _check_fold(at_minus_x)
                assert realroots._fold(at_minus_x)[1] == 2
    assert sides == {-2}


@settings(max_examples=300, deadline=None)
@given(*PALINDROMES)
def test_fold_equals_the_shifted_fold_in_y_on_palindromes(pairs, rational, wide, near, minus_one,
                                                          k, scale):
    h, _ = _palindrome(pairs, rational, wide, near, minus_one)
    _check_fold((h * scale).primitive_positive())


@pytest.mark.parametrize("side", [-2, 2])
def test_the_fold_divides_out_its_root_y_0_once(side):
    # (x^2 + 1) h for h = local_h(6, 20) / x^4, whose fold has its roots
    # below -2 (s = -2), or for h at -x, whose fold has them above 2 (s = 2):
    # the roots +-i give the fold the root y = 0, the factor w + s of Q,
    # which is divided out, so the fold is proven and counts as the chain of
    # q does; (x^2 + 1)^2 h gives it a double root y = 0 and is not
    # squarefree, so it does not fold
    h = realroots._strip_x(local_h(6, 20))[0]
    if side == 2:
        h = Poly(tuple(-c if i % 2 else c for i, c in enumerate(h.coeffs)))
    p = Poly((1, 0, 1)) * h
    q, s = realroots._fold(p)
    assert s == side and q._sign_at(-s, 1) == 0
    proven, fold, chain_fold = _proven_and_chain_folds(p)
    assert proven and fold[1] == h.degree
    _check_counter(p, fold, chain_fold)
    assert realroots._fold_counter(Poly((1, 0, 1)) * p) is None


def _forged_points(forge, laguerre=True):
    """``_guessed_separators`` with the points of the polygon's stage, and
    with laguerre those of Laguerre's too, replaced by forge, points y of the
    fold, which the stage gives as w = y - s."""
    guess = realroots._guessed_separators

    def forged(q, s):
        for points, roots in guess(q, s):
            yield (points if roots is not None and not laguerre
                   else [(a - s * den, den) for a, den in forge]), roots

    return forged


ABOVE_FLOAT_RANGE = Poly((1 << 1100, (3 << 1100) + 1, 1 << 1100)) * Poly((1, 7, 1))


@pytest.mark.parametrize("h, forge", [
    # q = (y + 3)(y + 5)(y + 8): no root between the forged -7 and -6
    (Poly((1, 3, 1)) * Poly((1, 5, 1)) * Poly((1, 8, 1)), [(-7, 1), (-6, 1)]),
    # the forged separator -5 is a root of q
    (Poly((1, 3, 1)) * Poly((1, 5, 1)) * Poly((1, 8, 1)), [(-5, 1), (-4, 1)]),
    # q = (2^1100 y + 3 2^1100 + 1)(y + 7) has coefficients above the float
    # range (y - 2^1100 - 1 would do too, but it puts a root of h at about
    # 2^-1100, 1100 halvings deep): the polygon proves it, so its point is
    # forged to -8, below both roots, and Laguerre's method overflows
    (ABOVE_FLOAT_RANGE, [(-8, 1)]),
    # the roots y = 3 +- 2^-62 of q are closer than 2^-60
    (Poly((1 << 62, -(3 << 62) - 1, 1 << 62)) * Poly((1 << 62, -(3 << 62) + 1, 1 << 62))
     * Poly((1, 7, 1)), None),
    # q = (y^2 + 1) q' has the complex roots +-i
    (Poly((1, 0, 3, 0, 1)) * realroots._strip_x(local_h(10, 60))[0], None),
], ids=["forged-no-sign-change", "forged-zero", "above-float-range", "roots-within-2^-60",
        "complex-roots"])
def test_fold_falls_back_to_the_chain_of_q(monkeypatch, h, forge):
    # the separators do not prove q, so the fold takes the chain of q: the
    # same (count, distinct) at every count the tree asks for, and the same
    # verdict and certificate, as with the guess forced to fail; a forged
    # guess replaces the points of every stage, the polygon's and
    # Laguerre's, of a q that they prove
    p = h.primitive_positive()
    if forge is not None:
        assert _proven_and_chain_folds(p)[0]
        monkeypatch.setattr(realroots, "_guessed_separators", _forged_points(forge))
    proven, fold, chain_fold = _proven_and_chain_folds(p)
    assert not proven
    _check_counter(p, fold, chain_fold)
    f = X * h
    with monkeypatch.context() as patched:
        patched.setattr(realroots, "_guessed_separators", lambda q, s: None)
        expected = isolate_roots(f), is_real_rooted(f)
    assert (isolate_roots(f), is_real_rooted(f)) == expected
    assert json.dumps(isolate_roots(f).to_json_obj()) == json.dumps(expected[0].to_json_obj())


def test_the_polygon_proves_a_fold_above_the_float_range(monkeypatch):
    # q = (2^1100 y + 3 2^1100 + 1)(y + 7): the Newton polygon reads log2 of
    # exact ints, and its one point proves q, while Laguerre's method
    # overflows, so the proven gaps stay the intervals of the counts; the
    # counts, verdict and certificate are those of the chain of q
    p = ABOVE_FLOAT_RANGE
    q, s = realroots._fold(p)
    assert [roots for _, roots in realroots._guessed_separators(q.primitive(), s)] == [None]
    proven, fold, chain_fold = _proven_and_chain_folds(p)
    assert proven
    _check_counter(p, fold, chain_fold)
    f = X * p
    with monkeypatch.context() as patched:
        patched.setattr(realroots, "_guessed_separators", lambda q, s: None)
        expected = isolate_roots(f), is_real_rooted(f)
    assert (isolate_roots(f), is_real_rooted(f)) == expected


def test_a_polygon_proof_takes_no_laguerre_step(monkeypatch):
    # local_h(10, 40) = x^4 h: the Newton polygon's points prove the fold q
    # of h, of degree 16, so neither the verdict nor refinement takes a
    # Laguerre step; isolation takes Laguerre's guesses once, at its first
    # count, to narrow the proven gaps
    f = local_h(10, 40)
    cert = isolate_roots(f)
    steps = _record_calls(monkeypatch, realroots, "_laguerre")
    assert is_real_rooted(f)
    refine_certificate(f, cert, Fraction(1, 1 << 20))
    assert steps == []
    assert isolate_roots(f) == cert
    assert len(steps) == 1


def test_forged_polygon_points_fall_through_to_laguerre_then_the_chain(monkeypatch):
    # local_h(10, 40) = x^4 h: with the polygon's points of its fold q forged
    # to -17, -16, ..., -3, exact signs reject them and Laguerre's points
    # prove q, with no remainder sequence; with Laguerre's forged too, q
    # takes its chain.  The verdict, the certificate and its refinement are
    # the same all three ways
    f = local_h(10, 40)
    width = Fraction(1, 1 << 20)

    def outputs():
        cert = isolate_roots(f)
        return (is_real_rooted(f), json.dumps(cert.to_json_obj()),
                json.dumps(refine_certificate(f, cert, width).to_json_obj()))

    expected = outputs()
    forge = [(-17 + i, 1) for i in range(15)]
    steps = _record_calls(monkeypatch, realroots, "_laguerre")
    sequences = _record_calls(monkeypatch, realroots, "_remainder_sequence")
    for laguerre in (False, True):
        with monkeypatch.context() as patched:
            patched.setattr(realroots, "_guessed_separators", _forged_points(forge, laguerre))
            del steps[:], sequences[:]
            assert is_real_rooted(f)
            assert len(steps) == 1 and bool(sequences) == laguerre
            assert outputs() == expected


def test_a_failing_polygon_takes_at_most_3_signs(monkeypatch):
    # on each local_h(r, n), r 3-12 and n 40, 43, ..., 118, whose fold q the
    # polygon's points do not prove, exact signs reject them within 3
    # evaluations: the roots of a fold cluster at -2, where the polygon is
    # weakest, and the points nearest it are checked first
    monkeypatch.setattr(realroots, "_laguerre", lambda cs, hull, s: None)
    calls = _count_sign_evaluations(monkeypatch)
    failing = []
    for r in range(3, 13):
        for n in range(40, 121, 3):
            q, s = realroots._fold(realroots._strip_x(local_h(r, n))[0])
            del calls[:]
            if realroots._separators(q.primitive(), s) is None:
                failing.append(len(calls))
    assert len(failing) == 211 and max(failing) == 3


def test_fold_root_inside_minus_2_2_fails_by_the_proof(monkeypatch):
    # (x^2 + x + 1) local_h(6, 20) = x^4 h: the fold of h has the root -1,
    # which gives h the roots exp(+-2 pi i / 3).  The separators prove q
    # real-rooted, and its count of the real roots of h, two short of
    # deg h, is the FAIL, with no division; the chain of q agrees
    f = Poly((1, 1, 1)) * local_h(6, 20)
    h = realroots._strip_x(f)[0]
    proven, fold, chain_fold = _proven_and_chain_folds(h)
    assert proven and fold[1] == h.degree - 2
    _check_counter(h, fold, chain_fold)
    divisions = _record_calls(monkeypatch, polys, "_remainder_step")
    assert not is_real_rooted(f)
    assert divisions == []
    monkeypatch.setattr(realroots, "_guessed_separators", lambda q, s: None)
    assert not is_real_rooted(f)
    assert divisions


# y = 5/2 and y = -10/3 have the square discriminants 25 - 16 = 3^2 and
# 100 - 36 = 8^2, so their factors (2x - 1)(x - 2) and (3x + 1)(x + 3) have
# rational roots; y = 3 gives the irrational roots (3 +- sqrt 5)/2; x + 1
# makes the degree odd and adds the root -1
RATIONAL_FOLDS = {
    "y=5/2": (Poly((2, -5, 2)), [Fraction(1, 2), Fraction(2)]),
    "y=-10/3": (Poly((3, 10, 3)), [Fraction(-3), Fraction(-1, 3)]),
    "y=3": (Poly((1, -3, 1)), []),
    "y=5/2,odd": (Poly((2, -5, 2)) * Poly((1, 1)), [Fraction(-1), Fraction(1, 2), Fraction(2)]),
    "y=-10/3,3,odd": (Poly((3, 10, 3)) * Poly((1, -3, 1)) * Poly((1, 1)),
                      [Fraction(-3), Fraction(-1), Fraction(-1, 3)]),
    "y=3,odd": (Poly((1, -3, 1)) * Poly((1, 1)), [Fraction(-1)]),
}


@pytest.mark.parametrize("name", list(RATIONAL_FOLDS))
@pytest.mark.parametrize("with_local_h", [False, True], ids=["alone", "times-local_h(6,20)"])
def test_rational_roots_through_the_fold(monkeypatch, name, with_local_h):
    # the fold finds the rational roots of h from the rational roots of q in
    # its intervals, with no sign of h at a leaf: every grid probe is on q.
    # The certificate equals the one of the forced chain of q and of Sturm
    # bisection in Fractions, and lists the rational roots as points (and the
    # root 0 of local_h(6, 20) = x^4 h')
    h, rational = RATIONAL_FOLDS[name]
    f = h * local_h(6, 20) if with_local_h else h
    p = realroots._strip_x(f)[0]
    proven, fold, chain_fold = _proven_and_chain_folds(p)
    assert proven
    _check_counter(p, fold, chain_fold)
    probes = _record_calls(monkeypatch, realroots, "_rational_root_in")
    cert = isolate_roots(f)
    m = realroots._fold(p)[0].degree
    assert {q.degree for q, *_ in probes} == {m}
    with monkeypatch.context() as patched:
        patched.setattr(realroots, "_guessed_separators", lambda q, s: None)
        chain = isolate_roots(f)
    expected = _reference_isolation(f)[0]
    assert cert == chain == expected
    assert json.dumps(cert.to_json_obj()) == json.dumps(expected.to_json_obj())
    assert json.dumps(chain.to_json_obj()) == json.dumps(expected.to_json_obj())
    points = [iv.lo for iv in cert.intervals if iv.is_point]
    assert points == sorted(rational + ([Fraction(0)] if with_local_h else []))


def test_a_bracket_that_misses_its_root_stays_its_gap(monkeypatch):
    # local_h(10, 40) = x^4 h: the guesses of the 16 roots of its fold q are
    # forged, a third of them moved by 1 % (their brackets miss the root)
    # and a third moved 8-fold (outside their gap, or missing the root); the
    # proof of q does not read them, and each forged bracket stays its gap
    # while the others are proven narrow.  The counts and the certificate
    # stay those of the chain of q.  The gaps are the polygon's, proven at
    # the verdict, with Laguerre's roots guessed at the first count, and
    # then, with the polygon's stage dropped, Laguerre's own
    f = local_h(10, 40)
    p = realroots._strip_x(f)[0]
    cert = isolate_roots(f)
    guess = realroots._guessed_separators
    narrow = realroots._narrowed
    for polygon in (True, False):
        def forged(q, s):
            for points, found in guess(q, s):
                if found is not None:
                    yield points, [w * 1.01 if i % 3 == 0 else w * 8 if i % 3 == 1 else w
                                   for i, w in enumerate(found)]
                elif polygon:
                    yield points, found

        narrowed = []

        def recorded(q, gap, w):
            narrowed.append((gap, narrow(q, gap, w)))
            return narrowed[-1][1]

        with monkeypatch.context() as patched:
            patched.setattr(realroots, "_guessed_separators", forged)
            patched.setattr(realroots, "_narrowed", recorded)
            proven, fold, chain_fold = _proven_and_chain_folds(p)
            assert proven
            _check_counter(p, fold, chain_fold)
            assert len(narrowed) == 16
            # the gaps are those of the first stage, the polygon's points or Laguerre's
            q, s = realroots._fold(p)
            points = next(forged(q.primitive(), s))[0]
            assert [Fraction(b, den) for (_, b, den, _), _ in narrowed[:-1]] == \
                [Fraction(*pt) for pt in points]
            for i, (gap, out) in enumerate(narrowed):
                a, b, den, _ = gap
                lo, hi, d, _ = out
                if i % 3 == 2:
                    assert out != gap and a * d < lo * den < hi * den < b * d
                    assert (hi - lo) * 2 ** 28 < abs(lo + hi)  # about 2^-29 of the root
                else:
                    assert out == gap
            assert isolate_roots(f) == cert
            assert json.dumps(isolate_roots(f).to_json_obj()) == json.dumps(cert.to_json_obj())


def test_the_counters_are_none_exactly_at_the_roots():
    # (2x - 1)(x - 2)(x + 1) h' with h' = local_h(6, 20) / x^4: the fold of
    # this odd-degree palindrome counts None at 1/2, 2 and -1 (where
    # y = t + 1/t = -2 is no root of q), also over unreduced denominators,
    # and a number at every other point of a grid; so does the fold on the
    # chain of q, and the chain of a non-palindrome with the roots -3, 1/2
    # and +-sqrt 2
    p = Poly((2, -5, 2)) * Poly((1, 1)) * realroots._strip_x(local_h(6, 20))[0]
    fold = realroots._fold_counter(p)
    proven, _, chain_fold = _proven_and_chain_folds(p)
    assert proven and p.degree % 2
    chain = realroots._roots(Poly((3, 1)) * Poly((-1, 2)) * Poly((-2, 0, 1)))
    assert chain.probe is realroots._rational_root_in  # the chain's grid probe
    g = chain.h
    sturm = chain.count
    points = [(k, 12) for k in range(-60, 61)] + [(-1, 1), (-3, 3), (1, 2), (6, 3), (2, 1)]
    for counter, poly in ((fold[0], p), (chain_fold[0], p), (sturm, g)):
        roots = []
        for num, den in points:
            c = counter(num, den)
            assert (c is None) == (poly._sign_at(num, den) == 0)
            if c is None:
                roots.append(Fraction(num, den))
        assert set(roots) == ({Fraction(-1), Fraction(1, 2), Fraction(2)} if poly is p
                              else {Fraction(-3), Fraction(1, 2)})


@pytest.mark.parametrize("f, folds, met", [
    (local_h(10, 40), True, set()),
    (Poly((2, -5, 2)) * Poly((1, 1)) * Poly((1, 4, 1)), True, {Fraction(-1), Fraction(2)}),
    (Poly((2, 1, 1)) * local_h(6, 20), False, set()),
    (Poly((5, 1)) * Poly((1, 1)) * Poly((-1, 1)) * Poly((-2, 0, 1)), False,
     {Fraction(-1), Fraction(1)}),
], ids=["fold", "fold-midpoint-roots", "chain", "chain-midpoint-root"])
def test_the_parity_sign_is_the_sign_of_p_at_every_split(f, folds, met):
    # _isolate takes the sign of p at a split from the counts,
    # s_neg (-1)^(c(t) - c(-B)), and evaluates nothing outside them: it
    # equals the sign of p at every point of one recorded tree, and a count
    # of None is a root.  (2x^2 - 5x + 2)(x + 1)(x^2 + 4x + 1), of odd
    # degree, meets its roots -1 (as -16/16) and 2 at midpoints, and
    # (x + 5)(x + 1)(x - 1)(x^2 - 2) its roots -1 and 1
    r = realroots._roots(f)
    assert (r.probe is not realroots._rational_root_in) == folds
    p = realroots._levels(r)[0]
    count = r.count
    seen = []

    def recorded(num, den):
        inside = len(evaluations)
        seen.append((num, den, count(num, den)))
        del evaluations[inside:]
        return seen[-1][2]

    with pytest.MonkeyPatch.context() as patched:
        evaluations = _count_sign_evaluations(patched)
        realroots._isolate(p, recorded, None)
        assert evaluations == []
    c_neg, s_neg = seen[0][2], (-1) ** p.degree
    for num, den, c in seen:
        assert p._sign_at(num, den) == (0 if c is None else s_neg * (-1) ** (c - c_neg))
    assert {Fraction(num, den) for num, den, c in seen if c is None} == met


def test_refine_rejects_intervals_that_do_not_each_hold_one_root():
    # roots 1, 2, 3, 5, 7: five intervals, as many as roots, with a sign
    # change on (0, 4), which holds three roots while (8, 9) and (9, 10) hold none
    f = product_of_roots([1, 2, 3, 5, 7])
    assert f.sign_at(Fraction(0)) * f.sign_at(Fraction(4)) < 0
    ends = [(0, 4), (4, 6), (6, 8), (8, 9), (9, 10)]
    three_in_one = RootCertificate(tuple(RootInterval(Fraction(a), Fraction(b), 1)
                                         for a, b in ends))
    with pytest.raises(CertificateMismatchError):
        refine_certificate(f, three_in_one, Fraction(1, 4))
    # (0, 5/2) holds the two roots 1 and 2
    two_in_one = RootCertificate((
        RootInterval(Fraction(0), Fraction(5, 2), 1), RootInterval(Fraction(3), Fraction(3), 1),
        RootInterval(Fraction(4), Fraction(6), 1), RootInterval(Fraction(6), Fraction(8), 1),
        RootInterval(Fraction(8), Fraction(9), 1),
    ))
    with pytest.raises(CertificateMismatchError):
        refine_certificate(f, two_in_one, Fraction(1, 4))
    # every interval holds one root, but the root 7 is left out
    cert = isolate_roots(f)
    with pytest.raises(CertificateMismatchError):
        refine_certificate(f, RootCertificate(cert.intervals[:4]), Fraction(1, 4))
    assert len(refine_certificate(f, cert, Fraction(1, 4))) == 5


def _count_sign_evaluations(monkeypatch) -> list:
    """Record every evaluation at ``Poly._value_at``, the one loop behind
    ``Poly.sign_at``, the integer-grid bisections and the secant steps of
    refinement."""
    calls = []
    value_at = Poly._value_at

    def counted(self, num, den):
        calls.append((num, den))
        return value_at(self, num, den)

    monkeypatch.setattr(Poly, "_value_at", counted)
    return calls


def test_isolate_when_a_bisection_midpoint_is_a_root(monkeypatch):
    # (x+5)(x+1)(x-1)(x^2-2): the Sturm bisection of (0, 2] meets the root 1
    f = Poly((5, 1)) * Poly((1, 1)) * Poly((-1, 1)) * Poly((-2, 0, 1))
    calls = _count_sign_evaluations(monkeypatch)
    cert = isolate_roots(f)
    assert 0 < len(calls) <= 400
    assert [iv.lo for iv in cert.intervals if iv.is_point] == [-5, -1, 1]
    irrational = [iv for iv in cert.intervals if not iv.is_point]
    assert len(irrational) == 2
    for iv, sign in zip(irrational, (-1, 1)):
        a, b = sorted((sign * iv.lo, sign * iv.hi))
        assert iv.multiplicity == 1 and 0 < a and a * a < 2 < b * b


def test_isolate_rational_root_with_huge_denominator(monkeypatch):
    # (2^200 x - 3)(x^2 - 2): each isolating interval takes about 200 grid probes
    f = Poly((-3, 1 << 200)) * Poly((-2, 0, 1))
    calls = _count_sign_evaluations(monkeypatch)
    cert = isolate_roots(f)
    assert 0 < len(calls) <= 800
    assert [iv.lo for iv in cert.intervals if iv.is_point] == [Fraction(3, 1 << 200)]
    assert len(cert) == 3


@pytest.mark.parametrize("M, max_calls", [(735134400, 150), (1 << 1000, 2500)],
                         ids=["M=735134400", "M=2^1000"])
def test_isolate_quadratic_with_composite_or_huge_coefficients(monkeypatch, M, max_calls):
    # M x^2 + (3M+1) x + M has two irrational roots; a scan of the candidates
    # +-num/den with num and den dividing M builds 2 * 1344^2 fractions for
    # M = 735134400 and 2 * 1001^2 for M = 2^1000
    f = Poly((M, 3 * M + 1, M))
    calls = _count_sign_evaluations(monkeypatch)
    cert = isolate_roots(f)
    assert 0 < len(calls) <= max_calls
    assert len(cert) == 2 and not any(iv.is_point for iv in cert.intervals)
    for iv in cert.intervals:
        assert f.sign_at(iv.lo) * f.sign_at(iv.hi) == -1


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
    # palindromic boundary cases of the fold y = x + 1/x
    assert not is_real_rooted(Poly((1, 1, 1)))  # y = -1: roots on the unit circle
    assert not is_real_rooted(Poly((1, 0, 1)) * Poly((1, 1)))  # y = 0: roots +-i
    assert not is_real_rooted(Poly((1, 0, 0, 0, 1)))  # y^2 - 2
    assert is_real_rooted(Poly((1, -2, 1)))  # (x - 1)^2, y = 2
    assert is_real_rooted(Poly((1, 3, 3, 1)))  # (x + 1)^3, odd, y = -2
    assert is_real_rooted(Poly((0, 0, -2, -6, -2)))  # -2x^2 (x^2 + 3x + 1)
    # palindromes whose fold q is not squarefree: decided at full degree, or
    # at once when q(0) = 0
    assert is_real_rooted(Poly((1, 6, 11, 6, 1)))  # (x^2 + 3x + 1)^2, q = (y + 3)^2
    assert not is_real_rooted(Poly((1, 2, 3, 2, 1)))  # (x^2 + x + 1)^2, q = (y + 1)^2
    assert not is_real_rooted(Poly((1, 0, 2, 0, 1)))  # (x^2 + 1)^2, q = y^2


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


def _unfolded_real_rooted(f: Poly) -> bool:
    """The reference: the remainder sequence of (h, h') at full degree."""
    h = realroots._strip_x(f)[0]
    if h.leading_coefficient < 0:
        h = -h
    return realroots._normal_sequence(h, poly_derivative(h)) is not None


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(st.integers(min_value=1, max_value=9),
                       st.integers(min_value=-9, max_value=9).filter(bool)), max_size=3),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=3),
    st.lists(st.integers(min_value=-5, max_value=5), max_size=3),
    st.lists(st.integers(min_value=-6, max_value=6).flatmap(
        lambda b: st.tuples(st.just(b), st.integers(min_value=b * b // 4 + 1,
                                                    max_value=b * b // 4 + 9))), max_size=2),
    st.integers(min_value=0, max_value=3),
    st.sampled_from([1, 3, -1, -6]),
)
def test_palindromic_real_rootedness_equals_unfolded_sequence(pairs, even_ones, minus_ones,
                                                              unit_bs, quartets, k, scale):
    # root pairs (rho, 1/rho) with rho = a/b, (x - 1)^(2j), (x + 1)^i,
    # x^2 + bx + 1 (complex on the unit circle for |b| < 2, a double root
    # +-1 for |b| = 2, a real pair for |b| > 2), complex quartets
    # (x^2 + bx + c)(cx^2 + bx + 1) with b^2 < 4c, then x^k and a scaling
    # that may be negative or carry content
    h = ONE
    for a, b in pairs:
        h = h * Poly((-a, b)) * Poly((-b, a))
    for _ in range(even_ones):
        h = h * Poly((1, -2, 1))
    for _ in range(minus_ones):
        h = h * Poly((1, 1))
    for b in unit_bs:
        h = h * Poly((1, b, 1))
    for b, c in quartets:
        h = h * Poly((c, b, 1)) * Poly((1, b, c))
    assert h.coeffs == h.coeffs[::-1]
    real = all(abs(b) >= 2 for b in unit_bs) and not quartets
    f = Poly.monomial(k, scale) * h
    assert is_real_rooted(f) == real == _unfolded_real_rooted(f)
    if h.degree % 2 == 0:
        # the fold in w = y - s: x^m q(x + 1/x - s) = h(x), with
        # x^m (x + 1/x - s)^i = x^(m-i) (x^2 - s x + 1)^i
        (q, s), m = realroots._fold(h), h.degree // 2
        assert q.degree == m and q.leading_coefficient == h.leading_coefficient
        unfolded = ZERO
        for i, c in enumerate(q.coeffs):
            term = Poly.monomial(m - i, c)
            for _ in range(i):
                term = term * Poly((1, -s, 1))
            unfolded = unfolded + term
        assert unfolded == h


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.fractions(min_value=-6, max_value=6, max_denominator=1 << 20),
                  st.integers(min_value=1, max_value=3)),
        max_size=4,
    ),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=2),
    st.none() | st.integers(min_value=-20, max_value=20).flatmap(
        lambda b: st.tuples(st.just(b), st.integers(min_value=b * b // 4 + 1,
                                                    max_value=b * b // 4 + 50))),
    st.sampled_from([1, 6, -1, -4]),
)
def test_real_rootedness_and_root_count_of_planted_roots(planted, k, sqrt2, complex_pair,
                                                         scale):
    # rational roots with multiplicities, x^k, (x^2 - 2)^j, a scaling that may
    # be negative or carry content, and maybe x^2 + bx + c with b^2 < 4c
    f = Poly.monomial(k, scale)
    distinct = {Fraction(0)} if k else set()
    for a, mult in planted:
        distinct.add(a)
        for _ in range(mult):
            f = f * Poly((-a.numerator, a.denominator))
    for _ in range(sqrt2):
        f = f * Poly((-2, 0, 1))
    if complex_pair is not None:
        b, c = complex_pair
        f = f * Poly((c, b, 1))
    assert is_real_rooted(f) == (complex_pair is None)
    assert count_real_roots(f) == len(distinct) + 2 * (sqrt2 > 0)


def _record_calls(monkeypatch, owner, name) -> list:
    calls = []
    fn = getattr(owner, name)

    def recorded(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, recorded)
    return calls


def test_real_rootedness_from_one_early_exit_sequence(monkeypatch):
    # local_h(6, 20) = x^4 h with h palindromic of degree 12: its fold q has
    # degree 6, so the sequence of (q, q') has at most 5 remainders, and the
    # whole-line count walks the 11 remainders of (h, h'); no gcd, squarefree
    # part or Sturm chain
    h = local_h(6, 20)
    assert h.degree == 16 and h.coeffs[:5] == (0, 0, 0, 0, 8855)
    divisions = _record_calls(monkeypatch, polys, "_remainder_step")
    gcds = _record_calls(monkeypatch, realroots, "poly_gcd")
    chains = _record_calls(monkeypatch, SturmChain, "of_squarefree")
    assert is_real_rooted(h)
    assert len(divisions) <= 11 and gcds == [] and chains == []
    assert count_real_roots(h) == 13  # 12 simple roots and 0
    assert len(divisions) <= 22 and gcds == [] and chains == []
    # a complex pair: (1 + x + x^2) h is palindromic, and its fold is decided
    # by the root count in [-2, 2]; (2 + x + x^2) h is not, and it breaks the
    # sequence of (h, h') within a few steps
    for pair in (Poly((1, 1, 1)), Poly((2, 1, 1))):
        divisions.clear()
        assert not is_real_rooted(pair * h)
        assert len(divisions) <= 8 and gcds == []


def test_palindromic_real_rootedness_at_half_degree(monkeypatch):
    # local_h(10, 40) = x^4 h with h palindromic of degree 32: no division,
    # since the separators of the fold q of degree 16 prove it real-rooted;
    # with the guess failing, the 15 remainders of (q, q'), against the 31
    # remainders of (h, h') unfolded
    h = local_h(10, 40)
    assert h.degree == 36 and h.coeffs[:5] == (0, 0, 0, 0, 1)
    assert h.coeffs[4:] == h.coeffs[4:][::-1]
    divisions = _record_calls(monkeypatch, polys, "_remainder_step")
    assert is_real_rooted(h)
    assert divisions == []
    with monkeypatch.context() as patched:
        patched.setattr(realroots, "_guessed_separators", lambda q, s: None)
        assert is_real_rooted(h)
    assert len(divisions) == 15
    # the roots +-i make q(0) = 0, which fails before any division
    divisions.clear()
    assert not is_real_rooted(Poly((1, 0, 1)) * h)
    assert divisions == []


def test_palindrome_verdict_from_the_one_fold_counter(monkeypatch):
    # is_real_rooted reads a palindrome's verdict off _fold_counter, its one
    # fold: one call, and no division for local_h(10, 40), whose fold is
    # proven from its separators; with the guess failing, still one call and
    # the 15 remainders of (q, q')
    h = local_h(10, 40)
    folds = _record_calls(monkeypatch, realroots, "_fold_counter")
    divisions = _record_calls(monkeypatch, polys, "_remainder_step")
    assert is_real_rooted(h)
    assert len(folds) == 1 and divisions == []
    with monkeypatch.context() as patched:
        patched.setattr(realroots, "_guessed_separators", lambda q, s: None)
        assert is_real_rooted(h)
    assert len(folds) == 2 and len(divisions) == 15
    # h(i) = 0 is read off the coefficients for any h: no division, whether h
    # is not palindromic or an odd palindrome, which folds after dividing by x + 1
    g = Poly((1, 0, 1)) * local_h(6, 20)  # x^4 times a palindrome of degree 14
    skewed, odd = Poly((2, 1, 1)) * g, Poly((1, 1)) * g
    assert skewed.coeffs[4:] != skewed.coeffs[4:][::-1]
    assert odd.coeffs[4:] == odd.coeffs[4:][::-1] and odd.degree == 19
    for f in (skewed, odd):
        folds.clear()
        divisions.clear()
        assert not is_real_rooted(f)
        assert divisions == [] and folds == []


def test_interleaves_from_one_sequence(monkeypatch):
    # f << g is decided by the remainder sequence of (g, f), which also ends
    # at their gcd: no separate gcd, no exact division
    E = e_vector(6, 12).polys
    gcds = _record_calls(monkeypatch, realroots, "poly_gcd")
    quotients = _record_calls(monkeypatch, realroots, "exact_div")
    assert interleaves(E[1], E[2])
    assert not interleaves(E[2], E[1])
    assert gcds == [] and quotients == []


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


huge_or_small = st.one_of(st.integers(min_value=-9, max_value=9),
                          st.integers(min_value=-(1 << 210), max_value=1 << 210))


@st.composite
def equal_degree_pairs(draw):
    """(f, g) of one degree 0 to 5 with positive leads, entries small or
    beyond 2^200; g is a positive multiple of f (the difference is 0) a
    third of the time."""
    n = draw(st.integers(min_value=0, max_value=5))
    leads = st.one_of(st.integers(min_value=1, max_value=9),
                      st.integers(min_value=1, max_value=1 << 210))

    def poly() -> Poly:
        return Poly(tuple(draw(st.lists(huge_or_small, min_size=n, max_size=n)))
                    + (draw(leads),))

    f = poly()
    multiple = draw(st.integers(min_value=0, max_value=2)) == 0
    return f, (draw(leads) * f if multiple else poly())


@settings(max_examples=200, deadline=None)
@given(equal_degree_pairs())
def test_equal_degrees_reduce_to_the_reference_difference(pair):
    # interleaves(f, g) at equal degrees asks the one sequence test about
    # (f, -(lead(f) g - lead(g) f)), the difference as five Poly operations
    # built it
    f, g = pair
    asked = []
    normal = realroots._normal_sequence

    def recorded(a, b):
        asked.append((a, b))
        return normal(a, b)

    realroots._normal_sequence = recorded
    try:
        interleaves(f, g)
    finally:
        realroots._normal_sequence = normal
    reference = -(f.leading_coefficient * g - g.leading_coefficient * f)
    assert asked[0] == (f, reference)
    assert type(asked[0][1].coeffs) is tuple


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


@pytest.mark.parametrize("check", [is_interlacing_seq, in_fplus])
@pytest.mark.parametrize("fs,message", [
    (5, "fs must be iterable"), ([1, 2], "fs must hold Polys"), ([X, 3], "fs must hold Polys"),
    ("x1", "fs must be a sequence, not the string"),
], ids=["int", "ints", "int-member", "str"])
def test_a_sequence_of_polys_is_checked_at_the_boundary(check, fs, message):
    # a non-iterable, a string or a member that is not a Poly is rejected
    # before any pair is walked, also where the walk is vacuous ([5] alone)
    with pytest.raises(BadParametersError, match=message):
        check(fs)
    with pytest.raises(BadParametersError, match="fs must hold Polys"):
        check([5])


@pytest.mark.parametrize("call,message", [
    (lambda: is_real_rooted(5), "f must be a Poly, got 5"),
    (lambda: is_real_rooted((1, 2)), "f must be a Poly"),
    (lambda: interleaves(5, X), "f must be a Poly, got 5"),
    (lambda: interleaves(X, "1,2"), "g must be a Poly, got '1,2'"),
    (lambda: isolate_roots([1, 2]), r"f must be a Poly, got \[1, 2\]"),
    (lambda: count_real_roots("1,2"), "f must be a Poly, got '1,2'"),
    (lambda: count_real_roots([1, 2], 0, 1), "f must be a Poly"),
    (lambda: refine_certificate([1, 2], RootCertificate(), 1), "f must be a Poly"),
    (lambda: refine_certificate(X, [], 1), "cert must be a RootCertificate, got"),
    (lambda: squarefree_part(None), "f must be a Poly, got None"),
], ids=["is_real_rooted", "is_real_rooted-tuple", "interleaves-f", "interleaves-g",
        "isolate_roots", "count_real_roots", "count_real_roots-bounded",
        "refine_certificate", "refine_certificate-cert", "squarefree_part"])
def test_one_polynomial_is_checked_at_the_boundary(call, message):
    # a value that is not a Poly is rejected before any attribute is read
    with pytest.raises(BadParametersError, match=message):
        call()


# -- the F+ walk against the double loops it replaced -------------------------


def _reference_is_interlacing_seq(fs) -> bool:
    """The r^2 loop that ``is_interlacing_seq`` ran before the walk."""
    for i in range(len(fs)):
        for j in range(i + 1, len(fs)):
            if not realroots.interleaves(fs[i], fs[j]):
                return False
    return True


def _reference_fplus_fault(fs):
    """The scan and the pair loop that ``action_property_test`` ran on its
    outputs before the walk: the first member with a negative coefficient,
    else the first pair in row order that does not interleave."""
    for k, p in enumerate(fs):
        if any(c < 0 for c in p.coeffs):
            return "negative_coefficient", (k,)
    for k in range(len(fs)):
        for l in range(k + 1, len(fs)):
            if not realroots.interleaves(fs[k], fs[l]):
                return "not_interleaving", (k, l)
    return None


def _outcome(fn, fs):
    """fn(fs), or the type of what it raised, with the interleaves calls it
    made, in order."""
    calls = []

    def recorded(f, g):
        calls.append((f, g))
        return interleaves(f, g)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(realroots, "interleaves", recorded)
        try:
            value = fn(fs)
        except Exception as exc:
            value = type(exc)
    return value, calls


def _shortcut_pairs(fs):
    """The index pairs (k, l) that ``realroots._interlacing`` hands to
    interleaves on a sequence whose nonzero members all have positive
    leading coefficients, in order, up to the first that fails: the
    neighbour pairs of the nonzero members and, when there are three or
    more, (first, last), all in row order; a lone nonzero member goes with
    the first 0 around it."""
    nonzero = [k for k, f in enumerate(fs) if not f.is_zero]
    zeros = [k for k, f in enumerate(fs) if f.is_zero]
    pairs = set(zip(nonzero, nonzero[1:]))
    if len(nonzero) > 2:
        pairs.add((nonzero[0], nonzero[-1]))
    pairs = sorted(pairs)
    if len(nonzero) == 1 and zeros:
        pairs = [tuple(sorted((nonzero[0], zeros[0])))]
    decided = []
    for k, l in pairs:
        decided.append((k, l))
        if not interleaves(fs[k], fs[l]):
            break
    return decided


def _walk_pairs(fs):
    """The index pairs of the row-order walk alone, up to its first bad pair."""
    pairs = []
    for k in range(len(fs)):
        for l in range(k + 1, len(fs)):
            pairs.append((k, l))
            if not interleaves(fs[k], fs[l]):
                return pairs
    return pairs


def _shortcut_calls(fs):
    """The (f, g) pairs of ``_shortcut_pairs``."""
    return [(fs[k], fs[l]) for k, l in _shortcut_pairs(fs)]


def _check_walk(fs):
    """Same verdict and first fault as the double loops.  A negative leading
    coefficient keeps the row-order walk, call for call; otherwise a verdict
    makes the shortcut's calls, and a fault of F+ makes them and then, on a
    FAIL, the walk's calls on the pairs the shortcut did not decide, which
    name the first bad pair."""
    verdict = _outcome(is_interlacing_seq, fs)
    reference = _outcome(_reference_is_interlacing_seq, fs)
    assert verdict[0] == reference[0]
    fault = _outcome(realroots._fplus_fault, fs)
    reference_fault = _outcome(_reference_fplus_fault, fs)
    assert fault[0] == reference_fault[0]
    if any(f.leading_coefficient < 0 for f in fs):
        assert verdict == reference
    else:
        assert verdict[1] == _shortcut_calls(fs)
    if any(c < 0 for f in fs for c in f.coeffs):
        assert fault == reference_fault  # the coefficient scan decides, with no call
    else:
        shortcut = _shortcut_pairs(fs)
        walk = [(k, l) for k, l in _walk_pairs(fs) if (k, l) not in shortcut] \
            if fault[0] is not None else []
        assert fault[1] == [(fs[k], fs[l]) for k, l in shortcut + walk]
    assert _outcome(in_fplus, fs) == (fault[0] is None, fault[1])
    return verdict[0]


# members: real-rooted products of (x + a) with a >= 0, constants among them;
# and 0, a negative coefficient, no real root, a double root, and anything at
# all, a negative leading coefficient included
_MEMBERS = st.one_of(
    st.lists(st.integers(-4, 0), max_size=3).map(product_of_roots),
    st.sampled_from([ZERO, Poly((3,)), Poly((-1, 1)), Poly((1, 0, 1)), Poly((1, 2, 1))]),
    st.lists(st.integers(-3, 3), max_size=4).map(Poly),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_MEMBERS, max_size=5))
def test_fplus_walk_matches_the_double_loops(fs):
    _check_walk(fs)


# members from few shared roots, so that roots repeat within a member and
# across members: a positive constant times (x - a)^m over roots a in -3..1,
# times a complex factor at times, negated at times; zeros anywhere
_FACTORED = st.builds(
    lambda c, roots, pair, sign: sign * c * product_of_roots(roots) * pair,
    st.integers(1, 3),
    st.lists(st.integers(-3, 1), max_size=4),
    st.sampled_from([ONE] * 6 + [Poly((1, 0, 1)), Poly((2, 2, 1))]),
    st.sampled_from([1] * 9 + [-1]),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.one_of(_FACTORED, st.just(ZERO)), max_size=6))
@example([ZERO, Poly((15, 21, 6)), ZERO, ONE])  # neighbours and (0, 1) pass; f << 1 fails
def test_interlacing_from_neighbours_and_the_closing_pair(fs):
    _check_walk(fs)


@st.composite
def windowed(draw):
    """A planted chain: ascending points t, member i the product of x - t[i
    + j w] over j < d, so each member interleaves the next, and for d >= 2
    distinct points the first interleaves the last iff there are at most
    w + 1 members.  Ties among the points give multiplicities, zeros go anywhere,
    and one member may be swapped with its neighbour."""
    d, w = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    r = draw(st.integers(2, w + 3))
    t = sorted(draw(st.lists(st.integers(-12, 6), min_size=r + (d - 1) * w,
                             max_size=r + (d - 1) * w)))
    fs = [product_of_roots(t[i + j * w] for j in range(d)) for i in range(r)]
    if draw(st.booleans()):
        i = draw(st.integers(0, r - 2))
        fs[i], fs[i + 1] = fs[i + 1], fs[i]
    for _ in range(draw(st.integers(0, 2))):
        fs.insert(draw(st.integers(0, len(fs))), ZERO)
    return fs


@settings(max_examples=300, deadline=None)
@given(windowed())
def test_planted_chains_match_the_double_loops(fs):
    _check_walk(fs)


@pytest.mark.parametrize("fs,verdict", [
    # every neighbour pair passes, the closing pair fails: roots climb past
    # the first member's top root, or the degree climbs by two
    ([product_of_roots([-6, -10]), product_of_roots([-4, -7]), product_of_roots([-1, -5])],
     False),
    ([ONE, X, Poly((0, 1, 1))], False),
    ([ZERO, product_of_roots([-3]), product_of_roots([-2]), ZERO, product_of_roots([0, -2])],
     False),
    # only a middle neighbour pair fails; the closing pair passes
    ([Poly((5, 1)), Poly((3, 1)), Poly((4, 1)), Poly((1, 1))], False),
    # the roots -9 + i and -5 + i of members i = 0..3 interlace: every pair holds
    ([product_of_roots([-9 + i, -5 + i]) for i in range(4)], True),
], ids=["roots-climb", "degree-climbs", "zeros-between", "middle-pair", "window"])
def test_planted_sequences(fs, verdict):
    assert _check_walk(fs) is verdict
    if not verdict:
        assert realroots._fplus_fault(fs)[0] == "not_interleaving"


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.lists(st.integers(-4, 0), max_size=3).map(product_of_roots),
                          st.sampled_from([ZERO, Poly((1, 0, 1)), Poly((1, 2, 1))])),
                min_size=2, max_size=6))
@example([Poly((1, 1)), X, Poly((2, 1)), Poly((2, 1))])
def test_a_fail_decides_each_pair_once(fs):
    # the calls of a FAIL: the walk alone's, plus the shortcut's pairs that lie
    # after the first bad pair, which it decided before it failed.  In the
    # example the walk alone fails at (0, 2) after 2 calls, but the shortcut
    # fails first at the closing pair (0, 3), so the FAIL takes 3
    fault, calls = _outcome(realroots._fplus_fault, fs)
    assume(fault is not None)
    walk, shortcut = _walk_pairs(fs), _shortcut_pairs(fs)
    assert fault == ("not_interleaving", walk[-1])
    late = [pair for pair in shortcut if pair > walk[-1]]
    assert len(calls) == len(set(walk) | set(shortcut)) == len(walk) + len(late)
    if walk[-1] in shortcut:
        assert late == [] and len(calls) == len(walk)


def test_e_vector_of_10_40_takes_10_interleaves_calls():
    E = list(e_vector(10, 40).polys)
    verdict, calls = _outcome(is_interlacing_seq, E)
    assert verdict is True and len(calls) == 10
    assert calls == [(E[0], E[1]), (E[0], E[9])] + [(E[i], E[i + 1]) for i in range(1, 9)]


@pytest.mark.parametrize("call,error,message", [
    (lambda: refine_certificate(ZERO, RootCertificate(()), 1), CertificateMismatchError,
     "the zero polynomial"),
    (lambda: refine_certificate(Poly((-1, 1)), RootCertificate((RootInterval(0, 0, 1),)), 1),
     CertificateMismatchError, "0 is not a root"),
    (lambda: refine_certificate(Poly((-1, 1)), RootCertificate((RootInterval(1, 2, 1),)), 1),
     CertificateMismatchError, "interval endpoint is a root"),
    (lambda: SturmChain.of_squarefree(ZERO), ZeroPolynomialError, "Sturm chain of 0"),
], ids=["refine-zero", "refine-point-not-a-root", "refine-root-at-an-end", "sturm-of-zero"])
def test_guards_raise_their_typed_error(call, error, message):
    with pytest.raises(error, match=message):
        call()
