"""Exact real-root certification and the interleaving order on root sets.

Every verdict here rests on exact integer signs: of remainder sequences
or, for a fold, of q at points guessed in floats.  One decision procedure,
``_normal_sequence``, asks whether the remainder sequence of (a, b) drops
the degree by one at every step with positive leading coefficients, and
returns its terms if so: on (h, h') for f = x^k h it decides
real-rootedness (generalised Sturm theorem), and on (g, f) it decides
f << g (Hermite-Kakeya-Obreschkoff) together with the gcd it ends at.  A
palindromic h (c_i = c_{d-i}), such as every local h-polynomial with its x^k
stripped, goes through one fold: for d = 2m, x^-m h(x) = q(x + 1/x)
with deg q = m, so h = lead(h) prod (x^2 - y_i x + 1) over the roots y_i of
q (an odd d first loses the root -1), and h is real-rooted iff q is
real-rooted with every |y_i| >= 2.  ``_fold_counter`` owns the fold: when q
is squarefree with q(+-2) != 0, isolating intervals of q at half the degree
give the number of real roots of h and drive isolation.  They are the gaps
between deg q + 1 separators that Laguerre's method guesses in floats and
exact signs of q prove (``_separators``, the certifying-algorithm pattern),
and only when that proof fails come from the one chain of (q, q'), by Sturm
counts and the Sturm tree; no Descartes count is taken.

One root record per polynomial (``_roots``) is the one owner of the choice
between the fold and the chain, and it has one shape whichever produced
it: (k, h, gcd, count, distinct, probe) for f = x^k h.  gcd is a positive
multiple of gcd(h, h'): 1 for a fold, whose h is squarefree, and the last
term of the remainder sequence of (h, h') on the chain.  The counter
triple follows one convention: count(num, den) is the number of distinct
real roots of h below num/den, None at a root; distinct is their number;
probe(p, a, b, den, s_a) is the rational root, if any, of the squarefree
part p of h in a leaf of the tree.  The fold reads them off q
(``_fold_counter``); the chain counts V(-oo) - V(t) over the sign
variations V of its terms and probes on the grid of p
(``_chain_counter``).  ``is_real_rooted`` asks for the record with
verdict=True, which rejects any h with h(i) = 0 from two alternating sums
of its coefficients, stops the sequence at its first abnormal step, and
accepts h iff distinct = deg h - deg gcd, the number of its distinct
roots; ``isolate_roots``, ``refine_certificate`` and ``check realrooted``
of the CLI read the same record, the CLI the very record that decided its
verdict.  A palindrome whose fold is not squarefree or vanishes at +-2
takes the chain at full degree, like any other h.

Isolation walks one tree: for f = x^k h with h(0) != 0 and p the squarefree
part of h, it bisects the Cauchy interval (-B, B) of p at midpoints moved off
the roots of p until each interval holds one root, probes each leaf for a
rational root, and halves a leaf that holds the root 0 of f until 0 lies
outside.  The record gives the count and the probe; each halving keeps the
half on which the count changes, and p is squarefree, so its sign at an end
is the parity of the count: the tree takes no sign of p.  A folded h is
counted through the fold: y = t + 1/t is monotone on each of (-oo, -1],
(-1, 0), (0, 1] and (1, oo), so the roots of h below t are a count of the
roots of q against y, a binary search over isolating intervals of q.  The
first count narrows the proven gaps to brackets about 2^-29 wide around
the guessed roots, each proven by two signs of q, so that only a y inside
a bracket takes a sign of q; on the chain of q it isolates q.  Verdicts
and refinement need only the number of real roots and do neither.  The
probe of a fold finds the rational roots of q in those intervals and maps
them to those of h, with no sign of h.  Any other h evaluates its
remainder sequence of (h, h') once per split and once per halving off 0,
and the grid probe tries c/|lead(p)|.  Either way the tree, and so the
certificate, is the same.  The gcd is the first step of the repeated-gcd
chain that yields the multiplicity levels.  The root 0 has multiplicity k;
any other isolated root lies on a level iff that squarefree level changes
sign on its interval.  ``count_real_roots`` does not fold: it stays on the
chain of h, a count independent of the fold's.

Every bisection (the tree, refinement and the grid probes) runs on
integers: an interval is a pair of numerators a, b over one denominator
den, a halving maps it to (2a, a+b, 2den) or (a+b, 2b, 2den), and the sign
at a/den comes from one homogeneous integer Horner (``Poly._value_at``),
for p and for every member of a chain; refinement finds the interval that
halving would by secants on the same grid (``_qir``), starting from the
values at the ends that validating the certificate took, so each end is
evaluated once.  A Fraction is built once per certificate end, and it
normalises to the same rational that halving Fractions gives, so every
certificate is unchanged.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .errors import (
    BadParametersError,
    CertificateMismatchError,
    EmptyIntervalError,
    NegativeLeadingCoefficientError,
    ZeroPolynomialError,
)
from .polys import (ONE, Poly, _listed, _on_grid, _rational, _rational_text,
                    _remainder_sequence, _typed, exact_div, poly_derivative, poly_gcd)


@dataclass(frozen=True)
class RootInterval:
    """One isolating interval: a degenerate interval (lo == hi) is an exact
    root.  The ends are stored as Fractions; BadParametersError if malformed."""

    lo: Fraction
    hi: Fraction
    multiplicity: int

    def __post_init__(self):
        for end in ("lo", "hi"):
            if type(getattr(self, end)) is not Fraction:
                object.__setattr__(self, end, _rational(getattr(self, end), end))
        lo, hi = self.lo, self.hi
        if lo.numerator * hi.denominator > hi.numerator * lo.denominator:
            raise BadParametersError(f"interval endpoints out of order: {self.lo} > {self.hi}")
        m = self.multiplicity
        if type(m) is not int or m < 1:
            raise BadParametersError(f"multiplicity must be a positive int, got {m!r}")

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    def to_json_obj(self) -> dict:
        return {"lo": _rational_text(self.lo), "hi": _rational_text(self.hi),
                "mult": self.multiplicity}


@dataclass(frozen=True)
class RootCertificate:
    """Disjoint isolating intervals, sorted ascending, one per distinct real root."""

    intervals: tuple[RootInterval, ...] = ()

    def __post_init__(self):
        ivs = self.intervals
        if type(ivs) is not tuple or not all(type(iv) is RootInterval for iv in ivs):
            raise BadParametersError("a certificate holds a tuple of RootIntervals")
        for prev, nxt in zip(ivs, ivs[1:]):
            # prev.hi against nxt.lo, cross-multiplied
            gap = (nxt.lo.numerator * prev.hi.denominator
                   - prev.hi.numerator * nxt.lo.denominator)
            if gap < 0:
                raise BadParametersError("intervals overlap")
            if gap == 0 and prev.is_point and nxt.is_point:
                raise BadParametersError("duplicate exact root")

    def __len__(self) -> int:
        return len(self.intervals)

    def total_multiplicity(self) -> int:
        return sum(iv.multiplicity for iv in self.intervals)

    def to_json_obj(self) -> list[dict]:
        return [iv.to_json_obj() for iv in self.intervals]


def squarefree_part(f: Poly) -> Poly:
    """f / gcd(f, f'): same distinct roots, all simple; primitive, positive lead."""
    if _typed(f, "f").is_zero:
        raise ZeroPolynomialError("squarefree part of 0 is undefined")
    d = poly_gcd(f, poly_derivative(f))
    return exact_div(f, d).primitive_positive()


def _normal_sequence(a: Poly, b: Poly) -> tuple[Poly, ...] | None:
    """The remainder sequence of (a, b), whose last term is a positive
    multiple of gcd(a, b), if every step drops the degree by exactly one and
    every term after a has a positive leading coefficient; else None.

    Stops at the first step that breaks the rule, so a None is cheap.
    """
    seq = _remainder_sequence(a, b)
    terms = [next(seq)]
    for p in seq:
        if p.degree != terms[-1].degree - 1 or p.leading_coefficient <= 0:
            return None
        terms.append(p)
    return tuple(terms)


def _strip_x(f: Poly) -> tuple[Poly, int]:
    """(h, k) with f = x^k h and h(0) != 0, for a nonzero f (f itself when k = 0)."""
    k = next(i for i, c in enumerate(f.coeffs) if c)
    return (Poly(f.coeffs[k:]) if k else f), k


@dataclass(frozen=True)
class SturmChain:
    """Signed-remainder sequence of a polynomial p and its derivative, as
    ``_remainder_sequence`` builds it (positive multiples of the terms, which
    leaves every sign evaluation unchanged).

    It counts the distinct roots of any p between two non-roots (generalised
    Sturm theorem); for a squarefree p (``of_squarefree``) the count holds on
    any interval (lo, hi].
    """

    chain: tuple[Poly, ...]

    @staticmethod
    def of_squarefree(p: Poly) -> "SturmChain":
        if p.is_zero:
            raise ZeroPolynomialError("Sturm chain of 0 is undefined")
        return SturmChain(tuple(_remainder_sequence(p, poly_derivative(p))))

    def variations_at(self, num: int, den: int = 1, off_roots: bool = False) -> int | None:
        """Sign variations of the chain at num/den, for integers num and
        den > 0 (any rational num with den = 1 also works); None at a root
        of the chain's first member if off_roots."""
        values = [p._value_at(num, den) for p in self.chain]
        return None if off_roots and not values[0] else _sign_variations(values)

    def variations_at_neg_inf(self) -> int:
        return _sign_variations(
            [p.leading_coefficient * (-1) ** (len(p.coeffs) - 1) for p in self.chain]
        )

    def variations_at_pos_inf(self) -> int:
        return _sign_variations([p.leading_coefficient for p in self.chain])

    def count_in(self, lo, hi) -> int:
        """Distinct roots in (lo, hi]; None endpoints mean -inf / +inf."""
        va = (self.variations_at(lo.numerator, lo.denominator) if lo is not None
              else self.variations_at_neg_inf())
        vb = (self.variations_at(hi.numerator, hi.denominator) if hi is not None
              else self.variations_at_pos_inf())
        return va - vb


def _sign_variations(values) -> int:
    signs = [1 if v > 0 else -1 for v in values if v != 0]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def count_real_roots(f: Poly, lo=None, hi=None) -> int:
    """Number of distinct real roots of f in (lo, hi] by Sturm's theorem.

    ``lo=None`` / ``hi=None`` stand for -inf / +inf; any other bound that is
    not a finite rational number raises BadParametersError.  Over the whole
    line the count needs no squarefree part: by the generalised Sturm theorem
    the sign variations of the remainder sequence of (h, h') between -inf and
    +inf count the distinct real roots of h, here f with the x^k factor
    stripped.  That is the distinct of the chain's counter
    (``_chain_counter``), which never folds, so the count shares no code with
    the fold's.
    """
    if _typed(f, "f").is_zero:
        raise ZeroPolynomialError("root counting requires a nonzero polynomial")
    if lo is None and hi is None:
        h, k = _strip_x(f)
        return _chain_counter(h)[2] + (k > 0)
    lo = None if lo is None else _rational(lo, "lo")
    hi = None if hi is None else _rational(hi, "hi")
    if lo is not None and hi is not None and lo > hi:
        raise EmptyIntervalError(f"empty interval ({lo}, {hi}]")
    return SturmChain.of_squarefree(squarefree_part(f)).count_in(lo, hi)


def is_real_rooted(f: Poly) -> bool:
    """True iff all complex zeros of f are real; constants and 0 count as real-rooted.

    At degree <= 1 (0 included) that is True with no root record.  Above,
    it is decided by ``_roots`` with verdict=True, which stops at the first
    sign that f is not: h(i) = 0, an abnormal step of the remainder sequence
    of (h, h'), or fewer distinct real roots than h has distinct roots.
    """
    return _typed(f, "f").degree <= 1 or _roots(f, verdict=True) is not None


class _Roots(NamedTuple):
    """The root record of a nonzero f = x^k h, from ``_roots``: h(0) != 0,
    lead(h) > 0, gcd a positive multiple of gcd(h, h'), and the counter
    (count, distinct, probe) of h that ``_isolate`` takes."""

    k: int
    h: Poly
    gcd: Poly
    count: Callable[[int, int], int | None]
    distinct: int
    probe: Callable[[Poly, int, int, int, int], Fraction | None]


def _roots(f: Poly, verdict: bool = False) -> _Roots | None:
    """The root record of a nonzero f, the one place that chooses between the
    fold and the chain, for verdicts, isolation and certificate validation.

    A palindromic h that ``_fold_counter`` accepts keeps its fold, which
    counts the roots of h at half the degree, with gcd 1; any other h keeps
    the counter of its remainder sequence of (h, h') (``_chain_counter``),
    which ends at a positive multiple of gcd(h, h').

    With verdict, the record of a real-rooted f, else None.  h has
    deg h - deg gcd distinct roots, and it is real-rooted iff distinct is
    that number: a fold, with gcd 1, compares its count with deg h.  On the
    chain, a sequence of at most deg h - deg gcd + 1 terms reaches that many
    sign variations only when it is normal (``_normal_sequence``), so the
    walk stops at its first abnormal step, and a normal one has that count
    with no sign taken.  First of all, for any h,
    h(i) = (c_0 - c_2 + c_4 - ...) + i (c_1 - c_3 + c_5 - ...) over the
    coefficients c of h, and h(i) = 0 puts the roots +-i on h, with no
    division.
    """
    h, k = _strip_x(f)
    h = -h if h.leading_coefficient < 0 else h
    c = h.coeffs
    if verdict and sum(c[::4]) == sum(c[2::4]) and sum(c[1::4]) == sum(c[3::4]):
        return None
    fold = _fold_counter(h)
    if fold:
        return None if verdict and fold[1] != h.degree else _Roots(k, h, ONE, *fold)
    chain = _chain_counter(h, verdict)
    return None if chain is None else _Roots(k, h, *chain)


def _fold(h: Poly) -> Poly:
    """The q of degree m with x^-m g(x) = q(x + 1/x) for a palindromic h, where
    g = h of degree 2m, or g = h / (x + 1) for an odd degree (h(-1) =
    (-1)^deg h h(-1) = 0, and g is a palindrome too): q = c_m + sum_{j>=1}
    c_{m+j} D_j(y) over the coefficients c of g, where D_j(x + 1/x) =
    x^j + x^-j, so D_0 = 2, D_1 = y and D_{j+1} = y D_j - D_{j-1}."""
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


# -- root isolation -----------------------------------------------------------


def _root_bound(p: Poly) -> int:
    """Integer B with every real root of p strictly inside (-B, B) (Cauchy bound)."""
    an = abs(p.leading_coefficient)
    rest = [abs(c) for c in p.coeffs[:-1]]
    m = max(rest) if rest else 0
    return 1 + (-(-m // an))


def _guessed_separators(q: Poly) -> tuple[list[tuple[int, int]], list[float], int] | None:
    """(points, roots, s): deg q - 1 points num/den, ascending, guessed in
    floats to separate the roots of q, and the deg q guessed roots w + s,
    ascending, as floats w; None when a guess does not converge or a float
    overflows.  Only a guess: ``_separators`` proves or rejects it.

    q(y) is first shifted exactly to q(w + s), s = 2 if the roots of q sum
    to more than 0 and s = -2 otherwise: the roots of a fold cluster at 2 or
    -2, and floats near 0 resolve them where floats near +-2 cannot.
    Laguerre's method with implicit (Maehly) deflation then finds the roots
    one by one, each started next to a root modulus of the Newton polygon of
    log2|c_i|, on the side of s, and evaluates the polynomial in 1/w for
    |w| > 1, so no power of a root overflows.  It stops when the value is
    down to rounding noise or a step to 2^-32 of |w|: Laguerre converges
    cubically, so the step taken is then down to rounding noise too.  Between
    each two sorted guesses the point is the least multiple of the power of
    two in (gap/4, gap/2] that lies in the middle half of the gap.
    """
    n, cs = q.degree, list(q.coeffs)
    s = 2 if n and cs[-2] < 0 else -2  # the side of the mean root
    for i in range(n):  # cs becomes q(w + s), exactly
        for k in range(n - 1, i - 1, -1):
            cs[k] += s * cs[k + 1]
    hull = []  # upper convex hull of (i, log2|c_i|)
    for pt in [(i, math.log2(abs(c))) for i, c in enumerate(cs) if c]:
        while len(hull) > 1 and ((hull[-1][1] - hull[-2][1]) * (pt[0] - hull[-2][0])
                                 <= (pt[1] - hull[-2][1]) * (hull[-1][0] - hull[-2][0])):
            hull.pop()
        hull.append(pt)
    found, points = [], []
    try:
        cs = [float(c) for c in cs]
        for (i, li), (j, lj) in zip(hull, hull[1:]):
            for _ in range(i, j):
                x, m = math.copysign(1.01 * 2 ** ((li - lj) / (j - i)), s), n - len(found)
                for _ in range(60):
                    inside = abs(x) <= 1
                    t = x if inside else 1 / x
                    v = dv = ddv = size = 0.0  # p, p', p''/2 and sum |c_i t^i| at t
                    for c in (reversed(cs) if inside else cs):
                        v, dv, ddv = v * t + c, dv * t + v, ddv * t + dv
                        size = size * abs(t) + abs(c)
                    if abs(v) <= 2 ** -53 * size:  # a root, as far as floats tell
                        break
                    g, r = dv / v, 2 * ddv / v  # p'/p and p''/p at t
                    g, h = (g, g * g - r) if inside else (  # p'/p and -(p'/p)' at x
                        t * (n - t * g), t * t * (n - 2 * t * g - t * t * (r - g * g)))
                    for z in found:
                        g, h = g - 1 / (x - z), h - 1 / (x - z) ** 2
                    e = max(m * h - g * g, 0.0)  # >= 0 at a real x for real roots
                    step = m / (g + math.copysign(math.sqrt((m - 1) * e), g))
                    x -= step
                    if abs(step) <= 2 ** -32 * abs(x):
                        break
                else:
                    return None
                found.append(x)
        found.sort()
        for lo, hi in zip(found, found[1:]):
            unit = math.ldexp(1.0, math.frexp(hi - lo)[1] - 2)  # <= (hi - lo) / 2
            points.append((math.ceil((lo + (hi - lo) / 4) / unit) * unit).as_integer_ratio())
    except (OverflowError, ValueError, ZeroDivisionError):
        return None
    return [(a + s * den, den) for a, den in points], found, s


def _separators(q: Poly) -> tuple[list[tuple[int, int, int, int]], list[float], int] | None:
    """(gaps, roots, s): the deg q isolating intervals (a, b, den, s_a) of a
    q with lead(q) > 0, ascending, from separators guessed in floats and
    proven by exact signs, and the guesses of ``_guessed_separators`` for
    their roots; None when the guess or the proof fails.

    The points are -B (``_root_bound``), the deg q - 1 points of
    ``_guessed_separators`` and B.  If these n + 1 = deg q + 1 increasing
    points give n strict sign changes of q, with no zero, then each gap
    holds one root, so q has n simple real roots.  Only exact signs decide,
    so no verdict rests on a float (the certifying-algorithm pattern:
    McConnell, Mehlhorn, Naher and Schweitzer, Comput. Sci. Rev. 5, 2011).
    """
    guess = _guessed_separators(q)
    if guess is None:
        return None
    bound = _root_bound(q)
    grid = [(a, den, q._sign_at(a, den)) for a, den in [(-bound, 1)] + guess[0] + [(bound, 1)]]
    gaps = list(zip(grid, grid[1:]))
    if len(gaps) != q.degree or any(a * db >= b * da or u * v >= 0
                                    for (a, da, u), (b, db, v) in gaps):
        return None
    return [(a * (max(da, db) // da), b * (max(da, db) // db), max(da, db), u)
            for (a, da, u), (b, db, _) in gaps], guess[1], guess[2]


def _narrowed(q: Poly, gap: tuple[int, int, int, int], w: float, s: int
              ) -> tuple[int, int, int, int]:
    """The gap (a, b, den, s_a) of one root of q narrowed to the dyadic
    bracket w (1 -+ 2^-30) + s around its guess w + s, if two exact signs
    inside the gap prove that the bracket holds the root; else the gap."""
    a, b, den, s_a = gap
    num, d = w.as_integer_ratio()
    d <<= 30
    lo, hi = (num << 30) - abs(num) + s * d, (num << 30) + abs(num) + s * d
    if a * d < lo * den and hi * den < b * d and q._sign_at(lo, d) == s_a == -q._sign_at(hi, d):
        return lo, hi, d, s_a
    return gap


def _below(q: Poly, ivs: list[tuple[int, int, int, int]], num: int, den: int,
           sign: int | None = None) -> int | None:
    """B(y), the number of roots of q below y = num/den (den > 0), from
    isolating intervals ivs of all of them, ascending, or None if q(y) = 0:
    the intervals with hi <= y lie below y, those after the first with
    hi > y above it, and the root of that one lies below y iff y is inside
    it and q has at y the sign opposite to its sign at lo (sign, if known)."""
    lo, hi = 0, len(ivs)
    while lo < hi:
        mid = (lo + hi) // 2
        if ivs[mid][1] * den <= num * ivs[mid][2]:
            lo = mid + 1
        else:
            hi = mid
    if lo < len(ivs) and ivs[lo][0] * den < num * ivs[lo][2]:
        s = q._sign_at(num, den) if sign is None else sign
        if s == 0:
            return None
        lo += s != ivs[lo][3]
    return lo


def _rational_root_in(q: Poly, a: int, b: int, den: int, s_lo: int) -> Fraction | None:
    """The root of q in (a/den, b/den) if it is rational, else None; s_lo is
    the sign of q at a/den.

    The interval must hold exactly one root of q, a simple one, and neither
    end may be a root.  A rational root of the integer polynomial q has a
    denominator dividing L = |lead(q)|, so it is c/L for an integer c.  q has
    the sign s_lo exactly at the grid points c/L below the root, which a
    binary search over c exploits: at most log2(L (b - a) / den) + 1
    evaluations, each at the integer pair (c, L).
    """
    L = abs(q.leading_coefficient)
    lo = a * L // den + 1  # floor(a L / den) + 1
    hi = -(-b * L // den) - 1  # ceil(b L / den) - 1
    while lo <= hi:
        c = (lo + hi) // 2
        s = q._sign_at(c, L)
        if s == 0:
            return Fraction(c, L)
        if s == s_lo:
            lo = c + 1
        else:
            hi = c - 1
    return None


def _levels(r: _Roots) -> list[Poly]:
    """The squarefree part p of h (primitive, positive lead) and then the
    multiplicity levels of h, from its root record: levels[j] holds the
    distinct roots of h of multiplicity at least j + 2.

    The record's gcd is the first step of the repeated-gcd chain g[0] = h,
    g[i+1] = gcd(g[i], g[i]'), which ends at a constant: the distinct roots
    of g[i] are the roots of h of multiplicity above i, so g[i] / g[i+1] is
    their squarefree part, g[i] itself when g[i+1] = 1.
    """
    gs = [r.h, r.gcd.primitive_positive()]
    while gs[-1].degree >= 1:
        gs.append(poly_gcd(gs[-1], poly_derivative(gs[-1])))
    return [(exact_div(g, d) if d.degree else g).primitive_positive() for g, d in zip(gs, gs[1:])]


def _chain_counter(p: Poly, verdict: bool = False):
    """(gcd, count, distinct, probe) of p from its remainder sequence of
    (p, p'), whose last term gcd is a positive multiple of gcd(p, p'); with
    verdict, None unless the sequence is normal (``_normal_sequence``).

    count(num, den) = V(-oo) - V(num/den) over the sign variations V of the
    terms is the number of distinct real roots of p below num/den
    (generalised Sturm theorem), None at a root of p; distinct = V(-oo) -
    V(oo); the probe is the grid probe ``_rational_root_in``.  For
    lead(p) > 0 a normal sequence drops the degree by one at each step with
    positive leading coefficients, so V(-oo) = deg p - deg gcd and V(oo) = 0
    take no sign, and its chain is built at the first count.
    """
    dp = poly_derivative(p)
    terms = _normal_sequence(p, dp) if verdict else tuple(_remainder_sequence(p, dp))
    if terms is None:
        return None
    chain = None if verdict else SturmChain(terms)
    v_neg = len(terms) - 1 if verdict else chain.variations_at_neg_inf()
    distinct = v_neg if verdict else v_neg - chain.variations_at_pos_inf()

    def count(num: int, den: int) -> int | None:
        nonlocal chain
        chain = chain or SturmChain(terms)
        v = chain.variations_at(num, den, True)
        return None if v is None else v_neg - v

    return terms[-1], count, distinct, _rational_root_in


def _fold_counter(p: Poly):
    """(count, distinct, probe) for a palindromic p, read off its fold at
    half the degree, or None when p does not qualify: count(num, den) is the
    number of roots of p below num/den (den > 0), None at a root of p;
    distinct is the number of real roots of p; probe(p, a, b, den, s_a) is
    the rational root of p in (a/den, b/den), if any.  It is the one place
    that qualifies and counts a fold, and ``_roots`` its one caller.

    p must have p(0) != 0 and lead(p) > 0.  It qualifies when it is a
    palindrome of degree >= 2 whose fold q (``_fold``, x^-m g(x) = q(x + 1/x)
    with g = p, or g = p / (x + 1) for an odd degree), with a simple root 0
    divided out, is squarefree with q(+-2) != 0; the signs at +-2 come
    first, so a q they reject costs no division.  Then g = lead(g)
    prod (x^2 - y x + 1) over the distinct roots y of q (and 0, which gives
    the roots +-i), no factor has a double root (y != +-2), x determines
    y = x + 1/x, and q(-2) = (-1)^m g(-1) != 0, so p is squarefree.  Its
    real roots are -1 for an odd degree and the roots x and 1/x of each
    factor with a real |y| > 2.

    The counts come from isolating intervals of q, in y-space: B(y), the
    number of roots of q below y, is ``_below`` over them.  First,
    ``_separators`` tries to prove deg q + 1 points guessed in floats: then
    q is squarefree with n = deg q real roots, the gaps between the points
    are its intervals, and B(+-2) are two binary searches; no remainder
    sequence is built.  Only when that fails does q take its chain: q
    qualifies iff the chain ends at a constant, and n, B(2) and B(-2) are
    read off its counter (``_chain_counter``).  That is all that a verdict and
    ``refine_certificate`` ask for.  The first count narrows every proven
    gap to the bracket around its guess (``_narrowed``), or on the chain
    isolates q, once, by the Sturm tree without a probe.  The values are
    exact either way, so the tree of p, and its certificate, do not depend
    on the path.

    Let odd = deg p mod 2 and N = 2 B(-2) + odd.  A t = num/den != 0 maps to
    y = t + 1/t = (num^2 + den^2) / (num den), and q(y) = t^-m g(t) is 0 iff
    t is a root of p other than the root -1 of an odd degree: q(+-2) != 0.
    y increases on (-oo, -1] and on (1, oo), from -oo to -2 and from 2 to
    oo, and decreases on (-1, 0) and on (0, 1], from -2 to -oo and from oo
    to 2.  So each root y < -2 of q gives one root of p below -1 and one in
    (-1, 0), each root y > 2 one in (0, 1) and one above 1, and N counts the
    negative roots.  The roots of p below a non-root t are:
    - t <= -1: the roots x < -1 with y(x) < y(t) <= -2, B(y) of them;
    - -1 < t < 0: the B(-2) + odd roots at or below -1, and the roots x in
      (-1, t), those with y(t) < y(x) < -2, B(-2) - B(y) of them: N - B(y);
    - t = 0: N;
    - 0 < t <= 1: N and the roots x in (0, t), those with y(x) > y(t) >= 2,
      n - B(y) of them: N + n - B(y);
    - t > 1: N, the n - B(2) roots in (0, 1) and the roots x in (1, t),
      those with 2 < y(x) < y(t), B(y) - B(2) of them: N + n - 2 B(2) + B(y).
    Above every root that is N + 2 (n - B(2)) = distinct.

    The rational roots of p, found on the first probe, are -1 for an odd
    degree and x = (c +- D) / (2L) for each rational root y = c/L of q
    (``_rational_root_in`` on its interval) with c^2 - 4L^2 = D^2, D > 0.
    """
    if p.degree < 2 or p.coeffs != p.coeffs[::-1]:
        return None
    q, j = _strip_x(_fold(p))
    q = q.primitive()
    if j > 1 or (s_m2 := q._sign_at(-2, 1)) == 0 or (s_2 := q._sign_at(2, 1)) == 0:
        return None
    proof = _separators(q)  # the gaps of q and the guesses in them, if proven
    if proof is None:
        gcd, count_q, n, _ = _chain_counter(q)
        if gcd.degree != 0:
            return None
        below_2, below_m2 = count_q(2, 1), count_q(-2, 1)
    else:  # proven: q is squarefree with deg q real roots
        n = q.degree
        below_2, below_m2 = _below(q, proof[0], 2, 1, s_2), _below(q, proof[0], -2, 1, s_m2)
    odd = p.degree % 2
    neg = 2 * below_m2 + odd
    ivs = roots = None  # the intervals of q for the counts, the rational roots of p

    def count(num: int, den: int) -> int | None:
        nonlocal ivs
        if ivs is None:
            ivs = (_isolate(q, count_q, None) if proof is None
                   else [_narrowed(q, gap, w, proof[2]) for gap, w in zip(*proof[:2])])
        if num == 0:
            return neg
        if odd and num == -den:
            return None
        y_num, y_den = num * num + den * den, num * den
        b = _below(q, ivs, y_num, y_den) if num > 0 else _below(q, ivs, -y_num, -y_den)
        if b is None or num <= -den:
            return b
        if num < 0:
            return neg - b
        if num <= den:
            return neg + n - b
        return neg + n - 2 * below_2 + b

    def probe(_: Poly, a: int, b: int, den: int, s_a: int) -> Fraction | None:
        nonlocal roots
        if roots is None:
            roots = [Fraction(-1)] if odd else []
            for y in filter(None, (_rational_root_in(q, *iv) for iv in ivs)):
                c, L = y.numerator, y.denominator
                D = math.isqrt(max(c * c - 4 * L * L, 0))
                if D and D * D == c * c - 4 * L * L:
                    roots += [Fraction(c - D, 2 * L), Fraction(c + D, 2 * L)]
        return next((x for x in roots
                     if a * x.denominator < x.numerator * den < b * x.denominator), None)

    return count, neg + 2 * (n - below_2), probe


def _isolate(p: Poly, count, probe, zero_root: bool = False) -> list[tuple[int, int, int, int]]:
    """The leaves of the one tree over the roots of a squarefree p with
    p(0) != 0 and lead(p) > 0, ascending on the integer grid: an open
    isolating interval (a/den, b/den) as (a, b, den, s_a), with s_a the
    sign of p at a/den, and a rational root c/L as the point (c, c, L, 0).
    With zero_root, 0 is a root of the caller's polynomial, and no leaf
    holds it.

    count(num, den) is the number of distinct real roots of p below num/den
    (den > 0), None exactly at the roots, whoever produced it: a chain
    (``_chain_counter``) or the fold of a palindrome (``_fold_counter``).
    probe(p, a, b, den, s_a) returns the root of p in a leaf if it is
    rational, else None: the grid probe ``_rational_root_in``, or the
    rational roots of the fold; with no probe, every leaf is an interval.
    Either drives the one tree: the Cauchy bound (-B, B), midpoint splits
    moved off the roots of p towards a, a stop at one root, the probe and
    the halving of a leaf off the root 0, so the leaves do not depend on
    the counter.

    The tree runs on the integer grid: an interval is (a, b, den, c_a, c_b)
    for (a/den, b/den) with the counts at its ends, so a split counts at
    its midpoint (and at each move off a root of p), and so does each
    halving off the root 0, which keeps the half where the count changes:
    the tree takes no sign of p.  p is squarefree with the sign
    s_neg = (-1)^deg p at -B, so its sign at a non-root t is
    s_neg (-1)^(c(t) - c(-B)); complex roots change no sign.  Interval ends
    are never roots, and the left half is taken first, so the leaves come
    out in ascending order.
    """
    if p.degree < 1:
        return []
    bound = _root_bound(p)
    s_neg = -1 if p.degree % 2 else 1  # no root at or below -B
    c_neg = count(-bound, 1)
    stack = [(-bound, bound, 1, c_neg, count(bound, 1))]
    leaves = []
    while stack:
        a, b, den, c_a, c_b = stack.pop()
        n = c_b - c_a
        if n == 1:
            s_a = -s_neg if (c_a - c_neg) % 2 else s_neg
            root = probe(p, a, b, den, s_a) if probe else None
            if root is not None:
                leaves.append((root.numerator, root.numerator, root.denominator, 0))
                continue
            # 0 is a root of the caller's polynomial: halve the leaf off it by
            # the count, which keeps c_a and s_a at the left end; its root is
            # irrational, so no midpoint is a root and the count is never None
            while zero_root and a <= 0 <= b:
                mid, den = a + b, 2 * den
                a, b = (mid, 2 * b) if count(mid, den) == c_a else (2 * a, mid)
            leaves.append((a, b, den, s_a))
        elif n > 1:
            # split where p is nonzero, halving towards a; p has finitely
            # many roots, so this ends
            lo, mid, d = 2 * a, a + b, 2 * den
            c_mid = count(mid, d)
            while c_mid is None:
                lo, mid, d = 2 * lo, lo + mid, 2 * d
                c_mid = count(mid, d)
            stack.append((mid, b * (d // den), d, c_mid, c_b))
            stack.append((lo, mid, d, c_a, c_mid))
    return leaves


def _multiplicity(k: int, levels: list[Poly], lo: Fraction, hi: Fraction) -> int:
    """Multiplicity of the root of f = x^k h isolated by [lo, hi], given the
    levels of h; an open interval must have non-root ends.

    A level is squarefree and its roots are roots of f, of which the interval
    holds one, so a level holds that root iff it changes sign on the interval.
    The interval holds 0 iff the numerators of its ends differ in sign.
    """
    if k and lo.numerator <= 0 <= hi.numerator:
        return k
    mult = 1
    for level in levels:
        s = level.sign_at(lo)
        has_root = s == 0 if lo == hi else s * level.sign_at(hi) < 0
        if not has_root:
            break
        mult += 1
    return mult


def isolate_roots(f: Poly) -> RootCertificate:
    """Disjoint rational isolating intervals for every distinct real root of f,
    with multiplicities recovered from the repeated-gcd chain.

    The tree of ``_isolate`` walks the squarefree part of h, f = x^k h, with
    the root counter of the record ``_roots``: the fold of a palindromic h
    at half the degree, or else the Sturm chain of h.  Both give the same
    certificate.
    """
    if _typed(f, "f").is_zero:
        raise ZeroPolynomialError("cannot isolate roots of 0")
    return _certificate(_roots(f))


def _certificate(r: _Roots) -> RootCertificate:
    """The certificate of ``isolate_roots`` from the root record r of f: the
    leaves of the tree, with the exact root 0 of f after those below 0."""
    p, *levels = _levels(r)
    leaves = _isolate(p, r.count, r.probe, r.k > 0)
    if r.k:
        leaves.insert(sum(a < 0 for a, *_ in leaves), (0, 0, 1, 0))
    ends = ((Fraction(a, den), Fraction(b, den)) for a, b, den, _ in leaves)
    return RootCertificate(tuple(RootInterval(lo, hi, _multiplicity(r.k, levels, lo, hi))
                                 for lo, hi in ends))


def _bisect_once(p: Poly, a: int, b: int, den: int, v_a: int, v_b: int
                 ) -> tuple[int, int, int, int, int]:
    """One bisection step of ``_qir`` on [a/den, b/den], which holds one
    simple root of p, given the values v_a, v_b of ``Poly._value_at`` at its
    ends over den: the half holding the root over 2den (both ends at the
    midpoint, values 0, if it is the root) and its end values over 2den."""
    mid, den = a + b, 2 * den
    v = p._value_at(mid, den)
    if v == 0:
        return mid, mid, den, 0, 0
    if (v > 0) == (v_a > 0):
        return mid, 2 * b, den, v, v_b << p.degree
    return 2 * a, mid, den, v_a << p.degree, v


def _qir(p: Poly, a: int, b: int, den: int, v_a: int, v_b: int, level: int
         ) -> tuple[int, int, int]:
    """What `level` steps of ``_bisect_once`` return on [a/den, b/den] (one
    simple root of p inside, none at the ends, where ``Poly._value_at`` gives
    v_a and v_b over den), by quadratic interval
    refinement (J. Abbott, ACM Commun. Comput. Algebra 48(1), 2014): the
    secant through p at the ends of the current cell picks one of its 2^j
    subcells, never past `level`, kept if p changes sign at its ends, and j
    doubles; on a miss j halves, down to 2, and one bisection step follows.
    The cells of level L, (a 2^L + i w, a 2^L + (i+1) w) / (den 2^L) with
    w = b - a, meet only at ends, so one cell of the last level has a sign
    change at non-root ends: the one bisection keeps.  A root first on the
    grid at level L <= `level` is inside no cell of level L or more, so
    neither method passes level L without meeting it as an end, and both
    return it as a point."""
    deg, w, j = p.degree, b - a, 2
    while level > 0 and a < b:
        j = min(j, level)
        if j > 1:
            n, d = 1 << j, den << j
            i = n * v_a // (v_a - v_b)  # in [0, n): v_a, v_b differ in sign
            lo = a * n + i * w
            v_lo = v_a << deg * j if i == 0 else p._value_at(lo, d)
            v_hi = v_b << deg * j if i == n - 1 else p._value_at(lo + w, d)
            if v_lo == 0 or v_hi == 0:  # the root is an end
                return (lo, lo, d) if v_lo == 0 else (lo + w, lo + w, d)
            if (v_lo > 0) != (v_hi > 0):
                a, b, den, v_a, v_b, level, j = lo, lo + w, d, v_lo, v_hi, level - j, 2 * j
                continue
            j = max(j // 2, 2)
        a, b, den, v_a, v_b = _bisect_once(p, a, b, den, v_a, v_b)
        level -= 1
    return a, b, den


def refine_certificate(f: Poly, cert: RootCertificate, width) -> RootCertificate:
    """Shrink every non-degenerate interval of cert below the given width, a
    positive rational number (else BadParametersError).

    Each interval comes out as halving it on the integer grid of
    ``_bisect_once`` leaves it after the least number K of halvings with
    (b - a) * width.den < width.num * den * 2^K; ``_qir`` gets there with
    O(log K) evaluations on a well separated root, and K from bit lengths.
    """
    width = _rational(width, "width")
    if width <= 0:
        raise BadParametersError("width must be positive")
    _typed(cert, "cert", RootCertificate)
    if _typed(f, "f").is_zero:
        raise CertificateMismatchError("the zero polynomial has no certificate")
    p, grid = _validated_squarefree_part(f, cert)
    w_num, w_den = width.numerator, width.denominator
    out = []
    for iv, (a, b, den, v_a, v_b) in zip(cert.intervals, grid):
        lo, hi = iv.lo, iv.hi
        have, want = (b - a) * w_den, w_num * den
        level = max(have.bit_length() - want.bit_length(), 0)
        if want << level <= have:
            level += 1
        if level:
            a, b, den = _qir(p, a, b, den, v_a, v_b, level)
            lo, hi = Fraction(a, den), Fraction(b, den)
        out.append(RootInterval(lo, hi, iv.multiplicity))
    return RootCertificate(tuple(out))


def _validated_squarefree_part(f: Poly, cert: RootCertificate
                               ) -> tuple[Poly, list[tuple[int, int, int, int, int]]]:
    """The squarefree part p of a nonzero f, once cert is checked against f,
    and each interval on its grid: (a, b, den, v_a, v_b) with the ends
    a/den, b/den and the values of p there from ``Poly._value_at`` (0 at a
    point), so refinement evaluates no end again.

    Every point must be a root of f and every open interval must see a strict
    sign change of p with nonzero ends, so each of the disjoint intervals
    holds at least one root; with as many intervals as distinct real roots,
    each holds exactly one, and only then are the multiplicities checked.
    """
    r = _roots(f)
    q, *levels = _levels(r)
    p = q.shift_up() if r.k else q
    distinct = r.distinct + (r.k > 0)
    if len(cert.intervals) != distinct:
        raise CertificateMismatchError(
            f"certificate lists {len(cert.intervals)} roots, polynomial has {distinct}"
        )
    grid = []
    for iv in cert.intervals:
        (a, b), den = _on_grid(iv.lo, iv.hi)
        v_a = v_b = 0
        if iv.is_point:
            if f.sign_at(iv.lo) != 0:
                raise CertificateMismatchError(f"{iv.lo} is not a root")
        else:
            v_a, v_b = p._value_at(a, den), p._value_at(b, den)
            if v_a == 0 or v_b == 0:
                raise CertificateMismatchError("interval endpoint is a root")
            if (v_a > 0) == (v_b > 0):
                raise CertificateMismatchError(
                    f"interval ({iv.lo}, {iv.hi}) does not isolate one root"
                )
        grid.append((a, b, den, v_a, v_b))
    for iv in cert.intervals:
        mult = _multiplicity(r.k, levels, iv.lo, iv.hi)
        if mult != iv.multiplicity:
            raise CertificateMismatchError(
                f"multiplicity mismatch on ({iv.lo}, {iv.hi}): {iv.multiplicity} != {mult}"
            )
    return p, grid


# -- interleaving --------------------------------------------------------------


def interleaves(f: Poly, g: Poly) -> bool:
    """The weak root-alternation order: largest root belongs to g, the lists
    alternate downward with multiplicity, and degrees differ by at most one.

    By convention every real-rooted polynomial (and 0 itself) interleaves 0 in
    both directions.  Nonzero inputs must have positive leading coefficients.

    Decided without locating a root.  With d = gcd(f, g), the multiplicity
    lists alternate weakly iff d is real-rooted and f/d, g/d (which share no
    root) alternate strictly.  For deg g = deg f + 1 the strict alternation
    holds iff the remainder sequence of (g/d, f/d) is normal
    (Hermite-Kakeya-Obreschkoff; a Sturm count of the Cauchy index of f/g).
    The sequence of (g, f) is d times that one, up to positive factors, so it
    decides both at once: it is normal exactly when that one is, and it ends
    at a positive multiple of d.  Equal degrees reduce to the first case:
    for them f << g iff lead(g) f - lead(f) g << f, built in one pass over
    the coefficients, and that difference is 0 when g is a multiple of f.
    """
    for p, what in ((f, "f"), (g, "g")):
        if _typed(p, what).leading_coefficient < 0:
            raise NegativeLeadingCoefficientError(f"{p} has a negative leading coefficient")
    if f.is_zero or g.is_zero:
        return is_real_rooted(g if f.is_zero else f)
    if f.degree not in (g.degree - 1, g.degree):
        return False
    if f.degree == g.degree:
        lf, lg = f.coeffs[-1], g.coeffs[-1]
        f, g = Poly(tuple([lg * a - lf * b for a, b in zip(f.coeffs, g.coeffs)])), f
    terms = _normal_sequence(g, f)
    return terms is not None and is_real_rooted(terms[-1])


def _first_bad_pair(fs, decided) -> tuple[int, int] | None:
    """The row-order pair walk: the first (k, l) with k < l for which
    fs[k] << fs[l] is false, or None when every pair interleaves.  It names
    the first bad pair of a sequence that ``_interlacing`` has failed, and
    decides a sequence with a negative leading coefficient.  A pair in
    ``decided``, a map from (k, l) to its verdict, is not decided again."""
    for k, f in enumerate(fs):
        for l in range(k + 1, len(fs)):
            holds = decided.get((k, l))
            if not (interleaves(f, fs[l]) if holds is None else holds):
                return k, l
    return None


def _interlacing(fs, decided) -> bool:
    """True iff fs[k] << fs[l] for every k < l.  When every nonzero member
    has a positive leading coefficient, the r nonzero members f_1, ..., f_r
    take r calls: the neighbour pairs and the closing pair (f_1, f_r), in
    the walk's row order, each verdict kept in ``decided``.  Each is a pair
    (k, l) with k < l, so a False is a pair that the walk fails too.
    Otherwise ``_first_bad_pair`` decides, which raises where it meets a
    negative leading coefficient and returns wherever it fails first.

    The rule for nonzero f, g with positive leading coefficients: f << g
    iff both are real-rooted, deg g - 1 <= deg f <= deg g, and the roots
    b_1 >= b_2 >= ... of g and a_1 >= a_2 >= ... of f, each listed as often
    as its multiplicity, alternate weakly: b_1 >= a_1 >= b_2 >= a_2 >= ...,
    that is b_(k+1) <= a_k <= b_k for each k <= deg f, with b_(k+1) only
    for k < deg g.  A constant lists no root, which gives c << g iff
    deg g <= 1 and f << c iff deg f = 0.

    Lemma (Savage and Visontai, Trans. AMS 367 (2015), Sec. 2; Fisk, arXiv
    math/0612833): for r >= 2, if f_i << f_(i+1) for each i < r and
    f_1 << f_r, then f_i << f_j for all i < j.  Proof: each f_i is in a
    pair that holds with a nonzero partner, so it is real-rooted; let
    p_i(k) be its k-th largest root.  Degrees: a neighbour pair gives
    deg f_i <= deg f_(i+1), and the closing pair deg f_r <= deg f_1 + 1, so
    for i < j, deg f_i <= deg f_j <= deg f_r <= deg f_1 + 1 <= deg f_i + 1.
    Upper bound: a neighbour pair gives p_i(k) <= p_(i+1)(k) for
    k <= deg f_i, where the degrees do not fall, so p_i(k) <= p_j(k).
    Lower bound, for k <= deg f_i and k < deg f_j: k + 1 <= deg f_j <=
    deg f_1 + 1, so p_1(k) exists, and p_j(k+1) <= p_r(k+1) by the
    neighbour pairs, p_r(k+1) <= p_1(k) by the closing pair and
    p_1(k) <= p_i(k) by the neighbour pairs again.  So
    p_j(k+1) <= p_i(k) <= p_j(k): f_i << f_j.  For r = 2 the closing pair
    is the neighbour pair.

    Zeros: f << 0 and 0 << f hold iff f is real-rooted (0 included).  So
    fs interlaces iff its nonzero members do and, when fs holds a 0, each
    nonzero member is real-rooted.  With two or more nonzero members the
    first implies the second; with one, it is the call on it and the first
    0; with none, every pair is (0, 0) and holds.  The zeros must go before
    the rule: (0, 6x^2 + 21x + 15, 0, 1) passes each neighbour pair and the
    pair (0, 1), yet 6x^2 + 21x + 15 << 1 is false.
    """
    nonzero = [k for k, f in enumerate(fs) if f.coeffs]
    if any(fs[k].coeffs[-1] < 0 for k in nonzero):
        return _first_bad_pair(fs, decided) is None
    if len(nonzero) == 1 < len(fs):  # one nonzero member, and zeros
        pairs = [tuple(sorted((nonzero[0], next(i for i, f in enumerate(fs) if not f.coeffs))))]
    else:
        pairs = list(zip(nonzero, nonzero[1:]))
        if len(nonzero) > 2:  # the closing pair, in the walk's row order
            pairs.insert(1, (nonzero[0], nonzero[-1]))
    for k, l in pairs:
        decided[k, l] = holds = interleaves(fs[k], fs[l])
        if not holds:
            return False
    return True


def _fplus_fault(fs) -> tuple[str, tuple[int, ...]] | None:
    """The first fault against F+ (interlacing, nonnegative coefficients):
    ("negative_coefficient", (k,)) for the first member with a negative
    coefficient, or else ("not_interleaving", (k, l)) for the walk's first
    bad pair, sought only once ``_interlacing`` has failed, by a walk that
    decides no pair twice; None for a member of F+."""
    for k, p in enumerate(fs):
        if any(c < 0 for c in p.coeffs):
            return "negative_coefficient", (k,)
    decided = {}
    return None if _interlacing(fs, decided) else ("not_interleaving", _first_bad_pair(fs, decided))


def is_interlacing_seq(fs) -> bool:
    """True iff fs[i] interleaves fs[j] for every i < j (vacuously true for len <= 1)."""
    return _interlacing(_listed(fs, "fs", Poly), {})


def in_fplus(fs) -> bool:
    """Interlacing sequence with all coefficients nonnegative."""
    return _fplus_fault(_listed(fs, "fs", Poly)) is None
