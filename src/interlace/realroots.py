"""Exact real-root certification and the interleaving order on root sets.

Everything here is driven by integer remainder sequences: Sturm chains count
distinct real roots, isolate them in disjoint rational intervals (with
multiplicities recovered from a repeated-gcd chain) and decide
real-rootedness; a gcd plus one more remainder sequence decides whether the
roots of one polynomial weakly alternate with the roots of another.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    BadParametersError,
    CertificateMismatchError,
    EmptyIntervalError,
    NegativeLeadingCoefficientError,
    ZeroPolynomialError,
)
from .polys import Poly, exact_div, poly_derivative, poly_gcd, pseudo_divmod


@dataclass(frozen=True)
class RootInterval:
    """One isolating interval: a degenerate interval (lo == hi) is an exact root."""

    lo: Fraction
    hi: Fraction
    multiplicity: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("interval endpoints out of order")
        if self.multiplicity < 1:
            raise ValueError("multiplicity must be positive")

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    def to_json_obj(self) -> dict:
        def fmt(q: Fraction) -> str:
            return f"{q.numerator}/{q.denominator}"

        return {"lo": fmt(self.lo), "hi": fmt(self.hi), "mult": self.multiplicity}


@dataclass(frozen=True)
class RootCertificate:
    """Disjoint isolating intervals, sorted ascending, one per distinct real root."""

    intervals: tuple[RootInterval, ...] = ()

    def __post_init__(self):
        ivs = self.intervals
        for prev, nxt in zip(ivs, ivs[1:]):
            if prev.hi > nxt.lo:
                raise ValueError("intervals overlap")
            if prev.hi == nxt.lo and prev.is_point and nxt.is_point:
                raise ValueError("duplicate exact root")

    def __len__(self) -> int:
        return len(self.intervals)

    def total_multiplicity(self) -> int:
        return sum(iv.multiplicity for iv in self.intervals)

    def to_json_obj(self) -> list[dict]:
        return [iv.to_json_obj() for iv in self.intervals]


def squarefree_part(f: Poly) -> Poly:
    """f / gcd(f, f'): same distinct roots, all simple; primitive, positive lead."""
    if f.is_zero:
        raise ZeroPolynomialError("squarefree part of 0 is undefined")
    if f.degree == 0:
        return Poly((1,))
    d = poly_gcd(f, poly_derivative(f))
    return exact_div(f, d).primitive_positive()


@dataclass(frozen=True)
class SturmChain:
    """Signed-remainder sequence of a squarefree polynomial.

    Each remainder is an integer pseudo-remainder reduced to its primitive
    part; both steps scale by positive factors, which leaves every sign
    evaluation unchanged.
    """

    chain: tuple[Poly, ...]

    @staticmethod
    def of_squarefree(p: Poly) -> "SturmChain":
        if p.is_zero:
            raise ZeroPolynomialError("Sturm chain of 0 is undefined")
        if p.degree == 0:
            return SturmChain((p,))
        chain = [p, poly_derivative(p)]
        while True:
            rem = pseudo_divmod(chain[-2], chain[-1])[2]
            if rem.is_zero:
                break
            chain.append(-rem.primitive())
        return SturmChain(tuple(chain))

    def variations_at(self, t: Fraction) -> int:
        return _sign_variations([p.sign_at(t) for p in self.chain])

    def variations_at_neg_inf(self) -> int:
        return _sign_variations(
            [p.leading_coefficient * (-1) ** (len(p.coeffs) - 1) for p in self.chain]
        )

    def variations_at_pos_inf(self) -> int:
        return _sign_variations([p.leading_coefficient for p in self.chain])

    def count_in(self, lo, hi) -> int:
        """Distinct roots in (lo, hi]; None endpoints mean -inf / +inf."""
        va = self.variations_at(lo) if lo is not None else self.variations_at_neg_inf()
        vb = self.variations_at(hi) if hi is not None else self.variations_at_pos_inf()
        return va - vb


def _sign_variations(values) -> int:
    signs = [1 if v > 0 else -1 for v in values if v != 0]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def count_real_roots(f: Poly, lo=None, hi=None) -> int:
    """Number of distinct real roots of f in (lo, hi] by Sturm's theorem.

    ``lo=None`` / ``hi=None`` stand for -inf / +inf.
    """
    if f.is_zero:
        raise ZeroPolynomialError("root counting requires a nonzero polynomial")
    if lo is not None and hi is not None and Fraction(lo) > Fraction(hi):
        raise EmptyIntervalError(f"empty interval ({lo}, {hi}]")
    p = squarefree_part(f)
    if p.degree == 0:
        return 0
    chain = SturmChain.of_squarefree(p)
    return chain.count_in(
        None if lo is None else Fraction(lo),
        None if hi is None else Fraction(hi),
    )


def is_real_rooted(f: Poly) -> bool:
    """True iff all complex zeros of f are real; constants and 0 count as real-rooted."""
    if f.is_zero or f.degree == 0:
        return True
    p = squarefree_part(f)
    return SturmChain.of_squarefree(p).count_in(None, None) == p.degree


# -- root isolation -----------------------------------------------------------


def _root_bound(p: Poly) -> int:
    """Integer B with every real root of p strictly inside (-B, B) (Cauchy bound)."""
    an = abs(p.leading_coefficient)
    rest = [abs(c) for c in p.coeffs[:-1]]
    m = max(rest) if rest else 0
    return 1 + (-(-m // an))


def _bounded_divisors(n: int, limit: int = 4096) -> list[int] | None:
    """Positive divisors of |n|, or None when there would be too many to try.

    Trial division is capped; a leftover cofactor is treated as prime.  The
    list may then miss some divisors, which only makes rational-root snapping
    incomplete (isolating intervals stay correct).
    """
    n = abs(n)
    factors: dict[int, int] = {}
    d = 2
    while d * d <= n and d < 1_000_000:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    divisors = [1]
    for prime, mult in factors.items():
        divisors = [d * prime**k for d in divisors for k in range(mult + 1)]
        if len(divisors) > limit:
            return None
    return sorted(divisors)


def _rational_root_candidates(q: Poly) -> list[Fraction]:
    """Candidate rational roots num/den with num | q(0) and den | lead(q)."""
    if q.is_zero or q.degree < 1 or q.coeffs[0] == 0:
        return []
    nums = _bounded_divisors(q.coeffs[0])
    dens = _bounded_divisors(q.leading_coefficient)
    if nums is None or dens is None:
        return []
    seen = set()
    out = []
    for den in dens:
        for num in nums:
            for cand in (Fraction(num, den), Fraction(-num, den)):
                if cand not in seen:
                    seen.add(cand)
                    out.append(cand)
    return out


def _linear_from_root(a: Fraction) -> Poly:
    return Poly((-a.numerator, a.denominator))


def _isolate_squarefree(q: Poly) -> tuple[list[Fraction], list[tuple[Fraction, Fraction]]]:
    """Exact rational roots and open isolating intervals for the rest of q's roots.

    Interval endpoints are never roots of q.
    """
    points: list[Fraction] = []
    if q.coeffs and q.coeffs[0] == 0:
        points.append(Fraction(0))
        q = Poly(q.coeffs[1:])
    for cand in _rational_root_candidates(q):
        if q.degree < 1:
            break
        if q.sign_at(cand) == 0:
            points.append(cand)
            q = exact_div(q, _linear_from_root(cand))
    intervals: list[tuple[Fraction, Fraction]] = []
    while q.degree >= 1:
        chain = SturmChain.of_squarefree(q)
        bound = Fraction(_root_bound(q))
        stack = [(-bound, bound)]
        restart = False
        found: list[tuple[Fraction, Fraction]] = []
        while stack:
            lo, hi = stack.pop()
            k = chain.count_in(lo, hi)
            if k == 0:
                continue
            if k == 1:
                found.append((lo, hi))
                continue
            mid = (lo + hi) / 2
            if q.sign_at(mid) == 0:
                # exact root not caught by the candidate scan; deflate and redo
                points.append(mid)
                q = exact_div(q, _linear_from_root(mid))
                restart = True
                break
            stack.append((lo, mid))
            stack.append((mid, hi))
        if not restart:
            intervals = found
            break
    # shrink intervals until no extracted exact root touches them
    # (terminates: the root of q inside is not one of the points, which were
    # divided out of the squarefree q)
    cleaned = []
    for lo, hi in intervals:
        while any(lo <= a <= hi for a in points):
            lo, hi = _bisect_once(q, lo, hi)
        if lo == hi:
            points.append(lo)
        else:
            cleaned.append((lo, hi))
    return points, cleaned


def _squarefree_levels(f: Poly) -> tuple[Poly, list[tuple[Poly, SturmChain]]]:
    """The squarefree part of a nonzero f, and the multiplicity levels of f
    with their Sturm chains: levels[k] holds the distinct roots of f of
    multiplicity at least k + 2.

    Both come from one repeated-gcd chain g[0] = f, g[i+1] = gcd(g[i], g[i]'),
    which ends at a constant: the distinct roots of g[i] are the roots of f of
    multiplicity above i, so g[i] / g[i+1] is their squarefree part.
    """
    gs = [f]
    while gs[-1].degree >= 1:
        gs.append(poly_gcd(gs[-1], poly_derivative(gs[-1])))
    if len(gs) == 1:
        return Poly((1,)), []
    p, *rest = [exact_div(g, h).primitive_positive() for g, h in zip(gs, gs[1:])]
    return p, [(s, SturmChain.of_squarefree(s)) for s in rest]


def _multiplicity(levels: list[tuple[Poly, SturmChain]], lo: Fraction, hi: Fraction) -> int:
    """Multiplicity of the root of f isolated by [lo, hi], given f's levels."""
    mult = 1
    for level, chain in levels:
        has_root = level.sign_at(lo) == 0 if lo == hi else chain.count_in(lo, hi) == 1
        if not has_root:
            break
        mult += 1
    return mult


def isolate_roots(f: Poly) -> RootCertificate:
    """Disjoint rational isolating intervals for every distinct real root of f,
    with multiplicities recovered from the repeated-gcd chain."""
    if f.is_zero:
        raise ZeroPolynomialError("cannot isolate roots of 0")
    p, levels = _squarefree_levels(f)
    if p.degree < 1:
        return RootCertificate()
    points, intervals = _isolate_squarefree(p)
    records: list[tuple[Fraction, Fraction]] = [(a, a) for a in points] + intervals
    records.sort(key=lambda iv: iv[0])
    return RootCertificate(tuple(RootInterval(lo, hi, _multiplicity(levels, lo, hi))
                                 for lo, hi in records))


def _bisect_once(p: Poly, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    """One sign-change bisection step on an interval holding one simple root of p."""
    mid = (lo + hi) / 2
    s = p.sign_at(mid)
    if s == 0:
        return mid, mid
    if p.sign_at(lo) != s:
        return lo, mid
    return mid, hi


def refine_certificate(f: Poly, cert: RootCertificate, width) -> RootCertificate:
    """Shrink every non-degenerate interval of cert below the given width."""
    width = Fraction(width)
    if width <= 0:
        raise BadParametersError("width must be positive")
    if f.is_zero:
        raise CertificateMismatchError("the zero polynomial has no certificate")
    p, levels = _squarefree_levels(f)
    _validate_certificate(f, p, levels, cert)
    out = []
    for iv in cert.intervals:
        lo, hi = iv.lo, iv.hi
        while hi - lo >= width:
            lo, hi = _bisect_once(p, lo, hi)
        out.append(RootInterval(lo, hi, iv.multiplicity))
    return RootCertificate(tuple(out))


def _validate_certificate(f: Poly, p: Poly, levels: list[tuple[Poly, SturmChain]],
                          cert: RootCertificate) -> None:
    chain = SturmChain.of_squarefree(p) if p.degree >= 1 else None
    distinct = chain.count_in(None, None) if chain else 0
    if len(cert.intervals) != distinct:
        raise CertificateMismatchError(
            f"certificate lists {len(cert.intervals)} roots, polynomial has {distinct}"
        )
    for iv in cert.intervals:
        if iv.is_point:
            if f.sign_at(iv.lo) != 0:
                raise CertificateMismatchError(f"{iv.lo} is not a root")
        else:
            if p.sign_at(iv.lo) == 0 or p.sign_at(iv.hi) == 0:
                raise CertificateMismatchError("interval endpoint is a root")
            if chain.count_in(iv.lo, iv.hi) != 1:
                raise CertificateMismatchError(
                    f"interval ({iv.lo}, {iv.hi}) does not isolate one root"
                )
        mult = _multiplicity(levels, iv.lo, iv.hi)
        if mult != iv.multiplicity:
            raise CertificateMismatchError(
                f"multiplicity mismatch on ({iv.lo}, {iv.hi}): {iv.multiplicity} != {mult}"
            )


# -- interleaving --------------------------------------------------------------


def _strictly_interlace(f: Poly, g: Poly) -> bool:
    """f << g for coprime f and g with positive leading coefficients and
    deg f in {deg g - 1, deg g}: all roots real and simple, strictly alternating
    downward from the largest root, which belongs to g.

    With deg g = deg f + 1 this holds iff the negated remainder sequence of
    (g, f) drops the degree by exactly one at each step and keeps positive
    leading coefficients (Hermite-Kakeya-Obreschkoff; a Sturm count of the
    Cauchy index of f/g).  Equal degrees reduce to that case: for them
    f << g iff -(lead(f) g - lead(g) f) << f.
    """
    if f.degree == g.degree:
        if f.degree == 0:
            return True
        f, g = -(f.leading_coefficient * g - g.leading_coefficient * f), f
    a, b = g, f
    while b.leading_coefficient > 0 and b.degree == a.degree - 1:
        if b.degree == 0:
            return True
        a, b = b, -pseudo_divmod(a, b)[2].primitive()
    return False


@functools.lru_cache(maxsize=8192)
def interleaves(f: Poly, g: Poly) -> bool:
    """The weak root-alternation order: largest root belongs to g, the lists
    alternate downward with multiplicity, and degrees differ by at most one.

    By convention every real-rooted polynomial (and 0 itself) interleaves 0 in
    both directions.  Nonzero inputs must have positive leading coefficients.

    Decided without locating a root: with d = gcd(f, g), the multiplicity
    lists alternate weakly iff d is real-rooted and f/d, g/d (which share no
    root) alternate strictly, which one remainder sequence decides.
    """
    for p in (f, g):
        if not p.is_zero and p.leading_coefficient < 0:
            raise NegativeLeadingCoefficientError(f"{p} has a negative leading coefficient")
    if f.is_zero or g.is_zero:
        other = g if f.is_zero else f
        return other.is_zero or is_real_rooted(other)
    if f.degree not in (g.degree - 1, g.degree):
        return False
    d = poly_gcd(f, g)
    return is_real_rooted(d) and _strictly_interlace(exact_div(f, d), exact_div(g, d))


def is_interlacing_seq(fs) -> bool:
    """True iff fs[i] interleaves fs[j] for every i < j (vacuously true for len <= 1)."""
    fs = list(fs)
    for i in range(len(fs)):
        for j in range(i + 1, len(fs)):
            if not interleaves(fs[i], fs[j]):
                return False
    return True


def in_fplus(fs) -> bool:
    """Interlacing sequence with all coefficients nonnegative."""
    fs = list(fs)
    if any(c < 0 for p in fs for c in p.coeffs):
        return False
    return is_interlacing_seq(fs)
