"""Sampled compatibility testing for families of real-rooted polynomials.

Two polynomials are compatible when every positive linear combination of them
is real-rooted.  That universal statement cannot be decided by sampling, so
the verdicts here are asymmetric: PASS_SAMPLED is evidence at the one fixed
weight grid {1/8, 1/3, 1/2, 1, 2, 3, 8, 64}, while FAIL comes with an exact
witness combination that provably is not real-rooted.  A pair whose roots
interlace, up to a common sign, is proven compatible for every positive
weight by one exact ``interleaves`` call and takes no sample (see
``_sampled``); a real-rooted polynomial paired with itself or with 0 is
such a pair.  Its verdict keeps the status PASS_SAMPLED, as every pass of
these tests does.

Weights are positive rationals; before each real-rootedness test the
combination is scaled by the common denominator, which leaves its roots
untouched and keeps all arithmetic over the integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import mul

from .errors import BadParametersError, NotRealRootedError
from .polys import ZERO, Poly, X, _listed, _on_grid, _rational, _rational_text, _typed
from .realroots import interleaves, is_real_rooted

PASS_SAMPLED = "PASS_SAMPLED"
FAIL = "FAIL"

_WEIGHTS = (
    Fraction(1, 8),
    Fraction(1, 3),
    Fraction(1, 2),
    Fraction(1),
    Fraction(2),
    Fraction(3),
    Fraction(8),
    Fraction(64),
)


def _first_pair_of_each_ratio(weights) -> tuple[tuple[Fraction, Fraction], ...]:
    # c1*f + c2*g is real-rooted or not with (c1/c2)*f + g, so each ratio is
    # tested once, at its first pair in loop order: a failing pair is never skipped
    pairs, ratios = [], set()
    for c1 in weights:
        for c2 in weights:
            if c1 / c2 not in ratios:
                ratios.add(c1 / c2)
                pairs.append((c1, c2))
    return tuple(pairs)


# the 33 weight pairs that compatible_pair_sampled tests
_PAIRS = _first_pair_of_each_ratio(_WEIGHTS)


# each pair of _PAIRS times the least common denominator of its two weights:
# the integer weights that conic_combination uses for it
_CLEARED_PAIRS = tuple(_on_grid(c1, c2)[0] for c1, c2 in _PAIRS)


@dataclass(frozen=True)
class CompatWitness:
    """Weights and the (denominator-cleared) combination that fails the root test."""

    weights: tuple[Fraction, ...]
    combination: Poly
    condition: str | None = None
    pair: tuple[int, int] | None = None

    def to_json_obj(self) -> dict:
        obj = {
            "weights": [_rational_text(w) for w in self.weights],
            "combination": self.combination.to_string(),
        }
        if self.condition is not None:
            obj["condition"] = self.condition
        if self.pair is not None:
            obj["pair"] = list(self.pair)
        return obj


@dataclass(frozen=True)
class CompatVerdict:
    status: str
    witness: CompatWitness | None = None

    def __post_init__(self):
        if self.status not in (PASS_SAMPLED, FAIL):
            raise BadParametersError(f"bad status {self.status!r}")
        if (self.status == FAIL) != (self.witness is not None):
            raise BadParametersError("FAIL verdicts carry a witness, PASS verdicts do not")

    @property
    def is_pass(self) -> bool:
        return self.status == PASS_SAMPLED


def conic_combination(weights, polys) -> Poly:
    """Integer polynomial proportional to sum(w_i * p_i) by a positive factor.

    Weights are read as by ``_rational``: a malformed weight (NaN, an
    infinity, None, "1/0", "abc"), weights or polys that are not iterable or
    are a string, and a member of polys that is not a Poly raise
    BadParametersError."""
    ws = [_rational(w, "weight") for w in _listed(weights, "weights")]
    polys = _listed(polys, "polys", Poly)
    if len(ws) != len(polys):
        raise BadParametersError("one weight per polynomial required")
    cs = _on_grid(*ws)[0]
    return Poly(tuple([sum(map(mul, cs, col)) for col in zip(*_padded(polys))]))


def _padded(polys) -> list[tuple[int, ...]]:
    """The coefficient tuples of polys, padded with zeros to one length, so
    that a combination of them is one pass over their columns."""
    n = max((len(p.coeffs) for p in polys), default=0)
    return [p.coeffs + (0,) * (n - len(p.coeffs)) for p in polys]


def _sampled(labelled, tests, unchecked: bool) -> CompatVerdict:
    """The one sampled loop: each (label, p) of labelled must be admissible
    (nonnegative coefficients, real-rooted) unless unchecked, and then each
    (f, g, condition, pair) of tests has c1*f + c2*g tested at the weight
    pairs of _PAIRS in order; the first combination that is not real-rooted
    is the FAIL witness.

    A test whose members interlace (``_interlace``) passes with no sample:
    every c1*f + c2*g with c1, c2 > 0 is then real-rooted, the easy
    direction of the Hermite-Kakeya-Obreschkoff theorem (Dedieu, JPAA 81
    (1992); Chudnovsky and Seymour, JCTB 97 (2007), Sec. 3).  Proof: say
    f << g, with positive leading coefficients where nonzero.  As
    ``interleaves`` documents, with d = gcd(f, g) taken with a positive
    leading coefficient, d is real-rooted and F = f/d, G = g/d share no root
    and alternate strictly, with the largest root in G and
    deg G - 1 <= deg F <= deg G; shared roots and multiplicities all sit in
    d.  The pairs that ``interleaves`` decides by its convention fit too: an
    equal pair is F = G = 1 with d = f, and a zero member f is F = 0, G = 1
    with d = g, and d is real-rooted exactly when ``interleaves`` holds (two
    zero members give only 0, which counts as real-rooted).  Then
    c1*f + c2*g = d*(c1*F + c2*G), and it is enough that h = c1*F + c2*G
    is real-rooted.  Let k = deg G = deg h (the leading coefficients are
    positive, so nothing cancels) and b_1 > ... > b_k the roots of G.
    Exactly i - 1 roots of F lie above b_i, so F(b_i), and with it
    h(b_i) = c1*F(b_i), has the sign (-1)^(i-1).  That puts a root of h
    in each (b_(i+1), b_i), k - 1 of them, and one more below b_k, where h
    tends to the sign (-1)^k: k real roots, all of them.  This covers both
    degree cases, deg F = k - 1 and deg F = k, and the constants: k = 0 is
    a positive constant h, and a constant F beside a G of degree 1 is the
    case with no neighbouring roots.

    Every other test, a pair with a negative leading coefficient that no
    common sign removes included, is sampled from its first weight pair, to
    the same first witness as with no shortcut.
    """
    if not unchecked:
        for label, p in labelled:
            if any(c < 0 for c in p.coeffs):
                raise NotRealRootedError(label, "negative coefficient")
            if not is_real_rooted(p):
                raise NotRealRootedError(label, "not real-rooted")
    for f, g, condition, pair in tests:
        if _interlace(f, g):
            continue
        fc, gc = _padded((f, g))
        for weights, (a, b) in zip(_PAIRS, _CLEARED_PAIRS):
            combo = Poly(tuple([a * x + b * y for x, y in zip(fc, gc)]))
            if not is_real_rooted(combo):
                return CompatVerdict(FAIL, CompatWitness(weights, combo, condition, pair))
    return CompatVerdict(PASS_SAMPLED)


def _interlace(f: Poly, g: Poly) -> bool:
    """f << g or g << f, by one ``interleaves`` call, after both are negated
    when their leading coefficients sum below 0 (c1*f + c2*g and its negative
    have the same roots); False when a negative leading coefficient remains,
    so that NegativeLeadingCoefficientError never escapes under ``unchecked``.

    The lower degree is asked on the left, and at an equal degree n >= 1 the
    one whose roots sum to less, lead(g)*f[n-1] >= lead(f)*g[n-1]: only that
    order can hold.  Proof: f << g alternates the roots of g and f as
    b_1 >= a_1 >= ... >= b_n >= a_n, so sum(b) >= sum(a), equal only when f
    and g are positive multiples of one polynomial, where both orders ask
    whether it is real-rooted.  At degree 0 both orders hold."""
    if f.leading_coefficient + g.leading_coefficient < 0:
        f, g = -f, -g
    if f.leading_coefficient < 0 or g.leading_coefficient < 0:
        return False
    if f.degree > g.degree or (f.degree == g.degree >= 1 and g.leading_coefficient
                               * f.coeffs[-2] < f.leading_coefficient * g.coeffs[-2]):
        f, g = g, f
    return interleaves(f, g)


def compatible_pair_sampled(f: Poly, g: Poly, unchecked: bool = False) -> CompatVerdict:
    """Test real-rootedness of c1*f + c2*g over the weight grid, one pair per
    distinct ratio c1/c2 (33 of the 64 pairs).

    ``unchecked`` skips the admissibility precondition so that counterexample
    explorations may feed inputs with negative coefficients.
    """
    f, g = _typed(f, "f"), _typed(g, "g")
    return _sampled((("f", f), ("g", g)), ((f, g, None, None),), unchecked)


def compatible_family_sampled(fs, unchecked: bool = False) -> CompatVerdict:
    """Pairwise sampled compatibility, plus sampled full conic combinations.

    For positive leading coefficients, pairwise compatibility of the family is
    equivalent to full compatibility, so the pair tests (i <= j) carry the
    weight; the full combinations are a cheap cross-check at the same grid
    resolution.
    """
    fs = _listed(fs, "fs", Poly)
    n = len(fs)
    verdict = _sampled(((str(i), p) for i, p in enumerate(fs)),
                       ((fs[i], fs[j], None, (i, j)) for i in range(n) for j in range(i, n)),
                       unchecked)
    if verdict.is_pass and n > 2:
        weight_vectors = [(Fraction(1),) * n]
        weight_vectors += [tuple(c**k for k in range(n)) for c in _WEIGHTS]
        for ws in weight_vectors:
            combo = conic_combination(ws, fs)
            if not is_real_rooted(combo):
                return CompatVerdict(FAIL, CompatWitness(ws, combo))
    return verdict


def check_conditions_ab(fs, unchecked: bool = False) -> CompatVerdict:
    """Sampled check that (f_i, f_j) and (x*f_i, f_j) are compatible for i <= j."""
    fs = _listed(fs, "fs", Poly)
    n = len(fs)
    return _sampled(((str(i), p) for i, p in enumerate(fs)),
                    ((left, fs[j], condition, (i, j)) for i in range(n) for j in range(i, n)
                     for condition, left in (("a", fs[i]), ("b", X * fs[i]))),
                    unchecked)


def theorem_comp_transform(fs) -> list[Poly]:
    """Map (f_0, ..., f_{n-1}) to (g_0, ..., g_{n-1}) with
    g_k = x*(f_0 + ... + f_{k-1}) + (f_{k+1} + ... + f_{n-1}).

    This is exactly the action of the square matrix with 0 on the diagonal,
    1 above and x below.  The two sums come from one prefix pass and one
    suffix pass, the sums that ``edgewise._step`` takes, here on ``Poly`` so
    that negative coefficients are allowed.
    """
    fs = _listed(fs, "fs", Poly)
    if not fs:
        return []
    below = [ZERO, *accumulate(fs[:-1])]
    above = [ZERO, *accumulate(reversed(fs[1:]))][::-1]
    return [lo.shift_up() + hi for lo, hi in zip(below, above)]
