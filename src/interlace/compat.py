"""Sampled compatibility testing for families of real-rooted polynomials.

Two polynomials are compatible when every positive linear combination of them
is real-rooted.  That universal statement cannot be decided by sampling, so
the verdicts here are asymmetric: PASS_SAMPLED is evidence at the one fixed
weight grid {1/8, 1/3, 1/2, 1, 2, 3, 8, 64}, while FAIL comes with an exact
witness combination that provably is not real-rooted.

Weights are positive rationals; before each real-rootedness test the
combination is scaled by the common denominator, which leaves its roots
untouched and keeps all arithmetic over the integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .errors import BadParametersError, NotRealRootedError
from .polys import ZERO, Poly, X, _listed, _on_grid, _rational, _rational_text
from .realroots import is_real_rooted

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
            raise ValueError(f"bad status {self.status!r}")
        if (self.status == FAIL) != (self.witness is not None):
            raise ValueError("FAIL verdicts carry a witness, PASS verdicts do not")

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
    out = ZERO
    for c, p in zip(_on_grid(*ws)[0], polys):
        out = out + c * p
    return out


def _sampled(labelled, tests, unchecked: bool) -> CompatVerdict:
    """The one sampled loop: each (label, p) of labelled must be admissible
    (nonnegative coefficients, real-rooted) unless unchecked, and then each
    (f, g, condition, pair) of tests has c1*f + c2*g tested at the weight
    pairs of _PAIRS in order; the first combination that is not real-rooted
    is the FAIL witness.

    A test with f == g stops after its first pair: every c1*f + c2*f is a
    positive multiple of f, so that pair decides all of them.
    """
    if not unchecked:
        for label, p in labelled:
            if any(c < 0 for c in p.coeffs):
                raise NotRealRootedError(label, "negative coefficient")
            if not is_real_rooted(p):
                raise NotRealRootedError(label, "not real-rooted")
    for f, g, condition, pair in tests:
        for weights, (a, b) in zip(_PAIRS, _CLEARED_PAIRS):
            combo = a * f + b * g
            if not is_real_rooted(combo):
                return CompatVerdict(FAIL, CompatWitness(weights, combo, condition, pair))
            if f == g:
                break
    return CompatVerdict(PASS_SAMPLED)


def compatible_pair_sampled(f: Poly, g: Poly, unchecked: bool = False) -> CompatVerdict:
    """Test real-rootedness of c1*f + c2*g over the weight grid, one pair per
    distinct ratio c1/c2 (33 of the 64 pairs).

    ``unchecked`` skips the admissibility precondition so that counterexample
    explorations may feed inputs with negative coefficients.
    """
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
