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

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import BadParametersError, NotRealRootedError
from .polys import Poly, X
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


def _cleared(c1: Fraction, c2: Fraction) -> tuple[int, int]:
    lcm = math.lcm(c1.denominator, c2.denominator)
    return (c1.numerator * (lcm // c1.denominator), c2.numerator * (lcm // c2.denominator))


# each pair of _PAIRS times the least common denominator of its two weights:
# the integer weights that conic_combination uses for it
_CLEARED_PAIRS = tuple(_cleared(c1, c2) for c1, c2 in _PAIRS)


@dataclass(frozen=True)
class CompatWitness:
    """Weights and the (denominator-cleared) combination that fails the root test."""

    weights: tuple[Fraction, ...]
    combination: Poly
    condition: str | None = None
    pair: tuple[int, int] | None = None

    def to_json_obj(self) -> dict:
        obj = {
            "weights": [f"{w.numerator}/{w.denominator}" for w in self.weights],
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
    """Integer polynomial proportional to sum(w_i * p_i) by a positive factor."""
    ws = [Fraction(w) for w in weights]
    if len(ws) != len(polys):
        raise BadParametersError("one weight per polynomial required")
    lcm = 1
    for w in ws:
        lcm = lcm * w.denominator // math.gcd(lcm, w.denominator)
    out = Poly(())
    for w, p in zip(ws, polys):
        out = out + int(w * lcm) * p
    return out


def _require_admissible(p: Poly, label: str) -> None:
    if any(c < 0 for c in p.coeffs):
        raise NotRealRootedError(label, "negative coefficient")
    if not is_real_rooted(p):
        raise NotRealRootedError(label, "not real-rooted")


def compatible_pair_sampled(f: Poly, g: Poly, unchecked: bool = False) -> CompatVerdict:
    """Test real-rootedness of c1*f + c2*g over the weight grid, one pair per
    distinct ratio c1/c2 (33 of the 64 pairs).

    ``unchecked`` skips the admissibility precondition so that counterexample
    explorations may feed inputs with negative coefficients.
    """
    if not unchecked:
        _require_admissible(f, "f")
        _require_admissible(g, "g")
    for weights, (a, b) in zip(_PAIRS, _CLEARED_PAIRS):
        combo = a * f + b * g
        if not is_real_rooted(combo):
            return CompatVerdict(FAIL, CompatWitness(weights, combo))
    return CompatVerdict(PASS_SAMPLED)


def compatible_family_sampled(fs, unchecked: bool = False) -> CompatVerdict:
    """Pairwise sampled compatibility, plus sampled full conic combinations.

    For positive leading coefficients, pairwise compatibility of the family is
    equivalent to full compatibility, so the pair tests carry the weight; the
    full combinations are a cheap cross-check at the same grid resolution.
    """
    fs = list(fs)
    if not unchecked:
        for idx, p in enumerate(fs):
            _require_admissible(p, str(idx))
    for i in range(len(fs)):
        for j in range(i, len(fs)):
            verdict = compatible_pair_sampled(fs[i], fs[j], unchecked=True)
            if not verdict.is_pass:
                w = verdict.witness
                return CompatVerdict(FAIL, CompatWitness(w.weights, w.combination, pair=(i, j)))
    if len(fs) > 2:
        weight_vectors = [(Fraction(1),) * len(fs)]
        weight_vectors += [tuple(c**k for k in range(len(fs))) for c in _WEIGHTS]
        for ws in weight_vectors:
            combo = conic_combination(ws, fs)
            if not is_real_rooted(combo):
                return CompatVerdict(FAIL, CompatWitness(ws, combo))
    return CompatVerdict(PASS_SAMPLED)


def check_conditions_ab(fs, unchecked: bool = False) -> CompatVerdict:
    """Sampled check that (f_i, f_j) and (x*f_i, f_j) are compatible for i <= j."""
    fs = list(fs)
    if not unchecked:
        for idx, p in enumerate(fs):
            _require_admissible(p, str(idx))
    for i in range(len(fs)):
        for j in range(i, len(fs)):
            for condition, left in (("a", fs[i]), ("b", X * fs[i])):
                verdict = compatible_pair_sampled(left, fs[j], unchecked=True)
                if not verdict.is_pass:
                    w = verdict.witness
                    return CompatVerdict(
                        FAIL,
                        CompatWitness(w.weights, w.combination, condition=condition, pair=(i, j)),
                    )
    return CompatVerdict(PASS_SAMPLED)


def theorem_comp_transform(fs) -> list[Poly]:
    """Map (f_1, ..., f_n) to (g_1, ..., g_n) with
    g_k = sum_{h<k} x*f_h + sum_{h>k} f_h.

    This is exactly the action of the square matrix with 0 on the diagonal,
    1 above and x below.
    """
    fs = list(fs)
    out = []
    for k in range(len(fs)):
        g = Poly(())
        for h in range(len(fs)):
            if h < k:
                g = g + (X * fs[h])
            elif h > k:
                g = g + fs[h]
        out.append(g)
    return out
