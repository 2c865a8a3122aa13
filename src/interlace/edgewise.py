"""Fast recurrences for the ascent-polynomial vectors and the f/h transform.

The vector (E^0, ..., E^{r-1}) of ascent polynomials of open words bucketed by
last letter satisfies a one-step recurrence

    E^i_n = sum_{h < i} x * E^h_{n-1} + sum_{h > i} E^h_{n-1},

which is the action of the r x r matrix with 0 on the diagonal, 1 above and
x below.  Component 0 of the n-step vector is the local h-polynomial of the
r-fold edgewise subdivision of the (n-1)-simplex.  The jump-restricted
generalization changes only which letters h may precede letter i: those with
|i - h| > gamma[i].  So it is the same step with reach gamma[i] at letter i,
started from the one-letter word 0; both families run one step function, by
prefix and suffix sums of components packed into integers (Kronecker
substitution: coefficient j in bits [jw, (j+1)w)), so adding two components
is one integer addition and multiplying by x one shift.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BadParametersError, MalformedVectorError
from .matrices import Entry, SymMatrix
from .polys import ONE, ZERO, Poly, _listed
from .words import GammaVector, _validate_gamma, _validate_nr


@dataclass(frozen=True)
class EVector:
    """Ascent polynomials of open words of length n+1, indexed by last letter.

    Components have nonnegative coefficients and their values at 1 sum to the
    word count, which is (r-1)^n for the unrestricted family and at most that
    for jump-restricted ones.
    """

    r: int
    n: int
    polys: tuple[Poly, ...]

    def __post_init__(self):
        _validate_nr(self.n, self.r)
        object.__setattr__(self, "polys", tuple(_listed(self.polys, "polys", Poly)))
        if len(self.polys) != self.r:
            raise BadParametersError("one component per letter required")
        if any(c < 0 for p in self.polys for c in p.coeffs):
            raise BadParametersError("components must have nonnegative coefficients")
        if sum(p(1) for p in self.polys) > (self.r - 1) ** self.n:
            raise BadParametersError("component mass exceeds the word count")


def e_base(r: int) -> EVector:
    """The n = 1 vector: component 0 is 0 and every other component is x."""
    return e_gamma(r, 1, None)


def _step(comps: list[int], reach: tuple[int, ...], w: int) -> list[int]:
    """E'_i = x * (E_0 + ... + E_{i-reach[i]-1}) + (E_{i+reach[i]+1} + ... + E_{r-1})
    on components packed at slot width w: below[k] sums the components before
    k and above[k] those after k, so a step is O(r) additions whatever the reach."""
    r = len(comps)
    below = [0] * r
    above = [0] * r
    for k in range(1, r):
        below[k] = below[k - 1] + comps[k - 1]
    for k in range(r - 2, -1, -1):
        above[k] = above[k + 1] + comps[k + 1]
    return [((below[i - g] << w) if i > g else 0) + (above[i + g] if i + g < r else 0)
            for i, g in enumerate(reach)]


def _run(polys: tuple[Poly, ...], reach: tuple[int, ...], n: int, steps: int) -> EVector:
    """The vector at n after ``steps`` steps from polys, packed at slot width
    w = ((r-1)^n).bit_length() + 1 and unpacked once.  No slot carries: every
    coefficient is nonnegative, so a slot of a sum is the sum of the slots.
    Slot j + 1 of a stepped component is slot j of a below plus slot j + 1 of
    an above, sums over disjoint components, so it and every slot of a partial
    sum is at most the mass of the vector stepped from.  That mass counts
    words, at most (r-1)^n < 2^w, and a hand-built EVector's validation caps
    it at (r-1)^(n-1)."""
    r = len(polys)
    w = ((r - 1) ** n).bit_length() + 1
    comps = [sum(c << (j * w) for j, c in enumerate(p.coeffs)) for p in polys]
    for _ in range(steps):
        comps = _step(comps, reach, w)
    mask = (1 << w) - 1
    return EVector(r, n, tuple(Poly(tuple(v >> j & mask for j in range(0, v.bit_length(), w)))
                               for v in comps))


def e_step(v: EVector) -> EVector:
    """One application of the recurrence: the step with zero reach."""
    return _run(v.polys, (0,) * v.r, v.n + 1, 1)


def e_vector(r: int, n: int) -> EVector:
    """The n-step vector of the plain family: the zero profile's."""
    return e_gamma(r, n, None)


def local_h(r: int, n: int) -> Poly:
    """Component 0 of the n-step vector: the closed-word ascent polynomial."""
    return e_vector(r, n).polys[0]


def gamma_matrix(r: int, gamma: GammaVector) -> SymMatrix:
    """The r x r recurrence matrix of a restriction profile:
    entry (i, j) is 0 when |i - j| <= gamma[i], 1 when j - i > gamma[i], and
    x when i - j > gamma[i]."""
    _validate_gamma(r, gamma)
    g = gamma.gamma
    rows = []
    for i in range(r):
        row = []
        for j in range(r):
            if abs(i - j) <= g[i]:
                row.append(Entry.ZERO)
            elif j - i > g[i]:
                row.append(Entry.ONE)
            else:
                row.append(Entry.X)
        rows.append(tuple(row))
    return SymMatrix(tuple(rows))


def e_gamma(r: int, n: int, gamma: GammaVector | None) -> EVector:
    """Jump-restricted vector: the step with reach gamma[i] at letter i, n times.

    gamma None is the zero profile of the plain family.  It starts from the
    one-letter word 0, the vector (1, 0, ..., 0), whose first step is the
    restricted base in closed form: x at each letter c with c > gamma[c], and
    0 elsewhere.  The vector is unpacked and validated once, at the end.
    """
    _validate_nr(n, r)
    if gamma is not None:
        _validate_gamma(r, gamma)
    reach = gamma.gamma if gamma is not None else (0,) * r
    return _run((ONE,) + (ZERO,) * (r - 1), reach, n, n)


# -- face-count / h-count transform -------------------------------------------


@dataclass(frozen=True)
class FVector:
    """Face counts (f_{-1}, f_0, ..., f_{d-1}) with f_{-1} = 1."""

    entries: tuple[int, ...]

    def __post_init__(self):
        if not self.entries:
            raise MalformedVectorError("face vector must be nonempty")
        if self.entries[0] != 1:
            raise MalformedVectorError("face vector must start with 1")

    @property
    def d(self) -> int:
        return len(self.entries) - 1


@dataclass(frozen=True)
class HVector:
    """The transformed counts (h_0, ..., h_d)."""

    entries: tuple[int, ...]

    def __post_init__(self):
        if not self.entries:
            raise MalformedVectorError("h-vector must be nonempty")

    @property
    def d(self) -> int:
        return len(self.entries) - 1


def _binomial_transform(entries: tuple[int, ...], shift: Poly) -> tuple[int, ...]:
    """Coefficients of sum_i entries[i] * shift^(d-i), read off descending."""
    d = len(entries) - 1
    acc = ZERO
    for c in entries:  # Horner's rule in shift
        acc = acc * shift + Poly((c,))
    return tuple(reversed(acc.coeffs + (0,) * (d + 1 - len(acc.coeffs))))


def fh_transform(f: FVector) -> HVector:
    """h_k = coefficient of x^(d-k) in sum_i f_{i-1} (x-1)^(d-i)."""
    return HVector(_binomial_transform(f.entries, Poly((-1, 1))))


def hf_transform(h: HVector) -> FVector:
    """Inverse transform, by substituting x + 1; requires h_0 = 1, which is f_{-1}."""
    if h.entries[0] != 1:
        raise MalformedVectorError("h-vector must start with 1")
    return FVector(_binomial_transform(h.entries, Poly((1, 1))))
