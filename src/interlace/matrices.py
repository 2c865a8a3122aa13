"""Symbolic {0, 1, x} matrices acting on sequences of polynomials.

A matrix acts on a sequence (f_1, ..., f_n) by g_k = sum_i G[k][i] * f_i with
the symbols substituted as 0, 1 and x.  The module decides, in two independent
ways, which 2x2 matrices map interlacing sequences with nonnegative
coefficients to interlacing sequences with nonnegative coefficients:

* a sampled test of the root-alternation inequality
  (lam*x + mu) * G[0][1] + G[1][1]  <<  (lam*x + mu) * G[0][0] + G[1][0]
  over a fixed grid of positive (lam, mu), exact at every sample;
* a closed-form rule engine of five rejection patterns with two explicit
  exceptions.

The two classifiers are cross-validated on all 81 cases, larger matrices are
screened through their 2x2 submatrices, and a seven-element generating set is
closed under multiplication inside the {0, 1, x} entry alphabet.
"""

from __future__ import annotations

import enum
import itertools
import json
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DimensionMismatchError,
    NegativeEntryError,
    PolyFormatError,
    PreconditionViolatedError,
)
from .polys import ZERO, Poly, _listed, _on_grid, _rational
from .realroots import _fplus_fault, in_fplus, interleaves


class Entry(enum.Enum):
    ZERO = "0"
    ONE = "1"
    X = "x"

    def __init__(self, symbol: str):
        # index into the module's entry tables, so that no hot path hashes a member
        self._code = "01x".index(symbol)

    @staticmethod
    def from_string(s: str) -> "Entry":
        try:
            return Entry(s)
        except ValueError:
            raise PolyFormatError(f"matrix entries must be '0', '1' or 'x', got {s!r}")


@dataclass(frozen=True)
class SymMatrix:
    """Rectangular grid of {0, 1, x} symbols."""

    entries: tuple[tuple[Entry, ...], ...]

    def __post_init__(self):
        if not self.entries or not self.entries[0]:
            raise DimensionMismatchError("matrix must have at least one row and column")
        width = len(self.entries[0])
        if any(len(row) != width for row in self.entries):
            raise DimensionMismatchError("ragged rows")

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    @staticmethod
    def from_strings(rows) -> "SymMatrix":
        return SymMatrix(tuple(tuple(Entry.from_string(s) for s in row) for row in rows))

    def to_strings(self) -> list[list[str]]:
        return [[e.value for e in row] for row in self.entries]

    @staticmethod
    def from_json(text: str) -> "SymMatrix":
        try:
            grid = json.loads(text)
        except json.JSONDecodeError as exc:
            raise PolyFormatError(f"invalid matrix JSON: {exc}") from exc
        if not isinstance(grid, list) or any(not isinstance(row, list) for row in grid):
            raise PolyFormatError("matrix JSON must be an array of arrays")
        return SymMatrix.from_strings(grid)

    def to_json(self) -> str:
        return json.dumps(self.to_strings())

    def submatrix(self, k: int, l: int, i: int, j: int) -> "SymMatrix":
        e = self.entries
        return SymMatrix(((e[k][i], e[k][j]), (e[l][i], e[l][j])))

    def __str__(self) -> str:
        return ";".join("".join(e.value for e in row) for row in self.entries)


def apply(G: SymMatrix, fs) -> list[Poly]:
    """g_k = sum_i G[k][i] * f_i with 0/1/x substituted for the symbols."""
    fs = _listed(fs, "fs", Poly)
    if G.cols != len(fs):
        raise DimensionMismatchError(f"{G.cols} columns cannot act on {len(fs)} polynomials")
    out = []
    for row in G.entries:
        g = ZERO
        for entry, f in zip(row, fs):
            if entry is Entry.ONE:
                g = g + f
            elif entry is Entry.X:
                g = g + f.shift_up()
        out.append(g)
    return out


# (lam, mu) sample pairs: a 5x5 grid of moderate ratios plus two extreme pairs
# standing in for the lam -> inf and lam, mu -> 0 regimes.
_BASE_WEIGHTS = (Fraction(1, 8), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(8))
LAMBDA_MU_PAIRS = tuple(itertools.product(_BASE_WEIGHTS, repeat=2)) + (
    (Fraction(64), Fraction(1, 64)),
    (Fraction(1, 64), Fraction(1, 64)),
)


def _require_2x2(M: SymMatrix) -> None:
    if M.rows != 2 or M.cols != 2:
        raise DimensionMismatchError("a 2x2 matrix is required")


def _codes(M: SymMatrix) -> tuple[int, int, int, int]:
    """The entry codes of a 2x2 matrix, row by row."""
    (a, b), (c, d) = M.entries
    return a._code, b._code, c._code, d._code


# (mu*s, lam*s, s) for each sample pair, with s the least common denominator of
# lam and mu: the integer coefficients of s*(lam*x + mu) and of s
_SCALED_PAIRS = tuple((*nums, s) for nums, s in
                      (_on_grid(mu, lam) for lam, mu in LAMBDA_MU_PAIRS))


def _side(code: int, m: int, l: int, s: int) -> Poly:
    """(l*x + m) * lin + s * one for the column (lin, one) of entry codes
    (0, 1, 2 for 0, 1, x) at index code = 3*lin + one."""
    lin, one = divmod(code, 3)
    c = [0, 0, 0]
    if lin:
        c[lin - 1] = m
        c[lin] = l
    if one:
        c[one - 1] += s
    return Poly(tuple(c))


# _SIDES[3*lin + one][k]: the denominator-cleared side of the alternation
# inequality for the column (lin, one) at the k-th sample pair
_SIDES = tuple(tuple(_side(code, *scaled) for scaled in _SCALED_PAIRS) for code in range(9))


def find_failing_sample(M: SymMatrix) -> tuple[Fraction, Fraction] | None:
    """First (lam, mu) in grid order at which the alternation inequality fails.

    Sides already tested at an earlier (lam, mu) held there and are skipped."""
    _require_2x2(M)
    e00, e01, e10, e11 = _codes(M)
    lefts, rights = _SIDES[3 * e01 + e11], _SIDES[3 * e00 + e10]
    tested = set()
    for pair, f, g in zip(LAMBDA_MU_PAIRS, lefts, rights):
        sides = f.coeffs, g.coeffs
        if sides in tested:
            continue
        if not interleaves(f, g):
            return pair
        tested.add(sides)
    return None


def check_2x2_sampled(M: SymMatrix) -> bool:
    """True iff the alternation inequality holds at every sampled (lam, mu)."""
    return find_failing_sample(M) is None


@dataclass(frozen=True)
class PatternVerdict:
    allowed: bool
    rule: str | None = None

    def __post_init__(self):
        if self.allowed != (self.rule is None):
            raise ValueError("rejected matrices carry the rejecting rule")


_EXCEPTIONS = (
    ((Entry.ONE, Entry.ONE), (Entry.X, Entry.X)),
    ((Entry.X, Entry.ONE), (Entry.X, Entry.ONE)),
)


def forbidden_pattern(M: SymMatrix) -> PatternVerdict:
    """Apply the five rejection rules in order; the first match names the rule.

    I)   a column equal to (x over 1);
    II)  a row equal to (1 x);
    III) diagonal (1, x) or (x, 1), or anti-diagonal top-right x over
         bottom-left 1 -- except [[1,1],[x,x]] and [[x,1],[x,1]];
    IV)  a zero-one matrix with negative determinant;
    V)   x times a zero-one matrix with negative determinant.
    IV and V are one rule on the matrices with one symbol besides 0, which
    names the rule."""
    _require_2x2(M)
    e = M.entries
    for c in (0, 1):
        if e[0][c] is Entry.X and e[1][c] is Entry.ONE:
            return PatternVerdict(False, "I")
    for r in (0, 1):
        if e[r][0] is Entry.ONE and e[r][1] is Entry.X:
            return PatternVerdict(False, "II")
    diag_1x = e[0][0] is Entry.ONE and e[1][1] is Entry.X
    diag_x1 = e[0][0] is Entry.X and e[1][1] is Entry.ONE
    anti = e[0][1] is Entry.X and e[1][0] is Entry.ONE
    if (diag_1x or diag_x1 or anti) and e not in _EXCEPTIONS:
        return PatternVerdict(False, "III")
    codes = _codes(M)
    symbols = set(codes) - {0}
    if len(symbols) == 1:
        a, b, c, d = (code > 0 for code in codes)
        if a * d < b * c:
            return PatternVerdict(False, "IV" if 1 in symbols else "V")
    return PatternVerdict(True)


def all_2x2_matrices() -> list[SymMatrix]:
    """The 81 matrices over {0, 1, x}, in a fixed deterministic order."""
    out = []
    for a, b, c, d in itertools.product(Entry, repeat=4):
        out.append(SymMatrix(((a, b), (c, d))))
    return out


@dataclass(frozen=True)
class Classification:
    """Partition of the 81 matrices plus any classifier disagreements."""

    allowed: tuple[SymMatrix, ...]
    forbidden: tuple[SymMatrix, ...]
    disagreements: tuple[tuple[SymMatrix, bool, bool], ...]


def classify_all_2x2() -> Classification:
    """Classify all 81 matrices by both the rule engine and the sampled test.

    The partition follows the rule engine; every case where the sampled test
    disagrees is recorded as (matrix, rule_allowed, sampled_allowed).
    """
    allowed, forbidden, disagreements = [], [], []
    for M in all_2x2_matrices():
        by_rules = forbidden_pattern(M).allowed
        by_samples = check_2x2_sampled(M)
        (allowed if by_rules else forbidden).append(M)
        if by_rules != by_samples:
            disagreements.append((M, by_rules, by_samples))
    return Classification(tuple(allowed), tuple(forbidden), tuple(disagreements))


SEVEN_GENERATORS = tuple(
    SymMatrix.from_strings(g)
    for g in (
        [["1", "0"], ["0", "1"]],
        [["1", "0"], ["x", "1"]],
        [["1", "1"], ["0", "1"]],
        [["1", "1"], ["x", "1"]],
        [["1", "0"], ["1", "1"]],
        [["0", "0"], ["1", "0"]],
        [["0", "1"], ["x", "0"]],
    )
)


def _row_times_col(a0: int, a1: int, b0: int, b1: int) -> int | None:
    # each nonzero term a*b is x^e with coefficient 1, so no sum cancels: it
    # stays in the alphabet iff at most one term is nonzero, with e <= 1
    exponents = [(a - 1) + (b - 1) for a, b in ((a0, b0), (a1, b1)) if a and b]
    if not exponents:
        return 0
    if len(exponents) == 1 and exponents[0] <= 1:
        return exponents[0] + 1
    return None


# the code of a0*b0 + a1*b1 at index 27*a0 + 9*a1 + 3*b0 + b1 of entry codes,
# None off the alphabet
_ROW_TIMES_COL = tuple(
    _row_times_col(*codes) for codes in itertools.product(range(3), repeat=4)
)

# the member of each entry code
_ENTRIES = tuple(Entry)


def _from_codes(codes: tuple[int, int, int, int]) -> SymMatrix:
    """The 2x2 matrix of four entry codes, row by row."""
    a, b, c, d = (_ENTRIES[k] for k in codes)
    return SymMatrix(((a, b), (c, d)))


def _code_product(A: tuple[int, ...], B: tuple[int, ...]) -> tuple[int, ...] | None:
    """2x2 product on entry codes, row by row, kept only if every entry is
    0, 1 or x."""
    a00, a01, a10, a11 = A
    b00, b01, b10, b11 = B
    row0, row1 = 27 * a00 + 9 * a01, 27 * a10 + 9 * a11
    col0, col1 = 3 * b00 + b10, 3 * b01 + b11
    t = _ROW_TIMES_COL
    p = (t[row0 + col0], t[row0 + col1], t[row1 + col0], t[row1 + col1])
    return None if None in p else p


def generator_closure() -> frozenset[SymMatrix]:
    """Close the seven generators under products whose entries stay in {0, 1, x}.

    Products with entries outside the alphabet are discarded and never used as
    multiplicands; the generators themselves are members.  Each ordered pair
    of members is multiplied exactly once: a member is multiplied with itself
    and with every earlier member, both ways round, when its turn comes.  The
    walk runs on entry codes, and the members become matrices at the end.
    """
    members = [_codes(G) for G in SEVEN_GENERATORS]
    known = set(members)

    def keep(p: tuple[int, ...] | None) -> None:
        if p is not None and p not in known:
            known.add(p)
            members.append(p)

    for k, a in enumerate(members):  # also walks the members appended on the way
        for b in members[:k]:
            keep(_code_product(a, b))
            keep(_code_product(b, a))
        keep(_code_product(a, a))
    return frozenset(map(_from_codes, members))


def _minors(m: int, n: int):
    """The 2x2 submatrices of an m x n grid as (k, l, i, j), rows k < l and
    columns i < j, in row order: the one walk of the submatrix tests."""
    for k, l in itertools.combinations(range(m), 2):
        for i, j in itertools.combinations(range(n), 2):
            yield k, l, i, j


def preserves_check(G: SymMatrix) -> bool:
    """True iff every 2x2 submatrix is classified allowed by the rule engine."""
    return all(forbidden_pattern(G.submatrix(*ix)).allowed for ix in _minors(G.rows, G.cols))


def ferrers_check(G: SymMatrix) -> bool:
    """One-entries up-right closed and x-entries down-left closed, by neighbours.

    A 1 needs a 1 directly above it and directly to its right, and an x needs
    an x directly below it and directly to its left; a cell on the border is
    exempt in that direction.  That is the closure: by induction along the
    path up and then right, a 1 at (i, j) forces a 1 at every (k, l) with
    k <= i and l >= j, and likewise an x along the path down and then left.
    """
    e = G.entries
    # (a, b) with b directly above or directly to the right of a
    pairs = itertools.chain(
        (pair for lower, upper in zip(e[1:], e) for pair in zip(lower, upper)),
        (pair for row in e for pair in zip(row, row[1:])))
    return all((a is not Entry.ONE or b is Entry.ONE) and (b is not Entry.X or a is Entry.X)
               for a, b in pairs)


def minors_nonneg(G) -> bool:
    """All 2x2 minors of a nonnegative numeric matrix are nonnegative.

    Entries are read as by ``_rational``: a malformed entry (NaN, an infinity,
    None, "1/0", "abc"), or a matrix or row that is not iterable, raises
    BadParametersError."""
    rows = [[_rational(v, "matrix entry") for v in _listed(row, "a matrix row")]
            for row in _listed(G, "a numeric matrix")]
    if any(v < 0 for row in rows for v in row):
        raise NegativeEntryError("matrix entries must be nonnegative")
    m, n = len(rows), len(rows[0]) if rows else 0
    if any(len(row) != n for row in rows):
        raise DimensionMismatchError("ragged rows")
    return all(rows[k][i] * rows[l][j] >= rows[k][j] * rows[l][i] for k, l, i, j in _minors(m, n))


@dataclass(frozen=True)
class ActionFailure:
    kind: str  # "negative_coefficient" | "not_interleaving"
    indices: tuple[int, ...]


@dataclass(frozen=True)
class ActionReport:
    passed: bool
    outputs: tuple[Poly, ...]
    failure: ActionFailure | None = None


def action_property_test(G: SymMatrix, fs) -> ActionReport:
    """Apply G to an admissible sequence and verify the output is admissible.

    The input must be an interlacing sequence with nonnegative coefficients;
    on failure the report pinpoints the offending output index or pair, the
    first fault of ``realroots._fplus_fault``.
    """
    fs = _listed(fs, "fs", Poly)
    if not in_fplus(fs):
        raise PreconditionViolatedError("input sequence is not admissible")
    out = tuple(apply(G, fs))
    fault = _fplus_fault(out)
    return ActionReport(fault is None, out, None if fault is None else ActionFailure(*fault))
