"""Brute-force enumeration of restricted words and their ascent polynomials.

These enumerators are the independent oracles for the fast recurrences: they
walk every admissible word, so they are deliberately free of any recursive
shortcut on the generating polynomials themselves.

Word families over the alphabet {0, ..., r-1}, always starting with 0:

* open words: consecutive letters distinct, last letter free;
* closed words: additionally end with 0;
* jump-restricted variants: arriving at letter i requires a jump of absolute
  size strictly greater than gamma[i] (gamma = all zeros reduces to the
  families above).

The plain families are the zero profile, which every entry point also takes
as gamma None.  Every family is walked over its profile's transition rows,
each two ranges between cut points, built into a table only when that is no
larger than the (r-1)^n open words.  One enumerator, an odometer over
those rows, yields the words themselves.  One walker tallies the ascent
polynomials for all three oracles, taking the last two letters of each word
from a table of the admissible two-letter continuations, shortened or left
out wherever it would outnumber the words walked.  Every word is still
visited once and adds its own 1 to the count of its last letter and
ascents; nothing is grouped by multiplicity, and nothing here calls the
recurrences.  The closed oracle, ``oracle_local_h``, walks the closed words
only.  Every entry point checks n and r first, then the profile, then the
budget of (r-1)^n open words and the cap MAX_N on n.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import chain
from typing import Iterator

from .errors import BadParametersError, BudgetExceededError, InvalidGammaError
from .polys import Poly, _listed, _typed

DEFAULT_BUDGET = 10**8

# the walk recurses once per letter after the leading 0, so n stays below
# Python's default recursion limit of 1000 calls, with headroom for the
# callers' own frames
MAX_N = 900


@dataclass(frozen=True)
class Word:
    """A letter sequence together with its alphabet size."""

    letters: tuple[int, ...]
    alphabet_size: int

    def __post_init__(self):
        object.__setattr__(self, "letters", tuple(_listed(self.letters, "letters", int)))
        _typed(self.alphabet_size, "alphabet_size", int)
        if len(self.letters) < 1:
            raise BadParametersError("a word has at least one letter")
        if min(self.letters) < 0 or max(self.letters) >= self.alphabet_size:
            raise BadParametersError("letter out of alphabet range")

    def __str__(self) -> str:
        return ",".join(str(c) for c in self.letters)


def ascents(w: Word) -> int:
    """Number of positions i with w_i < w_{i+1}."""
    ls = w.letters
    return sum(1 for a, b in zip(ls, ls[1:]) if a < b)


@dataclass(frozen=True)
class GammaVector:
    """Jump-restriction profile: gamma[i] bounds the jump needed to land on i.

    Valid profiles have 0 <= gamma[i] <= r - 2 and consecutive entries
    differing by at most 1, with r = len(gamma).
    """

    gamma: tuple[int, ...]

    def __post_init__(self):
        g = tuple(_listed(self.gamma, "gamma"))
        object.__setattr__(self, "gamma", g)
        r = len(g)
        if r < 2:
            raise InvalidGammaError("profile needs at least two entries")
        if any(not isinstance(v, int) or not 0 <= v <= r - 2 for v in g):
            raise InvalidGammaError(f"entries must lie in [0, {r - 2}]: {g}")
        if any(abs(a - b) > 1 for a, b in zip(g, g[1:])):
            raise InvalidGammaError(f"consecutive entries may differ by at most 1: {g}")

    @property
    def r(self) -> int:
        return len(self.gamma)

    @staticmethod
    def zeros(r: int) -> "GammaVector":
        return GammaVector((0,) * r)


def _validate_nr(n: int, r: int) -> None:
    """The one check of the (n, r) domain, for the oracles and the recurrences alike."""
    if not (isinstance(n, int) and isinstance(r, int) and n >= 1 and r >= 2):
        raise BadParametersError(f"need integers n >= 1 and r >= 2, got n={n!r}, r={r!r}")


def check_budget(n: int, r: int, budget: int) -> None:
    """Raise BudgetExceededError when the (r-1)^n open words exceed ``budget``,
    and BadParametersError when n exceeds MAX_N.

    The power is multiplied up only until it passes the budget, so a huge n
    builds no huge integer.  At r = 2 there is at most one open word whatever
    n is, so there only the cap on n bounds the walk.
    """
    if budget < 1:
        raise BadParametersError("budget must be positive")
    if r > 2:
        total = 1
        for _ in range(n):
            total *= r - 1
            if total > budget:
                raise BudgetExceededError(f"(r-1)^n = {r - 1}^{n} exceeds budget {budget}")
    if n > MAX_N:
        raise BadParametersError(f"n = {n} exceeds the word-length cap {MAX_N}")


def _transitions(
    n: int, r: int, gamma: GammaVector | None, budget: int
) -> list[list[int]] | _Rows:
    """Check one request and return the transition rows of its profile.

    gamma None is the zero profile of the plain families.  The rows are built
    into an r x r table only when it is no larger than the (r-1)^n open words;
    for a large alphabet and short words (every r at n <= 2) each row is
    formed when it is read instead.
    """
    _validate_nr(n, r)
    if gamma is not None:
        _validate_gamma(r, gamma)
    check_budget(n, r, budget)
    rows = _Rows(gamma.gamma if gamma is not None else (0,) * r)
    if r * r > (r - 1) ** n:
        return rows
    return [list(rows[prev]) for prev in range(r)]


class _Rows:
    """The transition rows of a profile: from prev, the letters c with |c - prev| > gamma[c].

    Those below prev are the c with up[c] = c + gamma[c] < prev, and those
    above it the c with down[c] = c - gamma[c] > prev.  Neighbouring entries
    of a valid profile differ by at most 1, so up and down never decrease and
    each row is two ranges, cut where prev falls in them.
    """

    def __init__(self, gamma: tuple[int, ...]):
        self.r = len(gamma)
        self.up = [c + v for c, v in enumerate(gamma)]
        self.down = [c - v for c, v in enumerate(gamma)]

    def __len__(self) -> int:
        return self.r

    def __getitem__(self, prev: int) -> Iterator[int]:
        return chain(range(bisect_left(self.up, prev)),
                     range(bisect_right(self.down, prev), self.r))


def _word_stream(
    n: int, r: int, trans: list[list[int]] | _Rows, closed: bool
) -> Iterator[Word]:
    """The one enumerator: the admissible words in lexicographic order, by an
    odometer whose its[k] runs over the letters that may follow word[k].

    Every letter comes from a transition row, so it lies in range(r) and the
    word is valid by construction: each Word is filled in directly, without
    the check of ``Word.__post_init__``."""
    new, put = object.__new__, object.__setattr__
    word = [0] * (n + 1)
    its = [iter(trans[0])]
    while its:
        pos = len(its)
        c = next(its[-1], None)
        if c is None:
            its.pop()
        elif pos < n:
            word[pos] = c
            its.append(iter(trans[c]))
        elif not closed or c == 0:
            word[pos] = c
            w = new(Word)
            put(w, "letters", tuple(word))  # as the frozen dataclass's __init__ sets it
            put(w, "alphabet_size", r)
            yield w


# the walker places at most the last _TAIL letters of each word from a table, not by recursion
_TAIL = 2


def _tally(
    n: int, trans: list[list[int]] | _Rows, closed: bool
) -> list[list[int]]:
    """The one ascent walker: counts[last][k] = words ending in ``last`` with k ascents.

    The counts lie in one flat list, row ``last`` at offset last * (n + 1).
    The recursion places letters 1 .. n - depth (at least the first), the
    last of them in a loop rather than a call.  tails[prev] holds one index,
    row offset plus ascents, per admissible continuation of depth letters
    after prev, so each word is still visited once and adds its own 1.
    depth is _TAIL unless the tails, r * (r-1)^depth entries, would outnumber
    the (r-1)^(n-depth) ends of the recursion: the table pays off only for a
    small alphabet and long words.  With ``closed`` the tails keep only the
    continuations that end in 0, and only the row of letter 0 is kept.
    """
    r = len(trans)
    depth = min(_TAIL, n - 1)
    while depth and r * (r - 1) ** depth > (r - 1) ** (n - depth):
        depth -= 1
    rows = 1 if closed else r
    flat = [0] * (rows * (n + 1))
    tails = [(c * (n + 1),) for c in range(rows)] + [()] * (r - rows)
    for _ in range(depth):
        tails = [tuple(j + (prev < c) for c in trans[prev] for j in tails[c]) for prev in range(r)]
    stop = n - depth

    def rec(pos: int, last: int, asc: int) -> None:
        nxt = pos + 1
        if nxt == stop:
            for c in trans[last]:
                a = asc + 1 if last < c else asc
                for j in tails[c]:
                    flat[a + j] += 1
            return
        for c in trans[last]:
            rec(nxt, c, asc + 1 if last < c else asc)

    rec(0, 0, 0)
    return [flat[i:i + n + 1] for i in range(0, len(flat), n + 1)]


def enumerate_sw_prime(n: int, r: int, budget: int = DEFAULT_BUDGET) -> Iterator[Word]:
    """All (r-1)^n open words of length n+1 in lexicographic order."""
    return _word_stream(n, r, _transitions(n, r, None, budget), False)


def word_in_sw_prime(w: Word) -> bool:
    ls = w.letters
    return ls[0] == 0 and all(a != b for a, b in zip(ls, ls[1:]))


def oracle_E(n: int, r: int, budget: int = DEFAULT_BUDGET) -> list[Poly]:
    """Ascent polynomials of the open words, bucketed by last letter.

    Computed by walking every word, tallying x^(ascents) into the bucket of
    the word's last letter.
    """
    counts = _tally(n, _transitions(n, r, None, budget), False)
    return [Poly(tuple(row)) for row in counts]


def oracle_local_h(
    n: int, r: int, budget: int = DEFAULT_BUDGET, *, gamma: GammaVector | None = None
) -> Poly:
    """Ascent polynomial of the closed words (first bucket of oracle_E_gamma),
    walking only those; gamma None is the zero profile."""
    return Poly(tuple(_tally(n, _transitions(n, r, gamma, budget), True)[0]))


def _validate_gamma(r: int, gamma: GammaVector) -> None:
    if not isinstance(gamma, GammaVector):
        raise InvalidGammaError("expected a GammaVector")
    if gamma.r != r:
        raise InvalidGammaError(f"profile length {gamma.r} does not match r={r}")


def enumerate_sw_gamma(
    n: int, r: int, gamma: GammaVector | None, closed: bool, budget: int = DEFAULT_BUDGET
) -> Iterator[Word]:
    """Jump-restricted words in lexicographic order; closed ones end with 0.
    gamma None is the zero profile."""
    return _word_stream(n, r, _transitions(n, r, gamma, budget), closed)


def word_in_sw_gamma(w: Word, gamma: GammaVector, closed: bool) -> bool:
    _validate_gamma(w.alphabet_size, gamma)
    ls = w.letters
    if ls[0] != 0 or (closed and ls[-1] != 0):
        return False
    g = gamma.gamma
    return all(abs(b - a) > g[b] for a, b in zip(ls, ls[1:]))


def oracle_E_gamma(
    n: int, r: int, gamma: GammaVector | None, budget: int = DEFAULT_BUDGET
) -> list[Poly]:
    """Ascent polynomials of the open jump-restricted words, by last letter;
    gamma None is the zero profile."""
    counts = _tally(n, _transitions(n, r, gamma, budget), False)
    return [Poly(tuple(row)) for row in counts]


def all_gamma_vectors(r: int) -> Iterator[GammaVector]:
    """Every valid profile of length r, in lexicographic order."""
    _validate_nr(1, r)  # a profile serves every n >= 1, so the least n stands in

    def rec(prefix: list[int]) -> Iterator[GammaVector]:
        if len(prefix) == r:
            yield GammaVector(tuple(prefix))
            return
        lo = max(0, prefix[-1] - 1) if prefix else 0
        hi = min(r - 2, prefix[-1] + 1) if prefix else r - 2
        for v in range(lo, hi + 1):
            yield from rec(prefix + [v])

    return rec([])
