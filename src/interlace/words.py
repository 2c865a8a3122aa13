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
polynomials for all three oracles.  It places the first letters of each word
by recursion and takes the last ones, up to three, from a table of the
admissible continuations, only as deep as keeps the table no larger than
the words' prefixes.  Each continuation is one byte that encodes its last
letter and its ascents; each word appends its byte to the bucket of its
prefix's ascents, and the buckets are counted by ``bytearray.count``.  Every
word is still visited once, writes its own byte, and that byte is counted
once; nothing is grouped by multiplicity, and nothing here calls the
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

# the walk nests one call per letter it places by recursion, at most n of
# them (at r = 2, where no tail is tabled), so n stays below Python's default
# recursion limit of 1000 calls, with headroom for the callers' own frames
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
    ls = _typed(w, "w", Word).letters
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
    _validate_nr(n, r)
    if _typed(budget, "budget", int) < 1:
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
_TAIL = 3
# the distinct codes of a byte
_BYTE = 256
# a bucket of tail bytes is counted and emptied once it holds more bytes than this
_FLUSH = 2**14
# adds one ascent to every code of a tail
_UP = bytes.maketrans(bytes(range(_BYTE - 1)), bytes(range(1, _BYTE)))


def _tally(
    n: int, trans: list[list[int]] | _Rows, closed: bool
) -> list[list[int]]:
    """The one ascent walker: counts[last][k] = words ending in ``last`` with k ascents.

    Each word is a prefix, letters 0 .. n - depth, and a tail of depth
    letters.  The recursion places the prefix, its last letter in a loop
    rather than a call.  tails[c] holds one byte per admissible tail after
    the letter c, whose code is the tail's row (its last letter) times
    span = depth + 1, plus the tail's ascents.  A prefix that ends in c with
    a ascents appends tails[c] to bucket a, so every word is visited once and
    writes its own byte.  A bucket is counted, one ``bytearray.count`` per
    code until each of its bytes is counted once, and emptied when it passes
    _FLUSH bytes and at the end.  The counts lie in one flat list, row
    ``last`` at offset last * (n + 1).

    depth is at most _TAIL and below n, and is lowered while the tails,
    r * (r-1)^depth entries, would outnumber the (r-1)^(n-depth) prefixes,
    so a table is kept only for a small alphabet and long words; and while
    the rows * span codes would not fit in a byte, so one byte holds every
    code of a table.  Without a table (depth 0) a tail is its one letter, and
    the rows fall into groups of _BYTE, each with its own buckets; offs[c] is
    the first bucket of the group of c.  With ``closed`` the tails keep only
    the continuations that end in 0, and only the row of letter 0 is kept.
    """
    r = len(trans)
    rows = 1 if closed else r
    depth = min(_TAIL, n - 1)
    while depth and (r * (r - 1) ** depth > (r - 1) ** (n - depth) or rows * (depth + 1) > _BYTE):
        depth -= 1
    span = depth + 1
    stop = n - depth
    stride = n + 1
    group_rows = _BYTE // span
    group_buckets = stop + 1  # a prefix has 0 .. stop ascents
    tails = [bytes((c % group_rows * span,)) for c in range(rows)] + [b""] * (r - rows)
    offs = [c // group_rows * group_buckets for c in range(rows)] + [0] * (r - rows)
    for _ in range(depth):
        ups = [t.translate(_UP) for t in tails]
        tails = [b"".join([ups[c] if prev < c else tails[c] for c in trans[prev]]) for prev in range(r)]
    flat = [0] * (rows * stride)
    buckets = [bytearray() for _ in range(offs[rows - 1] + group_buckets)]

    def count(k: int) -> None:
        bucket = buckets[k]
        left = len(bucket)
        group, a = divmod(k, group_buckets)
        at = group * group_rows * stride + a
        code = 0
        while left:
            m = bucket.count(code)
            if m:
                row, t = divmod(code, span)
                flat[at + row * stride + t] += m
                left -= m
            code += 1
        bucket.clear()

    def rec(pos: int, last: int, asc: int) -> None:
        nxt = pos + 1
        if nxt == stop:
            for c in trans[last]:
                k = offs[c] + asc + (last < c)
                bucket = buckets[k]
                bucket += tails[c]
                if len(bucket) > _FLUSH:
                    count(k)
            return
        for c in trans[last]:
            rec(nxt, c, asc + 1 if last < c else asc)

    rec(0, 0, 0)
    for k, bucket in enumerate(buckets):
        if bucket:
            count(k)
    return [flat[i:i + stride] for i in range(0, len(flat), stride)]


def enumerate_sw_prime(n: int, r: int, budget: int = DEFAULT_BUDGET) -> Iterator[Word]:
    """All (r-1)^n open words of length n+1 in lexicographic order."""
    return _word_stream(n, r, _transitions(n, r, None, budget), False)


def word_in_sw_prime(w: Word) -> bool:
    ls = _typed(w, "w", Word).letters
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
    _validate_gamma(_typed(w, "w", Word).alphabet_size, gamma)
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
