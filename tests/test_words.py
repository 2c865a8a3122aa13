import dataclasses
import tracemalloc
from itertools import product

import pytest

from interlace import edgewise, matrices, words
from interlace.edgewise import e_vector
from interlace.errors import BadParametersError, BudgetExceededError, InvalidGammaError
from interlace.polys import X, ZERO, Poly
from interlace.words import (
    DEFAULT_BUDGET,
    MAX_N,
    GammaVector,
    Word,
    all_gamma_vectors,
    ascents,
    check_budget,
    enumerate_sw_gamma,
    enumerate_sw_prime,
    oracle_E,
    oracle_E_gamma,
    oracle_local_h,
    word_in_sw_gamma,
    word_in_sw_prime,
)


def test_ascents():
    assert ascents(Word((0, 1, 0), 2)) == 1
    assert ascents(Word((0, 2, 0, 1), 3)) == 2
    assert ascents(Word((0,), 1)) == 0


def test_word_accepts_exactly_the_letters_in_its_alphabet():
    for size in range(1, 4):
        for letters in product(range(-2, 5), repeat=3):
            if all(0 <= c < size for c in letters):
                assert Word(letters, size).letters == letters
            else:
                with pytest.raises(BadParametersError, match="letter out of alphabet range"):
                    Word(letters, size)
    with pytest.raises(BadParametersError, match="at least one letter"):
        Word((), 3)


def test_streamed_words_are_the_words_the_checked_constructor_builds():
    # the stream fills each Word in without the check, and every streamed word
    # equals the one the checked constructor builds (whose check the test
    # above pins)
    streams = [enumerate_sw_prime(n, r) for r in range(2, 5) for n in range(1, 5)]
    streams += [enumerate_sw_gamma(4, 4, GammaVector((1, 2, 2, 1)), True)]
    for stream in streams:
        for w in stream:
            checked = Word(w.letters, w.alphabet_size)
            assert type(w) is Word and vars(w) == vars(checked)
            assert w == checked and hash(w) == hash(checked) and repr(w) == repr(checked)
    with pytest.raises(dataclasses.FrozenInstanceError):
        w.letters = (0,)


def test_enumerate_sw_prime_small():
    assert [w.letters for w in enumerate_sw_prime(1, 3)] == [(0, 1), (0, 2)]
    assert [w.letters for w in enumerate_sw_prime(2, 2)] == [(0, 1, 0)]


def test_enumerate_sw_prime_is_lexicographic_and_complete():
    ws = [w.letters for w in enumerate_sw_prime(3, 3)]
    assert ws == sorted(ws)
    assert len(ws) == len(set(ws)) == 2**3
    assert all(word_in_sw_prime(Word(ls, 3)) for ls in ws)


@pytest.mark.parametrize("n,r", [(n, r) for n in range(1, 8) for r in range(2, 6)])
def test_sw_prime_count(n, r):
    assert sum(1 for _ in enumerate_sw_prime(n, r)) == (r - 1) ** n


def test_sw_prime_count_large():
    assert sum(1 for _ in enumerate_sw_prime(9, 5)) == 4**9


def test_bad_parameters():
    with pytest.raises(BadParametersError):
        enumerate_sw_prime(0, 3)
    with pytest.raises(BadParametersError):
        oracle_E(2, 1)


def test_budget_guard():
    with pytest.raises(BudgetExceededError):
        enumerate_sw_prime(9, 6, budget=100)
    with pytest.raises(BudgetExceededError):
        oracle_E(9, 6, budget=100)


def test_word_length_cap_holds_below_the_recursion_limit():
    # at r = 2 the budget admits any n: the one word 0,1,0,1,... is walked one call per letter
    assert MAX_N == 900
    assert oracle_E(MAX_N, 2) == [Poly.monomial(MAX_N // 2), ZERO]
    assert oracle_local_h(MAX_N, 2) == Poly.monomial(MAX_N // 2)
    assert [w.letters for w in enumerate_sw_prime(MAX_N, 2)] == [(0, 1) * (MAX_N // 2) + (0,)]
    calls = [
        lambda: check_budget(MAX_N + 1, 2, DEFAULT_BUDGET),
        lambda: oracle_E(MAX_N + 1, 2),
        lambda: oracle_local_h(MAX_N + 1, 2),
        lambda: oracle_E_gamma(MAX_N + 1, 2, GammaVector.zeros(2)),
        lambda: enumerate_sw_prime(MAX_N + 1, 2),
        lambda: enumerate_sw_gamma(MAX_N + 1, 2, GammaVector.zeros(2), closed=True),
    ]
    for call in calls:
        with pytest.raises(BadParametersError, match=r"^n = 901 exceeds the word-length cap 900$"):
            call()


def test_budget_guard_on_huge_n_raises_budget_error_with_a_short_message():
    # (r-1)^n has over 4,300 digits here: the guard must not build or print it
    calls = [
        lambda: oracle_E(20000, 3),
        lambda: oracle_local_h(20000, 3),
        lambda: oracle_E_gamma(20000, 3, GammaVector.zeros(3)),
        lambda: enumerate_sw_prime(20000, 3),
        lambda: enumerate_sw_gamma(20000, 3, GammaVector.zeros(3), closed=True),
    ]
    for call in calls:
        with pytest.raises(BudgetExceededError, match=r"^\(r-1\)\^n = 2\^20000 exceeds budget 100000000$"):
            call()


def test_budget_guard_edges():
    check_budget(MAX_N, 2, 1)  # one open word at r = 2: only the cap bounds n there
    with pytest.raises(BadParametersError, match=r"word-length cap"):
        check_budget(10**12, 2, 1)
    check_budget(3, 3, 8)  # 2^3 = 8 words fit a budget of 8
    with pytest.raises(BudgetExceededError, match=r"2\^4 exceeds budget 8"):
        check_budget(4, 3, 8)
    with pytest.raises(BadParametersError):
        check_budget(1, 3, 0)


def test_oracle_E_small_values():
    assert oracle_E(1, 3) == [ZERO, X, X]
    assert oracle_E(2, 3) == [Poly((0, 2)), X, Poly((0, 0, 1))]
    assert oracle_E(2, 2) == [X, ZERO]


@pytest.mark.parametrize("n,r", [(n, r) for n in range(1, 6) for r in range(2, 6)])
def test_oracle_E_total_mass(n, r):
    assert sum(p(1) for p in oracle_E(n, r)) == (r - 1) ** n


def test_oracle_local_h_values():
    assert oracle_local_h(3, 3) == Poly((0, 1, 1))
    assert oracle_local_h(2, 2) == X
    for n in range(1, 13):
        expected = Poly.monomial(n // 2) if n % 2 == 0 else ZERO
        assert oracle_local_h(n, 2) == expected


def test_oracle_local_h_is_first_bucket():
    for n in range(1, 6):
        for r in range(2, 5):
            assert oracle_local_h(n, r) == oracle_E(n, r)[0]


def test_local_h_reversal_symmetry():
    # coefficient palindrome: x^n * h(1/x) == h(x) on the desk grid
    for r in range(2, 6):
        for n in range(2, 9):
            h = oracle_local_h(n, r)
            if h.is_zero:
                continue
            cs = list(h.coeffs)
            lead_zeros = next(i for i, c in enumerate(cs) if c != 0)
            core = cs[lead_zeros:]
            assert core == core[::-1], (r, n)


# -- restricted families ---------------------------------------------------------


def test_gamma_validation():
    GammaVector((0, 0))
    GammaVector((1, 1, 1))
    GammaVector((0, 1, 2, 2))
    with pytest.raises(InvalidGammaError):
        GammaVector((2, 2))  # entries above r - 2
    with pytest.raises(InvalidGammaError):
        GammaVector((0, 2, 0))  # jump of 2
    with pytest.raises(InvalidGammaError):
        GammaVector((0, -1, 0))
    with pytest.raises(InvalidGammaError):
        GammaVector((0,))


@pytest.mark.parametrize("make, error, message", [
    (lambda: edgewise.EVector(3, 1, (1, 2, 3)), BadParametersError, "polys must hold Polys, got 1"),
    (lambda: edgewise.EVector(2, 1, 5), BadParametersError, "polys must be iterable"),
    (lambda: Word((0, "a"), 2), BadParametersError, "letters must hold ints, got 'a'"),
    (lambda: Word("01", 2), BadParametersError, "letters must be a sequence"),
    (lambda: Word((0, 1), "2"), BadParametersError, "alphabet_size must be an int, got '2'"),
    (lambda: GammaVector(5), BadParametersError, "gamma must be iterable"),
    (lambda: GammaVector((0, "1")), InvalidGammaError, "entries must lie in"),
])
def test_value_types_raise_typed_errors(make, error, message):
    with pytest.raises(error, match=message):
        make()


def test_value_types_store_tuples():
    """A list given to a value type is stored as a tuple, so the value hashes."""
    assert GammaVector([0, 0]) == GammaVector((0, 0))
    assert hash(GammaVector([0, 0])) == hash(GammaVector((0, 0)))
    assert Word([0, 1], 2).letters == (0, 1)
    v = edgewise.EVector(2, 1, [ZERO, X])
    assert v.polys == (ZERO, X) and hash(v) == hash(edgewise.EVector(2, 1, (ZERO, X)))


def test_gamma_zero_reduces_to_plain_families():
    zeros = GammaVector.zeros(3)
    open_words = [w.letters for w in enumerate_sw_gamma(3, 3, zeros, closed=False)]
    assert open_words == [w.letters for w in enumerate_sw_prime(3, 3)]
    assert oracle_E_gamma(3, 3, zeros) == oracle_E(3, 3)


def test_gamma_alternating_family():
    g = GammaVector((1, 1, 1))
    assert [w.letters for w in enumerate_sw_gamma(4, 3, g, closed=True)] == [(0, 2, 0, 2, 0)]
    assert list(enumerate_sw_gamma(3, 3, g, closed=True)) == []
    # computed by this oracle and frozen: the only open word of length 3 is (0,2,0)
    assert oracle_E_gamma(2, 3, g) == [X, ZERO, ZERO]
    assert oracle_E_gamma(1, 3, g) == [ZERO, ZERO, X]


def test_gamma_membership_recheck():
    g = GammaVector((0, 1, 1, 0))
    for closed in (False, True):
        seen = 0
        for w in enumerate_sw_gamma(4, 4, g, closed):
            seen += 1
            assert word_in_sw_gamma(w, g, closed)
        assert seen > 0


def test_gamma_first_component_is_closed_polynomial():
    for r in range(2, 5):
        for g in all_gamma_vectors(r):
            for n in range(1, 5):
                open_buckets = oracle_E_gamma(n, r, g)
                closed_sum = ZERO
                for w in enumerate_sw_gamma(n, r, g, closed=True):
                    closed_sum = closed_sum + Poly.monomial(ascents(w))
                assert open_buckets[0] == closed_sum


def test_gamma_length_mismatch():
    with pytest.raises(InvalidGammaError):
        oracle_E_gamma(2, 4, GammaVector((0, 0)))


@pytest.mark.parametrize("r", [2.5, "3", 1, True], ids=["float", "str", "one", "bool"])
def test_all_gamma_vectors_checks_r_as_the_oracles_do(r):
    with pytest.raises(BadParametersError, match=r"need integers n >= 1 and r >= 2, got n=1, r="):
        all_gamma_vectors(r)


def test_all_gamma_vectors_counts():
    assert sum(1 for _ in all_gamma_vectors(2)) == 1
    assert sum(1 for _ in all_gamma_vectors(3)) == 8
    assert sum(1 for _ in all_gamma_vectors(4)) == 41
    assert sum(1 for _ in all_gamma_vectors(5)) == 178


# -- the oracles against the word stream ------------------------------------------


def _tally_by_last_letter(n, r, gamma, closed):
    """ascents(w) of every word of enumerate_sw_gamma, counted by last letter."""
    counts = [[0] * (n + 1) for _ in range(r)]
    for w in enumerate_sw_gamma(n, r, gamma, closed):
        counts[w.letters[-1]][ascents(w)] += 1
    return [Poly(tuple(row)) for row in counts]


def _oracle_grid():
    for r in range(2, 8):
        profiles = list(all_gamma_vectors(r)) if r <= 5 else [GammaVector.zeros(r)]
        for g in profiles:
            for n in range(1, 7):
                yield n, r, g


def test_oracles_equal_the_tallied_word_stream_on_the_grid():
    # at n = 1 and n = 2 the walker shortens its two-letter tails to fit the word
    for n, r, g in _oracle_grid():
        open_buckets = _tally_by_last_letter(n, r, g, closed=False)
        closed_buckets = _tally_by_last_letter(n, r, g, closed=True)
        assert all(p.is_zero for p in closed_buckets[1:])
        assert oracle_E_gamma(n, r, g) == open_buckets, (n, r, g)
        # the closed walk visits the closed words only and keeps the one row of letter 0
        closed_walk = words._tally(n, words._transitions(n, r, g, DEFAULT_BUDGET), closed=True)
        assert [Poly(tuple(row)) for row in closed_walk] == closed_buckets[:1], (n, r, g)
        assert oracle_local_h(n, r, gamma=g) == closed_buckets[0], (n, r, g)
        if g == GammaVector.zeros(r):
            assert oracle_E(n, r) == open_buckets, (n, r)
            assert oracle_local_h(n, r) == closed_buckets[0], (n, r)


def test_oracles_stay_independent_of_the_recurrences(monkeypatch):
    expected = {(n, r): list(e_vector(r, n).polys) for n in range(1, 7) for r in range(2, 6)}
    restricted = {g: edgewise.e_gamma(4, 5, g).polys for g in all_gamma_vectors(4)}

    def forbidden(*args, **kwargs):
        raise RuntimeError("the oracle called a recurrence")

    monkeypatch.setattr(edgewise, "_step", forbidden)
    monkeypatch.setattr(edgewise, "e_step", forbidden)
    monkeypatch.setattr(edgewise, "e_gamma", forbidden)
    monkeypatch.setattr(matrices, "apply", forbidden)
    for (n, r), polys in expected.items():
        assert oracle_E(n, r) == polys
        assert oracle_E_gamma(n, r, GammaVector.zeros(r)) == polys
        assert oracle_local_h(n, r) == polys[0]
    for g, polys in restricted.items():
        assert oracle_E_gamma(5, 4, g) == list(polys)


def test_large_alphabet_short_words_build_no_table_larger_than_the_walk():
    # an r x (r-1) transition table (r^2 exceeds (r-1)^n at n <= 2), or tails
    # of r * (r-1)^depth entries, would be far larger than the 999, 99^2 and
    # 59^3 words walked: up to 10^6 entries
    r = 100
    # every profile keeps to the same rule, not only the zero profile
    ones = GammaVector((1,) * 1000)
    tracemalloc.start()
    try:
        plain = oracle_E(1, 1000)
        three_letters = oracle_E(3, 60)
        open_buckets = oracle_E(2, r)
        zero_profile = oracle_E_gamma(2, r, GammaVector.zeros(r))
        closed = oracle_local_h(2, r)
        first = next(enumerate_sw_prime(2, r))
        restricted = oracle_E_gamma(1, 1000, ones)
        restricted_closed = oracle_local_h(1, 1000, gamma=ones)
        restricted_words = [w.letters for w in enumerate_sw_gamma(1, 1000, ones, closed=False)]
        restricted_closed_words = list(enumerate_sw_gamma(1, 1000, ones, closed=True))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    assert plain == [ZERO] + [X] * 999
    # from 0 under the profile of ones, the letters 2 .. 999 and no closed word
    assert restricted == [ZERO, ZERO] + [X] * 998
    assert restricted_closed == ZERO and restricted_closed_words == []
    assert restricted_words == [(0, c) for c in range(2, 1000)]
    assert three_letters == list(e_vector(60, 3).polys)
    # the word 0,a,b has the ascent 0 < a, and one more when a < b
    assert open_buckets == [Poly((0, r - 1))] + [Poly((0, r - 1 - b, b - 1)) for b in range(1, r)]
    assert zero_profile == open_buckets
    assert closed == Poly((0, r - 1))
    assert first.letters == (0, 1, 0)


def test_transition_rows_equal_the_filter_for_every_profile():
    # the cut-point rows against the definition |c - prev| > gamma[c], both
    # formed on reading (n = 1) and built into the table (n = 8, r >= 3)
    for r in range(2, 9):
        for g in all_gamma_vectors(r):
            expected = [[c for c in range(r) if abs(c - prev) > g.gamma[c]] for prev in range(r)]
            for n in (1, 8):
                trans = words._transitions(n, r, g, DEFAULT_BUDGET)
                assert isinstance(trans, list) == (r * r <= (r - 1) ** n), (n, r)
                assert [list(trans[prev]) for prev in range(r)] == expected, (n, g)


def test_restricted_streams_equal_the_filtered_words():
    # every word starting with 0 that word_in_sw_gamma accepts, in
    # lexicographic order; at r = 5 the rows are formed on reading for n <= 2
    # and built into a table from n = 3
    for r in range(2, 6):
        for g in all_gamma_vectors(r):
            for n in range(1, 5):
                candidates = [Word((0, *tail), r) for tail in product(range(r), repeat=n)]
                for closed in (False, True):
                    expected = [w.letters for w in candidates if word_in_sw_gamma(w, g, closed)]
                    got = [w.letters for w in enumerate_sw_gamma(n, r, g, closed)]
                    assert got == expected, (n, g, closed)
