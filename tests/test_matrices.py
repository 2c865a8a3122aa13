import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interlace import matrices
from interlace.edgewise import e_vector, gamma_matrix
from interlace.errors import (
    BadParametersError,
    DimensionMismatchError,
    NegativeEntryError,
    PreconditionViolatedError,
)
from interlace.matrices import (
    LAMBDA_MU_PAIRS,
    SEVEN_GENERATORS,
    ActionFailure,
    ActionReport,
    Entry,
    SymMatrix,
    action_property_test,
    all_2x2_matrices,
    apply,
    check_2x2_sampled,
    classify_all_2x2,
    ferrers_check,
    find_failing_sample,
    forbidden_pattern,
    generator_closure,
    minors_nonneg,
    preserves_check,
)
from interlace.polys import ONE, X, ZERO, Poly
from interlace.realroots import in_fplus, interleaves
from interlace.words import GammaVector, all_gamma_vectors

S = SymMatrix.from_strings

FERRERS_EXAMPLE_1 = S([
    ["1", "1", "1", "1"],
    ["0", "1", "1", "1"],
    ["x", "1", "1", "1"],
    ["x", "x", "x", "x"],
])
FERRERS_EXAMPLE_2 = S([
    ["0", "0", "0", "1"],
    ["x", "0", "0", "0"],
    ["x", "x", "0", "0"],
    ["x", "x", "x", "x"],
])

# the twenty 2x2 shapes that can occur inside a matrix passing the two
# staircase conditions
TWENTY_SHAPES = [
    "11;11", "11;01", "11;x1", "11;xx", "11;x0", "11;00", "x1;x1",
    "01;x1", "01;01", "x1;xx", "01;xx", "x1;x0", "01;x0", "01;00",
    "00;00", "00;x0", "00;xx", "x0;x0", "x0;xx", "xx;xx",
]


def shape(code: str) -> SymMatrix:
    return S([list(row) for row in code.split(";")])


def test_matrix_json_round_trip():
    M = FERRERS_EXAMPLE_2
    assert SymMatrix.from_json(M.to_json()) == M
    assert M.rows == M.cols == 4


def test_apply_examples():
    M3 = gamma_matrix(3, GammaVector.zeros(3))
    assert apply(M3, [ZERO, X, X]) == [Poly((0, 2)), X, Poly((0, 0, 1))]
    ident = S([["1", "0"], ["0", "1"]])
    fs = [Poly((1, 1)), Poly((0, 3))]
    assert apply(ident, fs) == fs
    zero = S([["0", "0"], ["0", "0"]])
    assert apply(zero, fs) == [ZERO, ZERO]
    with pytest.raises(DimensionMismatchError):
        apply(ident, [X])


@pytest.mark.parametrize("act", [apply, action_property_test])
@pytest.mark.parametrize("fs,message", [
    (5, "fs must be iterable"), ([X, 2], "fs must hold Polys"),
    ("xx", "fs must be a sequence, not the string"),
], ids=["int", "int-member", "str"])
def test_a_matrix_acts_on_a_checked_sequence_of_polys(act, fs, message):
    with pytest.raises(BadParametersError, match=message):
        act(S([["1", "0"], ["0", "1"]]), fs)


def test_apply_is_linear():
    M = FERRERS_EXAMPLE_1
    rng = random.Random(5)
    for _ in range(5):
        fs = [Poly(tuple(rng.randint(0, 4) for _ in range(3))) for _ in range(4)]
        gs = [Poly(tuple(rng.randint(0, 4) for _ in range(3))) for _ in range(4)]
        both = apply(M, [f + g for f, g in zip(fs, gs)])
        split = [a + b for a, b in zip(apply(M, fs), apply(M, gs))]
        assert both == split


def test_check_2x2_sampled_known_cases():
    assert check_2x2_sampled(S([["1", "0"], ["x", "1"]]))
    assert not check_2x2_sampled(S([["1", "x"], ["0", "1"]]))
    assert check_2x2_sampled(S([["1", "1"], ["x", "x"]]))
    assert check_2x2_sampled(S([["x", "1"], ["x", "1"]]))


def test_forbidden_pattern_examples():
    assert forbidden_pattern(S([["x", "1"], ["1", "0"]])).rule == "I"
    assert forbidden_pattern(S([["1", "0"], ["0", "1"]])).allowed
    assert forbidden_pattern(S([["0", "1"], ["1", "0"]])).rule == "IV"
    # [[1,x],[0,1]] matches both the column rule and the row rule; the fixed
    # evaluation order attributes the first
    assert forbidden_pattern(S([["1", "x"], ["0", "1"]])).rule == "I"
    assert forbidden_pattern(S([["1", "x"], ["0", "0"]])).rule == "II"
    assert forbidden_pattern(S([["1", "0"], ["0", "x"]])).rule == "III"
    assert forbidden_pattern(S([["0", "x"], ["x", "0"]])).rule == "V"
    assert forbidden_pattern(S([["1", "1"], ["x", "x"]])).allowed  # exception
    assert forbidden_pattern(S([["x", "1"], ["x", "1"]])).allowed  # exception


def test_classification_counts_and_agreement():
    cls = classify_all_2x2()
    assert len(cls.allowed) == 40
    assert len(cls.forbidden) == 41
    assert cls.disagreements == ()


def test_seven_generators_are_allowed():
    for M in SEVEN_GENERATORS:
        assert forbidden_pattern(M).allowed
        assert check_2x2_sampled(M)


def test_closure_equals_allowed_set():
    closure = generator_closure()
    allowed = set(classify_all_2x2().allowed)
    assert set(SEVEN_GENERATORS) <= closure
    assert closure <= allowed
    assert closure == allowed
    assert len(closure) == 40


# -- Poly-arithmetic references for the entry tables and the worklist closure --

_ENTRY_POLY = {Entry.ZERO: ZERO, Entry.ONE: ONE, Entry.X: X}
_POLY_ENTRY = {ZERO: Entry.ZERO, ONE: Entry.ONE, X: Entry.X}


def _reference_product(A, B):
    rows = []
    for i in range(2):
        row = []
        for j in range(2):
            p = ZERO
            for k in range(2):
                p = p + _ENTRY_POLY[A.entries[i][k]] * _ENTRY_POLY[B.entries[k][j]]
            if p not in _POLY_ENTRY:
                return None
            row.append(_POLY_ENTRY[p])
        rows.append(tuple(row))
    return SymMatrix(tuple(rows))


def _reference_closure():
    members = set(SEVEN_GENERATORS)
    grew = True
    while grew:
        grew = False
        for a, b in itertools.product(tuple(members), repeat=2):
            p = _reference_product(a, b)
            if p is not None and p not in members:
                members.add(p)
                grew = True
    return frozenset(members)


def _reference_sides(M, lam, mu):
    scale = lam.denominator * mu.denominator // math.gcd(lam.denominator, mu.denominator)
    lin = Poly((int(mu * scale), int(lam * scale)))
    e = M.entries
    left = lin * _ENTRY_POLY[e[0][1]] + scale * _ENTRY_POLY[e[1][1]]
    right = lin * _ENTRY_POLY[e[0][0]] + scale * _ENTRY_POLY[e[1][0]]
    return left, right


def test_symbolic_product_matches_poly_arithmetic_on_all_pairs():
    from interlace.matrices import _symbolic_product

    every = all_2x2_matrices()
    for A, B in itertools.product(every, repeat=2):
        assert _symbolic_product(A, B) == _reference_product(A, B), (A, B)


def test_worklist_closure_matches_the_naive_fixpoint():
    assert generator_closure() == _reference_closure()


def test_closure_multiplies_each_ordered_pair_once(monkeypatch):
    calls = []
    product = matrices._symbolic_product

    def counted(A, B):
        calls.append((A, B))
        return product(A, B)

    monkeypatch.setattr(matrices, "_symbolic_product", counted)
    closure = generator_closure()
    assert len(calls) == len(closure) ** 2 == 1600
    assert set(calls) == set(itertools.product(closure, repeat=2))


def test_integer_sides_match_the_fraction_formula():
    assert len(matrices._SCALED_PAIRS) == len(LAMBDA_MU_PAIRS) == 27
    for M in all_2x2_matrices():
        for (lam, mu), scaled in zip(LAMBDA_MU_PAIRS, matrices._SCALED_PAIRS):
            assert matrices._inequality_sides(M, scaled) == _reference_sides(M, lam, mu)


def test_failing_sample_matches_the_reference_on_all_81():
    for M in all_2x2_matrices():
        want = next((pair for pair in LAMBDA_MU_PAIRS
                     if not interleaves(*_reference_sides(M, *pair))), None)
        assert find_failing_sample(M) == want, M


def test_sampled_test_calls_interleaves_at_every_untested_sample(monkeypatch):
    # no sample is decided without interleaves, except a repeat of sides that held
    for M in all_2x2_matrices():
        calls = []

        def counted(f, g):
            calls.append((f, g))
            return interleaves(f, g)

        monkeypatch.setattr(matrices, "interleaves", counted)
        failing = find_failing_sample(M)
        upto = LAMBDA_MU_PAIRS if failing is None else \
            LAMBDA_MU_PAIRS[:LAMBDA_MU_PAIRS.index(failing) + 1]
        distinct = list(dict.fromkeys(_reference_sides(M, *pair) for pair in upto))
        assert calls == distinct, M


def test_closure_closed_under_admissible_products():
    # any product of two allowed matrices that stays inside the alphabet is allowed
    from interlace.matrices import _symbolic_product

    allowed = set(classify_all_2x2().allowed)
    for A, B in itertools.product(allowed, repeat=2):
        P = _symbolic_product(A, B)
        if P is not None:
            assert P in allowed


def test_preserves_check_examples():
    assert preserves_check(FERRERS_EXAMPLE_1)
    assert preserves_check(FERRERS_EXAMPLE_2)
    assert not preserves_check(S([["1", "x"], ["1", "1"]]))  # (1 x) row
    for r in range(2, 6):
        for g in all_gamma_vectors(r):
            assert preserves_check(gamma_matrix(r, g))


def _reference_ferrers(G: SymMatrix) -> bool:
    """The staircase test by its closure, the reference for the neighbour rule:
    every cell up and to the right of a 1 is a 1, and every cell down and to
    the left of an x is an x."""
    e = G.entries
    for i in range(G.rows):
        for j in range(G.cols):
            if e[i][j] is Entry.ONE:
                if any(e[k][l] is not Entry.ONE for k in range(i + 1) for l in range(j, G.cols)):
                    return False
            elif e[i][j] is Entry.X:
                if any(e[k][l] is not Entry.X for k in range(i, G.rows) for l in range(j + 1)):
                    return False
    return True


def test_ferrers_check_examples():
    assert ferrers_check(FERRERS_EXAMPLE_1)
    assert ferrers_check(FERRERS_EXAMPLE_2)
    assert not ferrers_check(S([["1", "0"], ["0", "1"]]))
    for r in range(2, 7):
        for g in all_gamma_vectors(r):
            M = gamma_matrix(r, g)
            assert ferrers_check(M) and _reference_ferrers(M), g


@st.composite
def _sym_matrices(draw) -> SymMatrix:
    rows = draw(st.integers(min_value=1, max_value=6))
    cols = draw(st.integers(min_value=1, max_value=6))
    entry = st.sampled_from(list(Entry))
    if draw(st.booleans()):
        # a staircase (ones starting and xs ending at nondecreasing columns
        # going down), with at most one cell redrawn, so that both verdicts occur
        ones = sorted(draw(st.lists(st.integers(0, cols), min_size=rows, max_size=rows)))
        xs = sorted(draw(st.lists(st.integers(0, cols), min_size=rows, max_size=rows)))
        grid = [[Entry.X if j < min(x, o) else Entry.ONE if j >= o else Entry.ZERO
                 for j in range(cols)] for x, o in zip(xs, ones)]
        if draw(st.booleans()):
            grid[draw(st.integers(0, rows - 1))][draw(st.integers(0, cols - 1))] = draw(entry)
    else:
        grid = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                             min_size=rows, max_size=rows))
    return SymMatrix(tuple(map(tuple, grid)))


@settings(max_examples=400, deadline=None)
@given(_sym_matrices())
def test_ferrers_neighbour_rule_equals_the_closure(M):
    assert ferrers_check(M) == _reference_ferrers(M)


def test_twenty_ferrers_shapes_allowed():
    for code in TWENTY_SHAPES:
        assert forbidden_pattern(shape(code)).allowed, code
        assert check_2x2_sampled(shape(code)), code


def test_ferrers_implies_preserves_exhaustive_small():
    for m in (1, 2, 3):
        for n in (1, 2, 3):
            for combo in itertools.product(Entry, repeat=m * n):
                M = SymMatrix(tuple(tuple(combo[i * n: (i + 1) * n]) for i in range(m)))
                assert ferrers_check(M) == _reference_ferrers(M), M
                if ferrers_check(M):
                    assert preserves_check(M), M


def test_ferrers_implies_preserves_random_6x6():
    rng = random.Random(99)
    for _ in range(50):
        ones_start = sorted(rng.randint(0, 6) for _ in range(6))
        xs_end = sorted(rng.randint(0, 6) for _ in range(6))
        rows = []
        for i in range(6):
            cut = min(xs_end[i], ones_start[i])
            rows.append(tuple(
                Entry.X if j < cut else (Entry.ONE if j >= ones_start[i] else Entry.ZERO)
                for j in range(6)
            ))
        M = SymMatrix(tuple(rows))
        assert ferrers_check(M)
        assert preserves_check(M)


def test_minors_nonneg():
    assert minors_nonneg([[1, 1], [1, 1]])
    assert not minors_nonneg([[0, 1], [1, 0]])
    assert minors_nonneg([[2, 3], [1, 2]])
    assert minors_nonneg([[Fraction(1, 2), 1], [0, 3]])
    with pytest.raises(NegativeEntryError):
        minors_nonneg([[1, -1], [0, 1]])


@pytest.mark.parametrize("bad", ["abc", float("nan"), float("inf"), "1/0", None],
                         ids=["abc", "nan", "inf", "1/0", "None"])
def test_minors_nonneg_rejects_a_malformed_entry(bad):
    with pytest.raises(BadParametersError, match="matrix entry must be a finite rational"):
        minors_nonneg([[1, bad], [0, 1]])


@pytest.mark.parametrize("good,value", [
    (2, Fraction(2)), (Fraction(1, 3), Fraction(1, 3)), (0.25, Fraction(1, 4)),
    ("1/3", Fraction(1, 3)),
], ids=["int", "Fraction", "float", "str"])
def test_minors_nonneg_accepts_rational_entries(good, value):
    # the minor 1*value - 1*(1/3) of [[1, 1/3], [1, value]] is negative iff value < 1/3
    assert minors_nonneg([[1, Fraction(1, 3)], [1, good]]) is (value >= Fraction(1, 3))


@pytest.mark.parametrize("G,what", [(5, "a numeric matrix"), ([[1, 2], 3], "a matrix row")],
                         ids=["int", "int-row"])
def test_minors_nonneg_rejects_a_matrix_that_is_not_rows(G, what):
    with pytest.raises(BadParametersError, match=f"{what} must be iterable"):
        minors_nonneg(G)


@pytest.mark.parametrize("G,what", [(["12", "34"], "a matrix row"), ("1234", "a numeric matrix"),
                                    ([b"12", b"34"], "a matrix row")],
                         ids=["str-rows", "str", "bytes-rows"])
def test_minors_nonneg_rejects_a_string_for_a_sequence(G, what):
    # the row "12" is not the entries 1 and 2
    with pytest.raises(BadParametersError, match=f"{what} must be a sequence, not the string"):
        minors_nonneg(G)


def test_minors_nonneg_of_no_rows_holds():
    assert minors_nonneg([]) is True


def test_forbidden_rule_representatives_have_failing_samples():
    reps = {
        "I": S([["x", "0"], ["1", "0"]]),
        "II": S([["1", "x"], ["0", "0"]]),
        "III": S([["1", "0"], ["0", "x"]]),
        "IV": S([["0", "1"], ["1", "0"]]),
        "V": S([["0", "x"], ["x", "0"]]),
    }
    for rule, M in reps.items():
        assert forbidden_pattern(M).rule == rule
        sample = find_failing_sample(M)
        assert sample is not None
        assert sample in LAMBDA_MU_PAIRS


def test_action_property_test():
    fs = [Poly((2, 1)), Poly((0, 1))]  # x+2 << x
    assert in_fplus(fs)
    report = action_property_test(S([["1", "0"], ["x", "1"]]), fs)
    assert report.passed
    ident = S([["1", "0"], ["0", "1"]])
    report = action_property_test(ident, fs)
    assert report.passed and list(report.outputs) == fs
    with pytest.raises(PreconditionViolatedError):
        action_property_test(ident, [Poly((0, 1)), Poly((1, 1))])  # x << x+1 fails


def _reference_action_property_test(G, fs):
    """``action_property_test`` as it was before the F+ walk: its own
    negative-coefficient scan and pairwise interleaves loop on the outputs."""
    out = apply(G, fs)
    for k, p in enumerate(out):
        if any(c < 0 for c in p.coeffs):
            return ActionReport(False, tuple(out), ActionFailure("negative_coefficient", (k,)))
    for k in range(len(out)):
        for l in range(k + 1, len(out)):
            if not interleaves(out[k], out[l]):
                return ActionReport(False, tuple(out), ActionFailure("not_interleaving", (k, l)))
    return ActionReport(True, tuple(out))


@st.composite
def _actions(draw):
    """A matrix of 1 to 4 rows over {0, 1, x} acting on E(r, n), an input in F+."""
    r, n = draw(st.integers(2, 4)), draw(st.integers(1, 4))
    rows = draw(st.integers(1, 4))
    grid = draw(st.lists(st.lists(st.sampled_from(list(Entry)), min_size=r, max_size=r),
                         min_size=rows, max_size=rows))
    return SymMatrix(tuple(map(tuple, grid))), list(e_vector(r, n).polys)


@settings(max_examples=200, deadline=None)
@given(_actions())
def test_action_property_test_matches_the_old_loops(action):
    G, fs = action
    assert action_property_test(G, fs) == _reference_action_property_test(G, fs)


def test_action_failure_on_forbidden_matrix():
    # row (1 x) matrices are excluded by the screen; acting with one must
    # break admissibility for some admissible input
    M = S([["1", "x"], ["1", "1"]])
    fs = [Poly((2, 1)), Poly((0, 1))]
    report = action_property_test(M, fs)
    assert not report.passed
    assert report.failure is not None and report.failure.kind == "not_interleaving"


def test_pattern_verdict_on_bad_shape():
    with pytest.raises(DimensionMismatchError):
        forbidden_pattern(FERRERS_EXAMPLE_1)
