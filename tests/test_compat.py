import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interlace import compat
from interlace.compat import (
    FAIL,
    PASS_SAMPLED,
    CompatVerdict,
    CompatWitness,
    check_conditions_ab,
    compatible_family_sampled,
    compatible_pair_sampled,
    conic_combination,
    theorem_comp_transform,
)
from interlace.edgewise import e_base, e_step, e_vector
from interlace.errors import BadParametersError, NotRealRootedError
from interlace.matrices import LAMBDA_MU_PAIRS, Entry, SymMatrix, apply
from interlace.polys import ONE, X, ZERO, Poly
from interlace.realroots import interleaves, is_real_rooted


def test_conic_combination_clears_denominators():
    combo = conic_combination((Fraction(1, 2), Fraction(1, 3)), (X, ONE))
    assert combo == Poly((2, 3))


@pytest.mark.parametrize("bad", ["abc", float("nan"), float("inf"), "1/0", None],
                         ids=["abc", "nan", "inf", "1/0", "None"])
def test_conic_combination_rejects_a_malformed_weight(bad):
    with pytest.raises(BadParametersError, match="weight must be a finite rational"):
        conic_combination((1, bad), (X, ONE))


@pytest.mark.parametrize("weights,polys,what", [(3, [X], "weights"), ([1], X, "polys")],
                         ids=["weights", "polys"])
def test_conic_combination_rejects_what_is_not_a_sequence(weights, polys, what):
    with pytest.raises(BadParametersError, match=f"{what} must be iterable"):
        conic_combination(weights, polys)


@pytest.mark.parametrize("weights,polys,what", [("12", [X, X], "weights"), ([1], "x", "polys")],
                         ids=["weights", "polys"])
def test_conic_combination_rejects_a_string_for_a_sequence(weights, polys, what):
    # "12" is not the weights (1, 2): a string is no sequence of members
    with pytest.raises(BadParametersError, match=f"{what} must be a sequence, not the string"):
        conic_combination(weights, polys)


@pytest.mark.parametrize("call", [
    compatible_family_sampled, check_conditions_ab, theorem_comp_transform,
    lambda fs: conic_combination([1, 1], fs),
], ids=["compatible_family_sampled", "check_conditions_ab", "theorem_comp_transform",
        "conic_combination"])
@pytest.mark.parametrize("fs,message", [
    (5, "must be iterable"), ([1, 2], "must hold Polys"), ([X, "x"], "must hold Polys"),
], ids=["int", "ints", "str-member"])
def test_a_sequence_of_polys_is_checked_at_the_boundary(call, fs, message):
    with pytest.raises(BadParametersError, match=message):
        call(fs)


@pytest.mark.parametrize("call,message", [
    (lambda: conic_combination([1], [X, ONE]), "one weight per polynomial required"),
    (lambda: conic_combination([1, 2], [X]), "one weight per polynomial required"),
    (lambda: CompatVerdict("PASS"), "bad status 'PASS'"),
    (lambda: CompatVerdict(FAIL), "FAIL verdicts carry a witness"),
    (lambda: CompatVerdict(PASS_SAMPLED, CompatWitness((Fraction(1),), X)),
     "PASS verdicts do not"),
    (lambda: compatible_pair_sampled(5, X), "f must be a Poly, got 5"),
    (lambda: compatible_pair_sampled(X, 5), "g must be a Poly, got 5"),
], ids=["fewer-weights", "more-weights", "bad-status", "fail-without-witness",
        "pass-with-witness", "pair-int-f", "pair-int-g"])
def test_guards_raise_their_typed_error(call, message):
    with pytest.raises(BadParametersError, match=message):
        call()


@pytest.mark.parametrize("weight", [2, Fraction(2), 2.0, "2/1"],
                         ids=["int", "Fraction", "float", "str"])
def test_conic_combination_accepts_rational_weights(weight):
    assert conic_combination((weight, "1/3"), (X, ONE)) == Poly((1, 6))


def test_pair_degree_one_always_passes():
    assert compatible_pair_sampled(X, Poly((1, 1))).status == PASS_SAMPLED


def test_pair_zero_partner():
    assert compatible_pair_sampled(ZERO, Poly((0, 1, 1))).status == PASS_SAMPLED


def test_pair_fail_witness_reproducible():
    f = Poly((2, 3, 1))   # (x+1)(x+2)
    g = Poly((2, -3, 1))  # (x-1)(x-2), needs the unchecked flag
    verdict = compatible_pair_sampled(f, g, unchecked=True)
    assert verdict.status == FAIL
    w = verdict.witness
    assert not is_real_rooted(w.combination)
    assert w.combination == conic_combination(w.weights, (f, g))
    # equal weights always produce a non-real-rooted combination here
    equal = conic_combination((1, 1), (f, g))
    assert equal == Poly((4, 0, 2)) and not is_real_rooted(equal)


def test_pair_precondition_errors():
    with pytest.raises(NotRealRootedError) as exc:
        compatible_pair_sampled(X, Poly((2, -3, 1)))
    assert exc.value.which == "g"
    with pytest.raises(NotRealRootedError) as exc:
        compatible_pair_sampled(Poly((1, 0, 1)), X)
    assert exc.value.which == "f"


def _brute_pair_verdict(f, g):
    # every one of the 64 default weight pairs, in loop order
    weights = compat._WEIGHTS
    for c1 in weights:
        for c2 in weights:
            combo = conic_combination((c1, c2), (f, g))
            if not is_real_rooted(combo):
                return FAIL, (c1, c2), combo
    return PASS_SAMPLED, None, None


def _ratio_test_pairs():
    rng = random.Random(8)
    pairs = [(e_vector(4, 4).polys[1], e_vector(4, 4).polys[2]),
             (Poly((4, 4, 1)), Poly((9, 6, 1))),   # (x+2)^2, (x+3)^2
             (Poly((2, 3, 1)), Poly((2, -3, 1)))]
    pairs += [(Poly(tuple(rng.randint(-9, 9) for _ in range(rng.randint(1, 5))) + (1,)),
               Poly(tuple(rng.randint(-9, 9) for _ in range(rng.randint(1, 5))) + (1,)))
              for _ in range(30)]
    return pairs


def _no_interlacing_shortcut(mp):
    """Every test of the sampled loop taken as not interlacing, so that each
    one is sampled at its weight pairs."""
    mp.setattr(compat, "interleaves", lambda f, g: False)


def test_pair_tests_each_weight_ratio_once(monkeypatch):
    # the combination's real-rootedness depends only on c1/c2, and the default
    # grid has 33 distinct ratios; the first failing pair is never skipped
    _no_interlacing_shortcut(monkeypatch)
    pairs = _ratio_test_pairs()
    expected = [_brute_pair_verdict(f, g) for f, g in pairs]
    assert {status for status, _, _ in expected} == {PASS_SAMPLED, FAIL}
    calls = []

    def counted(p):
        calls.append(p)
        return is_real_rooted(p)

    monkeypatch.setattr(compat, "is_real_rooted", counted)
    for (f, g), (status, weights, combo) in zip(pairs, expected):
        calls.clear()
        verdict = compatible_pair_sampled(f, g, unchecked=True)
        assert len(calls) <= 33
        assert verdict.status == status
        if status == FAIL:
            assert (verdict.witness.weights, verdict.witness.combination) == (weights, combo)
        else:
            assert len(calls) == 33


def test_integer_weights_give_the_conic_combination():
    # the table of cleared integer weights against conic_combination, at every
    # pair it serves and on every incompatible input above
    assert len(compat._CLEARED_PAIRS) == len(compat._PAIRS) == 33
    inputs = _ratio_test_pairs() + [(X, ONE), (X * X, ONE)]
    for f, g in inputs:
        for weights, (a, b) in zip(compat._PAIRS, compat._CLEARED_PAIRS):
            assert a * f + b * g == conic_combination(weights, (f, g))
    failures = 0
    for f, g in inputs:
        verdict = compatible_pair_sampled(f, g, unchecked=True)
        if verdict.status == FAIL:
            failures += 1
            w = verdict.witness
            assert w.weights in compat._PAIRS
            assert all(isinstance(c, Fraction) for c in w.weights)
            assert w.combination == conic_combination(w.weights, (f, g))
    assert failures >= 3


@st.composite
def _combination_inputs(draw):
    """(f, g, h, (a, b)): coefficient lists of any lengths, negative and huge
    entries allowed.  The top terms of f and g may cancel at the cleared
    weight pair (a, b), down to a zero combination."""
    a, b = draw(st.sampled_from(compat._CLEARED_PAIRS))
    coeff = st.integers(-2**70, 2**70)
    f, g, h = (draw(st.lists(coeff, max_size=7)) for _ in range(3))
    cancel = draw(st.integers(0, len(f)))
    if cancel:
        g = (g + [0] * len(f))[:len(f)]
        for i in range(len(f) - cancel, len(f)):
            f[i], g[i] = b * f[i], -a * f[i]  # a*f[i] + b*g[i] == 0
    return f, g, h, (a, b)


@settings(max_examples=300, deadline=None)
@given(_combination_inputs())
def test_one_pass_combination_equals_poly_arithmetic(inputs):
    f, g, h, (a, b) = inputs
    f, g, h = Poly(f), Poly(g), Poly(h)
    seen = []
    with pytest.MonkeyPatch.context() as mp:  # every combination, each taken as real-rooted
        _no_interlacing_shortcut(mp)
        mp.setattr(compat, "is_real_rooted", lambda p: seen.append(p) or True)
        assert compatible_pair_sampled(f, g, unchecked=True).status == PASS_SAMPLED
    want = [c1 * f + c2 * g for c1, c2 in compat._CLEARED_PAIRS]
    assert seen == want
    assert all(p.coeffs[-1] for p in seen if p.coeffs)  # canonical
    assert conic_combination((a, b), (f, g)) == a * f + b * g
    ws = (Fraction(a, 3), Fraction(b, 7), Fraction(5, 2))
    den = math.lcm(*(w.denominator for w in ws))
    ref = ZERO
    for w, p in zip(ws, (f, g, h)):
        ref = ref + int(w * den) * p
    assert conic_combination(ws, (f, g, h)) == ref


def test_sampling_grids_are_the_documented_constants():
    F = Fraction
    assert compat._WEIGHTS == (F(1, 8), F(1, 3), F(1, 2), F(1), F(2), F(3), F(8), F(64))
    # the pairs tested are the first of each ratio c1/c2 among the 64, in loop order
    every = list(itertools.product(compat._WEIGHTS, repeat=2))
    first = [(c1, c2) for k, (c1, c2) in enumerate(every)
             if all(c1 / c2 != d1 / d2 for d1, d2 in every[:k])]
    assert len(first) == 33 and compat._PAIRS == tuple(first)
    base = (F(1, 8), F(1, 2), F(1), F(2), F(8))
    assert LAMBDA_MU_PAIRS == (tuple(itertools.product(base, repeat=2))
                               + ((F(64), F(1, 64)), (F(1, 64), F(1, 64))))


def test_family_examples():
    assert compatible_family_sampled([Poly((0, 2)), X, Poly((0, 0, 1))]).status == PASS_SAMPLED
    assert compatible_family_sampled([Poly((1, 1))]).status == PASS_SAMPLED
    verdict = compatible_family_sampled(
        [Poly((2, 3, 1)), Poly((2, -3, 1))], unchecked=True
    )
    assert verdict.status == FAIL
    assert verdict.witness.pair == (0, 1)
    assert not is_real_rooted(verdict.witness.combination)


def test_family_fails_at_a_full_combination_when_every_pair_passes():
    # 1 - 2x, 2 + x and -4 + 4x + 2x^2 pass their pair tests, so the verdict
    # is the cross-check's: the combination at the weights (1, 1/2, 1/4)
    fs = [Poly((1, -2)), Poly((2, 1)), Poly((-4, 4, 2))]
    assert all(compatible_pair_sampled(f, g, unchecked=True).is_pass
               for f, g in itertools.combinations_with_replacement(fs, 2))
    verdict = compatible_family_sampled(fs, unchecked=True)
    assert verdict.status == FAIL
    assert verdict.witness.to_json_obj() == {"weights": ["1/1", "1/2", "1/4"],
                                             "combination": "4,-2,2"}
    assert verdict.witness.combination == conic_combination(verdict.witness.weights, fs)


def test_family_precondition_identifies_input():
    with pytest.raises(NotRealRootedError) as exc:
        compatible_family_sampled([X, Poly((1, 0, 1))])
    assert exc.value.which == "1"


def test_conditions_ab_base_family():
    assert check_conditions_ab([ZERO] + [X] * 3).status == PASS_SAMPLED


def test_conditions_ab_detects_b_failure():
    verdict = check_conditions_ab([X, ONE])
    assert verdict.status == FAIL
    assert verdict.witness.condition == "b"
    assert verdict.witness.pair == (0, 1)
    assert not is_real_rooted(verdict.witness.combination)


def test_conditions_ab_singleton():
    assert check_conditions_ab([Poly((1, 1))]).status == PASS_SAMPLED


def test_transform_examples():
    assert theorem_comp_transform([ZERO, X, X]) == [Poly((0, 2)), X, Poly((0, 0, 1))]
    assert theorem_comp_transform([Poly((2, 1))]) == [ZERO]
    assert theorem_comp_transform([ONE, ONE]) == [ONE, X]


def _reference_comp_transform(fs) -> list[Poly]:
    """The comp transform term by term, the reference for the prefix sums:
    g_k = sum_{h<k} x*f_h + sum_{h>k} f_h."""
    fs = list(fs)
    out = []
    for k in range(len(fs)):
        g = ZERO
        for h in range(len(fs)):
            if h < k:
                g = g + (X * fs[h])
            elif h > k:
                g = g + fs[h]
        out.append(g)
    return out


_families = st.lists(st.lists(st.integers(-50, 50), max_size=6).map(lambda cs: Poly(tuple(cs))),
                     max_size=7)


@settings(max_examples=300, deadline=None)
@given(_families)
def test_comp_transform_equals_the_reference(fs):
    assert theorem_comp_transform(fs) == _reference_comp_transform(fs)


@settings(max_examples=200, deadline=None)
@given(_families.filter(len))
def test_comp_transform_is_the_action_of_the_step_matrix(fs):
    n = len(fs)
    step = SymMatrix(tuple(tuple(Entry.ZERO if i == j else Entry.ONE if j > i else Entry.X
                                 for j in range(n)) for i in range(n)))
    assert theorem_comp_transform(fs) == apply(step, fs)


def test_transform_chain_reproduces_recurrence():
    for r in range(2, 6):
        for n in range(1, 9):
            fs = list(e_base(r).polys)
            for _ in range(n - 1):
                fs = theorem_comp_transform(fs)
            assert fs == list(e_vector(r, n).polys), (r, n)


def test_conditions_survive_transform_on_recurrence_families():
    # the inductive invariant at desk scale: if the conditions pass for the
    # n-step family they pass for the (n+1)-step family
    for r in (2, 3, 4):
        v = e_base(r)
        for _ in range(4):
            assert check_conditions_ab(list(v.polys)).status == PASS_SAMPLED
            v = e_step(v)


def test_verdict_json():
    verdict = check_conditions_ab([X, ONE])
    obj = verdict.witness.to_json_obj()
    assert set(obj) == {"weights", "combination", "condition", "pair"}
    assert all("/" in w for w in obj["weights"])


def _spied(mp):
    """(combos, asked): the combinations that compat tests for real roots,
    and (f, g, verdict) of each interleaves call it makes, as they happen."""
    combos, asked = [], []
    mp.setattr(compat, "is_real_rooted", lambda p: combos.append(p) or is_real_rooted(p))
    mp.setattr(compat, "interleaves",
               lambda f, g: asked.append((f, g, interleaves(f, g))) or asked[-1][2])
    return combos, asked


def test_equal_pair_decided_at_its_first_weight_pair(monkeypatch):
    # every c1*f + c2*f is a positive multiple of f: interleaves(f, f) holds
    # iff f is real-rooted, so a real-rooted equal pair takes that one call
    # and no combination; any other fails at the first pair (1/8, 1/8),
    # whose combination is 2f, with the witness of all 64
    real_rooted = [ZERO, ONE, Poly((2, 3, 1)), e_vector(4, 4).polys[0]]
    not_real_rooted = [Poly((1, 0, 1)), Poly((1, 1, 1)) * Poly((2, 1))]
    expected = {f: _brute_pair_verdict(f, f) for f in real_rooted + not_real_rooted}
    assert {status for status, _, _ in expected.values()} == {PASS_SAMPLED, FAIL}
    combos, asked = _spied(monkeypatch)
    for f in real_rooted + not_real_rooted:
        status, weights, combo = expected[f]
        for unchecked in (True, False):
            combos.clear()
            asked.clear()
            if not unchecked and f in not_real_rooted:
                with pytest.raises(NotRealRootedError):
                    compatible_pair_sampled(f, f, unchecked=unchecked)
                assert combos == [f] and asked == []  # the admissibility test of f
                continue
            verdict = compatible_pair_sampled(f, f, unchecked=unchecked)
            admissibility = [] if unchecked else [f, f]
            assert verdict.status == status
            if status == FAIL:
                assert asked == [(f, f, False)]
                assert combos == admissibility + [2 * f]
                assert (verdict.witness.weights, verdict.witness.combination) == (weights, combo)
            else:
                assert asked == [(f, f, True)]
                assert combos == admissibility
    # a family takes one interleaves call for each diagonal pair, and the
    # conditions test one for condition (a) of each
    fs = [Poly((0, 2)), X, Poly((0, 0, 1))]
    asked.clear()
    compatible_family_sampled(fs, unchecked=True)
    assert [(f, f, True) for f in fs] == [call for call in asked if call[0] == call[1]]
    fs = list(e_vector(3, 4).polys)  # three distinct members
    asked.clear()
    check_conditions_ab(fs, unchecked=True)
    assert [(f, f, True) for f in fs] == [call for call in asked if call[0] == call[1]]


def test_a_zero_member_takes_one_interleaves_call_and_no_sample(monkeypatch):
    # 0 << g iff g is real-rooted, and every c1*0 + c2*g is c2*g
    combos, asked = _spied(monkeypatch)
    g = Poly((2, 3, 1))
    for f, h in ((ZERO, g), (g, ZERO)):
        assert compatible_pair_sampled(f, h).status == PASS_SAMPLED
        assert combos == [f, h] and asked == [(ZERO, g, True)]  # the admissibility tests
        combos.clear()
        asked.clear()
    # a negative lead beside 0 is negated first, under unchecked
    assert compatible_pair_sampled(ZERO, -g, unchecked=True).status == PASS_SAMPLED
    assert combos == [] and asked == [(ZERO, g, True)]
    # beside a g that is not real-rooted the call fails, and the first
    # weight pair gives the witness g
    asked.clear()
    g = Poly((1, 0, 1))
    verdict = compatible_pair_sampled(ZERO, g, unchecked=True)
    assert (verdict.status, verdict.witness.weights, verdict.witness.combination) == \
        (FAIL, (Fraction(1, 8), Fraction(1, 8)), g)
    assert combos == [g] and asked == [(ZERO, g, False)]
    # E(2, n) and the base family of r = 4 hold a zero member: each of the
    # 2 m (m + 1) / 2 conditions tests of their m members is one
    # interleaves call, and none takes a combination
    for fs in [list(e_vector(2, n).polys) for n in (1, 2, 3, 4)] + [list(e_base(4).polys)]:
        assert ZERO in fs
        combos.clear()
        asked.clear()
        assert check_conditions_ab(fs, unchecked=True).status == PASS_SAMPLED
        m = len(fs)
        assert combos == [] and len(asked) == m * (m + 1)


# -- the three loops that the one sampled loop replaced, at all 64 weight pairs --


def _reference_admissible(p, label):
    if any(c < 0 for c in p.coeffs):
        raise NotRealRootedError(label, "negative coefficient")
    if not is_real_rooted(p):
        raise NotRealRootedError(label, "not real-rooted")


def _witness_obj(weights, combo, condition=None, pair=None):
    obj = {"weights": [f"{w.numerator}/{w.denominator}" for w in weights],
           "combination": combo.to_string()}
    if condition is not None:
        obj["condition"] = condition
    if pair is not None:
        obj["pair"] = list(pair)
    return obj


def _reference_pair(f, g, condition=None, pair=None):
    status, weights, combo = _brute_pair_verdict(f, g)
    return None if status == PASS_SAMPLED else _witness_obj(weights, combo, condition, pair)


def _reference_verdict(kind, fs, unchecked):
    """(status, witness JSON) of compatible_pair_sampled on fs[0], fs[1], of
    compatible_family_sampled or of check_conditions_ab on fs, by the loops
    of the three functions before they shared one, at all 64 weight pairs."""
    if kind == "pair":
        if not unchecked:
            _reference_admissible(fs[0], "f")
            _reference_admissible(fs[1], "g")
        witness = _reference_pair(fs[0], fs[1])
        return (PASS_SAMPLED, None) if witness is None else (FAIL, witness)
    if not unchecked:
        for idx, p in enumerate(fs):
            _reference_admissible(p, str(idx))
    for i in range(len(fs)):
        for j in range(i, len(fs)):
            lefts = [(None, fs[i])] if kind == "family" else [("a", fs[i]), ("b", X * fs[i])]
            for condition, left in lefts:
                witness = _reference_pair(left, fs[j], condition, (i, j))
                if witness is not None:
                    return FAIL, witness
    if kind == "family" and len(fs) > 2:
        weight_vectors = [(Fraction(1),) * len(fs)]
        weight_vectors += [tuple(c**k for k in range(len(fs))) for c in compat._WEIGHTS]
        for ws in weight_vectors:
            combo = conic_combination(ws, fs)
            if not is_real_rooted(combo):
                return FAIL, _witness_obj(ws, combo)
    return PASS_SAMPLED, None


def _library_verdict(kind, fs, unchecked):
    if kind == "pair":
        verdict = compatible_pair_sampled(fs[0], fs[1], unchecked=unchecked)
    elif kind == "family":
        verdict = compatible_family_sampled(fs, unchecked=unchecked)
    else:
        verdict = check_conditions_ab(fs, unchecked=unchecked)
    return verdict.status, None if verdict.witness is None else verdict.witness.to_json_obj()


def _outcome(verdict, kind, fs, unchecked):
    try:
        return verdict(kind, fs, unchecked)
    except NotRealRootedError as exc:
        return "raises", exc.which, exc.reason, str(exc)


def _random_families(seed, count):
    """Families of 1 to 4 members: products of linear factors x + a (a >= 0,
    so admissible, or a < 0), random coefficient lists (negative ones too),
    repeated members and the zero polynomial."""
    rng = random.Random(seed)
    families = []
    for _ in range(count):
        fs = []
        for _ in range(rng.randint(1, 4)):
            kind = rng.random()
            if fs and kind < 0.2:
                fs.append(rng.choice(fs))
            elif kind < 0.6:
                p = Poly((rng.randint(1, 3),))
                for _ in range(rng.randint(0, 3)):
                    p = p * Poly((rng.choice((0, 1, 1, 2, 3, 5, -1, -2)), 1))
                fs.append(p)
            elif kind < 0.95:
                fs.append(Poly(tuple(rng.randint(-3, 6) for _ in range(rng.randint(1, 4)))))
            else:
                fs.append(ZERO)
        families.append(fs)
    return families


def test_one_sampled_loop_equals_the_three_loops_it_replaced():
    families = [list(e_vector(r, n).polys) for r in (2, 3, 4) for n in (1, 2, 3, 4)]
    families += [[Poly((2, 3, 1)), Poly((2, 3, 1)), Poly((2, -3, 1))],
                 [X, X], [X, ONE, X], [Poly((1, 0, 1))] * 2]
    families += _random_families(19, 60)
    seen = set()
    for fs in families:
        for unchecked in (True, False):
            for kind in ("pair", "family", "conditions"):
                if kind == "pair" and len(fs) < 2:
                    continue
                want = _outcome(_reference_verdict, kind, fs, unchecked)
                assert _outcome(_library_verdict, kind, fs, unchecked) == want, (kind, fs)
                seen.add(want[0])
    assert seen == {PASS_SAMPLED, FAIL, "raises"}


# -- the interlacing shortcut: one interleaves call in place of 33 samples --


def test_interlacing_tests_take_no_sample(monkeypatch):
    combos, asked = _spied(monkeypatch)
    # E(3,4) interlaces pairwise and with each x*f_i: the admissibility tests
    # are all the root tests left; each other test is one interleaves call,
    # in the one order that can hold
    fs = list(e_vector(3, 4).polys)
    assert check_conditions_ab(fs).status == PASS_SAMPLED
    assert combos == fs
    assert [holds for _, _, holds in asked] == [True] * 12
    assert all(f.degree <= g.degree for f, g, _ in asked)
    # the family E(4,4): admissibility and the 9 full combinations
    combos.clear()
    asked.clear()
    fs = list(e_vector(4, 4).polys)
    assert compatible_family_sampled(fs).status == PASS_SAMPLED
    assert len(combos) == 4 + 1 + len(compat._WEIGHTS) == 13
    assert [holds for _, _, holds in asked] == [True] * 10
    # (x+2)^2 and (x+3)^2 interlace neither way: the roots of f sum to more,
    # so only g << f is asked; sampled to the same witness
    combos.clear()
    asked.clear()
    f, g = Poly((4, 4, 1)), Poly((9, 6, 1))
    verdict = compatible_pair_sampled(f, g)
    status, weights, combo = _brute_pair_verdict(f, g)
    assert (verdict.status, verdict.witness.weights, verdict.witness.combination) == \
        (status, weights, combo) == (FAIL, (Fraction(1, 8), Fraction(1, 8)), Poly((13, 10, 2)))
    assert combos == [f, g, combo]
    assert asked == [(g, f, False)]


# members for the oracle: c * prod (x - r) over small integer roots, so that
# roots are shared and repeated, at times times x^2 + 1, which has no real
# root; c may be negative, and a member may be 0
_ROOT = st.integers(-4, 4)


@st.composite
def _oracle_pairs(draw):
    """(f, g): root lists of 0 to 4 roots, g with 0, 1 or 2 roots more or
    fewer than f and some roots taken from f's; or g equal to f; or both
    with negative leading coefficients (a zero member stays 0)."""
    def member(roots):
        if draw(st.integers(0, 15)) == 0:
            return ZERO
        p = Poly((draw(st.sampled_from((1, 1, 1, 2, 3, -1, -2))),))
        for r in roots:
            p = p * Poly((-r, 1))
        return p * Poly((1, 0, 1)) if draw(st.integers(0, 7)) == 0 else p

    f_roots = draw(st.lists(_ROOT, max_size=4))
    size = max(0, len(f_roots) + draw(st.sampled_from((-2, -1, 0, 0, 1, 2))))
    g_roots = [draw(st.sampled_from(f_roots)) if f_roots and draw(st.booleans()) else draw(_ROOT)
               for _ in range(size)]
    pair = [member(f_roots), member(g_roots)]
    shape = draw(st.sampled_from(("drawn", "drawn", "equal", "negative")))
    if shape == "equal":
        pair[1] = pair[0]
    elif shape == "negative":
        pair = [-p if p.leading_coefficient > 0 else p for p in pair]
    return tuple(pair[::-1] if draw(st.booleans()) else pair)


@settings(max_examples=200, deadline=None)
@given(_oracle_pairs())
def test_interlacing_pairs_pass_every_sample_and_the_verdicts_match_the_loops(pair):
    f, g = pair
    if compat._interlace(f, g):
        assert all(is_real_rooted(a * f + b * g) for a, b in compat._CLEARED_PAIRS), pair
    for unchecked in (True, False):
        for kind in ("pair", "family", "conditions"):
            want = _outcome(_reference_verdict, kind, [f, g], unchecked)
            assert _outcome(_library_verdict, kind, [f, g], unchecked) == want, (kind, pair)


def _two_order_interlace(f, g):
    """The rule that asked both orders at equal degrees, kept as the reference."""
    if f.leading_coefficient + g.leading_coefficient < 0:
        f, g = -f, -g
    if f.leading_coefficient < 0 or g.leading_coefficient < 0:
        return False
    if f.degree > g.degree:
        f, g = g, f
    return interleaves(f, g) or (f.degree == g.degree and interleaves(g, f))


@settings(max_examples=300, deadline=None)
@given(_oracle_pairs(), st.sampled_from((None, 2, 3, -1, -2)), st.booleans())
def test_one_interleaves_call_decides_what_both_orders_did(pair, multiple, first):
    # a multiple puts c*f beside f, at the same degree and the same roots
    f, g = pair
    if multiple is not None:
        f, g = (f, multiple * f) if first else (multiple * f, f)
    with pytest.MonkeyPatch.context() as mp:
        _, asked = _spied(mp)
        holds = compat._interlace(f, g)
    assert holds == _two_order_interlace(f, g), (f, g)
    assert len(asked) <= 1
