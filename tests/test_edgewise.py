import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interlace import edgewise, matrices, words
from interlace.edgewise import (
    EVector,
    FVector,
    HVector,
    e_base,
    e_gamma,
    e_step,
    e_vector,
    fh_transform,
    gamma_matrix,
    hf_transform,
    local_h,
)
from interlace.errors import BadParametersError, InvalidGammaError, MalformedVectorError
from interlace.matrices import apply
from interlace.polys import ONE, X, ZERO, Poly
from interlace.realroots import is_real_rooted
from interlace.words import (
    GammaVector,
    all_gamma_vectors,
    enumerate_sw_prime,
    oracle_E,
    oracle_E_gamma,
    oracle_local_h,
)


def test_e_base():
    assert e_base(3).polys == (ZERO, X, X)
    assert e_base(2).polys == (ZERO, X)
    assert sum(p(1) for p in e_base(5).polys) == 4
    with pytest.raises(BadParametersError):
        e_base(1)


def test_e_step_hand_values():
    v = e_step(e_base(3))
    assert v.polys == (Poly((0, 2)), X, Poly((0, 0, 1)))
    v = e_step(v)
    assert v.polys == (Poly((0, 1, 1)), Poly((0, 0, 3)), Poly((0, 0, 3)))
    assert sum(p(1) for p in v.polys) == 8
    assert e_step(e_base(2)).polys == (X, ZERO)


def test_local_h_values():
    assert local_h(3, 3) == Poly((0, 1, 1))
    assert local_h(2, 4) == Poly((0, 0, 1))
    assert local_h(3, 4) == Poly((0, 0, 6))
    with pytest.raises(BadParametersError):
        local_h(3, 0)


@pytest.mark.parametrize("r", range(2, 6))
@pytest.mark.parametrize("n", range(1, 7))
def test_recurrence_matches_oracle_subgrid(r, n):
    assert list(e_vector(r, n).polys) == oracle_E(n, r)


def test_local_h_counts_closed_words():
    for r in range(2, 5):
        for n in range(1, 6):
            assert local_h(r, n)(1) == oracle_local_h(n, r)(1)


def test_evector_validation():
    with pytest.raises(BadParametersError):
        EVector(3, 1, (X, X))  # wrong arity
    with pytest.raises(BadParametersError):
        EVector(3, 1, (Poly((-1, 1)), X, X))  # negative coefficient
    with pytest.raises(BadParametersError):
        EVector(3, 1, (X, X, X))  # mass 3 > (r-1)^n = 2


def test_gamma_matrix_shapes():
    assert gamma_matrix(3, GammaVector.zeros(3)).to_strings() == [
        ["0", "1", "1"],
        ["x", "0", "1"],
        ["x", "x", "0"],
    ]
    assert gamma_matrix(3, GammaVector((1, 1, 1))).to_strings() == [
        ["0", "0", "1"],
        ["0", "0", "0"],
        ["x", "0", "0"],
    ]
    with pytest.raises(InvalidGammaError):
        gamma_matrix(4, GammaVector((0, 0)))


def test_e_step_equals_matrix_action():
    for r in range(2, 6):
        M = gamma_matrix(r, GammaVector.zeros(r))
        v = e_base(r)
        for _ in range(5):
            stepped = e_step(v)
            assert list(stepped.polys) == apply(M, v.polys)
            v = stepped
    # the restricted step, closed-form base included, against the matrix action
    # iterated from the one-letter word 0
    for r in range(2, 7):
        for g in all_gamma_vectors(r):
            M = gamma_matrix(r, g)
            polys = [ONE] + [ZERO] * (r - 1)
            for n in range(1, 7):
                polys = apply(M, polys)
                assert list(e_gamma(r, n, g).polys) == polys, (r, n, g)


def test_e_gamma_zero_profile_reduces_to_plain_chain():
    for r in (2, 3, 4):
        for n in range(1, 6):
            assert e_gamma(r, n, GammaVector.zeros(r)).polys == e_vector(r, n).polys


def test_e_gamma_alternating_profile():
    g = GammaVector((1, 1, 1))
    for n in range(2, 9, 2):
        assert e_gamma(3, n, g).polys[0] == Poly.monomial(n // 2)
    for n in range(1, 9, 2):
        assert e_gamma(3, n, g).polys[0] == ZERO


def test_e_gamma_matches_oracle_subgrid():
    for r in (2, 3, 4):
        for g in all_gamma_vectors(r):
            for n in range(1, 6):
                assert list(e_gamma(r, n, g).polys) == oracle_E_gamma(n, r, g), (r, n, g)


def test_recurrences_stay_independent_of_the_oracles(monkeypatch):
    grid = [(r, n) for r in range(2, 6) for n in range(1, 7)]
    expected = {(r, n): e_vector(r, n).polys for r, n in grid}
    restricted = {(r, n, g): e_gamma(r, n, g).polys
                  for r, n in grid for g in all_gamma_vectors(r)}

    def forbidden(*args, **kwargs):
        raise RuntimeError("the recurrence called an oracle or the matrix action")

    for module in (matrices, words, edgewise):
        for name in ("_tally", "_transitions", "apply", "oracle_E_gamma"):
            monkeypatch.setattr(module, name, forbidden, raising=False)
    for (r, n), polys in expected.items():
        assert e_vector(r, n).polys == polys
    for (r, n, g), polys in restricted.items():
        assert e_gamma(r, n, g).polys == polys


def _reference_step(polys: tuple[Poly, ...], reach: tuple[int, ...]) -> tuple[Poly, ...]:
    """The step in Poly arithmetic, the reference for the packed one:
    E'_i = x * (E_0 + ... + E_{i-reach[i]-1}) + (E_{i+reach[i]+1} + ... + E_{r-1})."""
    r = len(polys)
    below = [ZERO] * r
    above = [ZERO] * r
    for k in range(1, r):
        below[k] = below[k - 1] + polys[k - 1]
    for k in range(r - 2, -1, -1):
        above[k] = above[k + 1] + polys[k + 1]
    return tuple(
        (below[i - g].shift_up() if i > g else ZERO) + (above[i + g] if i + g < r else ZERO)
        for i, g in enumerate(reach)
    )


def _reference_gamma(r: int, n: int, reach: tuple[int, ...]) -> tuple[Poly, ...]:
    polys = (ONE,) + (ZERO,) * (r - 1)
    for _ in range(n):
        polys = _reference_step(polys, reach)
    return polys


@st.composite
def _profiles(draw) -> GammaVector:
    r = draw(st.integers(min_value=2, max_value=10))
    g = [draw(st.integers(min_value=0, max_value=r - 2))]
    while len(g) < r:
        g.append(draw(st.integers(min_value=max(0, g[-1] - 1), max_value=min(r - 2, g[-1] + 1))))
    return GammaVector(tuple(g))


@settings(max_examples=150, deadline=None)
@given(_profiles(), st.integers(min_value=1, max_value=30))
def test_packed_e_gamma_equals_the_poly_step(gamma, n):
    assert e_gamma(gamma.r, n, gamma).polys == _reference_gamma(gamma.r, n, gamma.gamma)


def test_e_step_continues_e_gamma():
    for r in range(2, 9):
        for n in range(1, 13):
            assert e_step(e_gamma(r, n, None)) == e_gamma(r, n + 1, None), (r, n)


def test_two_letters_fill_two_bit_slots():
    # at r = 2 the one open word alternates its last letter, and every slot
    # holds 0 or 1 in w = (1).bit_length() + 1 = 2 bits
    for n in range(1, 31):
        top = Poly.monomial((n + 1) // 2)
        assert e_gamma(2, n, None).polys == ((ZERO, top) if n % 2 else (top, ZERO)), n
    assert e_step(EVector(2, 5, (ZERO, Poly.monomial(3)))).polys == (Poly.monomial(3), ZERO)
    assert e_step(EVector(2, 5, (Poly.monomial(7), ZERO))).polys == (ZERO, Poly.monomial(8))


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=2, max_value=8), st.integers(min_value=1, max_value=6), st.data())
def test_e_step_at_maximal_mass(r, n, data):
    # hand-built vectors of mass (r-1)^n, the most their validation admits,
    # in at most n + 3 coefficients per component: the step sums all of it
    # into single slots without a carry
    mass = (r - 1) ** n
    slots = r * (n + 3)
    cuts = sorted(data.draw(st.lists(st.integers(min_value=0, max_value=mass),
                                     min_size=slots - 1, max_size=slots - 1)))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [mass])]
    v = EVector(r, n, tuple(Poly(tuple(parts[i:i + n + 3])) for i in range(0, slots, n + 3)))
    assert e_step(v).polys == _reference_step(v.polys, (0,) * r)
    # all of the mass in the top coefficient of one component
    for i in (0, r - 1):
        v = EVector(r, n, tuple(Poly.monomial(n, mass) if k == i else ZERO for k in range(r)))
        assert e_step(v).polys == _reference_step(v.polys, (0,) * r)


def test_the_step_runs_no_poly_arithmetic(monkeypatch):
    expected = {(r, n, g): _reference_gamma(r, n, g.gamma)
                for r in range(2, 6) for n in (1, 4, 9) for g in all_gamma_vectors(r)}
    stepped = e_step(e_vector(5, 5))

    def forbidden(*args, **kwargs):
        raise RuntimeError("the recurrence ran Poly arithmetic per step")

    monkeypatch.setattr(Poly, "__add__", forbidden)
    monkeypatch.setattr(Poly, "shift_up", forbidden)
    for (r, n, g), polys in expected.items():
        assert e_gamma(r, n, g).polys == polys
    assert e_step(e_vector(5, 5)) == stepped


@pytest.mark.parametrize("r,n,gamma,error", [
    (3, 0, GammaVector.zeros(3), BadParametersError),
    (3, "3", GammaVector.zeros(3), BadParametersError),
    (1, 3, GammaVector.zeros(2), BadParametersError),
    (3, 3, (0, 0, 0), InvalidGammaError),
    (4, 3, GammaVector.zeros(3), InvalidGammaError),
    # None is the zero profile, valid for every r >= 2
    (3, 0, None, BadParametersError),
    (3, "3", None, BadParametersError),
    (1, 3, None, BadParametersError),
])
def test_e_gamma_invalid_inputs(r, n, gamma, error):
    with pytest.raises(error):
        e_gamma(r, n, gamma)


@pytest.mark.parametrize("call,args,n,r", [
    (e_gamma, (1, 1, None), 1, 1),
    (e_gamma, (3, 0, None), 0, 3),
    (EVector, (1, 1, ()), 1, 1),
    (EVector, (2.0, 1, (ONE, ONE)), 1, 2.0),
    (oracle_E, (0, 3), 0, 3),
    (enumerate_sw_prime, (3, 1), 3, 1),
], ids=["e_gamma-1-1", "e_gamma-3-0", "EVector-1-1", "EVector-float-r", "oracle_E-0-3",
        "enumerate_sw_prime-3-1"])
def test_one_message_for_the_n_r_domain(call, args, n, r):
    # e_gamma and EVector take (r, n), the oracles (n, r): one check words them alike
    with pytest.raises(BadParametersError) as info:
        call(*args)
    assert str(info.value) == f"need integers n >= 1 and r >= 2, got n={n}, r={r}"


@pytest.mark.parametrize("call,args", [
    (e_vector, (3, 0)),
    (e_vector, (3, "3")),
    (e_vector, (1, 3)),
    (e_base, (1,)),
], ids=["e_vector-3-0", "e_vector-3-str", "e_vector-1-3", "e_base-1"])
def test_e_vector_and_e_base_invalid_inputs(call, args):
    with pytest.raises(BadParametersError):
        call(*args)


def test_e_components_real_rooted_subgrid():
    for r in (2, 3, 4, 5):
        v = e_base(r)
        for _ in range(6):
            assert all(is_real_rooted(p) for p in v.polys)
            v = e_step(v)


# -- face-count transform --------------------------------------------------------


def test_fh_examples():
    assert fh_transform(FVector((1, 3, 3, 1))).entries == (1, 0, 0, 0)
    assert fh_transform(FVector((1, 3, 3))).entries == (1, 1, 1)
    assert hf_transform(HVector((1, 1, 1))).entries == (1, 3, 3)


def test_fh_malformed():
    with pytest.raises(MalformedVectorError):
        FVector((2, 3))
    with pytest.raises(MalformedVectorError):
        FVector(())
    with pytest.raises(MalformedVectorError):
        hf_transform(HVector((2, 0)))  # would produce f_{-1} = 2


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=-20, max_value=20), min_size=0, max_size=6))
def test_fh_round_trip(tail):
    f = FVector((1, *tail))
    assert hf_transform(fh_transform(f)).entries == f.entries


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=-20, max_value=20), min_size=0, max_size=6))
def test_hf_round_trip(tail):
    h = HVector((1, *tail))
    assert fh_transform(hf_transform(h)).entries == h.entries
