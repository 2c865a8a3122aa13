"""``local_h`` against a closed form that shares no code with ``edgewise``.

Stanley's local h-polynomial of a subdivision of the (n-1)-simplex V is
l_V(x) = sum over faces W of V of (-1)^(|V| - |W|) h(Gamma_W, x) (Stanley,
J. Amer. Math. Soc. 5, 1992).  For the r-fold edgewise subdivision every
face with k vertices is the subdivided (k-1)-simplex, whose h-polynomial
h_k is the r-th Veronese section of (1 + x + ... + x^(r-1))^k (Brenti and
Welker, Adv. Appl. Math. 42, 2009): its coefficient i is the coefficient of
x^(ri) in ((1 - x^r) / (1 - x))^k, that is
sum_j (-1)^j C(k, j) C(r(i - j) + k - 1, k - 1).  So
l_n = sum_k (-1)^(n - k) C(n, k) h_k.
"""

from math import comb

import pytest

from interlace.edgewise import local_h


def _veronese_h(r: int, k: int) -> list[int]:
    """The h-polynomial of the r-fold edgewise subdivision of the (k-1)-simplex."""
    if k == 0:
        return [1]
    return [sum((-1) ** j * comb(k, j) * comb(r * (i - j) + k - 1, k - 1) for j in range(i + 1))
            for i in range(k)]


def closed_form_local_h(r: int, n: int) -> tuple[int, ...]:
    """The coefficients of l_n, ascending, with trailing zeros stripped."""
    out = [0] * (n + 1)
    for k in range(n + 1):
        for i, c in enumerate(_veronese_h(r, k)):
            out[i] += (-1) ** (n - k) * comb(n, k) * c
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def test_the_closed_form_at_small_cells():
    # a point has l = 0; an edge cut into r pieces has h = 1 + (r - 1) x,
    # so l = h - 2 + 1 = (r - 1) x
    assert closed_form_local_h(5, 1) == ()
    assert closed_form_local_h(2, 2) == (0, 1)
    assert closed_form_local_h(5, 2) == (0, 4)


@pytest.mark.parametrize("r", range(2, 13))
def test_local_h_matches_the_closed_form(r):
    for n in range(1, 41):
        assert local_h(r, n).coeffs == closed_form_local_h(r, n), (r, n)
