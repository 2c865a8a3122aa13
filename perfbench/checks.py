"""Output checks that share no code with the library under test.

Polynomials here are plain coefficient lists (ascending, integers or
Fractions), evaluated by the benchmark's own Horner loop.  Root certificates
arrive as lists of ``(lo, hi, mult)`` Fraction triples.  Every checker returns
``None`` when the output is right and a short description of the fault
otherwise, so that ``self_test`` can feed each one a wrong answer.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


# -- exact polynomial arithmetic ----------------------------------------------


def peval(coeffs, t):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def trim(coeffs):
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return out


def pmul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def padd(a, b):
    n = max(len(a), len(b))
    return trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])


def pderiv(a):
    return [k * c for k, c in enumerate(a)][1:]


def from_roots(roots):
    """Integer coefficients of prod (den*x - num)^mult over {root: mult}."""
    out = [1]
    for root, mult in roots.items():
        root = Fraction(root)
        for _ in range(mult):
            out = pmul(out, [-root.numerator, root.denominator])
    return out


def sign(v) -> int:
    return (v > 0) - (v < 0)


def leading_zeros(coeffs) -> int:
    return next(i for i, c in enumerate(coeffs) if c != 0)


def parse_coeffs(text: str) -> list[int]:
    return trim(int(v) for v in text.split(","))


def render(coeffs) -> str:
    return ",".join(str(c) for c in coeffs) if coeffs else "0"


# -- root certificates ---------------------------------------------------------


def cert_triples(cert) -> list[tuple[Fraction, Fraction, int]]:
    """Triples from a library RootCertificate, read through its fields only."""
    return [(iv.lo, iv.hi, iv.multiplicity) for iv in cert.intervals]


def json_cert_triples(obj) -> list[tuple[Fraction, Fraction, int]]:
    return [(Fraction(iv["lo"]), Fraction(iv["hi"]), int(iv["mult"])) for iv in obj]


def check_intervals(coeffs, ivs):
    """Sorted, disjoint intervals; a point is a root of exactly the stated
    multiplicity; an open interval has nonzero endpoint values whose signs
    differ by the factor (-1)^mult."""
    for (lo1, hi1, _), (lo2, hi2, _) in zip(ivs, ivs[1:]):
        if hi1 > lo2 or (hi1 == lo2 and lo1 == hi1 and lo2 == hi2):
            return f"intervals overlap near {hi1}"
    for lo, hi, mult in ivs:
        if mult < 1 or lo > hi:
            return f"malformed interval ({lo}, {hi}, {mult})"
        if lo == hi:
            d = list(coeffs)
            for _ in range(mult):
                if peval(d, lo) != 0:
                    return f"{lo} is not a root of multiplicity {mult}"
                d = pderiv(d)
            if peval(d, lo) == 0:
                return f"{lo} has multiplicity above {mult}"
            continue
        a, b = sign(peval(coeffs, lo)), sign(peval(coeffs, hi))
        if a == 0 or b == 0:
            return f"endpoint of ({lo}, {hi}) is a root"
        if a * b != (-1) ** mult:
            return f"endpoint signs on ({lo}, {hi}) do not match multiplicity {mult}"
    return None


def check_paper_certificate(coeffs, ivs):
    """A complete certificate for a polynomial with nonnegative coefficients.

    Root 0 has the multiplicity of the leading zero coefficients, no root is
    positive, nonzero roots are simple and the multiplicities sum to the
    degree.  With the sign changes of ``check_intervals`` these prove, by the
    intermediate value theorem, that every listed root exists and no root is
    missing.
    """
    problem = check_intervals(coeffs, ivs)
    if problem:
        return problem
    zeros = leading_zeros(coeffs)
    at_zero = [m for lo, hi, m in ivs if lo == hi == 0]
    if at_zero != ([zeros] if zeros else []):
        return f"root 0 listed as {at_zero}, expected multiplicity {zeros}"
    for lo, hi, mult in ivs:
        if hi > 0:
            return f"interval ({lo}, {hi}) reaches positive values"
        if not lo == hi == 0 and mult != 1:
            return f"nonzero root in ({lo}, {hi}) has multiplicity {mult}"
    total = sum(m for _, _, m in ivs)
    if total != len(coeffs) - 1:
        return f"multiplicities sum to {total}, degree is {len(coeffs) - 1}"
    return None


def check_known_roots(coeffs, ivs, roots):
    """Each interval holds exactly one of the constructed roots, with its
    multiplicity, and every constructed real root is listed."""
    problem = check_intervals(coeffs, ivs)
    if problem:
        return problem
    seen = []
    for lo, hi, mult in ivs:
        inside = [a for a in roots if (lo == hi == a) or lo < a < hi]
        if len(inside) != 1:
            return f"interval ({lo}, {hi}) holds {len(inside)} constructed roots"
        if roots[inside[0]] != mult:
            return f"root {inside[0]} listed with multiplicity {mult}, built with {roots[inside[0]]}"
        seen.append(inside[0])
    if sorted(seen) != sorted(roots):
        return f"{len(roots) - len(seen)} constructed roots are missing"
    return None


def check_widths(ivs, width):
    wide = [(lo, hi) for lo, hi, _ in ivs if hi - lo >= width]
    if wide:
        lo, hi = wide[0]
        return f"{len(wide)} intervals not below width 2^-{width.denominator.bit_length() - 1}: got {float(hi - lo):.3g}"
    return None


# -- interleaving from known roots ---------------------------------------------


def alternates(f_roots, g_roots) -> bool:
    """f << g for real-rooted f, g with positive leading coefficients, from
    their multiplicity-expanded root lists: degrees differ by at most one and
    the descending lists alternate weakly with g's largest root on top."""
    alpha = sorted(f_roots, reverse=True)
    beta = sorted(g_roots, reverse=True)
    if len(alpha) not in (len(beta) - 1, len(beta)):
        return False
    for i, a in enumerate(alpha):
        if i < len(beta) and a > beta[i]:
            return False
        if i + 1 < len(beta) and a < beta[i + 1]:
            return False
    return True


def disc2(coeffs):
    c, b, a = coeffs
    return b * b - 4 * a * c


def conic(weights, polys):
    """Integer combination lcm(denominators) * sum(w_i * p_i)."""
    lcm = 1
    for w in weights:
        lcm = lcm * w.denominator // math.gcd(lcm, w.denominator)
    out = []
    for w, p in zip(weights, polys):
        out = padd(out, [int(w * lcm) * c for c in p])
    return out


# -- words and transfer matrices -------------------------------------------------


def walk_count(r: int, gamma, n: int) -> int:
    """Walks of n steps from letter 0, stepping p -> c when |c - p| > gamma[c]."""
    vec = [1] + [0] * (r - 1)
    for _ in range(n):
        vec = [sum(vec[p] for p in range(r) if abs(c - p) > gamma[c]) for c in range(r)]
    return sum(vec)


def check_word_list(lines, r: int, n: int):
    if len(lines) != (r - 1) ** n:
        return f"{len(lines)} words listed, expected {(r - 1) ** n}"
    if len(set(lines)) != len(lines):
        return "duplicate words"
    for line in lines:
        w = [int(v) for v in line.split(",")]
        if len(w) != n + 1 or w[0] != 0 or any(not 0 <= c < r for c in w):
            return f"malformed word {line}"
        if any(a == b for a, b in zip(w, w[1:])):
            return f"word {line} repeats a letter"
    return None


def check_e_vector(polys, r: int, n: int):
    """Components of the open-word vector: values at 1 sum to (r-1)^n."""
    total = sum(peval(p, 1) for p in polys)
    if len(polys) != r or total != (r - 1) ** n:
        return f"{len(polys)} components summing to {total} at 1, expected {r} summing to {(r - 1) ** n}"
    return None


def check_local_h(coeffs, r: int, n: int):
    """Closed-word count and the palindromic core of the local h-polynomial."""
    want = ((r - 1) ** n + (-1) ** n * (r - 1)) // r
    if peval(coeffs, 1) != want:
        return f"local_h(1) = {peval(coeffs, 1)}, expected {want}"
    core = coeffs[leading_zeros(coeffs):] if any(coeffs) else []
    if core != core[::-1]:
        return "local_h core is not palindromic"
    return None


def same(got, want, what):
    return None if got == want else f"{what}: {got!r} != {want!r}"


# -- {0, 1, x} matrices ------------------------------------------------------------


_SYM = {"0": [], "1": [1], "x": [0, 1]}


def apply_matrix(grid, polys):
    out = []
    for row in grid:
        acc = []
        for sym, p in zip(row, polys):
            acc = padd(acc, pmul(_SYM[sym], p))
        out.append(acc)
    return out


def is_staircase(grid) -> bool:
    rows, cols = len(grid), len(grid[0])
    for i, j in itertools.product(range(rows), range(cols)):
        if grid[i][j] == "1" and any(grid[k][l] != "1" for k in range(i + 1) for l in range(j, cols)):
            return False
        if grid[i][j] == "x" and any(grid[k][l] != "x" for k in range(i, rows) for l in range(j + 1)):
            return False
    return True


GENERATORS = (
    ("10", "01"), ("10", "x1"), ("11", "01"), ("11", "x1"),
    ("10", "11"), ("00", "10"), ("01", "x0"),
)


def closure_of_generators():
    """Products of the seven generators kept while every entry stays 0, 1 or x,
    as strings 'ab;cd' in the library's rendering."""
    names = {(): "0", (1,): "1", (0, 1): "x"}
    members = set(GENERATORS)
    grew = True
    while grew:
        grew = False
        for a, b in itertools.product(tuple(members), repeat=2):
            rows = []
            for i in range(2):
                row = ""
                for j in range(2):
                    p = padd(pmul(_SYM[a[i][0]], _SYM[b[0][j]]), pmul(_SYM[a[i][1]], _SYM[b[1][j]]))
                    row += names.get(tuple(p), "?")
                rows.append(row)
            prod = tuple(rows)
            if "?" not in "".join(prod) and prod not in members:
                members.add(prod)
                grew = True
    return sorted(";".join(m) for m in members)


def fh_by_binomials(f):
    """h_k = coefficient of x^(d-k) in sum_i f_(i-1) (x - 1)^(d - i)."""
    d = len(f) - 1
    acc = []
    for i, fi in enumerate(f):
        term = [fi]
        for _ in range(d - i):
            term = pmul(term, [-1, 1])
        acc = padd(acc, term)
    acc = acc + [0] * (d + 1 - len(acc))
    return [acc[d - k] for k in range(d + 1)]


# -- self-test -------------------------------------------------------------------


def self_test() -> list[str]:
    """Feed every checker a wrong answer; return the names of those that accept it."""
    F = Fraction
    p = from_roots({F(-1): 1, F(-1, 2): 1, F(0): 2})  # x^2 (x + 1)(2x + 1)
    good = [(F(-2), F(-3, 4), 1), (F(-3, 4), F(-1, 4), 1), (F(0), F(0), 2)]
    roots = {F(-1): 1, F(-1, 2): 1, F(0): 2}
    wrong = {
        "check_intervals/signs": check_intervals(p, [(F(-3), F(-2), 1)] + good[1:]),
        "check_intervals/overlap": check_intervals(p, [good[0], (F(-1), F(-1, 4), 1), good[2]]),
        "check_intervals/point-mult": check_intervals(p, good[:2] + [(F(0), F(0), 3)]),
        "check_paper_certificate/missing": check_paper_certificate(p, good[1:]),
        "check_paper_certificate/zero-mult": check_paper_certificate([0, 1, 1], [(F(-2), F(-1, 2), 1)]),
        "check_paper_certificate/positive": check_paper_certificate(
            from_roots({F(1): 1, F(-1): 1}), [(F(-2), F(-1, 2), 1), (F(1, 2), F(2), 1)]),
        "check_known_roots/mult": check_known_roots(p, good[:2] + [(F(0), F(0), 1)], roots),
        "check_known_roots/missing": check_known_roots(p, good[:1] + good[2:], roots),
        "check_widths": check_widths(good, F(1, 8)),
        "check_word_list": check_word_list(["0,1,0", "0,1,1", "0,1,2", "0,2,0"], 3, 2),
        "check_e_vector": check_e_vector([[0, 1], [0, 1], [0, 1]], 3, 2),
        "check_local_h/value": check_local_h([0, 1, 2], 3, 3),
        "check_local_h/palindrome": check_local_h([0, 2, 3, 1], 3, 4),
        "same": same([1, 2], [1, 3], "lists"),
    }
    accepted = [name for name, verdict in wrong.items() if verdict is None]
    if alternates([2, 0], [1, -1]) or not alternates([0], [1, -1]):
        accepted.append("alternates")
    if disc2([1, 1, 1]) >= 0 or walk_count(3, (0, 0, 0), 2) != 4:
        accepted.append("disc2/walk_count")
    if is_staircase([["1", "x"], ["0", "0"]]) or len(closure_of_generators()) != 40:
        accepted.append("is_staircase/closure")
    if fh_by_binomials([1, 3, 3, 1]) != [1, 0, 0, 0]:
        accepted.append("fh_by_binomials")
    return accepted
