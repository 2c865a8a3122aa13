"""The four workloads: each builds, from a seed, a fixed list of operations on
the public API of ``interlace`` together with a check for every output.

Every operation looks its function up in the package namespace when it is
called, so a traced run sees the wrappers it installs.  The seed sets the random parts of
the inputs and the order of the operations; the sizes, and so the cost of a
pass, do not depend on it.
"""

from __future__ import annotations

import functools
import importlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import checks as C


@dataclass
class Op:
    """One closed-loop call.  ``check(result, results)`` returns a fault in the
    output (the run is then incorrect); ``deliver(result)`` returns a reason
    the call did not do what was asked (the operation then counts as failed)."""

    name: str
    call: Callable[[], Any]
    check: Callable[[Any, dict], str | None]
    deliver: Callable[[Any], str | None] | None = None


@dataclass
class Workload:
    ops: list[Op]
    # values a run reports for cross-checks made outside the worker process
    observe: Callable[[dict], dict] = lambda results: {}


def api(ix, name, *args):
    return getattr(ix, name)(*args)


def expect(value):
    return lambda res, _: C.same(res, value, "verdict")


def _unique(ops):
    names = [op.name for op in ops]
    assert len(names) == len(set(names)), "operation names must be unique"
    return ops


# -- paper-certify ---------------------------------------------------------------

# is_real_rooted on local_h over the whole grid; isolate_roots where a pass
# stays within a few seconds; is_interlacing_seq on E-vectors small enough to
# finish (E(6, 12) takes about 0.8 s, one pair at (10, 40) about 12 s).
RR_CELLS = [(r, n) for r in range(3, 11) for n in (10, 20, 30, 40)]
ISOLATE_CELLS = [(r, n) for r in range(3, 11) for n in (10, 20)] + [(6, 30), (8, 30)]
SEQ_CELLS = [(3, 6), (4, 8), (5, 10), (6, 12)]
NEG_CELLS = [(4, 20), (6, 20), (8, 30), (10, 40)]


def paper_certify(ix, seed: int, workdir: Path) -> Workload:
    rng = random.Random(seed)
    ops = []
    hs = {(r, n): ix.local_h(r, n) for r, n in set(RR_CELLS + ISOLATE_CELLS + NEG_CELLS)}
    for r, n in RR_CELLS:
        ops.append(Op(f"is_real_rooted local_h({r},{n})",
                      functools.partial(api, ix, "is_real_rooted", hs[r, n]), expect(True)))
    for r, n in ISOLATE_CELLS:
        coeffs = list(hs[r, n].coeffs)
        ops.append(Op(f"isolate_roots local_h({r},{n})",
                      functools.partial(api, ix, "isolate_roots", hs[r, n]),
                      lambda res, _, c=coeffs: C.check_paper_certificate(c, C.cert_triples(res))))
    for r, n in SEQ_CELLS:
        E = list(ix.e_vector(r, n).polys)
        ops.append(Op(f"is_interlacing_seq E({r},{n})",
                      functools.partial(api, ix, "is_interlacing_seq", E), expect(True)))
        ops.append(Op(f"is_interlacing_seq reversed E({r},{n})",
                      functools.partial(api, ix, "is_interlacing_seq", E[::-1]), expect(False)))
    for r, n in NEG_CELLS:
        b = rng.randint(0, 20)
        c = rng.randint(b * b // 4 + 1, b * b // 4 + 50)  # b^2 < 4c: a complex pair
        q = ix.Poly((c, b, 1)) * hs[r, n]
        ops.append(Op(f"is_real_rooted (x^2+{b}x+{c})*local_h({r},{n})",
                      functools.partial(api, ix, "is_real_rooted", q), expect(False)))
    rng.shuffle(ops)
    return Workload(_unique(ops))


# -- adversarial-roots -----------------------------------------------------------

# Highly composite M (192-216 divisors): the rational-root scan of
# M x^2 + (3M+1) x + M tries 7e4-9e4 candidates, 0.35-0.45 s each; the roots
# themselves are irrational.  Three mid-sized scans rather than one long one,
# so that no single call is most of a pass.
COMPOSITE_MS = (360360, 498960, 554400)
# multiplicity patterns of the products of linear factors; with 17-bit
# numerators and denominators the degree-12 products carry ~200-bit coefficients
PRODUCT_SHAPES = [(10, 1, 1), (4, 3, 2, 2, 1), (6, 6)]
PRIME_BAND = (1 << 17, (1 << 17) + (1 << 14))
SEP_F = [-2, 0, 1]
SEP_G = [-(1 << 521) - 1, 0, 1 << 520]


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7, 11, 13, 17):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _random_primes(rng, k, lo, hi):
    out = set()
    while len(out) < k:
        p = rng.randrange(lo, hi)
        if _is_prime(p):
            out.add(p)
    return sorted(out)


def mignotte_coeffs():
    """x^20 - 2(100x - 1)^2."""
    return C.padd([0] * 20 + [1], C.pmul([-2], C.pmul([-1, 100], [-1, 100])))


def _width_check(width):
    return lambda res: C.check_widths(C.cert_triples(res), width)


def _simple_complete(coeffs, count=None):
    """Certificate of simple roots whose sign changes prove each root exists."""
    def check(res, _):
        ivs = C.cert_triples(res)
        problem = C.check_intervals(coeffs, ivs)
        if problem:
            return problem
        if any(m != 1 for _, _, m in ivs):
            return "a simple root is listed with multiplicity above 1"
        if count is not None and len(ivs) != count:
            return f"{len(ivs)} roots listed, expected {count}"
        return None
    return check


def adversarial_roots(ix, seed: int, workdir: Path) -> Workload:
    rng = random.Random(seed)
    P = ix.Poly
    ops = []
    for M in COMPOSITE_MS:
        quad = [M, 3 * M + 1, M]
        ops.append(Op(f"isolate_roots {M}x^2+(3M+1)x+M",
                      functools.partial(api, ix, "isolate_roots", P(tuple(quad))),
                      lambda res, _, q=quad: C.check_paper_certificate(q, C.cert_triples(res))))
        ops.append(Op(f"is_real_rooted {M}x^2+(3M+1)x+M",
                      functools.partial(api, ix, "is_real_rooted", P(tuple(quad))), expect(True)))
    for k, shape in enumerate(PRODUCT_SHAPES):
        primes = _random_primes(rng, 2 * len(shape), *PRIME_BAND)
        rng.shuffle(primes)
        nums, dens = primes[:len(shape)], primes[len(shape):]
        roots = {Fraction(rng.choice((-1, 1)) * a, b): m for a, b, m in zip(nums, dens, shape)}
        coeffs = C.from_roots(roots)
        f = P(tuple(coeffs))
        g = P(tuple(C.pmul(coeffs, [1, 1, 1])))  # times x^2 + x + 1
        tag = f"product{k} mults {shape}"
        ops += [
            Op(f"isolate_roots {tag}", functools.partial(api, ix, "isolate_roots", f),
               lambda res, _, c=coeffs, rt=roots: C.check_known_roots(c, C.cert_triples(res), rt)),
            Op(f"is_real_rooted {tag}", functools.partial(api, ix, "is_real_rooted", f), expect(True)),
            Op(f"count_real_roots {tag}", functools.partial(api, ix, "count_real_roots", f),
               expect(len(roots))),
            Op(f"is_real_rooted {tag} (x^2+x+1)", functools.partial(api, ix, "is_real_rooted", g),
               expect(False)),
            Op(f"count_real_roots {tag} (x^2+x+1)", functools.partial(api, ix, "count_real_roots", g),
               expect(len(roots))),
        ]
    mig = mignotte_coeffs()
    ops.append(Op("isolate_roots mignotte", functools.partial(api, ix, "isolate_roots", P(tuple(mig))),
                  _simple_complete(mig)))
    w64 = Fraction(1, 1 << 64)
    ops.append(Op("refine_certificate mignotte 2^-64",
                  functools.partial(_isolate_refine, ix, P(tuple(mig)), w64),
                  _simple_complete(mig), _width_check(w64)))
    # deep bisection: irrational roots +-sqrt(b/a) refined 300 halvings down
    a, b = _random_primes(rng, 2, 1 << 61, 1 << 62)
    deep = [-b, 0, a]
    w300 = Fraction(1, 1 << 300)
    ops.append(Op("refine_certificate ax^2-b 2^-300",
                  functools.partial(_isolate_refine, ix, P(tuple(deep)), w300),
                  _simple_complete(deep, 2), _width_check(w300)))
    # Two operations that fail on purpose until the halving cap in realroots
    # goes: the pair needs more than 512 halvings to separate, so interleaves
    # raises instead of answering False (the negative roots break alternation),
    # and refinement stops short of the requested width without an error.
    ops.append(Op("interleaves x^2-2, 2^520x^2-2^521-1",
                  functools.partial(api, ix, "interleaves", P(tuple(SEP_F)), P(tuple(SEP_G))),
                  expect(False)))
    w520 = Fraction(1, 1 << 520)
    ops.append(Op("refine_certificate x^2-2 2^-520",
                  functools.partial(_isolate_refine, ix, P(tuple(SEP_F)), w520),
                  _simple_complete(SEP_F, 2), _width_check(w520)))
    rng.shuffle(ops)

    def observe(results):
        res = results["isolate_roots mignotte"]
        return {} if isinstance(res, Exception) else {"mignotte_real_roots": len(res.intervals)}

    return Workload(_unique(ops), observe)


def _isolate_refine(ix, f, width):
    return ix.refine_certificate(f, ix.isolate_roots(f), width)


# -- cli-screen ------------------------------------------------------------------


def run_cli(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def cli_check(code, status, inspect=None):
    """Exit code, JSON status and then ``inspect(report)`` on the JSON report."""
    def check(res, _):
        got_code, out, err = res
        if got_code != code:
            return f"exit code {got_code}, expected {code}; stderr {err.strip()[:200]!r}"
        try:
            report = json.loads(out.strip().splitlines()[-1])
        except (ValueError, IndexError):
            return f"no JSON report in {out[:200]!r}"
        if report.get("status") != status:
            return f"status {report.get('status')!r}, expected {status!r}"
        return inspect(report) if inspect else None
    return check


def _staircase(rng, rows, cols):
    """Random matrix whose 1s are up-right closed and xs down-left closed."""
    ones = sorted(rng.randint(0, cols) for _ in range(rows))  # first 1-column per row
    xs = []
    for a in ones:
        xs.append(min(a, max(xs[-1] if xs else 0, rng.randint(0, cols))))
    return [["x" if j < xs[i] else "1" if j >= ones[i] else "0" for j in range(cols)]
            for i in range(rows)]


def cli_screen(ix, seed: int, workdir: Path) -> Workload:
    rng = random.Random(seed)
    cli = importlib.import_module("interlace.cli")
    call = functools.partial(run_cli, cli)
    ops = []

    def add(name, argv, check):
        ops.append(Op(f"cli {name}", functools.partial(call, ["--json"] + argv), check))

    add("matrix classify-all", ["matrix", "classify-all"], cli_check(0, "PASS", lambda rep: C.same(
        rep["result"], {"allowed": 40, "forbidden": 41, "disagreements": 0}, "classification")))
    closure = C.closure_of_generators()
    add("matrix closure", ["matrix", "closure"], cli_check(0, "PASS", lambda rep: C.same(
        (rep["result"]["size"], rep["result"]["equals_allowed"], rep["result"]["members"]),
        (40, True, closure), "closure")))

    workdir.mkdir(parents=True, exist_ok=True)
    stair = _staircase(rng, 4, 5)
    planted = _staircase(rng, 4, 5)
    planted[0][0], planted[1][0] = "x", "1"  # a column x over 1: rule I, not a staircase
    square = [[rng.choice("01x") for _ in range(3)] for _ in range(3)]
    for label, grid in (("stair", stair), ("planted", planted), ("square", square)):
        (workdir / f"{label}.json").write_text(json.dumps(grid))
    for label, grid, code, status in (("stair", stair, 0, "PASS"), ("planted", planted, 1, "FAIL")):
        want = {"preserves": status == "PASS", "ferrers": C.is_staircase(grid)}
        add(f"matrix check {label}", ["matrix", "check", str(workdir / f"{label}.json")],
            cli_check(code, status, lambda rep, w=want: C.same(rep["result"], w, "matrix check")))
    fs = [[rng.randint(0, 9) for _ in range(rng.randint(1, 4))] for _ in range(3)]
    applied = ";".join(C.render(p) for p in C.apply_matrix(square, fs))
    add("matrix apply", ["matrix", "apply", str(workdir / "square.json"),
                         "--polys", ";".join(C.render(p) for p in fs)],
        cli_check(0, "OK", lambda rep: C.same(rep["result"], applied, "matrix apply")))

    E44 = [str(p) for p in ix.e_vector(4, 4).polys]
    add("check compatible E(4,4)", ["check", "compatible"] + E44, cli_check(0, "PASS"))
    E34 = [str(p) for p in ix.e_vector(3, 4).polys]
    add("check conditions-ab E(3,4)", ["check", "conditions-ab"] + E34, cli_check(0, "PASS"))
    a, b = rng.sample(range(1, 30), 2)
    fa, fb = C.from_roots({-a: 2}), C.from_roots({-b: 2})

    def incompatible(rep):
        # c1 (x+a)^2 + c2 (x+b)^2 has discriminant -4 c1 c2 (a-b)^2 < 0
        w = rep["witness"]
        combo = C.parse_coeffs(w["combination"])
        want = C.conic([Fraction(v) for v in w["weights"]], [fa, fb])
        if combo != want:
            return f"witness combination {combo} != {want}"
        return None if C.disc2(combo) < 0 else "witness combination is real-rooted"
    add("check compatible incompatible pair", ["check", "compatible", C.render(fa), C.render(fb)],
        cli_check(1, "FAIL", incompatible))

    for k in range(6):
        roots = {rng.randint(-30, 30): rng.choice((1, 1, 2, 3)) for _ in range(rng.randint(3, 5))}
        coeffs = C.from_roots(roots)
        if k % 2:
            coeffs = C.pmul(coeffs, [rng.randint(1, 20), 0, 1])  # a complex pair
            add(f"check realrooted #{k}", ["check", "realrooted", C.render(coeffs)],
                cli_check(1, "FAIL"))
        else:
            known = {Fraction(r): m for r, m in roots.items()}

            def certified(rep, c=coeffs, rt=known):
                (cert,) = rep["result"]["certificates"]
                return C.check_known_roots(c, C.json_cert_triples(cert), rt)
            add(f"check realrooted #{k}", ["check", "realrooted", C.render(coeffs)],
                cli_check(0, "PASS", certified))

    for k in range(6):
        pts = sorted(rng.sample(range(-40, 40), 7), reverse=True)
        g_roots, f_roots = pts[0::2], pts[1::2]
        if k % 3 == 1:
            f_roots[0] = g_roots[1]  # a shared root, still weakly alternating
        elif k % 3 == 2:
            f_roots[-1], g_roots[-1] = g_roots[-1], f_roots[-1]
        ok = C.alternates(f_roots, g_roots)
        f = C.render(C.from_roots(_counts(f_roots)))
        g = C.render(C.from_roots(_counts(g_roots)))
        add(f"check interleave #{k}", ["check", "interleave", f, g],
            cli_check(0 if ok else 1, "PASS" if ok else "FAIL"))

    add("edgewise --verify r4 n7", ["edgewise", "--r", "4", "--n", "7", "--verify"],
        cli_check(0, "PASS", lambda rep: C.check_e_vector(
            [C.parse_coeffs(p) for p in rep["result"]], 4, 7)))
    gamma = (1, 2, 2, 1)
    add("edgewise --verify --gamma 1,2,2,1", ["edgewise", "--r", "4", "--n", "6", "--gamma",
                                             "1,2,2,1", "--verify"],
        cli_check(0, "PASS", lambda rep: C.same(
            sum(C.peval(C.parse_coeffs(p), 1) for p in rep["result"]),
            C.walk_count(4, gamma, 6), "restricted word count")))
    add("words --list r3 n7", ["words", "--r", "3", "--n", "7", "--list"],
        cli_check(0, "OK", lambda rep: C.check_word_list(rep["result"], 3, 7)))
    add("words r4 n6", ["words", "--r", "4", "--n", "6"],
        cli_check(0, "OK", lambda rep: C.check_e_vector(
            [C.parse_coeffs(p) for p in rep["result"]], 4, 6)))
    fvec = [1] + [rng.randint(1, 40) for _ in range(5)]
    hvec = C.fh_by_binomials(fvec)
    add("fh --f", ["fh", "--f", C.render(fvec)],
        cli_check(0, "OK", lambda rep: C.same(rep["result"], C.render(hvec), "fh")))
    add("fh --h", ["fh", "--h", C.render(hvec)],
        cli_check(0, "OK", lambda rep: C.same(rep["result"], C.render(fvec), "hf round trip")))
    rng.shuffle(ops)
    return Workload(_unique(ops))


def _counts(values):
    out: dict[int, int] = {}
    for v in values:
        out[v] = out.get(v, 0) + 1
    return out


# -- oracle-crosscheck -------------------------------------------------------------

# (n, r) cells of 1-2 M words each, where the oracles take 0.2-0.6 s
ORACLE_E_CELLS = [(13, 4), (10, 5), (8, 7)]
ORACLE_H_CELLS = [(9, 6), (7, 8)]
GAMMA_R, GAMMA_N, GAMMA_CHUNKS = 6, 8, 7
LIST_CELL = (9, 4)


def gamma_profiles(r: int):
    """All profiles of length r: entries in [0, r-2], neighbours differ by at most 1."""
    out = [[v] for v in range(r - 1)]
    for _ in range(r - 1):
        out = [p + [v] for p in out for v in range(max(0, p[-1] - 1), min(r - 2, p[-1] + 1) + 1)]
    return [tuple(p) for p in out]


def _coeff_lists(polys):
    return [list(p.coeffs) for p in polys]


def _matches(name, extract):
    """Compare with the oracle's result in the same pass, when it has one."""
    def check(res, results):
        ref = results.get(name)
        if ref is None or isinstance(ref, Exception):
            return None
        return C.same(extract(res), extract(ref), f"recurrence vs {name}")
    return check


def _all(*checks):
    def check(res, results):
        for c in checks:
            problem = c(res, results)
            if problem:
                return problem
        return None
    return check


def oracle_crosscheck(ix, seed: int, workdir: Path) -> Workload:
    rng = random.Random(seed)
    ops = []
    for n, r in ORACLE_E_CELLS:
        oname = f"oracle_E({n},{r})"
        ops.append(Op(oname, functools.partial(api, ix, "oracle_E", n, r),
                      lambda res, _, n=n, r=r: C.check_e_vector(_coeff_lists(res), r, n)))
        ops.append(Op(f"e_vector({r},{n})", functools.partial(api, ix, "e_vector", r, n),
                      _all(lambda res, _, n=n, r=r: C.check_e_vector(_coeff_lists(res.polys), r, n),
                           _matches(oname, lambda v: _coeff_lists(getattr(v, "polys", v))))))
    for n, r in ORACLE_H_CELLS:
        oname = f"oracle_local_h({n},{r})"
        ops.append(Op(oname, functools.partial(api, ix, "oracle_local_h", n, r),
                      lambda res, _, n=n, r=r: C.check_local_h(list(res.coeffs), r, n)))
        ops.append(Op(f"local_h({r},{n})", functools.partial(api, ix, "local_h", r, n),
                      _all(lambda res, _, n=n, r=r: C.check_local_h(list(res.coeffs), r, n),
                           _matches(oname, lambda v: list(v.coeffs)))))
    profiles = gamma_profiles(GAMMA_R)
    rng.shuffle(profiles)
    for k in range(GAMMA_CHUNKS):
        chunk = [ix.GammaVector(g) for g in profiles[k::GAMMA_CHUNKS]]
        totals = [C.walk_count(GAMMA_R, g.gamma, GAMMA_N) for g in chunk]
        oname = f"oracle_E_gamma chunk{k}"

        def counted(res, _, totals=totals):
            got = [sum(C.peval(list(p.coeffs), 1) for p in v) for v in res]
            return C.same(got, totals, "restricted word totals vs transfer-matrix walks")
        ops.append(Op(oname, functools.partial(_each, ix, "oracle_E_gamma", [(GAMMA_N, GAMMA_R, g) for g in chunk]),
                      counted))
        ops.append(Op(f"e_gamma chunk{k}",
                      functools.partial(_each, ix, "e_gamma", [(GAMMA_R, GAMMA_N, g) for g in chunk]),
                      _all(lambda res, results, t=totals: counted([v.polys for v in res], results, t),
                           _matches(oname, lambda vs: [_coeff_lists(getattr(v, "polys", v)) for v in vs]))))
    n, r = LIST_CELL
    ops.append(Op(f"enumerate_sw_prime({n},{r})",
                  functools.partial(_listed, ix, n, r),
                  lambda res, _: C.check_word_list(res, r, n)))
    rng.shuffle(ops)
    return Workload(_unique(ops))


def _each(ix, name, arglists):
    fn = getattr(ix, name)
    return [fn(*args) for args in arglists]


def _listed(ix, n, r):
    # the generator is consumed inside the timed call
    return [",".join(map(str, w.letters)) for w in ix.enumerate_sw_prime(n, r)]


WORKLOADS = {
    "paper-certify": paper_certify,
    "adversarial-roots": adversarial_roots,
    "cli-screen": cli_screen,
    "oracle-crosscheck": oracle_crosscheck,
}
