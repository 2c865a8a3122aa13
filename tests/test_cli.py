import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import interlace
from interlace import cli, matrices, polys, realroots, words
from interlace.cli import main
from interlace.edgewise import e_vector, local_h
from interlace.polys import Poly
from interlace.realroots import is_real_rooted, isolate_roots


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_edgewise_component(capsys):
    code, out, _ = run_cli(capsys, "edgewise", "--r", "3", "--n", "3", "--component", "0")
    assert code == 0 and out.strip() == "0,1,1"
    code, out, _ = run_cli(capsys, "edgewise", "--r", "2", "--n", "4", "--component", "0")
    assert code == 0 and out.strip() == "0,0,1"


def test_edgewise_vector_and_verify(capsys):
    code, out, _ = run_cli(capsys, "edgewise", "--r", "3", "--n", "2")
    assert code == 0 and out.split() == ["0,2", "0,1", "0,0,1"]
    code, _, _ = run_cli(capsys, "edgewise", "--r", "3", "--n", "3", "--verify")
    assert code == 0
    code, _, _ = run_cli(capsys, "edgewise", "--r", "4", "--n", "5", "--gamma", "1,2,2,1", "--verify")
    assert code == 0


def test_edgewise_bad_parameters(capsys):
    code, _, err = run_cli(capsys, "edgewise", "--r", "1", "--n", "2")
    assert code == 2 and "error" in err
    code, _, err = run_cli(capsys, "edgewise", "--r", "3", "--n", "2", "--component", "7")
    assert code == 2
    code, _, err = run_cli(capsys, "edgewise", "--r", "3", "--n", "2", "--gamma", "0,2,0")
    assert code == 2


def test_edgewise_and_words_share_the_domain_message(capsys):
    line = "error: BadParametersError: need integers n >= 1 and r >= 2, got n=1, r=1\n"
    for command in ("edgewise", "words"):
        assert run_cli(capsys, command, "--r", "1", "--n", "1") == (2, "", line), command


def test_edgewise_component_range_checked_before_any_work(capsys, monkeypatch):
    calls = []

    def recorded(*args, **kwargs):
        calls.append(args)
        return []

    monkeypatch.setattr(cli.words, "oracle_E", recorded)
    monkeypatch.setattr(cli.edgewise, "e_vector", recorded)
    code, out, err = run_cli(capsys, "edgewise", "--r", "8", "--n", "8", "--verify",
                             "--component", "99")
    assert code == 2 and out == ""
    assert err.strip() == "error: component must be in [0, 7]"
    assert calls == []


def test_edgewise_verify_checks_the_oracle_budget_before_any_work(capsys, monkeypatch):
    calls = []

    def recorded(*args, **kwargs):
        calls.append(args)
        return []

    for name in ("e_vector", "e_gamma"):
        monkeypatch.setattr(cli.edgewise, name, recorded)
    for gamma in ([], ["--gamma", "0,0,0,0,0,0,0,0"]):
        code, out, err = run_cli(capsys, "edgewise", "--r", "8", "--n", "1500", "--verify", *gamma)
        assert (code, out) == (2, "")
        assert err == "error: BudgetExceededError: (r-1)^n = 7^1500 exceeds budget 100000000\n"
    assert calls == []


@pytest.mark.parametrize("argv,line", [
    (["--r", "4", "--n", "30", "--gamma", "0,0,0"],
     "InvalidGammaError: profile length 3 does not match r=4"),
    (["--r", "1", "--n", "5000"],
     "BadParametersError: need integers n >= 1 and r >= 2, got n=5000, r=1"),
], ids=["profile-before-budget", "n-r-before-word-length-cap"])
def test_edgewise_verify_checks_n_r_then_the_profile_then_the_budget(capsys, argv, line):
    # --verify reports the error that the same call without it reports
    for verify in ([], ["--verify"]):
        assert run_cli(capsys, "edgewise", *argv, *verify) == (2, "", f"error: {line}\n")


def test_word_length_cap_exits_2_before_any_walk(capsys):
    for argv in (["words", "--r", "2", "--n", "5000"],
                 ["words", "--r", "2", "--n", "5000", "--list"],
                 ["edgewise", "--r", "2", "--n", "5000", "--verify"]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "error: BadParametersError: n = 5000 exceeds the word-length cap 900\n"


def test_edgewise_json_schema(capsys):
    code, out, _ = run_cli(capsys, "--json", "edgewise", "--r", "3", "--n", "2")
    assert code == 0
    obj = json.loads(out)
    assert obj["command"] == "edgewise"
    assert obj["status"] == "OK"
    assert obj["result"] == ["0,2", "0,1", "0,0,1"]
    assert obj["params"]["r"] == 3


def test_check_realrooted(capsys):
    code, out, _ = run_cli(capsys, "check", "realrooted", "0,1,1")
    assert code == 0 and out.strip() == "PASS"
    code, out, _ = run_cli(capsys, "check", "realrooted", "1,0,1")
    assert code == 1 and out.strip() == "FAIL"


def test_check_realrooted_json_certificates(capsys):
    code, out, _ = run_cli(capsys, "--json", "check", "realrooted", "1,2,1", "0")
    assert code == 0
    obj = json.loads(out)
    assert obj["result"]["certificates"] == [
        [{"lo": "-1/1", "hi": "-1/1", "mult": 2}],
        None,
    ]


def _recorded(monkeypatch, owner, name) -> list:
    calls = []
    fn = getattr(owner, name)

    def recorded(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, recorded)
    return calls


def test_check_realrooted_walks_one_sequence_per_polynomial(capsys, monkeypatch):
    # one root record decides and certifies: no sequence for local_h(10, 40),
    # whose fold q is proven real-rooted from its separators (the chain of q
    # when the guess fails), the chain of (h, h') for E_1, which is no
    # palindrome, and for (x^2 + 3x + 1)^2 the chain of its fold
    # q = (y + 3)^2, which is not squarefree, and then the chain of (h, h')
    E1 = e_vector(10, 30).polys[1]
    assert E1.coeffs[4:] != E1.coeffs[4:][::-1]
    sequences = _recorded(monkeypatch, realroots, "_remainder_sequence")
    for p, walked in ((local_h(10, 40), 0), (E1, 1), (Poly((1, 6, 11, 6, 1)), 2)):
        sequences.clear()
        assert run_cli(capsys, "check", "realrooted", str(p))[:2] == (0, "PASS\n")
        assert len(sequences) == walked
    with monkeypatch.context() as patched:
        patched.setattr(realroots, "_guessed_separators", lambda q, s: None)
        sequences.clear()
        assert run_cli(capsys, "check", "realrooted", str(local_h(10, 40)))[:2] == (0, "PASS\n")
        assert len(sequences) == 1
    # a FAIL stops where is_real_rooted does: (2 + x + x^2) local_h(6, 20)
    # breaks the sequence of (h, h') within a few steps, and takes no gcd
    divisions = _recorded(monkeypatch, polys, "_remainder_step")
    gcds = _recorded(monkeypatch, realroots, "poly_gcd")
    f = Poly((2, 1, 1)) * local_h(6, 20)
    assert run_cli(capsys, "check", "realrooted", str(f))[:2] == (1, "FAIL\n")
    assert 0 < len(divisions) <= 8 and gcds == []


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(st.integers(min_value=-9, max_value=9),
                       st.integers(min_value=1, max_value=4),
                       st.integers(min_value=1, max_value=3)), max_size=3),
    st.lists(st.integers(min_value=-6, max_value=6), max_size=2),
    st.lists(st.integers(min_value=-4, max_value=4).flatmap(
        lambda b: st.tuples(st.just(b), st.integers(min_value=b * b // 4 + 1,
                                                    max_value=b * b // 4 + 6))), max_size=1),
    st.integers(min_value=0, max_value=3),
    st.sampled_from([1, 2, -1, -3]),
)
def test_check_realrooted_agrees_with_the_library(planted, palindromic, complex_pair, k, scale):
    # rational roots a/d of multiplicity 1 to 3, palindromic factors
    # x^2 - b x + 1 (real roots for |b| > 2, a double root +-1 for |b| = 2,
    # a pair on the unit circle otherwise), maybe x^2 + b x + c with
    # b^2 < 4c, then x^k and a scaling: PASS iff is_real_rooted, with the
    # certificate of isolate_roots
    f = Poly.monomial(k, scale)
    for a, d, mult in planted:
        for _ in range(mult):
            f = f * Poly((-a, d))
    for b in palindromic:
        f = f * Poly((1, -b, 1))
    for b, c in complex_pair:
        f = f * Poly((c, b, 1))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["--json", "check", "realrooted", str(f)])
    report = json.loads(out.getvalue())
    assert (code == 0) == (report["status"] == "PASS") == is_real_rooted(f)
    if code == 0:
        assert report["result"]["certificates"] == [isolate_roots(f).to_json_obj()]
    else:
        assert code == 1 and report["witness"] == {"poly": str(f)}


def test_check_interleave_with_negative_coefficients(capsys):
    code, out, _ = run_cli(capsys, "check", "interleave", "0,1", "-1,0,1")
    assert code == 0 and out.strip() == "PASS"
    code, out, _ = run_cli(capsys, "check", "interleave", "-1,0,1", "0,1")
    assert code == 1 and out.strip() == "FAIL"


def test_check_compatible_and_witness(capsys):
    code, out, _ = run_cli(capsys, "check", "compatible", "0,1", "1,1")
    assert code == 0
    code, out, _ = run_cli(
        capsys, "--json", "check", "--unchecked", "compatible", "2,3,1", "2,-3,1"
    )
    assert code == 1
    obj = json.loads(out)
    assert obj["status"] == "FAIL"
    assert "combination" in obj["witness"]


def test_check_conditions_ab(capsys):
    code, out, _ = run_cli(capsys, "--json", "check", "conditions-ab", "0,1", "1")
    assert code == 1
    obj = json.loads(out)
    assert obj["witness"]["condition"] == "b"
    code, _, _ = run_cli(capsys, "check", "conditions-ab", "0", "0,1", "0,1")
    assert code == 0


def test_sampled_pass_names_its_verdict_under_json(capsys):
    # a sampled pass keeps status PASS and exit 0 and its text; the JSON
    # result names the compat verdict, so it cannot pass for an exact PASS
    E34 = [str(p) for p in interlace.e_vector(3, 4).polys]
    for argv in (["compatible", "0,1", "1,1"], ["compatible", "--unchecked", "1,-1", "1,1"],
                 ["conditions-ab"] + E34):
        code, out, err = run_cli(capsys, "--json", "check", *argv)
        report = json.loads(out)
        assert (code, err, report["status"]) == (0, "", "PASS")
        assert report["result"] == {"verdict": "PASS_SAMPLED"}
        assert run_cli(capsys, "check", *argv) == (0, "PASS\n", "")
    # a FAIL is exact: its report is unchanged, with the witness and no result
    code, out, _ = run_cli(capsys, "--json", "check", "conditions-ab", "0,1", "1")
    assert code == 1 and "result" not in json.loads(out)
    # exact checks carry no sampled verdict
    code, out, _ = run_cli(capsys, "--json", "check", "interleave", "0,1", "-1,0,1")
    assert code == 0 and "result" not in json.loads(out)


def test_check_unchecked_after_the_kind(capsys):
    # the polynomials take the rest of the line, --unchecked included
    first = run_cli(capsys, "--json", "check", "--unchecked", "compatible", "2,3,1", "2,-3,1")
    assert first[0] == 1 and json.loads(first[1])["status"] == "FAIL"
    for argv in (["compatible", "--unchecked", "2,3,1", "2,-3,1"],
                 ["compatible", "2,3,1", "--unchecked", "2,-3,1"],
                 ["compatible", "2,3,1", "2,-3,1", "--unchecked"]):
        assert run_cli(capsys, "--json", "check", *argv) == first
    code, out, err = run_cli(capsys, "check", "compatible", "--unchecked", "1,-1", "1,1")
    assert code == 0 and out.strip() == "PASS" and err == ""
    code, _, err = run_cli(capsys, "check", "compatible", "1,-1", "1,1")
    assert code == 2 and "negative coefficient" in err
    after = run_cli(capsys, "check", "conditions-ab", "0,-1", "--unchecked", "1")
    assert after == run_cli(capsys, "check", "--unchecked", "conditions-ab", "0,-1", "1")
    assert after[0] == 0 and run_cli(capsys, "check", "conditions-ab", "0,-1", "1")[0] == 2
    # a negative leading coefficient is still a polynomial, not an option
    code, out, _ = run_cli(capsys, "check", "realrooted", "-2,0,1")
    assert code == 0 and out.strip() == "PASS"
    code, _, err = run_cli(capsys, "check", "interleave", "1,-1", "-2,0,1")
    assert code == 2 and "NegativeLeadingCoefficientError" in err


def test_check_usage_errors(capsys):
    code, _, err = run_cli(capsys, "check", "realrooted", "nope")
    assert code == 2 and err
    code, _, err = run_cli(capsys, "check", "interleave", "0,1")
    assert code == 2
    code, _, _ = run_cli(capsys, "check", "compatible", "0,1")
    assert code == 2


def test_matrix_classify_all(capsys):
    code, out, _ = run_cli(capsys, "matrix", "classify-all")
    assert code == 0
    assert out.strip() == "allowed: 40, forbidden: 41, disagreements: 0"
    code, out, _ = run_cli(capsys, "--json", "matrix", "classify-all")
    obj = json.loads(out)
    assert obj["result"] == {"allowed": 40, "forbidden": 41, "disagreements": 0}


def test_matrix_check_and_apply(tmp_path, capsys):
    good = tmp_path / "ferrers.json"
    good.write_text(
        json.dumps([["1", "1", "1", "1"], ["0", "1", "1", "1"],
                    ["x", "1", "1", "1"], ["x", "x", "x", "x"]])
    )
    code, out, _ = run_cli(capsys, "matrix", "check", str(good))
    assert code == 0 and out.strip() == "preserves: PASS, ferrers: PASS"

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([["1", "x"], ["0", "1"]]))
    code, out, _ = run_cli(capsys, "matrix", "check", str(bad))
    assert code == 1 and "preserves: FAIL" in out

    m3 = tmp_path / "m3.json"
    m3.write_text(json.dumps([["0", "1", "1"], ["x", "0", "1"], ["x", "x", "0"]]))
    code, out, _ = run_cli(capsys, "matrix", "apply", str(m3), "--polys", "0;0,1;0,1")
    assert code == 0 and out.strip() == "0,2;0,1;0,0,1"

    code, _, err = run_cli(capsys, "matrix", "apply", str(m3), "--polys", "0,1;0,1")
    assert code == 2

    malformed = tmp_path / "malformed.json"
    malformed.write_text("[[)")
    code, _, err = run_cli(capsys, "matrix", "check", str(malformed))
    assert code == 2 and err

    code, _, err = run_cli(capsys, "matrix", "check", str(tmp_path / "missing.json"))
    assert code == 2


def test_matrix_file_not_utf8(tmp_path, capsys):
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe")
    code, _, err = run_cli(capsys, "matrix", "check", str(binary))
    assert code == 2 and "cannot read" in err
    code, _, err = run_cli(capsys, "matrix", "apply", str(binary), "--polys", "0;0,1;0,1")
    assert code == 2 and "cannot read" in err


def test_matrix_closure(capsys):
    code, out, _ = run_cli(capsys, "--json", "matrix", "closure")
    assert code == 0
    obj = json.loads(out)
    assert obj["result"]["size"] == 40
    assert obj["result"]["contained"] is True
    assert obj["result"]["equals_allowed"] is True
    assert len(obj["result"]["members"]) == 40


@pytest.mark.parametrize("argv,keep", [
    (["--r", "3", "--n", "7"], lambda ls: True),
    (["--r", "4", "--n", "4", "--closed"], lambda ls: ls[-1] == 0),
    (["--r", "4", "--n", "5", "--gamma", "1,2,2,1"],
     lambda ls: all(abs(b - a) > (1, 2, 2, 1)[b] for a, b in zip(ls, ls[1:]))),
])
def test_words_list_is_every_admissible_word(capsys, argv, keep):
    # the listed words, text and JSON, against a filter of every letter tuple
    r, n = int(argv[1]), int(argv[3])
    want = [",".join(map(str, ls)) for ls in itertools.product(range(r), repeat=n + 1)
            if ls[0] == 0 and all(a != b for a, b in zip(ls, ls[1:])) and keep(ls)]
    code, out, _ = run_cli(capsys, "words", *argv, "--list")
    assert code == 0 and out.splitlines() == want
    code, out, _ = run_cli(capsys, "--json", "words", *argv, "--list")
    assert code == 0 and json.loads(out)["result"] == want


def test_words_list_and_polys(capsys):
    code, out, _ = run_cli(capsys, "words", "--r", "3", "--n", "2", "--list")
    assert code == 0
    assert out.split() == ["0,1,0", "0,1,2", "0,2,0", "0,2,1"]
    code, out, _ = run_cli(capsys, "words", "--r", "3", "--n", "3", "--closed")
    assert code == 0 and out.strip() == "0,1,1"
    code, out, _ = run_cli(capsys, "words", "--r", "3", "--n", "2", "--gamma", "1,1,1")
    assert code == 0 and out.split() == ["0,1", "0", "0"]


def test_words_closed_walks_only_the_closed_words_under_every_profile(capsys, monkeypatch):
    walks = []
    tally = words._tally

    def recorded(n, trans, closed):
        walks.append(closed)
        return tally(n, trans, closed)

    monkeypatch.setattr(words, "_tally", recorded)
    for gamma, expected in ((["--gamma", "1,2,2,1"], "0\n"),
                            (["--gamma", "0,0,0,0"], "0,0,30,30\n"),
                            ([], "0,0,30,30\n")):
        argv = ["words", "--r", "4", "--n", "5", *gamma, "--closed"]
        assert run_cli(capsys, *argv) == (0, expected, "")
    assert walks == [True, True, True]


def test_budget_env(capsys, monkeypatch):
    monkeypatch.setenv("INTERLACE_BUDGET", "10")
    code, _, err = run_cli(capsys, "words", "--r", "6", "--n", "9", "--list")
    assert code == 2 and "exceeds budget" in err
    monkeypatch.setenv("INTERLACE_BUDGET", "not-a-number")
    code, _, err = run_cli(capsys, "words", "--r", "3", "--n", "2")
    assert code == 2


def test_words_over_budget_at_huge_n_exits_2_with_one_short_line(capsys):
    # 7^6000 has 5,071 digits, past Python's limit for int-to-str conversion
    for prefix in ([], ["--json"]):
        code, out, err = run_cli(capsys, *prefix, "words", "--r", "8", "--n", "6000")
        assert (code, out) == (2, "")
        assert err == "error: BudgetExceededError: (r-1)^n = 7^6000 exceeds budget 100000000\n"


def test_fh(capsys):
    code, out, _ = run_cli(capsys, "fh", "--f", "1,3,3,1")
    assert code == 0 and out.strip() == "1,0,0,0"
    code, out, _ = run_cli(capsys, "fh", "--h", "1,1,1")
    assert code == 0 and out.strip() == "1,3,3"
    code, _, _ = run_cli(capsys, "fh", "--f", "1,3", "--h", "1,1")
    assert code == 2
    code, _, _ = run_cli(capsys, "fh", "--f", "2,3")
    assert code == 2


def test_usage_exit_code(capsys):
    assert main(["no-such-command"]) == 2
    assert main([]) == 2


def _broken(*_, **__):
    raise RuntimeError("boom")


def test_internal_error_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_certificate", _broken)
    code, out, err = run_cli(capsys, "check", "realrooted", "0,1,1")
    assert code == 3 and out == ""
    assert err.strip() == "error: internal: RuntimeError: boom"
    assert "Traceback" not in err
    code, out, err = run_cli(capsys, "--json", "check", "realrooted", "0,1,1")
    assert code == 3 and "error: internal" in err
    assert json.loads(out) == {"command": "check", "status": "ERROR",
                               "params": {"kind": "realrooted", "polys": ["0,1,1"]}}
    monkeypatch.setattr(cli.matrices, "classify_all_2x2", _broken)
    code, out, err = run_cli(capsys, "--json", "matrix", "classify-all")
    assert code == 3 and err.strip() == "error: internal: RuntimeError: boom"
    assert json.loads(out) == {"command": "matrix classify-all", "params": {},
                               "status": "ERROR"}


@pytest.mark.parametrize("argv,patched,params", [
    (["edgewise", "--r", "3", "--n", "2", "--verify"], (cli.edgewise, "e_gamma"),
     {"r": 3, "n": 2, "gamma": None, "component": None}),
    (["fh", "--f", "1,3,3,1"], (cli.edgewise, "fh_transform"), {"f": [1, 3, 3, 1]}),
    (["check", "compatible", "01,2,1", "--unchecked", "1,1"],
     (cli.compat, "compatible_family_sampled"),
     {"kind": "compatible", "polys": ["1,2,1", "1,1"], "unchecked": True}),
    (["matrix", "apply", "m.json", "--polys", "0"], (cli.matrices, "apply"),
     {"file": "m.json", "polys": "0"}),
    (["words", "--r", "3", "--n", "2", "--list"], (cli.words, "enumerate_sw_gamma"),
     {"r": 3, "n": 2, "gamma": None, "closed": False}),
], ids=["edgewise", "fh", "check", "matrix-apply", "words"])
def test_error_report_shows_the_params_the_command_read(
        argv, patched, params, capsys, monkeypatch, tmp_path):
    # the params of the report a command would have printed: no option
    # outside them, the polynomials normalised and --unchecked wherever it stands
    monkeypatch.chdir(tmp_path)
    (tmp_path / "m.json").write_text('[["1"]]')
    monkeypatch.setattr(*patched, _broken)
    code, out, err = run_cli(capsys, "--json", *argv)
    assert (code, err) == (3, "error: internal: RuntimeError: boom\n")
    assert json.loads(out) == {"command": " ".join(argv[:2] if argv[0] == "matrix" else argv[:1]),
                               "params": params, "status": "ERROR"}


# -- every report branch, exact stdout and exit code in text and --json ----------

ALLOWED = sorted(str(M) for M in matrices.all_2x2_matrices()
                 if matrices.forbidden_pattern(M).allowed)


def _wrong_oracle_E(monkeypatch):
    # edgewise --verify asks oracle_E_gamma, with the zero profile when no --gamma is given
    wrong = [Poly.from_string(p) for p in ("0,2", "0,1,1", "0,0,1")]
    monkeypatch.setattr(cli.words, "oracle_E_gamma", lambda *args, **kwargs: wrong)


def _sampled_disagrees(monkeypatch):
    rules = matrices.forbidden_pattern

    def sampled(M, pairs=None):
        return rules(M).allowed != (str(M) in ("00;00", "1x;01"))

    monkeypatch.setattr(matrices, "check_2x2_sampled", sampled)


def _closure_with_forbidden(monkeypatch):
    closure = matrices.generator_closure()
    extra = matrices.SymMatrix.from_strings([["1", "x"], ["0", "1"]])
    monkeypatch.setattr(cli.matrices, "generator_closure", lambda: closure | {extra})


def _broken_certificate(monkeypatch):
    monkeypatch.setattr(cli, "_certificate", _broken)


def _edge(r, n, gamma=None, component=None):
    return {"r": r, "n": n, "gamma": gamma, "component": component}


def _words(r, n, gamma=None, closed=False):
    return {"r": r, "n": n, "gamma": gamma, "closed": closed}


def _check(kind, *polys, unchecked=False):
    return {"kind": kind, "polys": list(polys), **({"unchecked": True} if unchecked else {})}


# (id, argv, patch, exit code, text stdout lines, JSON report or None, stderr);
# the JSON report lists its keys in the order they are printed
REPORTS = [
    ("edgewise vector", ["edgewise", "--r", "3", "--n", "2"], None, 0,
     ["0,2", "0,1", "0,0,1"],
     {"command": "edgewise", "params": _edge(3, 2), "status": "OK",
      "result": ["0,2", "0,1", "0,0,1"]}, ""),
    ("edgewise component verified",
     ["edgewise", "--r", "3", "--n", "3", "--verify", "--component", "1"], None, 0,
     ["0,0,3"],
     {"command": "edgewise", "params": _edge(3, 3, component=1), "status": "PASS",
      "result": "0,0,3"}, ""),
    ("edgewise gamma verified",
     ["edgewise", "--r", "4", "--n", "3", "--gamma", "1,2,2,1", "--verify"], None, 0,
     ["0", "0", "0", "0,0,1"],
     {"command": "edgewise", "params": _edge(4, 3, gamma="1,2,2,1"), "status": "PASS",
      "result": ["0", "0", "0", "0,0,1"]}, ""),
    ("edgewise verify mismatch", ["edgewise", "--r", "3", "--n", "2", "--verify"],
     _wrong_oracle_E, 1,
     ["MISMATCH component 1: recurrence 0,1, enumeration 0,1,1"],
     {"command": "edgewise", "params": _edge(3, 2), "status": "FAIL",
      "witness": {"component": 1, "recurrence": "0,1", "enumeration": "0,1,1"}}, ""),
    ("edgewise usage error", ["edgewise", "--r", "3", "--n", "2", "--component", "7"],
     None, 2, [], None, "error: component must be in [0, 2]\n"),
    ("edgewise gamma length", ["edgewise", "--r", "4", "--n", "3", "--gamma", "0,0,0"],
     None, 2, [], None, "error: InvalidGammaError: profile length 3 does not match r=4\n"),
    ("fh f", ["fh", "--f", "1,3,3,1"], None, 0, ["1,0,0,0"],
     {"command": "fh", "params": {"f": [1, 3, 3, 1]}, "status": "OK",
      "result": "1,0,0,0"}, ""),
    ("fh h", ["fh", "--h", "1,1,1"], None, 0, ["1,3,3"],
     {"command": "fh", "params": {"h": [1, 1, 1]}, "status": "OK", "result": "1,3,3"}, ""),
    ("check realrooted pass", ["check", "realrooted", "1,2,1", "0"], None, 0, ["PASS"],
     {"command": "check", "params": _check("realrooted", "1,2,1", "0"), "status": "PASS",
      "result": {"certificates": [[{"lo": "-1/1", "hi": "-1/1", "mult": 2}], None]}}, ""),
    ("check realrooted fail", ["check", "realrooted", "0,1,1", "1,0,1"], None, 1, ["FAIL"],
     {"command": "check", "params": _check("realrooted", "0,1,1", "1,0,1"),
      "status": "FAIL", "witness": {"poly": "1,0,1"}}, ""),
    ("check interleave pass", ["check", "interleave", "0,1", "-1,0,1"], None, 0, ["PASS"],
     {"command": "check", "params": _check("interleave", "0,1", "-1,0,1"),
      "status": "PASS"}, ""),
    ("check interleave fail", ["check", "interleave", "-1,0,1", "0,1"], None, 1, ["FAIL"],
     {"command": "check", "params": _check("interleave", "-1,0,1", "0,1"),
      "status": "FAIL", "witness": {"f": "-1,0,1", "g": "0,1"}}, ""),
    ("check compatible pass", ["check", "compatible", "0,1", "1,1"], None, 0, ["PASS"],
     {"command": "check", "params": _check("compatible", "0,1", "1,1"),
      "status": "PASS", "result": {"verdict": "PASS_SAMPLED"}}, ""),
    ("check compatible fail", ["check", "--unchecked", "compatible", "2,3,1", "2,-3,1"],
     None, 1,
     ['FAIL {"weights": ["1/8", "1/8"], "combination": "4,0,2", "pair": [0, 1]}'],
     {"command": "check", "params": _check("compatible", "2,3,1", "2,-3,1", unchecked=True),
      "status": "FAIL",
      "witness": {"weights": ["1/8", "1/8"], "combination": "4,0,2", "pair": [0, 1]}}, ""),
    ("check conditions-ab pass", ["check", "conditions-ab", "0", "0,1", "0,1"], None, 0,
     ["PASS"],
     {"command": "check", "params": _check("conditions-ab", "0", "0,1", "0,1"),
      "status": "PASS", "result": {"verdict": "PASS_SAMPLED"}}, ""),
    ("check conditions-ab fail", ["check", "conditions-ab", "0,1", "1"], None, 1,
     ['FAIL {"weights": ["1/8", "1/8"], "combination": "1,0,1", "condition": "b", '
      '"pair": [0, 1]}'],
     {"command": "check", "params": _check("conditions-ab", "0,1", "1"), "status": "FAIL",
      "witness": {"weights": ["1/8", "1/8"], "combination": "1,0,1", "condition": "b",
                  "pair": [0, 1]}}, ""),
    ("check usage error", ["check", "interleave", "0,1"], None, 2, [], None,
     "error: interleave takes exactly two polynomials\n"),
    ("check internal error", ["check", "realrooted", "0,1,1"], _broken_certificate, 3,
     [],
     {"command": "check", "params": _check("realrooted", "0,1,1"), "status": "ERROR"},
     "error: internal: RuntimeError: boom\n"),
    ("matrix classify-all", ["matrix", "classify-all"], None, 0,
     ["allowed: 40, forbidden: 41, disagreements: 0"],
     {"command": "matrix classify-all", "params": {}, "status": "PASS",
      "result": {"allowed": 40, "forbidden": 41, "disagreements": 0}}, ""),
    ("matrix classify-all disagreement", ["matrix", "classify-all"], _sampled_disagrees, 1,
     ["allowed: 40, forbidden: 41, disagreements: 2",
      "disagreement: 00;00 rules=True samples=False",
      "disagreement: 1x;01 rules=False samples=True"],
     {"command": "matrix classify-all", "params": {}, "status": "FAIL",
      "result": {"allowed": 40, "forbidden": 41, "disagreements": 2},
      "witness": [{"matrix": [["0", "0"], ["0", "0"]], "rules": True, "samples": False},
                  {"matrix": [["1", "x"], ["0", "1"]], "rules": False, "samples": True}]},
     ""),
    ("matrix check pass", ["matrix", "check", "m3.json"], None, 0,
     ["preserves: PASS, ferrers: PASS"],
     {"command": "matrix check", "params": {"file": "m3.json"}, "status": "PASS",
      "result": {"preserves": True, "ferrers": True}}, ""),
    ("matrix check fail", ["matrix", "check", "bad.json"], None, 1,
     ["preserves: FAIL, ferrers: FAIL"],
     {"command": "matrix check", "params": {"file": "bad.json"}, "status": "FAIL",
      "result": {"preserves": False, "ferrers": False}}, ""),
    ("matrix apply", ["matrix", "apply", "m3.json", "--polys", "0;0,1;0,1"], None, 0,
     ["0,2;0,1;0,0,1"],
     {"command": "matrix apply", "params": {"file": "m3.json", "polys": "0;0,1;0,1"},
      "status": "OK", "result": "0,2;0,1;0,0,1"}, ""),
    ("matrix apply joined negative polys", ["matrix", "apply", "x.json", "--polys=-1,1"],
     None, 0, ["0,-1,1"],
     {"command": "matrix apply", "params": {"file": "x.json", "polys": "-1,1"},
      "status": "OK", "result": "0,-1,1"}, ""),
    # argparse reads a separate "-1,1" as an option, so --polys lacks its value
    ("matrix apply separate negative polys", ["matrix", "apply", "x.json", "--polys", "-1,1"],
     None, 2, [], None,
     "usage: interlace matrix apply [-h] [--polys POLYS] file\n"
     "interlace matrix apply: error: argument --polys: expected one argument\n"),
    ("matrix closure", ["matrix", "closure"], None, 0,
     ["closure size: 40", "contained in allowed set: yes", "equals allowed set: yes"]
     + ALLOWED,
     {"command": "matrix closure", "params": {}, "status": "PASS",
      "result": {"size": 40, "contained": True, "equals_allowed": True,
                 "members": ALLOWED}}, ""),
    ("matrix closure fail", ["matrix", "closure"], _closure_with_forbidden, 1,
     ["closure size: 41", "contained in allowed set: NO", "equals allowed set: no"]
     + sorted(ALLOWED + ["1x;01"]),
     {"command": "matrix closure", "params": {}, "status": "FAIL",
      "result": {"size": 41, "contained": False, "equals_allowed": False,
                 "members": sorted(ALLOWED + ["1x;01"])}}, ""),
    ("words list", ["words", "--r", "3", "--n", "2", "--list"], None, 0,
     ["0,1,0", "0,1,2", "0,2,0", "0,2,1"],
     {"command": "words", "params": _words(3, 2), "status": "OK",
      "result": ["0,1,0", "0,1,2", "0,2,0", "0,2,1"]}, ""),
    ("words closed list", ["words", "--r", "3", "--n", "3", "--closed", "--list"], None, 0,
     ["0,1,2,0", "0,2,1,0"],
     {"command": "words", "params": _words(3, 3, closed=True), "status": "OK",
      "result": ["0,1,2,0", "0,2,1,0"]}, ""),
    ("words gamma closed list empty",
     ["words", "--r", "4", "--n", "3", "--gamma", "1,2,2,1", "--closed", "--list"], None, 0,
     [],
     {"command": "words", "params": _words(4, 3, gamma="1,2,2,1", closed=True),
      "status": "OK", "result": []}, ""),
    ("words oracle", ["words", "--r", "3", "--n", "2"], None, 0, ["0,2", "0,1", "0,0,1"],
     {"command": "words", "params": _words(3, 2), "status": "OK",
      "result": ["0,2", "0,1", "0,0,1"]}, ""),
    ("words closed", ["words", "--r", "3", "--n", "3", "--closed"], None, 0, ["0,1,1"],
     {"command": "words", "params": _words(3, 3, closed=True), "status": "OK",
      "result": ["0,1,1"]}, ""),
    ("words gamma closed", ["words", "--r", "3", "--n", "2", "--gamma", "1,1,1", "--closed"],
     None, 0, ["0,1"],
     {"command": "words", "params": _words(3, 2, gamma="1,1,1", closed=True),
      "status": "OK", "result": ["0,1"]}, ""),
    ("fh h-vector not starting with 1", ["fh", "--h", "2,1"], None, 2, [], None,
     "error: MalformedVectorError: h-vector must start with 1\n"),
]


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("row", REPORTS, ids=[row[0] for row in REPORTS])
def test_report_branches(row, as_json, capsys, monkeypatch, tmp_path):
    _, argv, patch, code, lines, report, err = row
    monkeypatch.chdir(tmp_path)
    (tmp_path / "m3.json").write_text(
        json.dumps([["0", "1", "1"], ["x", "0", "1"], ["x", "x", "0"]]))
    (tmp_path / "bad.json").write_text(json.dumps([["1", "x"], ["0", "1"]]))
    (tmp_path / "x.json").write_text(json.dumps([["x"]]))
    if patch is not None:
        patch(monkeypatch)
    if as_json:
        expected = "" if report is None else json.dumps(report) + "\n"
        assert run_cli(capsys, "--json", *argv) == (code, expected, err)
    else:
        assert run_cli(capsys, *argv) == (code, "".join(line + "\n" for line in lines), err)


def test_matrix_closure_runs_no_sampled_classification(capsys, monkeypatch):
    def sampled(*_):
        raise AssertionError("matrix closure needs no sampled test")

    monkeypatch.setattr(matrices, "check_2x2_sampled", sampled)
    code, out, err = run_cli(capsys, "--json", "matrix", "closure")
    assert code == 0 and err == ""
    assert json.loads(out)["result"]["members"] == ALLOWED


# runs of main calls in which a call could see state the previous call left behind
PARSER_SEQUENCES = [
    [["--json", "fh", "--f", "1,3,3,1"], ["fh", "--f", "1,3,3,1"]],
    [["fh", "--f"], ["fh", "--h", "1,1,1"]],
    [["check", "--unchecked", "compatible", "2,3,1", "2,-3,1"],
     ["check", "compatible", "2,3,1", "2,-3,1"]],
]


@pytest.mark.parametrize("sequence", PARSER_SEQUENCES, ids=["json-then-text",
                                                            "usage-error-then-valid",
                                                            "unchecked-then-checked"])
def test_shared_parser_keeps_no_state_between_calls(sequence, capsys, monkeypatch):
    fresh = []
    for argv in sequence:
        cli._shared_parser.cache_clear()
        fresh.append(run_cli(capsys, *argv))
    builds = []
    build = cli.build_parser

    def counted():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._shared_parser.cache_clear()
    try:
        shared = [run_cli(capsys, *argv) for argv in sequence + sequence]
    finally:
        cli._shared_parser.cache_clear()
    assert len(builds) == 1
    assert shared == fresh + fresh
    assert fresh[0] != fresh[1]  # a leak from the first call would show in the second


def test_parser_is_not_built_at_import():
    package_root = str(Path(interlace.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=package_root)
    probe = ("from interlace import cli; before = cli._shared_parser.cache_info().currsize; "
             "cli.main(['fh', '--f', '1,1']); cli.main(['fh', '--f', '1,1']); "
             "print(before, cli._shared_parser.cache_info().currsize)")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1,0", "1,0", "0", "1"]


def test_module_invocation_subprocess():
    # the child must import the same package as this process, also when it is
    # found only through pytest's pythonpath setting and not installed
    package_root = str(Path(interlace.__file__).parents[1])
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (package_root, inherited))))
    proc = subprocess.run(
        [sys.executable, "-m", "interlace", "check", "realrooted", "0,1,1"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "PASS"


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_closed_stdout_keeps_the_exit_code_and_a_quiet_stderr(as_json):
    # stdout is a pipe whose read end is closed before the child starts, so
    # every write fails, unlike `| head`, where the reader may still be there
    package_root = str(Path(interlace.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=package_root)
    argv = [sys.executable, "-m", "interlace", *(["--json"] if as_json else []),
            "matrix", "closure"]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(argv, stdout=write_end, stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, "")


@pytest.mark.parametrize("env,argv,line", [
    ({"INTERLACE_BUDGET": "0"}, ["words", "--r", "3", "--n", "3"],
     "INTERLACE_BUDGET must be positive"),
    ({}, ["edgewise", "--r", "3", "--n", "3", "--gamma", "a,b"], "cannot parse profile 'a,b'"),
    ({}, ["fh", "--f", "1,x"], "cannot parse vector: invalid literal for int() with base 10: 'x'"),
    ({}, ["check", "realrooted"], "at least one polynomial is required"),
    ({}, ["matrix", "apply", "MATRIX"], "matrix apply requires --polys"),
    ({}, ["check", "realrooted", "1,2,1", "--unchecked"],
     "--unchecked applies only to compatible and conditions-ab"),
    ({}, ["check", "--unchecked", "interleave", "0,1", "1,1"],
     "--unchecked applies only to compatible and conditions-ab"),
], ids=["budget-0", "edgewise-gamma", "fh-vector", "realrooted-no-poly", "apply-no-polys",
        "realrooted-unchecked", "interleave-unchecked"])
def test_guards_exit_2_with_one_error_line(capsys, monkeypatch, tmp_path, env, argv, line):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    matrix = tmp_path / "m.json"
    matrix.write_text('[["1","0"],["0","1"]]')
    argv = [str(matrix) if a == "MATRIX" else a for a in argv]
    assert run_cli(capsys, *argv) == (2, "", f"error: {line}\n")
