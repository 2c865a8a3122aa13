import json
import subprocess
import sys

import pytest

from interlace.cli import main


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


def test_words_list_and_polys(capsys):
    code, out, _ = run_cli(capsys, "words", "--r", "3", "--n", "2", "--list")
    assert code == 0
    assert out.split() == ["0,1,0", "0,1,2", "0,2,0", "0,2,1"]
    code, out, _ = run_cli(capsys, "words", "--r", "3", "--n", "3", "--closed")
    assert code == 0 and out.strip() == "0,1,1"
    code, out, _ = run_cli(capsys, "words", "--r", "3", "--n", "2", "--gamma", "1,1,1")
    assert code == 0 and out.split() == ["0,1", "0", "0"]


def test_budget_env(capsys, monkeypatch):
    monkeypatch.setenv("INTERLACE_BUDGET", "10")
    code, _, err = run_cli(capsys, "words", "--r", "6", "--n", "9", "--list")
    assert code == 2 and "exceeds budget" in err
    monkeypatch.setenv("INTERLACE_BUDGET", "not-a-number")
    code, _, err = run_cli(capsys, "words", "--r", "3", "--n", "2")
    assert code == 2


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


def test_module_invocation_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "interlace", "check", "realrooted", "0,1,1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "PASS"
