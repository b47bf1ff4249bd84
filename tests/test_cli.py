import json

import pytest

from fermat_homology.bsigma import bsigma_p3
from fermat_homology.cli import main
from fermat_homology.group_ring import GroupRingElement


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_bsigma_grid_output(capsys):
    code, out = run_cli(capsys, "bsigma", "--p", "3", "--c0", "1", "--c1", "0")
    assert code == 0
    rows = [[int(x) for x in line.split()] for line in out.strip().splitlines()]
    assert rows == bsigma_p3(1, 0).grid()


def test_bsigma_json_round_trip(capsys):
    code, out = run_cli(capsys, "bsigma", "--c0", "1", "--c1", "0", "--json")
    assert code == 0
    assert GroupRingElement.from_json(json.loads(out)) == bsigma_p3(1, 0)


def test_bsigma_verify_all(capsys):
    code, out = run_cli(capsys, "bsigma", "--verify-all")
    assert code == 0
    assert "FAIL" not in out


def test_psi_output(capsys):
    code, out = run_cli(capsys, "psi", "--p", "3", "--coords", "1,0")
    assert code == 0
    assert out.splitlines()[0] == "0 1"
    assert "coordinate sum: 1" in out


def test_homology_affine_json(capsys):
    code, out = run_cli(capsys, "homology", "--n", "3", "--which", "affine", "--json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["classes"]) == 4
    assert payload["classes"][0] == [[1, 0, 2], [0, 0, 0], [2, 0, 1]]


def test_homology_projective(capsys):
    code, out = run_cli(capsys, "homology", "--n", "4", "--which", "projective", "--json")
    assert code == 0
    assert json.loads(out)["report"]["dim"] == 6


def test_cohomology_dimensions(capsys):
    code, out = run_cli(capsys, "cohomology", "--module", "wedge", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["groups"]["h1"]["dim"] == 12
    assert payload["groups"]["h2"]["dim"] == 18


def test_cohomology_validation_exit_code(capsys):
    # two of the transcribed lists fail their checks, so validation exits 1
    code, out = run_cli(capsys, "cohomology", "--validate-paper")
    assert code == 1
    assert out.count("FAIL") == 2


def test_cyclotomic_verify(capsys):
    code, out = run_cli(capsys, "cyclotomic", "--p", "7", "--verify")
    assert code == 0
    assert "FAIL" not in out


def test_reproduce_paper_scorecard(capsys):
    code, out = run_cli(capsys, "reproduce-paper")
    assert code == 1
    lines = out.strip().splitlines()
    failures = [line for line in lines if line.startswith("FAIL")]
    assert len(failures) == 2
    assert any("listed image basis" in line for line in failures)
    assert any("degree-1 basis over affine homology" in line for line in failures)
    assert "35/37 checks passed" in lines[-1]
    assert any("[flagged:" in line for line in lines)


def test_reproduce_paper_json_and_determinism(capsys):
    code_one, out_one = run_cli(capsys, "reproduce-paper", "--json")
    code_two, out_two = run_cli(capsys, "reproduce-paper", "--json")
    assert code_one == code_two == 1
    assert out_one == out_two
    payload = json.loads(out_one)
    assert sum(1 for row in payload if not row["passed"]) == 2


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as info:
        main(["homology", "--which", "nonsense"])
    assert info.value.code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["homology", "--n", "2"], "exponent must be at least 3, got 2"),
        (["bsigma", "--p", "5"], "B reconstruction is implemented for p=3, got p=5"),
        (["psi", "--coords", "1,x"], "invalid literal for int() with base 10: 'x'"),
        (["cyclotomic", "--p", "29"], "p=29 exceeds the configured bound 23"),
    ],
)
def test_rejected_input_prints_one_line_and_exits_two(capsys, argv, message):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"fermat-homology: error: {message}\n"
