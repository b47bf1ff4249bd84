import collections
import json
import os
import pathlib
import subprocess
import sys

import pytest

import fermat_homology
from fermat_homology import cohomology, reproduction
from fermat_homology.bsigma import BMapReport, bsigma_p3
from fermat_homology.cli import main
from fermat_homology.group_ring import GroupRingElement

# The CLI as a child process, importing the package under test.
CHILD_CLI = [sys.executable, "-m", "fermat_homology.cli"]
CHILD_ENV = {**os.environ, "PYTHONPATH": str(pathlib.Path(fermat_homology.__file__).parents[1])}


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


def test_bsigma_verify_all_fails_with_any_b_map_row(capsys, monkeypatch):
    r = reproduction.b_map_analysis()
    report = BMapReport(r.image_dim, 4, r.relations, r.relation_names, r.image_shape_matches)
    monkeypatch.setattr(reproduction, "b_map_analysis", lambda: report)
    code, out = run_cli(capsys, "bsigma", "--verify-all")
    assert code == 1
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
        "FAIL  linear structure of the B-map"
    ]


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


def test_the_registry_lists_every_row_once_in_scorecard_order():
    ids = reproduction.CHECK_IDS
    assert len(set(ids)) == len(ids) == 37
    groups = [check_id.split(".")[0] for check_id in ids]
    assert groups == sorted(groups)
    assert sorted(set(groups)) == [f"c{k:02d}" for k in range(1, 12)]
    names = [row.name for row in reproduction.run_reproduction()]
    assert names == [check.name for check in reproduction.CHECKS]


def test_validate_paper_prints_the_listed_rows_of_the_scorecard(capsys, monkeypatch):
    _, full = run_cli(capsys, "reproduce-paper", "--json")
    rows = zip(reproduction.CHECK_IDS, json.loads(full), strict=True)
    listed = [row for check_id, row in rows if check_id.startswith("c08.")]
    assert len(listed) == 6

    def oracle_not_expected(*args):
        raise AssertionError("--validate-paper ran the gamma oracle")

    monkeypatch.setattr(reproduction, "gamma_oracle_p3", oracle_not_expected)
    code, out = run_cli(capsys, "cohomology", "--validate-paper", "--json")
    assert code == 1
    assert json.loads(out) == listed


def test_verify_all_reads_no_dlog(capsys, monkeypatch):
    _, expected = run_cli(capsys, "bsigma", "--verify-all", "--json")

    def dlog_not_expected(*args):
        raise AssertionError("--verify-all ran dlog")

    monkeypatch.setattr(reproduction, "dlog", dlog_not_expected)
    code, out = run_cli(capsys, "bsigma", "--verify-all", "--json")
    assert code == 0
    assert out == expected


@pytest.fixture
def build_counts(monkeypatch):
    """Counts of GModule validations, differentials built and h_groups
    calls made by the scorecard."""
    counts = collections.Counter()

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    gmodule = cohomology.GModule
    monkeypatch.setattr(gmodule, "__post_init__", counted("GModule", gmodule.__post_init__))
    monkeypatch.setattr(
        cohomology, "_differential", counted("_differential", cohomology._differential)
    )
    monkeypatch.setattr(reproduction, "h_groups", counted("h_groups", reproduction.h_groups))
    return counts


def test_reproduce_paper_builds_each_complex_once(build_counts):
    reproduction.run_reproduction()
    # lambda1, h1u, and the wedge module with the h1u it is built from
    assert build_counts["GModule"] <= 4
    # three differentials for each of lambda1, h1u and the wedge module
    assert build_counts["_differential"] <= 9
    assert build_counts["h_groups"] == 3


def test_validate_paper_builds_two_complexes_once(capsys, build_counts):
    code, _ = run_cli(capsys, "cohomology", "--validate-paper")
    assert code == 1
    assert build_counts["_differential"] <= 6


def test_cyclotomic_verify(capsys):
    code, out = run_cli(capsys, "cyclotomic", "--p", "7")
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
        (["homology", "--n", "24"], "n=24 exceeds the configured bound 23"),
        (["homology", "--n", "2", "--which", "relative"], "exponent must be at least 3, got 2"),
        (["homology", "--n", "-3", "--which", "relative"], "exponent must be at least 3, got -3"),
        (["bsigma", "--verify-all", "--p", "5"], "B reconstruction is implemented for p=3, got p=5"),
        (
            ["bsigma", "--verify-all", "--p", "5", "--json"],
            "B reconstruction is implemented for p=3, got p=5",
        ),
    ],
)
def test_rejected_input_prints_one_line_and_exits_two(capsys, argv, message):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"fermat-homology: error: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["psi", "--p", "1000000000000000003", "--coords", "1,0"],
            "expected 500000000000000002 coordinates, got 2",
        ),
        (
            ["homology", "--n", "1000000000000000003", "--which", "relative"],
            "n=1000000000000000003 exceeds the configured bound 23",
        ),
    ],
    ids=("psi", "homology-relative"),
)
def test_a_huge_exponent_is_rejected_before_any_trial_division(argv, message):
    """Run in a child process with a timeout: a primality test by trial
    division of these exponents would not return."""
    proc = subprocess.run(
        [*CHILD_CLI, *argv], capture_output=True, text=True, timeout=10, env=CHILD_ENV
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"fermat-homology: error: {message}\n"


@pytest.mark.parametrize(
    "argv, code",
    [
        (["reproduce-paper"], 1),
        (["homology", "--n", "23", "--which", "projective", "--json"], 0),
    ],
    ids=("reproduce-paper", "homology-json"),
)
def test_a_closed_pipe_keeps_the_exit_code_and_prints_nothing(argv, code):
    """The reader closes its end of stdout at once.  The second command
    writes about 1.5 MB, far more than a pipe buffer holds."""
    proc = subprocess.Popen(
        [*CHILD_CLI, *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=CHILD_ENV,
    )
    proc.stdout.close()
    try:
        _, err = proc.communicate(timeout=30)
    finally:
        proc.kill()
    assert err == ""
    assert proc.returncode == code
