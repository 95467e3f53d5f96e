"""Command-line interface tests: subcommands, exit codes, deterministic reports."""

import json
import os
import subprocess
import sys
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest

import shiftmodels
from shiftmodels.cli import main

FIXTURES = files("shiftmodels") / "fixtures"


def _fixture(name: str) -> str:
    return str(FIXTURES / name)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_classify_dirichlet_fixture(capsys):
    code, out = _run(capsys, ["classify", "--operator", _fixture("dirichlet.json")])
    assert code == 0
    report = json.loads(out)
    cls = report["results"]["classification"]
    assert cls["two_isometry"] is True
    assert cls["concave"] is True
    assert cls["regime"] == "shift"
    digest = report["provenance"]["inputs"][_fixture("dirichlet.json")]
    assert len(digest) == 64


def test_model_kernel_szego_value(capsys):
    code, out = _run(
        capsys,
        ["model", "--operator", _fixture("isometric.json"), "--kernel", "0.5,0.5"],
    )
    assert code == 0
    report = json.loads(out)
    entry = report["results"]["kernel"]["matrix"][0][0]
    assert entry[0] == pytest.approx(4.0 / 3.0, abs=1e-10)
    assert entry[1] == pytest.approx(0.0, abs=1e-12)
    assert any("radius" in w for w in report["warnings"])


def test_semigroup_zero_generator_cogenerator(capsys):
    code, out = _run(
        capsys, ["semigroup", "--generator", _fixture("zero.json"), "--cogenerator"]
    )
    assert code == 0
    report = json.loads(out)
    mat = report["results"]["cogenerator"]
    data = np.array([complex(re, im) for re, im in mat["data"]]).reshape(3, 3)
    np.testing.assert_allclose(data, -np.eye(3), atol=1e-14)


def test_semigroup_skew_fixture_suite(capsys):
    code, out = _run(
        capsys,
        [
            "semigroup",
            "--generator",
            _fixture("skew4.json"),
            "--growth-bound",
            "--equivalence-suite",
            "--t",
            "0.5,1.0",
        ],
    )
    assert code == 0
    report = json.loads(out)
    assert abs(report["results"]["growth_bound"]["omega"]) <= 1e-12
    assert report["results"]["equivalence_suite"]["verdict"] is True
    assert all(c["passed"] for c in report["checks"])
    for point in report["results"]["evolution"]:
        assert point["norm"] == pytest.approx(1.0, abs=1e-12)


def test_model_verifications_and_wold(capsys, tmp_path):
    vec = tmp_path / "x.json"
    vec.write_text(json.dumps({"entries": [[0, 1.0, 0.0], [2, 0.5, -0.25]]}))
    code, out = _run(
        capsys,
        [
            "model",
            "--operator",
            _fixture("dirichlet.json"),
            "--coeffs",
            str(vec),
            "--N",
            "24",
            "--verify",
            "intertwine",
            "--verify",
            "reproduce",
            "--lam",
            "0.3",
        ],
    )
    assert code == 0
    report = json.loads(out)
    names = {c["name"] for c in report["checks"]}
    assert names == {"intertwine", "reproduce"}
    assert all(c["passed"] for c in report["checks"])
    assert report["provenance"]["truncations"]["N"] == 24

    code, out = _run(capsys, ["model", "--operator", _fixture("jordan3.json"), "--wold"])
    assert code == 0
    report = json.loads(out)
    assert report["results"]["wold"]["dim_unitary"] == 0
    assert report["results"]["wold"]["dim_wandering_dense"] == 3


def test_hardy_blaschke_file_pipeline(capsys):
    code, out = _run(
        capsys,
        [
            "hardy",
            "--blaschke-file",
            _fixture("blaschke05.json"),
            "--inner-check",
            "--model-space",
            "--ladder",
            "3",
            "--N",
            "64",
        ],
    )
    assert code == 0
    report = json.loads(out)
    assert report["results"]["symbol"]["degree"] == 1
    assert report["results"]["inner_check"]["passed"] is True
    assert report["results"]["ladder"]["total_dim"] == 4
    assert all(c["passed"] for c in report["checks"])


def test_hardy_caradus_only(capsys):
    code, out = _run(capsys, ["hardy", "--caradus", "2,16"])
    assert code == 0
    report = json.loads(out)
    assert report["results"]["caradus"]["backward"]["passed"] is True
    assert report["results"]["caradus"]["forward"]["passed"] is False


def test_reports_are_byte_identical(capsys):
    argv = ["classify", "--operator", _fixture("dirichlet.json")]
    _, first = _run(capsys, argv)
    _, second = _run(capsys, argv)
    assert first == second
    assert "timestamp" not in first


def test_out_flag_writes_report_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    argv = [
        "classify",
        "--operator",
        _fixture("dirichlet.json"),
        "--out",
        str(target),
    ]
    code, out = _run(capsys, argv)
    assert code == 0
    assert out == ""
    _, direct = _run(capsys, argv[:3])
    assert target.read_text() == direct


def test_text_format(capsys):
    code, out = _run(
        capsys,
        ["classify", "--operator", _fixture("dirichlet.json"), "--format", "text"],
    )
    assert code == 0
    assert out.startswith("command: classify")


def test_exit_one_on_failed_check(capsys, tmp_path):
    symbol = tmp_path / "poly.json"
    symbol.write_text("[[0.5, 0.0], [0.25, 0.0], [0.0, 0.0], [0.0, 0.0]]")
    code, out = _run(capsys, ["hardy", "--symbol-file", str(symbol), "--inner-check"])
    assert code == 1
    report = json.loads(out)
    assert report["checks"][0]["passed"] is False


def test_exit_two_on_parse_errors(capsys, tmp_path):
    assert main(["classify", "--operator", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()

    # two symbol sources at once
    code = main(
        ["hardy", "--blaschke", "0.5", "--blaschke-file", _fixture("blaschke05.json")]
    )
    assert code == 2
    capsys.readouterr()

    # shift operator where a dense generator is required
    code = main(["semigroup", "--generator", _fixture("isometric.json"), "--cogenerator"])
    assert code == 2
    capsys.readouterr()

    # tolerances must be positive
    code = main(
        ["classify", "--operator", _fixture("dirichlet.json"), "--tol-residual", "-1"]
    )
    assert code == 2
    capsys.readouterr()


def test_exit_three_on_numeric_errors(capsys, tmp_path):
    gen = tmp_path / "eye.json"
    gen.write_text(
        json.dumps(
            {
                "kind": "dense",
                "matrix": {
                    "rows": 2,
                    "cols": 2,
                    "data": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]],
                },
            }
        )
    )
    assert main(["semigroup", "--generator", str(gen), "--cogenerator"]) == 3
    capsys.readouterr()

    symbol = tmp_path / "ones.json"
    symbol.write_text(json.dumps([[1.0, 0.0]] * 21))
    assert main(["hardy", "--symbol-file", str(symbol), "--inner-check"]) == 3
    capsys.readouterr()


def _dense_file(tmp_path, name: str, rows: int, data: list) -> str:
    path = tmp_path / name
    matrix = {"rows": rows, "cols": rows, "data": data}
    path.write_text(json.dumps({"kind": "dense", "matrix": matrix}))
    return str(path)


def _run_subprocess(argv):
    # a separate interpreter shows the real stderr: tracebacks and numpy warnings
    env = dict(os.environ, PYTHONPATH=str(Path(shiftmodels.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "shiftmodels.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        check=False,
    )


def _assert_single_error_line(proc, code: int) -> None:
    assert proc.returncode == code, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--operator"],
        ["semigroup", "--equivalence-suite", "--generator"],
        ["semigroup", "--growth-bound", "--generator"],
    ],
)
def test_empty_dense_matrix_is_a_usage_error(tmp_path, argv):
    proc = _run_subprocess([*argv, _dense_file(tmp_path, "empty.json", 0, [])])
    _assert_single_error_line(proc, 2)
    assert "(0, 0)" in proc.stderr


_HUGE = [[1e300, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]
# both entries of the first column are finite, their 1-norm sum is not
_NORM_OVERFLOW = [[1e308, 0.0], [0.0, 0.0], [1e308, 0.0], [0.0, 0.0]]


@pytest.mark.parametrize(
    "data, argv",
    [
        (_HUGE, ["classify", "--operator"]),
        (_HUGE, ["semigroup", "--equivalence-suite", "--generator"]),
        (_HUGE, ["semigroup", "--growth-bound", "--generator"]),
        (_HUGE, ["semigroup", "--t", "1.0", "--generator"]),
        (_HUGE, ["semigroup", "--t", "1e10", "--generator"]),
        (_NORM_OVERFLOW, ["semigroup", "--t", "1.0", "--generator"]),
    ],
)
def test_overflowing_input_is_refused_without_warnings(tmp_path, data, argv):
    proc = _run_subprocess([*argv, _dense_file(tmp_path, "huge.json", 2, data)])
    _assert_single_error_line(proc, 3)


def test_verify_all_reports_twelve_criteria(capsys):
    code, out = _run(capsys, ["verify-all"])
    assert code == 0
    report = json.loads(out)
    assert len(report["results"]["criteria"]) == 12
    assert all(c["passed"] for c in report["checks"])
