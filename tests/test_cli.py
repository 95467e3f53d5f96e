"""Command-line interface tests: subcommands, exit codes, deterministic reports."""

import argparse
import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import shiftmodels
from shiftmodels import cli
from shiftmodels.cli import main
from shiftmodels.config import DEFAULT_TOL, Check
from shiftmodels.errors import NonFinite

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
    backward = report["results"]["caradus"]["backward"]
    forward = report["results"]["caradus"]["forward"]
    # the 16 x 18 backward block is onto with a 2-dimensional kernel;
    # the 18 x 16 forward block is injective and misses 2 coordinates
    assert (backward["rows"], backward["cols"], backward["rank"]) == (16, 18, 16)
    assert backward["kernel_dim"] == 2 and backward["surjective"] is True
    assert backward["passed"] is True
    assert (forward["rows"], forward["cols"], forward["rank"]) == (18, 16, 16)
    assert forward["kernel_dim"] == 0 and forward["surjective"] is False
    assert forward["passed"] is False
    assert set(backward) == {
        "rows", "cols", "rank", "kernel_dim", "surjective", "sigma_min", "rank_tol", "passed"
    }
    checks = {c["name"]: c for c in report["checks"]}
    for name, side in (("caradus_backward_certified", backward), ("caradus_forward_refused", forward)):
        assert checks[name]["passed"] is True
        assert checks[name]["residual"] == side["sigma_min"] == 1.0
        assert checks[name]["tolerance"] == side["rank_tol"] == 1e-10


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

    # a negative truncation order for the multiplier semigroup
    code = main(
        ["model", "--operator", _fixture("isometric.json"), "--verify", "semigroup", "--N", "-1"]
    )
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


def _run_captured(argv):
    """``main(argv)`` in this interpreter with both streams captured, shaped as a finished process.

    A numpy warning fails the test (pytest turns RuntimeWarning into an error) and an
    uncaught exception fails it as a traceback would.
    """
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return subprocess.CompletedProcess(argv, code, out.getvalue(), err.getvalue())


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
    proc = _run_captured([*argv, _dense_file(tmp_path, "empty.json", 0, [])])
    _assert_single_error_line(proc, 2)
    assert "(0, 0)" in proc.stderr


_COEFFS = ["model", "--operator", _fixture("isometric.json"), "--coeffs"]


@pytest.mark.parametrize(
    "content, argv",
    [
        (
            {"kind": "dense", "matrix": {"rows": 2, "cols": 2, "data": [1, 2, 3, 4]}},
            ["classify", "--operator"],
        ),
        (
            {"kind": "dense", "matrix": {"rows": "2", "cols": "2", "data": [[1, 0]] * 4}},
            ["classify", "--operator"],
        ),
        ({"zeros": 5}, ["hardy", "--inner-check", "--blaschke-file"]),
        (
            {"kind": "dense", "matrix": {"rows": 2, "cols": 2, "data": 5}},
            ["classify", "--operator"],
        ),
        (
            {"kind": "dense", "matrix": {"rows": 2, "cols": 2, "data": None}},
            ["classify", "--operator"],
        ),
        ({"kind": "direct_sum", "parts": 5}, ["classify", "--operator"]),
        # a vector's own data is malformed whatever operator it meets
        ({"ambient": -1, "entries": []}, _COEFFS),
        ({"entries": [[-1, 1.0, 0.0]]}, _COEFFS),
        ({"entries": [[0, 1.0, 0.0], [0, 2.0, 0.0]]}, _COEFFS),
        ({"ambient": 2, "entries": [[2, 1.0, 0.0]]}, _COEFFS),
        # nested past the interpreter's recursion limit, written as text
        pytest.param(
            '{"kind": "direct_sum", "parts": [' * 600
            + '{"kind": "shift", "law": "dirichlet"}'
            + "]}" * 600,
            ["classify", "--operator"],
            id="direct_sum-600-deep",
        ),
        pytest.param("[" * 100000 + "]" * 100000, ["classify", "--operator"], id="brackets-100000"),
    ],
)
def test_malformed_json_is_a_usage_error(tmp_path, content, argv):
    path = tmp_path / "malformed.json"
    path.write_text(content if isinstance(content, str) else json.dumps(content))
    proc = _run_captured([*argv, str(path)])
    _assert_single_error_line(proc, 2)
    assert "Traceback" not in proc.stderr


_HUGE = [[1e300, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]
# both entries of the first column are finite, their 1-norm sum is not
_NORM_OVERFLOW = [[1e308, 0.0], [0.0, 0.0], [1e308, 0.0], [0.0, 0.0]]
_UNDERFLOW = [[-1000.0, 0.0], [0.0, 0.0], [0.0, 0.0], [-1000.0, 0.0]]
# e^A = 1e308 [[1, 1.5], [0, 1]] is finite, its 2-norm is not
_NORM_INF = [[math.log(1e308), 0.0], [1.5, 0.0], [0.0, 0.0], [math.log(1e308), 0.0]]
_NEG_HUGE = [[-1e300, 0.0], [0.0, 0.0], [0.0, 0.0], [-1e300, 0.0]]
# finite 1-norm at t = 0.5, but within a factor 2 of the float maximum
_NEAR_MAX = [[1e308, 0.0], [1e308, 0.0], [-1e308, 0.0], [1e308, 0.0]]
# invertible with singular values 2.1e308: the SVD overflows
_SVD_OVERFLOW = [[1.5e308, 0.0], [1.5e308, 0.0], [1.5e308, 0.0], [-1.5e308, 0.0]]
_MAX_DIAG = [[1e308, 0.0], [0.0, 0.0], [0.0, 0.0], [1e308, 0.0]]
# nilpotent, so the Wold loop ends at once; the defect iterate 1e200 e_1 has norm^2 1e400
_NILPOTENT = [[0.0, 0.0], [1e200, 0.0], [0.0, 0.0], [0.0, 0.0]]
# e^{0.05 A} has entries near e^{-10} and 2e154, but scaling and squaring overscales to zero
_OVERSCALED = [[-200.0, 0.0], [1e160, 0.0], [0.0, 0.0], [-200.0, 0.0]]
_OVERSCALED_ROTATION = [[0.0, 0.0], [1e50, 0.0], [0.0, 0.0], [0.0, 20.0 * math.pi]]
# e^{0.05 A} = e^20 Id is finite and e^{1.8 A} = e^720 Id is not
_DIAG_400 = [[400.0, 0.0], [0.0, 0.0], [0.0, 0.0], [400.0, 0.0]]
_NEG_MAX_DIAG = [[-1e308, 0.0], [0.0, 0.0], [0.0, 0.0], [-1e308, 0.0]]


@pytest.mark.parametrize(
    "data, argv",
    [
        (_HUGE, ["classify", "--operator"]),
        (_HUGE, ["semigroup", "--equivalence-suite", "--generator"]),
        (_HUGE, ["semigroup", "--growth-bound", "--generator"]),
        (_HUGE, ["semigroup", "--t", "1.0", "--generator"]),
        (_HUGE, ["semigroup", "--t", "1e10", "--generator"]),
        (_NORM_OVERFLOW, ["semigroup", "--t", "1.0", "--generator"]),
        (_HUGE, ["model", "--wold", "--operator"]),
        # r(e^{tA}) = e^{-1000 t} underflows to 0 from t = 1 on
        (_UNDERFLOW, ["semigroup", "--growth-bound", "--generator"]),
        # a report holding inf is refused, in either format
        (_NORM_INF, ["semigroup", "--t", "1", "--generator"]),
        (_NORM_INF, ["semigroup", "--t", "1", "--format", "text", "--generator"]),
        # e^{tA} underflows to 0, so the suite reaches the overflowing generator form
        (_NEG_HUGE, ["semigroup", "--equivalence-suite", "--generator"]),
        (_NEAR_MAX, ["semigroup", "--growth-bound", "--generator"]),
        (_SVD_OVERFLOW, ["model", "--wold", "--operator"]),
        # 1e308 - (-1e308) overflows in A - lam Id
        (_MAX_DIAG, ["semigroup", "--rescale", "-1e308", "--generator"]),
        (_NILPOTENT, ["model", "--wold", "--operator"]),
        (_OVERSCALED, ["semigroup", "--t", "0.05", "--generator"]),
        (_OVERSCALED_ROTATION, ["semigroup", "--t", "0.05", "--generator"]),
        # the suite's grid is powers of e^{0.05 A}: e^{0.05 A} is overscaled, or a power overflows
        (_OVERSCALED, ["semigroup", "--equivalence-suite", "--generator"]),
        (_DIAG_400, ["semigroup", "--equivalence-suite", "--generator"]),
        # e^{tA} underflows to 0 and A^2 overflows in the generator form
        (_NEG_MAX_DIAG, ["semigroup", "--equivalence-suite", "--generator"]),
    ],
)
def test_overflowing_input_is_refused_without_warnings(tmp_path, data, argv):
    proc = _run_captured([*argv, _dense_file(tmp_path, "huge.json", 2, data)])
    _assert_single_error_line(proc, 3)


@pytest.mark.parametrize(
    "argv, code",
    [
        (["classify", "--operator", "brackets.json"], 2),
        (["semigroup", "--equivalence-suite", "--generator", "huge.json"], 3),
    ],
)
def test_the_module_entry_point_refuses_with_one_error_line(tmp_path, argv, code):
    # the refusal cases above run in process; these two run `python -m shiftmodels.cli` and
    # read its real stderr, where a traceback or a numpy warning would show
    (tmp_path / "brackets.json").write_text("[" * 100000 + "]" * 100000)
    _dense_file(tmp_path, "huge.json", 2, _HUGE)
    proc = _run_subprocess([str(tmp_path / a) if a.endswith(".json") else a for a in argv])
    _assert_single_error_line(proc, code)
    assert proc.stdout == ""


_TINY_HEADS = {"kind": "shift", "head_weights": [1e-3] * 120, "tail_weight": 1.0}


@pytest.mark.parametrize(
    "argv",
    [
        # L multiplies by 1/w = 1e3 per step: the head (L^110 e_110)_0 = 1e330 overflows
        ["--coeffs", "e110.json", "--N", "120"],
    ],
)
def test_overflowing_shift_model_is_refused_without_warnings(tmp_path, argv):
    (tmp_path / "tiny.json").write_text(json.dumps(_TINY_HEADS))
    (tmp_path / "e110.json").write_text(json.dumps({"ambient": None, "entries": [[110, 1.0, 0.0]]}))
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    proc = _run_captured(["model", "--operator", str(tmp_path / "tiny.json"), *argv])
    _assert_single_error_line(proc, 3)


def test_kernel_inside_the_disc_is_reported_where_the_dual_products_overflow(capsys, tmp_path):
    # |lam| ||L|| = 0.9 needs 240 dual Neumann terms, and beta'_n = 1e3^n overflows from n = 103
    # on; each term is (z conj(lam) 1e6)^m = 0.09^m through m = 120
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(_TINY_HEADS))
    code, out = _run(capsys, ["model", "--operator", str(path), "--kernel", "0.0009,0.0001"])
    assert code == 0
    entry = json.loads(out)["results"]["kernel"]["matrix"][0][0]
    assert entry[0] == pytest.approx(1.0 / 0.91, abs=DEFAULT_TOL.tail_tol)
    assert entry[1] == 0.0


def test_tolerance_flags_do_not_decide_whether_a_model_is_built(capsys):
    # residual_tol 1e-17 is below one ulp of the model identities, which the model does not re-check
    code, out = _run(
        capsys,
        [
            "model",
            "--operator",
            _fixture("dirichlet.json"),
            "--kernel",
            "0.3,0.2",
            "--tol-residual",
            "1e-17",
        ],
    )
    assert code == 0
    entry = json.loads(out)["results"]["kernel"]["matrix"][0][0]
    assert entry[0] == pytest.approx(-math.log(0.94) / 0.06, abs=DEFAULT_TOL.tail_tol)


def test_semigroup_model_reports_where_e_to_the_minus_t_underflows(capsys):
    # L_n(2t) overflows and e^{-t} underflows to 0 at t = 1e6; the multiplier is still reported.
    # At t = 1e200, 2t L_n overflows even on values scaled down by powers of two, and every
    # coefficient is a zero
    for t in ("1e6", "1e200"):
        code, out = _run(
            capsys,
            ["model", "--operator", _fixture("dirichlet.json"), "--verify", "semigroup", "--semigroup-t", t],
        )
        assert code == 0
        checks = json.loads(out)["checks"]
        assert [c["name"] for c in checks] == [
            "semigroup_generator",
            "semigroup_commutation",
            "semigroup_constant_term",
        ]
        assert all(c["passed"] for c in checks)


@pytest.mark.parametrize(
    "symbol, t, N",
    [
        # the inverse of phi - 1 overflows from degree 2 on
        ([[0.5, 0.0], [1e300, 0.0], [1e300, 0.0]], "1", "16"),
        # (phi + 1)/(phi - 1) = 3, and e^{3000} overflows
        ([[2.0, 0.0], [0.0, 0.0]], "1000", "16"),
        # through degree 1, t (phi + 1)/(phi - 1) = 1e10 (-3 - 8e300 z) overflows
        ([[0.5, 0.0], [1e300, 0.0]], "1e10", "2"),
    ],
)
def test_overflowing_symbol_series_is_refused_without_warnings(tmp_path, symbol, t, N):
    path = tmp_path / "phi.json"
    path.write_text(json.dumps(symbol))
    proc = _run_captured(["hardy", "--symbol-file", str(path), "--semigroup-t", t, "--N", N])
    _assert_single_error_line(proc, 3)


@pytest.mark.parametrize(
    "vector",
    [
        '{"entries": [[1e400, 1.0, 0.0]]}',
        '{"ambient": 1e400, "entries": [[0, 1.0, 0.0]]}',
        '{"entries": [[1.5, 1.0, 0.0]]}',
        '{"ambient": 2.5, "entries": [[0, 1.0, 0.0]]}',
    ],
)
def test_vector_index_or_ambient_that_is_not_a_finite_integer_is_a_usage_error(tmp_path, vector):
    path = tmp_path / "x.json"
    path.write_text(vector)  # 1e400 parses to infinity
    proc = _run_captured(
        ["model", "--operator", _fixture("isometric.json"), "--coeffs", str(path)]
    )
    _assert_single_error_line(proc, 2)
    assert "Traceback" not in proc.stderr
    assert "finite integer" in proc.stderr


def test_lapack_failure_is_a_numeric_refusal(tmp_path):
    # A - Id = [[1, 2], [2, 4]] is singular, but rank_tol 1e-300 counts its rounding-level
    # second singular value, so LAPACK's solve is reached and fails
    generator = _dense_file(tmp_path, "g.json", 2, [[2.0, 0.0], [2.0, 0.0], [2.0, 0.0], [5.0, 0.0]])
    proc = _run_captured(
        ["semigroup", "--generator", generator, "--cogenerator", "--tol-rank", "1e-300"]
    )
    _assert_single_error_line(proc, 3)
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--tol-rank", "inf"),
        ("--tol-psd", "inf"),
        ("--tol-tail", "inf"),
        ("--tol-residual", "1e400"),
    ],
)
def test_non_finite_tolerances_are_usage_errors(flag, value):
    proc = _run_captured(["classify", "--operator", _fixture("dirichlet.json"), flag, value])
    _assert_single_error_line(proc, 2)
    assert "finite" in proc.stderr
    assert proc.stdout == ""


def test_unallocatable_size_is_a_numeric_refusal(capsys, monkeypatch):
    # the real 100000 x 100003 block would take 149 GiB; a MemoryError may carry no message
    def unallocatable(m, n):
        raise MemoryError()

    monkeypatch.setattr(cli, "block_backward_shift_trunc", unallocatable)
    assert main(["hardy", "--caradus", "3,100000"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: hardy: MemoryError\n"


def _with_vector_file(tmp_path, argv):
    """Write x.json to tmp_path; resolve fixture names to fixtures, x.json to that file."""
    (tmp_path / "x.json").write_text(json.dumps({"entries": [[0, 1.0, 0.0], [2, -0.5, 0.25]]}))
    return [
        _fixture(a) if (FIXTURES / a).is_file() else str(tmp_path / a) if a.endswith(".json") else a
        for a in argv
    ]


@pytest.mark.parametrize(
    "argv, code",
    [
        (["model", "--operator", "isometric.json", "--kernel", "nan,0"], 3),
        (
            ["model", "--operator", "isometric.json", "--coeffs", "x.json",
             "--verify", "reproduce", "--lam", "nan"],
            3,
        ),
        (["model", "--operator", "isometric.json", "--verify", "semigroup", "--semigroup-t", "nan"], 3),
        (["model", "--operator", "isometric.json", "--verify", "semigroup", "--semigroup-t", "inf"], 3),
        (["model", "--operator", "isometric.json", "--verify", "semigroup", "--semigroup-t", "-1"], 2),
        (["hardy", "--blaschke", "0", "--semigroup-t", "inf", "--N", "8"], 3),
        (["semigroup", "--generator", "skew4.json", "--rescale", "inf"], 3),
        (["semigroup", "--generator", "zero.json", "--t", "nan"], 3),
        (["semigroup", "--generator", "zero.json", "--t", "0.5,inf"], 3),
    ],
)
def test_non_finite_points_and_times_are_refused(tmp_path, argv, code):
    proc = _run_captured(_with_vector_file(tmp_path, argv))
    _assert_single_error_line(proc, code)
    assert proc.stdout == ""
    if "--t" in argv:  # refused by name, not by the 1-norm of t A: zero.json's A is finite
        assert "semigroup parameter must be finite, got " in proc.stderr


@pytest.mark.parametrize("request_", [["--model-space"], ["--ladder", "2"]])
def test_degree_zero_for_a_series_symbol_is_not_positive(tmp_path, request_):
    # --degree 0 is given: it is refused as a degree, not reported as a missing option
    symbol = tmp_path / "poly.json"
    symbol.write_text("[[0.0, 0.0], [1.0, 0.0]]")
    proc = _run_captured(["hardy", "--symbol-file", str(symbol), "--degree", "0", *request_])
    _assert_single_error_line(proc, 2)
    assert proc.stderr == "error: hardy: degree must be positive\n"
    assert proc.stdout == ""


@pytest.mark.parametrize("points", ["0.5,0.5,0.9", "0.5"])
def test_kernel_needs_exactly_two_points(points):
    proc = _run_captured(["model", "--operator", _fixture("isometric.json"), "--kernel", points])
    _assert_single_error_line(proc, 2)
    assert "'lam,z'" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "argv, field, key, value",
    [
        (
            ["model", "--operator", "isometric.json", "--kernel", "-0.3,0.2"],
            "kernel",
            "lam",
            [-0.3, 0.0],
        ),
        (["hardy", "--blaschke", "-0.5,0.3"], "symbol", "degree", 2),
        (
            ["model", "--operator", "isometric.json", "--coeffs", "x.json",
             "--verify", "reproduce", "--lam", "-0.3+0.1j"],
            "coefficients",
            "N",
            64,
        ),
    ],
)
def test_option_values_may_start_with_a_minus_sign(capsys, tmp_path, argv, field, key, value):
    code, out = _run(capsys, _with_vector_file(tmp_path, argv))
    assert code == 0
    report = json.loads(out)
    assert all(c["passed"] for c in report["checks"])
    assert report["results"][field][key] == value


def test_verify_all_reports_twelve_criteria(capsys):
    code, out = _run(capsys, ["verify-all"])
    assert code == 0
    report = json.loads(out)
    assert len(report["results"]["criteria"]) == 12
    assert all(c["passed"] for c in report["checks"])


# the first non-finite value each report holds, in the order the JSON writer meets it
_NON_FINITE = {"residual": "inf", "tolerance": "nan", "result": "-inf", "array": "nan"}


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("where", ["residual", "tolerance", "result", "array"])
def test_report_with_a_non_finite_number_is_refused_in_either_format(capsys, fmt, where):
    run = cli._Run("probe", DEFAULT_TOL)
    run.checks.append(
        Check(
            "probe",
            True,
            math.inf if where == "residual" else 0.5,
            math.nan if where == "tolerance" else 1e-9,
        )
    )
    if where == "array":
        run.results["value"] = np.array([1.0 + 2.0j, complex(3.0, math.nan), 4.0])
    else:
        run.results["value"] = -math.inf if where == "result" else 1.0
    with pytest.raises(NonFinite) as refused:
        cli._emit(run, argparse.Namespace(format=fmt, out=None))
    # one text in both formats; the encoder's error stays the cause, and the JSON writer's,
    # like json.dumps's, names the value (the compact C encoder's does not)
    assert str(refused.value) == "report holds a non-finite number"
    assert isinstance(refused.value.__cause__, ValueError)
    if fmt == "json":
        assert str(refused.value.__cause__).endswith(f"not JSON compliant: {_NON_FINITE[where]}")
    assert capsys.readouterr().out == ""


# ---------------------------------------------------------------------------
# the JSON report writer against the stdlib
# ---------------------------------------------------------------------------


def _stdlib(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True, allow_nan=False, default=cli._json_default)


_REPORT_ARGV = [
    ["verify-all"],
    ["classify", "--operator", "jordan3.json"],
    ["model", "--operator", "dirichlet.json", "--wold"],
    [
        "model", "--operator", "isometric.json", "--coeffs", "x.json", "--N", "16",
        "--kernel", "0.5,0.3", "--verify", "intertwine", "--verify", "reproduce",
    ],
    *(
        [
            "semigroup", "--generator", name, "--t", "0,0.05,0.5,1.0,2.5",
            "--growth-bound", "--equivalence-suite", "--cogenerator", "--rescale", "0.5",
        ]
        for name in ("skew4.json", "jordan3.json", "zero.json")
    ),
    *(
        ["hardy", "--blaschke", "0", "--semigroup-t", t, "--N", "4096", "--inner-check"]
        for t in ("0.5", "1.0")  # at N = 2048 both tails are refused
    ),
    ["hardy", "--blaschke", "0.5", "--N", "64", "--model-space", "--ladder", "3"],
    ["hardy", "--blaschke", "0.5,-0.3", "--caradus", "2,3", "--inner-check"],
    ["hardy", "--blaschke-file", "blaschke05.json", "--N", "256", "--inner-check"],
]


@pytest.mark.parametrize("argv", _REPORT_ARGV, ids=lambda argv: " ".join(argv))
def test_report_writer_matches_the_stdlib_on_reports(tmp_path, argv):
    args = cli.build_parser().parse_args(_with_vector_file(tmp_path, argv))
    run = cli._Run(args.command, DEFAULT_TOL)
    cli._DISPATCH[args.command](args, run)
    report = run.report()
    assert cli._write(report) == _stdlib(report)


_FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]),
)
_COMPLEX = st.complex_numbers(allow_nan=False, allow_infinity=False)
# an explicit alphabet: ASCII, quotes, backslash, control characters, non-ASCII and a
# lone surrogate (a full-Unicode strategy first builds a character table, ~2 s)
_TEXT = st.text(alphabet='az09 "\\/\n\t\x00\x1f\x7féß€\u2028😀\ud800', max_size=6)
_SHAPES = hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=4)
_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**64, max_value=2**200).flatmap(lambda n: st.sampled_from([n, -n])),
    _FINITE,
    _COMPLEX,
    _TEXT,
    _FINITE.map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    _COMPLEX.map(np.complex128),
    hnp.arrays(np.float64, _SHAPES, elements=_FINITE),
    hnp.arrays(np.complex128, _SHAPES, elements=_COMPLEX),
    st.builds(
        Check,
        _TEXT,
        st.booleans() | st.booleans().map(np.bool_),
        st.none() | _FINITE,
        st.none() | _FINITE,
    ),
)
_NUMBER_KEYS = st.one_of(st.integers(), st.booleans(), _FINITE)  # mutually comparable
_VALUES = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_TEXT, children, max_size=4),
        st.dictionaries(_NUMBER_KEYS, children, max_size=4),
        st.dictionaries(st.none(), children, max_size=1),
    ),
    max_leaves=12,
)


# every kind the strategy draws from, in one value, whatever the draws reach
_EDGES = {
    'key "é"\\\n\x01': [-0.0, 5e-324, 1.7976931348623157e308, 2**100, -(2**70), True, None, 1 - 2j],
    "arrays": [
        np.array(1.5),
        np.zeros(0),
        np.zeros((2, 0)),
        np.arange(3.0),
        np.ones((2, 2)) * (1 - 2j),
        np.array([1j, -0.0, 5e-324]),
    ],
    "numpy scalars": (np.float64(-0.0), np.int64(-7), np.bool_(False), np.complex128(5e-324j)),
    "checks": [Check("c", np.bool_(True), 1e-3, 1e-9), Check("d", False)],
    "number keys": {3: "x", -1: {True: 0.5, 2.5: [], -0.0: ()}},
    "none key": {None: {}},
}


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(_VALUES)
@example(_EDGES)
def test_report_writer_matches_the_stdlib_on_generated_values(value):
    assert cli._write(value) == _stdlib(value)
