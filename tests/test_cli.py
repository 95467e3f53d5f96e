"""Command-line interface tests: subcommands, exit codes, deterministic reports."""

import argparse
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
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
    # a check without a residual is printed by its verdict alone
    code, out = _run(
        capsys, ["model", "--operator", _fixture("jordan3.json"), "--wold", "--format", "text"]
    )
    assert code == 0
    assert "check wandering_span: PASS\n" in out


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
        # weights that are not a list of numbers, once read as (1.0, 2.0), (2.0,) and 1.5
        ({"kind": "shift", "head_weights": "12", "tail_weight": 1.0}, ["classify", "--operator"]),
        ({"kind": "shift", "head_weights": {"2.0": 1}, "tail_weight": 1.0}, ["classify", "--operator"]),
        ({"kind": "shift", "head_weights": [], "tail_weight": "1.5"}, ["classify", "--operator"]),
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


def test_reproduce_reports_a_vector_whose_squared_norm_overflows(tmp_path):
    # |1e200|^2 is past the float range; the norm is 1e200, scaled by its largest modulus
    (tmp_path / "big.json").write_text(json.dumps({"entries": [[0, 1e200, 0.0]]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        proc = _run_captured(
            ["model", "--operator", _fixture("dirichlet.json"), "--coeffs",
             str(tmp_path / "big.json"), "--verify", "reproduce", "--lam", "0.6"]
        )
    assert proc.returncode in (0, 1), proc.stderr
    assert proc.stderr == ""
    (check,) = json.loads(proc.stdout)["checks"]
    assert check["name"] == "reproduce" and math.isfinite(check["residual"])


@pytest.mark.parametrize("law", ["dirichlet.json", "isometric.json"])
@pytest.mark.parametrize("second, lam", [(1, "0.6"), (5, "0.3")])
def test_reproduce_takes_the_log_of_a_norm_past_the_float_range(tmp_path, law, second, lam):
    # ||x|| = 1.7e308 sqrt(2) is past the float range; its log is not.  With x_1 the pairing
    # 1.7e308 (1 + 0.6 w_0) overflows too, and the report holding it is refused; with x_5 the
    # pairing 1.7e308 (1 + 0.3^5 w_0 .. w_4) is reported
    big = {"entries": [[0, 1.7e308, 0.0], [second, 1.7e308, 0.0]]}
    (tmp_path / "big.json").write_text(json.dumps(big))
    proc = _run_captured(
        ["model", "--operator", _fixture(law), "--coeffs", str(tmp_path / "big.json"),
         "--verify", "reproduce", "--lam", lam]
    )
    if second == 1:
        _assert_single_error_line(proc, 3)
        assert "non-finite" in proc.stderr
    else:
        assert proc.returncode == 0 and proc.stderr == ""
        (check,) = json.loads(proc.stdout)["checks"]
        assert check["name"] == "reproduce" and check["passed"]


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
        assert [c["name"] for c in checks] == ["semigroup_generator", "semigroup_parseval"]
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


def test_overflowing_ladder_gram_matrix_is_refused_by_name_without_warnings(tmp_path):
    # the ladder levels of phi = 1e200 are finite, and their Gram entries 1e400 overflow
    path = tmp_path / "phi.json"
    path.write_text(json.dumps([[1e200, 0.0]]))
    argv = ["hardy", "--symbol-file", str(path), "--degree", "1", "--ladder", "1", "--N", "16"]
    proc = _run_captured(argv)  # a numpy warning fails the test
    _assert_single_error_line(proc, 3)
    assert proc.stderr == "error: hardy: non-finite ladder Gram matrix\n"
    assert proc.stdout == ""


# a Blaschke zero of modulus up to 0.99, and a time from 0 to 1e3
_ZERO = st.tuples(st.floats(0.0, 0.99), st.floats(0.0, 2.0 * math.pi)).map(
    lambda p: complex(p[0] * math.cos(p[1]), p[0] * math.sin(p[1]))
)
_TIME = st.floats(0.0, 1e3)


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(zeros=st.lists(_ZERO, min_size=1, max_size=4), t=_TIME, n=st.integers(1, 1100))
@example(zeros=[2.225073858507203e-309 + 0j], t=1.0, n=8)  # a subnormal zero: |a|/a is 1
def test_any_blaschke_semigroup_symbol_is_inner_or_refused(zeros, t, n):
    # e_t o phi is inner, so its coefficients through any degree carry at most its norm 1
    argv = ["hardy", "--blaschke", ",".join(map(str, zeros)), "--semigroup-t", repr(t)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        proc = _run_captured([*argv, "--N", str(n)])
    assert not caught, [str(w.message) for w in caught]
    assert proc.returncode in (0, 3), proc.stderr
    if proc.returncode == 3:
        _assert_single_error_line(proc, 3)
        return
    assert proc.stderr == ""
    series = np.array(json.loads(proc.stdout)["results"]["semigroup_symbol"]["series"])
    assert series.shape == (n, 2)
    assert np.sum(series**2) <= 1.0 + 1e-12


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


# the name each option's refusal of a non-finite value gives its parameter
_PARAMETER_NAMES = {
    "--t": "semigroup parameter must be finite, got -inf",
    "--rescale": "rescaling parameter must be finite, got -inf",
    "--semigroup-t": "semigroup parameter must be finite, got -inf",
    "--kernel": "lam = (-inf+0j) is not a finite complex number",
    "--blaschke": "Blaschke zero must be a finite complex number",
}


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
        # a value starting with -inf or -nan is joined to its option like a negative number
        (["semigroup", "--generator", "zero.json", "--t", "-inf"], 3),
        (["semigroup", "--generator", "skew4.json", "--rescale", "-inf"], 3),
        (
            ["model", "--operator", "isometric.json", "--verify", "semigroup",
             "--semigroup-t", "-inf"],
            3,
        ),
        (["model", "--operator", "isometric.json", "--kernel", "-inf,0"], 3),
        (["hardy", "--blaschke", "0", "--semigroup-t", "-inf", "--N", "8"], 3),
        (["hardy", "--blaschke", "-nan"], 3),
    ],
)
def test_non_finite_points_and_times_are_refused(tmp_path, argv, code):
    proc = _run_captured(_with_vector_file(tmp_path, argv))
    _assert_single_error_line(proc, code)
    assert proc.stdout == ""
    if "--t" in argv:  # refused by name, not by the 1-norm of t A: zero.json's A is finite
        assert "semigroup parameter must be finite, got " in proc.stderr
    dashed = [i for i, a in enumerate(argv) if a.startswith(("-inf", "-nan"))]
    if dashed:  # joined to its option, the value reaches the refusal that names the parameter
        assert _PARAMETER_NAMES[argv[dashed[0] - 1]] in proc.stderr


@pytest.mark.parametrize(
    "t, text",
    [
        ("-1", "semigroup parameter must be nonnegative, got -1.0"),
        ("nan", "semigroup parameter must be finite, got nan"),
    ],
)
def test_semigroup_model_and_hardy_refuse_a_time_with_one_text(t, text):
    argvs = [
        ["semigroup", "--generator", _fixture("zero.json"), "--t", t],
        ["model", "--operator", _fixture("isometric.json"), "--verify", "semigroup",
         "--semigroup-t", t],
        ["hardy", "--blaschke", "0", "--semigroup-t", t, "--N", "8"],
    ]
    for argv in argvs:
        proc = _run_captured(argv)
        _assert_single_error_line(proc, 2 if t == "-1" else 3)
        assert proc.stderr == f"error: {argv[0]}: {text}\n"


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


# input files of the refusal table below, by name
_REFUSAL_FILES = {
    "bad.json": '{"kind": ',
    "poly.json": [[0.0, 0.0], [1.0, 0.0]],
    "zero_weight.json": {"kind": "shift", "head_weights": [0.0], "tail_weight": 1.0},
    "list.json": [1],
    "law.json": {"kind": "shift", "law": "cauchy"},
    "no_tail.json": {"kind": "shift", "head_weights": [1.0]},
    "no_matrix.json": {"kind": "dense"},
    "banded.json": {"kind": "banded"},
    "empty_object.json": {},
    "no_cols.json": {"kind": "dense", "matrix": {"rows": 2}},
    "short.json": {"kind": "dense", "matrix": {"rows": 2, "cols": 2, "data": [[1.0, 0.0]]}},
    "empty_series.json": [],
    "pair_less.json": [[1.0]],
    "mixed.json": {
        "kind": "direct_sum",
        "parts": [
            {"kind": "dense", "matrix": {"rows": 1, "cols": 1, "data": [[0.5, 0.0]]}},
            {"kind": "shift", "law": "dirichlet"},
        ],
    },
    "subnormal_weight.json": {"kind": "shift", "head_weights": [1e-320, 1.0], "tail_weight": 1.0},
    "huge_head.json": {"kind": "shift", "head_weights": [1e200], "tail_weight": 1.0},
    "huge_tail.json": {"kind": "shift", "head_weights": [], "tail_weight": 1e200},
    "huge_series.json": [[1e308, 0.0]] * 40,
    "nested.json": {
        "kind": "direct_sum",
        "parts": [{"kind": "direct_sum", "parts": [{"kind": "shift", "law": "dirichlet"}]}],
    },
}
_MODEL = ["model", "--operator", "isometric.json"]


@pytest.mark.parametrize(
    "argv, code, text",
    [
        (
            ["classify", "--operator", "bad.json"],
            2,
            "malformed JSON in {tmp}/bad.json: Expecting value: line 1 column 10 (char 9)",
        ),
        ([*_MODEL, "--kernel", "abc,0.1"], 2, "cannot parse complex number from 'abc'"),
        (
            ["hardy", "--blaschke", ","],
            2,
            "expected a nonempty comma-separated list of complex numbers",
        ),
        (
            [*_MODEL, "--verify", "intertwine"],
            2,
            "--verify intertwine needs --coeffs <vector file>",
        ),
        ([*_MODEL, "--verify", "reproduce"], 2, "--verify reproduce needs --coeffs <vector file>"),
        (["hardy"], 2, "nothing to do: provide a symbol source or request --caradus"),
        (
            ["hardy", "--symbol-file", "poly.json", "--model-space"],
            2,
            "--model-space and --ladder need --degree for series symbols",
        ),
        (["hardy", "--caradus", "2"], 2, "--caradus expects 'multiplicity,dimension'"),
        # hardy --N counts coefficients: the user's 0 is refused by that name, not as an order
        (
            ["hardy", "--blaschke", "0.5", "--N", "0", "--inner-check"],
            2,
            "--N counts series coefficients and must be at least 1, got 0",
        ),
        (
            ["hardy", "--symbol-file", "poly.json", "--N", "0", "--semigroup-t", "1"],
            2,
            "--N counts series coefficients and must be at least 1, got 0",
        ),
        (
            ["classify", "--operator", "zero_weight.json"],
            2,
            "shift weights must be positive finite, got 0.0",
        ),
        (
            ["classify", "--operator", "list.json"],
            2,
            "operator object must be a dict with a 'kind' field",
        ),
        (["classify", "--operator", "law.json"], 2, "unknown shift weight law 'cauchy'"),
        (["classify", "--operator", "no_tail.json"], 2, "malformed shift weights: 'tail_weight'"),
        (["classify", "--operator", "no_matrix.json"], 2, "dense operator needs a 'matrix' field"),
        (["classify", "--operator", "banded.json"], 2, "unknown operator kind 'banded'"),
        (
            [*_MODEL, "--coeffs", "empty_object.json"],
            2,
            "vector object must be a dict with an 'entries' field",
        ),
        (["classify", "--operator", "no_cols.json"], 2, "matrix object missing field: 'cols'"),
        (["classify", "--operator", "short.json"], 2, "expected 4 entries, got 1"),
        (
            ["hardy", "--symbol-file", "empty_series.json", "--inner-check"],
            2,
            "series needs a nonempty 1-d coefficient array, got shape (0,)",
        ),
        (
            ["hardy", "--symbol-file", "pair_less.json", "--inner-check"],
            2,
            "series coefficients must be lists of 2 numbers",
        ),
        (["hardy", "--blaschke", "0.5", "--ladder", "0"], 2, "need at least one ladder level"),
        (
            ["hardy", "--blaschke", "0.5", "--N", "8", "--ladder", "4"],
            3,
            "truncation 8 is below the working minimum 12 for 4 ladder levels at degree 1",
        ),
        (
            ["model", "--operator", "mixed.json", "--kernel", "0.1,0.1"],
            3,
            "analytic models require a shift or a direct sum of shifts; found a Dense part",
        ),
        (
            ["model", "--operator", "nested.json", "--wold"],
            3,
            "nested direct sums are not supported here",
        ),
        # 1 / 1e-320 overflows: the Cauchy dual, not the user's weights, leaves the float range
        (
            ["model", "--operator", "subnormal_weight.json", "--kernel", "0.1,0.1"],
            3,
            "non-finite Cauchy dual weights",
        ),
        # w^2 overflows in the defect w_k^2 w_{k+1}^2 - 2 w_k^2 + 1, at the head or in the tail
        (["classify", "--operator", "huge_head.json"], 3, "non-finite shift defect range"),
        (["classify", "--operator", "huge_tail.json"], 3, "non-finite shift defect range"),
        # both block means of the tail window overflow: their ratio is NaN, which bounds nothing
        (
            ["hardy", "--symbol-file", "huge_series.json", "--inner-check"],
            3,
            "coefficient tail beyond degree 39 contributes about nan on the circle |z| = 0.9, "
            "above the tail tolerance 1.0e-10; increase the truncation order",
        ),
    ],
)
def test_each_refusal_names_its_cause(tmp_path, argv, code, text):
    for name, content in _REFUSAL_FILES.items():
        (tmp_path / name).write_text(content if isinstance(content, str) else json.dumps(content))
    proc = _run_captured(_with_vector_file(tmp_path, argv))
    _assert_single_error_line(proc, code)
    assert proc.stderr == f"error: {argv[0]}: {text.format(tmp=tmp_path)}\n"
    assert proc.stdout == ""


# head and tail weights from 1e-320 (subnormal) to 1e300, spread over the exponents
_WEIGHT = st.floats(-320.0, 300.0).map(lambda e: 10.0**e)


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(head=st.lists(_WEIGHT, max_size=3), tail=_WEIGHT)
def test_any_shift_weights_end_in_a_report_or_a_numeric_refusal(head, tail):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "shift.json"
        path.write_text(json.dumps({"kind": "shift", "head_weights": head, "tail_weight": tail}))
        for argv in (["classify"], ["model", "--kernel", "0.1,0.1"]):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                proc = _run_captured([argv[0], "--operator", str(path), *argv[1:]])
            assert not caught, [str(w.message) for w in caught]
            assert proc.returncode in (0, 1, 3), proc.stderr
            if proc.returncode == 3:
                _assert_single_error_line(proc, 3)
            else:
                assert proc.stderr == ""


# [[1e-320, 5e-324], [0, -1e-320]]: every entry, and so ||T||_2, is subnormal
_SUBNORMAL = [[1e-320, 0.0], [5e-324, 0.0], [0.0, 0.0], [-1e-320, 0.0]]


def test_subnormal_matrix_is_classified_and_split(tmp_path):
    path = _dense_file(tmp_path, "subnormal.json", 2, _SUBNORMAL)
    proc = _run_captured(["classify", "--operator", path])
    assert (proc.returncode, proc.stderr) == (0, "")
    classification = json.loads(proc.stdout)["results"]["classification"]
    assert classification["bounded_below"] and not classification["pure"]
    assert classification["lower_bound"] == pytest.approx(1e-320, rel=1e-3)
    # the core is the whole space, on which T is far from unitary
    proc = _run_captured(["model", "--wold", "--operator", path])
    assert (proc.returncode, proc.stderr) == (1, "")
    report = json.loads(proc.stdout)
    assert report["results"]["wold"]["dim_unitary"] == 2
    restriction = next(c for c in report["checks"] if c["name"] == "unitary_restriction")
    assert restriction["residual"] == 1.0


# a complex entry whose real and imaginary parts are 0 or of modulus 1e-320 to 1e300; the
# subnormal decade range is drawn on its own, as often as the rest, so that whole matrices
# of subnormal entries come up
_PART = st.one_of(
    st.just(0.0),
    st.floats(-320.0, -308.0).map(lambda e: 10.0**e),
    st.floats(-308.0, 300.0).map(lambda e: 10.0**e),
)
_ENTRY = st.tuples(st.sampled_from((1.0, -1.0)), _PART, st.sampled_from((1.0, -1.0)), _PART).map(
    lambda p: [p[0] * p[1], p[2] * p[3]]
)


@st.composite
def _dense_data(draw):
    """Row-major entries of an n x n matrix, n = 1..4: independent entries, or S J S^-1.

    J is c times the nilpotent Jordan block of size n and S a seeded complex Gaussian.
    """
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        return n, draw(st.lists(_ENTRY, min_size=n * n, max_size=n * n))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    S = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    scale = 10.0 ** draw(st.floats(-320.0, 290.0))
    T = S @ (scale * np.eye(n, k=1)) @ np.linalg.inv(S)
    return n, [[v.real, v.imag] for v in T.reshape(-1).tolist()]


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(data=_dense_data())
def test_any_dense_matrix_ends_in_a_report_or_a_numeric_refusal(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = _dense_file(Path(tmp), "dense.json", *data)
        for argv in (["classify"], ["model", "--wold"]):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                proc = _run_captured([*argv, "--operator", path])
            assert not caught, [str(w.message) for w in caught]
            assert proc.returncode in (0, 1, 3), proc.stderr
            if proc.returncode == 3:
                _assert_single_error_line(proc, 3)
            else:
                assert proc.stderr == ""


# each place a real number is read: a file with "#" where the number goes, the command that
# reads it, and the name its refusal gives the field
_NUMBER_PLACES = {
    "matrix entry": (
        '{"kind": "dense", "matrix": {"rows": 1, "cols": 1, "data": [[#, 0]]}}',
        ["classify", "--operator"],
        "matrix entries",
    ),
    "head weight": (
        '{"kind": "shift", "head_weights": [#], "tail_weight": 1}',
        ["classify", "--operator"],
        "shift weights",
    ),
    "tail weight": (
        '{"kind": "shift", "head_weights": [2], "tail_weight": #}',
        ["classify", "--operator"],
        "shift weights",
    ),
    "vector amplitude": ('{"entries": [[0, 0.5, #]]}', _COEFFS, "vector entries"),
    "series coefficient": (
        "[[0.5, 0], [#, 0]]",
        ["hardy", "--inner-check", "--symbol-file"],
        "series coefficients",
    ),
    "Blaschke zero": (
        '{"zeros": [[0.5, #]]}',
        ["hardy", "--inner-check", "--blaschke-file"],
        "Blaschke zeros",
    ),
    "Blaschke constant": (
        '{"zeros": [], "constant": [#, 0]}',
        ["hardy", "--inner-check", "--blaschke-file"],
        "Blaschke constant",
    ),
}


def _run_with_number(tmp_path, place: str, literal: str):
    template, argv, _ = _NUMBER_PLACES[place]
    path = tmp_path / "number.json"
    path.write_text(template.replace("#", literal))
    return _run_captured([*argv, str(path)])


@pytest.mark.parametrize("place", list(_NUMBER_PLACES))
@pytest.mark.parametrize("sign", ["", "-"])
def test_an_integer_literal_past_the_double_range_reads_as_infinity(tmp_path, place, sign):
    # 10**400 is refused exactly as 1e400, which json reads as infinity
    integer = _run_with_number(tmp_path, place, sign + "1" + "0" * 400)
    exponent = _run_with_number(tmp_path, place, sign + "1e400")
    assert (integer.returncode, integer.stderr) == (exponent.returncode, exponent.stderr)
    _assert_single_error_line(integer, integer.returncode)
    assert integer.returncode in (2, 3)


@pytest.mark.parametrize("place", list(_NUMBER_PLACES))
@pytest.mark.parametrize("literal", ["true", "false", '"0.5"'])
def test_a_boolean_or_a_string_is_not_a_number(tmp_path, place, literal):
    proc = _run_with_number(tmp_path, place, literal)
    _assert_single_error_line(proc, 2)
    field = _NUMBER_PLACES[place][2]
    assert f"{field} must be numbers, got " in proc.stderr


@pytest.mark.parametrize(
    "argv, entry",
    [
        # the budget 0.5 * 5e-324 (1 - 0.25) is below the smallest double: about 1080 terms
        (["isometric.json", "--kernel", "0.5,0.5", "--tol-tail", "5e-324"], 4.0 / 3.0),
        (["isometric.json", "--kernel", "0.1,0.9", "--tol-tail", "2e-323"], 1.0 / 0.91),
        (
            ["dirichlet.json", "--coeffs", "x.json", "--verify", "reproduce", "--lam", "0.6",
             "--tol-tail", "5e-324"],
            None,
        ),
    ],
)
def test_a_tail_tolerance_near_the_smallest_double_still_counts_its_terms(tmp_path, argv, entry):
    proc = _run_captured(_with_vector_file(tmp_path, ["model", "--operator", *argv]))
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
    report = json.loads(proc.stdout)
    if entry is not None:  # the Szego kernel 1/(1 - z conj(lam)) of the isometric shift
        assert report["results"]["kernel"]["matrix"] == [[[pytest.approx(entry, rel=1e-15), 0.0]]]


# the numbers of the wire fuzzer: 0, floats of modulus 1e-320 to 1e300 (those from 1e-3 to 10
# drawn on their own too, so that some files are read into a report), the top of the float
# range, and integer literals past the double range; not numbers: booleans and numeric strings
_SIGN = st.sampled_from((1, -1))
_WIRE_NUMBER = st.one_of(
    st.just(0),
    st.tuples(_SIGN, st.floats(-3.0, 1.0)).map(lambda p: p[0] * 10.0 ** p[1]),
    st.tuples(_SIGN, st.floats(-320.0, 300.0)).map(lambda p: p[0] * 10.0 ** p[1]),
    st.sampled_from((1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308)),
    st.tuples(_SIGN, st.integers(1024, 1100)).map(lambda p: p[0] * 2 ** p[1]),
)
_NOT_A_NUMBER = st.one_of(st.booleans(), _WIRE_NUMBER.map(str))
# a string or an object where a list belongs
_NOT_A_LIST = st.sampled_from(("12", {"2.0": 1}))


# the command that reads each format; a vector file also goes through each model --verify
_WIRE_COMMANDS = {
    "dense": ["classify", "--operator"],
    "shift": ["classify", "--operator"],
    "vector": _COEFFS,
    **{
        f"vector-{check}": [
            "model", "--operator", _fixture("dirichlet.json"), "--verify", check, "--coeffs"
        ]
        for check in ("intertwine", "reproduce", "semigroup")
    },
    "series": ["hardy", "--inner-check", "--symbol-file"],
    "blaschke": ["hardy", "--inner-check", "--blaschke-file"],
    # the factor scans of the model-space basis and the ladder levels
    "blaschke-ladder": ["hardy", "--model-space", "--ladder", "2", "--N", "64", "--blaschke-file"],
}


def _wire_file(kind: str, rows: list) -> tuple[dict, list]:
    """The file of ``kind`` built from ``rows``, 1 to 4 lists of two numbers, as
    ``{"file": value}``, and the places in it where a list belongs, as (container, key) pairs.

    Each file holds ``rows[0]``: a dense file keeps the first n^2 rows for the largest n, a
    shift file takes the numbers as its weights, and a Blaschke file its last row as constant.
    The ladder's Blaschke file has no constant (a drawn one is almost never unimodular), so
    its zeros reach the factor scans.
    """
    holder = {}
    places = [(holder, "file"), *((rows, k) for k in range(len(rows)))]
    if kind == "dense":
        n = math.isqrt(len(rows))
        del rows[n * n :], places[n * n + 1 :]
        matrix = {"rows": n, "cols": n, "data": rows}
        holder["file"] = {"kind": "dense", "matrix": matrix}
        places.append((matrix, "data"))
    elif kind == "shift":
        weights = [x for row in rows for x in row]
        holder["file"] = {"kind": "shift", "head_weights": weights[:-1], "tail_weight": weights[-1]}
        places = [(holder, "file"), (holder["file"], "head_weights")]
    elif kind.startswith("vector"):
        entries = [[k, *row] for k, row in enumerate(rows)]
        holder["file"] = {"entries": entries}
        places = [(holder, "file"), (holder["file"], "entries")]
        places += [(entries, k) for k in range(len(entries))]
    elif kind == "series":
        holder["file"] = rows
    elif kind == "blaschke-ladder":
        holder["file"] = {"zeros": rows}
        places.insert(1, (holder["file"], "zeros"))
    else:
        holder["file"] = {"zeros": rows[:-1], "constant": rows[-1]}
        places = [(holder, "file"), (holder["file"], "zeros"), (holder["file"], "constant")]
        places += [(holder["file"]["zeros"], k) for k in range(len(rows) - 1)]
    return holder, places


@pytest.mark.parametrize("kind", list(_WIRE_COMMANDS))
@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_any_input_file_ends_in_a_report_or_a_typed_refusal(kind, data):
    # the defect, if any: a number's place holds a boolean or a string, or a list's place a
    # string or an object
    row = st.lists(_WIRE_NUMBER, min_size=2, max_size=2)
    rows = data.draw(st.lists(row, min_size=1, max_size=4))
    defect = data.draw(st.sampled_from((None, "number", "list")))
    if defect == "number":
        rows[0][data.draw(st.integers(0, 1))] = data.draw(_NOT_A_NUMBER)
    holder, places = _wire_file(kind, rows)
    if defect == "list":
        container, key = data.draw(st.sampled_from(places))
        container[key] = data.draw(_NOT_A_LIST)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(json.dumps(holder["file"]))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            proc = _run_captured([*_WIRE_COMMANDS[kind], str(path)])
    assert not caught, [str(w.message) for w in caught]
    assert proc.returncode in (0, 1, 2, 3), proc.stderr
    assert "Traceback" not in proc.stderr
    if proc.returncode in (2, 3):
        _assert_single_error_line(proc, proc.returncode)
    else:
        assert proc.stderr == ""
    if defect is not None:
        _assert_single_error_line(proc, 2)


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


def test_main_builds_its_parser_once(monkeypatch, capsys):
    argv = ["hardy", "--blaschke", "0.5", "--N", "8"]
    assert main(argv) == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert main(argv) == 0
    assert built == []
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [[], ["no-such-command"], ["hardy", "--N", "x"], ["classify"], ["hardy", "--no-such-flag"]],
)
def test_a_usage_error_reads_as_from_a_new_parser(capsys, argv):
    with pytest.raises(SystemExit) as fresh:
        cli.build_parser().parse_args(argv)
    expected = capsys.readouterr()
    for _ in range(2):  # the second call reuses the parser the first one built
        with pytest.raises(SystemExit) as reused:
            main(argv)
        assert reused.value.code == fresh.value.code == 2
        assert capsys.readouterr() == expected
