"""Every check the command line can emit can fail.

One table maps each check name to a case that makes that check fail: an input, or a
perturbation of one route the check measures.  Its keys are read from the source: the
string-literal names of ``Check(...)`` and ``Check.judged(...)``, and the criterion names of
``verify-all``.  A criterion case runs its own criterion function, not all twelve.
"""

import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest

import shiftmodels
from shiftmodels import acceptance, classify, cli, hardy, semigroup, shimorin
from shiftmodels.series import PowerSeries

FIXTURES = files("shiftmodels") / "fixtures"


def _criterion_name(fn) -> str:
    _, number, name = fn.__name__.split("_", 2)
    return f"criterion_{int(number):02d}_{name}"


def _names_in_source() -> set[str]:
    source = "".join(p.read_text() for p in Path(shiftmodels.__file__).parent.glob("*.py"))
    literals = re.findall(r'\bCheck(?:\.judged)?\(\s*"([^"]+)"', source)
    return set(literals) | {_criterion_name(fn) for fn in acceptance.ALL_CRITERIA}


def _check(argv: list, name: str) -> bool:
    """The verdict of check ``name`` in the report of ``argv``, which must exit 1."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main([str(FIXTURES / a) if (FIXTURES / a).is_file() else str(a) for a in argv])
    assert code == 1 and err.getvalue() == "", err.getvalue()
    (check,) = [c for c in json.loads(out.getvalue())["checks"] if c["name"] == name]
    return check["passed"]


def _file(tmp_path, value) -> Path:
    path = tmp_path / "input.json"
    path.write_text(json.dumps(value))
    return path


def _dense(tmp_path, rows: list) -> Path:
    data = [[complex(x).real, complex(x).imag] for row in rows for x in row]
    matrix = {"rows": len(rows), "cols": len(rows), "data": data}
    return _file(tmp_path, {"kind": "dense", "matrix": matrix})


# ---------------------------------------------------------------------------
# perturbations of one route each


def _move_one_radius(monkeypatch):
    # one evolved matrix of the growth pass, scaled by 1 + 1e-6, has its radius moved as much
    original = semigroup.expm_stack

    def moved(stack):
        evolved, refusal = original(stack)
        evolved[0] *= 1.0 + 1e-6
        return evolved, refusal

    monkeypatch.setattr(semigroup, "expm_stack", moved)


def _raise_the_generator_form(monkeypatch):
    original = semigroup.hermitian_max_eig
    monkeypatch.setattr(semigroup, "hermitian_max_eig", lambda form: original(form) + 1.0)


def _stretch_the_unitary_core(monkeypatch):
    # V restricted to a core stretched by 1 + 1e-6 is no longer isometric
    original = shimorin._core

    def stretched(arr, tol):
        x, defect, core, steps = original(arr, tol)
        return x, defect, core * (1.0 + 1e-6), steps

    monkeypatch.setattr(shimorin, "_core", stretched)


def _tilt_the_model_heads(monkeypatch):
    # model coefficient n is scaled by 1 + 1e-3 n, as a wrong dual weight would
    original = shimorin._power_heads

    def tilted(q, v, dual):
        return original(q, v, dual) * (1.0 + 1e-3 * q)

    monkeypatch.setattr(shimorin, "_power_heads", tilted)


def _speed_up_the_multiplier(monkeypatch):
    # e_{1.001 t} in place of e_t: still inner, but its generator is 1.001 (z+1)/(z-1)
    original = shimorin._multiplier_coeffs
    monkeypatch.setattr(shimorin, "_multiplier_coeffs", lambda t, N: original(1.001 * t, N))


def _doubled(coeffs: np.ndarray) -> np.ndarray:
    coeffs = np.array(coeffs)
    coeffs[0] *= 2.0
    return coeffs


def _double_a_multiplier_coefficient(monkeypatch):
    original = shimorin._multiplier_coeffs
    monkeypatch.setattr(shimorin, "_multiplier_coeffs", lambda t, N: _doubled(original(t, N)))


# ---------------------------------------------------------------------------
# the cases: each takes (monkeypatch, tmp_path) and returns the verdict of its check


def _growth_bound_consistency(monkeypatch, tmp_path):
    _move_one_radius(monkeypatch)
    argv = ["semigroup", "--generator", "skew4.json", "--growth-bound"]
    return _check(argv, "growth_bound_consistency")


def _equivalence_agree(monkeypatch, tmp_path):
    _raise_the_generator_form(monkeypatch)
    argv = ["semigroup", "--generator", "skew4.json", "--equivalence-suite"]
    return _check(argv, "equivalence_agree")


def _wandering_span(monkeypatch, tmp_path):
    argv = ["model", "--operator", _dense(tmp_path, [[0, 1], [0, 0.5]]), "--wold"]
    return _check(argv, "wandering_span")


def _unitary_restriction(monkeypatch, tmp_path):
    _stretch_the_unitary_core(monkeypatch)
    swap = _dense(tmp_path, [[0, 1], [1, 0]])
    return _check(["model", "--operator", swap, "--wold"], "unitary_restriction")


def _inner_check(monkeypatch, tmp_path):
    # 2z has modulus 1.98 on the circle of radius 0.99
    symbol = _file(tmp_path, [[0.0, 0.0], [2.0, 0.0]])
    return _check(["hardy", "--symbol-file", symbol, "--inner-check"], "inner_check")


def _model_space_orthogonality(monkeypatch, tmp_path):
    original = cli.model_space_basis
    monkeypatch.setattr(cli, "model_space_basis", lambda *args: original(*args) + 1e-6)
    argv = ["hardy", "--blaschke", "0.5", "--N", "64", "--model-space"]
    return _check(argv, "model_space_orthogonality")


def _ladder_orthogonality(monkeypatch, tmp_path):
    # 0.5 z is not inner: multiplication by it is not isometric on its model space
    symbol = _file(tmp_path, [[0.0, 0.0], [0.5, 0.0]])
    argv = ["hardy", "--symbol-file", symbol, "--degree", "1", "--ladder", "1", "--N", "16"]
    return _check(argv, "ladder_orthogonality")


def _caradus_backward_certified(monkeypatch, tmp_path):
    # at rank_tol 1 no singular value of the backward block counts, so it is not surjective
    argv = ["hardy", "--caradus", "2,3", "--tol-rank", "1"]
    return _check(argv, "caradus_backward_certified")


def _caradus_forward_refused(monkeypatch, tmp_path):
    monkeypatch.setattr(cli, "block_forward_shift_trunc", hardy.block_backward_shift_trunc)
    return _check(["hardy", "--caradus", "2,3"], "caradus_forward_refused")


_VECTOR = {"entries": [[0, 1.0, 0.0], [2, -0.5, 0.25]]}


def _intertwine(monkeypatch, tmp_path):
    _tilt_the_model_heads(monkeypatch)
    argv = ["model", "--operator", "dirichlet.json", "--coeffs", _file(tmp_path, _VECTOR)]
    return _check([*argv, "--verify", "intertwine"], "intertwine")


def _reproduce(monkeypatch, tmp_path):
    _tilt_the_model_heads(monkeypatch)
    argv = ["model", "--operator", "dirichlet.json", "--coeffs", _file(tmp_path, _VECTOR)]
    return _check([*argv, "--verify", "reproduce", "--lam", "0.6"], "reproduce")


def _semigroup_generator(monkeypatch, tmp_path):
    _speed_up_the_multiplier(monkeypatch)
    argv = ["model", "--operator", "dirichlet.json", "--verify", "semigroup"]
    assert _check(argv, "semigroup_parseval")  # e_{1.001 t} is inner
    return _check(argv, "semigroup_generator")


def _semigroup_parseval(monkeypatch, tmp_path):
    _double_a_multiplier_coefficient(monkeypatch)
    argv = ["model", "--operator", "dirichlet.json", "--verify", "semigroup"]
    return _check(argv, "semigroup_parseval")


def _criterion(number: int, perturb):
    def case(monkeypatch, tmp_path):
        perturb(monkeypatch)
        result = acceptance.ALL_CRITERIA[number - 1]()
        assert result.number == number
        return result.passed

    return case


def _stretch_the_inverse_cayley(monkeypatch):
    original = acceptance._cayley

    def stretched(stack, tol, what):
        out = original(stack, tol, what)
        return out * (1.0 + 1e-8) if what == "cogenerator" else out

    monkeypatch.setattr(acceptance, "_cayley", stretched)


def _keep_the_defect(monkeypatch):
    # P x = x: the projection onto the defect space is replaced by the identity
    monkeypatch.setattr(acceptance, "defect_projection", lambda model, x: x)


def _stretch_the_kernel(monkeypatch):
    original = acceptance.kernel_eval
    monkeypatch.setattr(acceptance, "kernel_eval", lambda *args: original(*args) * (1.0 + 1e-9))


def _double_the_model_multiplier(monkeypatch):
    # only the model report's multiplier: the criterion's own routes import theirs by name
    original = shimorin.semigroup_multiplier

    def doubled(t, N):
        return PowerSeries(_doubled(original(t, N).coeffs))

    monkeypatch.setattr(shimorin, "semigroup_multiplier", doubled)


def _misplace_a_tmw_zero(monkeypatch):
    original = hardy._tmw_basis
    monkeypatch.setattr(hardy, "_tmw_basis", lambda zeros, n: original((0.2,) + zeros[1:], n))


def _swap_the_blocks(monkeypatch):
    backward, forward = acceptance.block_backward_shift_trunc, acceptance.block_forward_shift_trunc
    monkeypatch.setattr(acceptance, "block_backward_shift_trunc", forward)
    monkeypatch.setattr(acceptance, "block_forward_shift_trunc", backward)


def _pass_every_operator_as_concave(monkeypatch):
    # the non-concave control is then not refused
    monkeypatch.setattr(classify, "_defect_bounds", lambda T: (0.0, 0.0))


_FAILING = {
    "growth_bound_consistency": _growth_bound_consistency,
    "equivalence_agree": _equivalence_agree,
    "wandering_span": _wandering_span,
    "unitary_restriction": _unitary_restriction,
    "inner_check": _inner_check,
    "model_space_orthogonality": _model_space_orthogonality,
    "ladder_orthogonality": _ladder_orthogonality,
    "caradus_backward_certified": _caradus_backward_certified,
    "caradus_forward_refused": _caradus_forward_refused,
    "intertwine": _intertwine,
    "reproduce": _reproduce,
    "semigroup_generator": _semigroup_generator,
    "semigroup_parseval": _semigroup_parseval,
    "criterion_01_cayley_round_trip": _criterion(1, _stretch_the_inverse_cayley),
    "criterion_02_concavity_equivalence": _criterion(2, _raise_the_generator_form),
    "criterion_03_model_projection": _criterion(3, _keep_the_defect),
    "criterion_04_model_intertwining": _criterion(4, _tilt_the_model_heads),
    "criterion_05_reproducing_property": _criterion(5, _tilt_the_model_heads),
    "criterion_06_kernel_closed_forms": _criterion(6, _stretch_the_kernel),
    "criterion_07_multiplier_semigroup": _criterion(7, _double_the_model_multiplier),
    "criterion_08_wold_split": _criterion(8, _stretch_the_unitary_core),
    "criterion_09_ladder_decomposition": _criterion(9, _misplace_a_tmw_zero),
    "criterion_10_growth_bound": _criterion(10, _move_one_radius),
    "criterion_11_caradus_certificates": _criterion(11, _swap_the_blocks),
    "criterion_12_concave_power_growth": _criterion(12, _pass_every_operator_as_concave),
}


def test_the_table_names_every_check_the_command_line_can_emit():
    assert set(_FAILING) == _names_in_source()


@pytest.mark.parametrize("name", sorted(_FAILING))
def test_each_check_fails_on_its_case(monkeypatch, tmp_path, name):
    assert _FAILING[name](monkeypatch, tmp_path) is False
