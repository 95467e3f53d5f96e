"""Command line front end: parse operator and series files, emit JSON reports.

Subcommands
-----------

classify    operator file -> regime flags and margins
semigroup   generator file -> evolution data, cogenerator, growth bound,
            concavity equivalence suite
model       shift-regime operator file -> analytic-model data: coefficients,
            kernel values, intertwining / reproducing / semigroup checks,
            Wold splitting
hardy       Blaschke or series symbol -> inner checks, model-space bases,
            ladder decompositions, truncated-shift certificates
verify-all  run the acceptance criteria

Reports are deterministic: keys are sorted, floats use round-trip decimal
formatting, complex numbers appear as [re, im] pairs, and provenance records
input hashes, tolerances and truncation orders but no timestamps.  Exit code
0 means every requested check passed, 1 a check failed, 2 a usage or parse
error, 3 a numeric failure (singular system, divergent tail, and so on).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys

import numpy as np

from .acceptance import run_all
from .classify import classify_operator
from .config import DEFAULT_TOL, ToleranceConfig
from .errors import ToolkitError
from .hardy import (
    BlaschkeSpec,
    analytic_toeplitz_trunc,
    blaschke_series,
    caradus_certificate,
    block_backward_shift_trunc,
    block_forward_shift_trunc,
    inner_check,
    inner_semigroup_symbol,
    model_space_basis,
    verify_ladder_decomposition,
)
from .numkit import ComplexMatrix, spectral_radius, two_norm
from .operators import Dense, FiniteSupportVector, operator_from_json, vector_from_json
from .semigroup import (
    SemigroupSpec,
    cogenerator,
    concavity_equivalence_suite,
    evolve,
    growth_bound,
    growth_bound_consistency,
    quasicontractive_rescale,
)
from .series import PowerSeries
from .shimorin import (
    MULTIPLIER_SIGN_NOTE,
    RADIUS_CONVENTION_NOTE,
    build_model,
    coefficients,
    kernel_eval,
    verify_intertwining,
    verify_reproducing,
    verify_semigroup_model,
    wold_decompose,
)

_CONSISTENCY_TOL = 1e-8
_INTERTWINE_TOL = 1e-12
_REPRODUCE_TOL = 1e-8
_GENERATOR_TOL = 1e-6
_CONSTANT_TOL = 1e-12


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------


def _pair(z: complex) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def _pairs(values) -> list:
    return [_pair(v) for v in np.asarray(values, dtype=np.complex128).ravel()]


def _matrix_pairs(arr: np.ndarray) -> list:
    return [[_pair(v) for v in row] for row in np.asarray(arr, dtype=np.complex128)]


def _jsonable(value):
    """Convert numpy scalars and tuples so json.dumps sees native types."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, (complex, np.complexfloating)):
        return _pair(value)
    return value


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        digest.update(fh.read())
    return digest.hexdigest()


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON in {path}: {exc}") from exc


def _parse_complex(text: str) -> complex:
    try:
        return complex(text.strip().replace(" ", ""))
    except ValueError as exc:
        raise ValueError(f"cannot parse complex number from {text!r}") from exc


def _parse_complex_list(text: str) -> list[complex]:
    items = [piece for piece in text.split(",") if piece.strip()]
    if not items:
        raise ValueError("expected a nonempty comma-separated list of complex numbers")
    return [_parse_complex(piece) for piece in items]


class _Run:
    """Accumulates checks, results, warnings and provenance for one report."""

    def __init__(self, command: str, tol: ToleranceConfig) -> None:
        self.command = command
        self.tol = tol
        self.checks: list[dict] = []
        self.results: dict = {}
        self.warnings: list[str] = []
        self.inputs: dict[str, str] = {}
        self.truncations: dict[str, int] = {}

    def check(self, name: str, passed: bool, residual: float | None = None,
              tolerance: float | None = None) -> None:
        entry: dict = {"name": name, "passed": bool(passed)}
        if residual is not None:
            entry["residual"] = float(residual)
            entry["tolerance"] = float(tolerance) if tolerance is not None else None
        self.checks.append(entry)

    def warn(self, message: str) -> None:
        if message not in self.warnings:
            self.warnings.append(message)

    def record_input(self, path: str) -> None:
        self.inputs[path] = _sha256(path)

    def report(self) -> dict:
        return {
            "command": self.command,
            "checks": self.checks,
            "results": self.results,
            "warnings": self.warnings,
            "provenance": {
                "inputs": self.inputs,
                "tolerances": dataclasses.asdict(self.tol),
                "truncations": self.truncations,
            },
        }

    @property
    def all_passed(self) -> bool:
        return all(c["passed"] for c in self.checks)


def _emit(run: _Run, args: argparse.Namespace) -> None:
    report = _jsonable(run.report())
    if args.format == "json":
        text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
    else:
        lines = [f"command: {run.command}"]
        for c in run.checks:
            status = "PASS" if c["passed"] else "FAIL"
            if "residual" in c:
                lines.append(
                    f"check {c['name']}: {status} (residual {c['residual']:.3e}, "
                    f"tolerance {c['tolerance']:.0e})"
                )
            else:
                lines.append(f"check {c['name']}: {status}")
        for key in sorted(report["results"]):
            lines.append(f"result {key}: {json.dumps(report['results'][key], sort_keys=True)}")
        for w in run.warnings:
            lines.append(f"warning: {w}")
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------


def _load_operator(run: _Run, path: str):
    run.record_input(path)
    return operator_from_json(_load_json(path))


def _load_generator(run: _Run, path: str) -> ComplexMatrix:
    T = _load_operator(run, path)
    if not isinstance(T, Dense):
        raise ValueError("generator files must contain a dense operator")
    return T.matrix


def _cmd_classify(args: argparse.Namespace, run: _Run) -> None:
    T = _load_operator(run, args.operator)
    report = classify_operator(T, run.tol)
    run.results["classification"] = dataclasses.asdict(report)


def _cmd_semigroup(args: argparse.Namespace, run: _Run) -> None:
    A = _load_generator(run, args.generator)
    S = SemigroupSpec(A)
    if args.t:
        evolution = []
        for t in (float(v) for v in args.t.split(",") if v.strip()):
            Et = evolve(S, t)
            evolution.append(
                {
                    "t": t,
                    "norm": two_norm(Et),
                    "spectral_radius": spectral_radius(Et),
                }
            )
        run.results["evolution"] = evolution
    if args.cogenerator:
        run.results["cogenerator"] = cogenerator(S, run.tol).to_json()
    if args.rescale is not None:
        run.results["rescaled_generator"] = quasicontractive_rescale(
            S, float(args.rescale)
        ).generator.to_json()
    if args.growth_bound:
        gb = growth_bound(S)
        consistency = growth_bound_consistency(S)
        run.results["growth_bound"] = {"omega": gb.omega, "method": gb.method}
        run.check(
            "growth_bound_consistency",
            consistency <= _CONSISTENCY_TOL,
            residual=consistency,
            tolerance=_CONSISTENCY_TOL,
        )
    if args.equivalence_suite:
        suite = concavity_equivalence_suite(S, tol=run.tol)
        payload = dataclasses.asdict(suite)
        payload["t_grid"] = list(suite.t_grid)
        run.results["equivalence_suite"] = payload
        run.check("equivalence_agree", suite.agree)


def _cmd_model(args: argparse.Namespace, run: _Run) -> None:
    T = _load_operator(run, args.operator)
    verifications = args.verify or []
    needs_model = bool(args.coeffs or args.kernel or verifications) or not args.wold
    model = None
    if needs_model:
        model = build_model(T, run.tol)
        run.warn(RADIUS_CONVENTION_NOTE)
        run.results["model"] = {
            "dim_defect": model.dim_defect,
            "radius": model.radius,
            "left_inverse_norm": model.left_inverse_norm,
            "dual_spectral_radius": model.dual_spectral_radius,
        }
    x = None
    if args.coeffs:
        run.record_input(args.coeffs)
        x = vector_from_json(_load_json(args.coeffs))

    if args.coeffs and model is not None:
        run.truncations["N"] = args.N
        coeff = coefficients(model, x, args.N)
        run.results["coefficients"] = {
            "N": coeff.N,
            "tail_bound": coeff.tail_bound,
            "rows": [_pairs(row) for row in coeff.coeffs],
        }

    if args.kernel:
        lam, z = _parse_complex_list(args.kernel)[:2]
        kmat = kernel_eval(model, lam, z, run.tol)
        run.results["kernel"] = {
            "lam": _pair(lam),
            "z": _pair(z),
            "matrix": _matrix_pairs(kmat),
        }

    for what in verifications:
        if what == "intertwine":
            if x is None:
                raise ValueError("--verify intertwine needs --coeffs <vector file>")
            rep = verify_intertwining(model, x, N=args.N, threshold=_INTERTWINE_TOL)
            run.truncations["N"] = args.N
            run.check("intertwine", rep.passed, rep.max_residual, _INTERTWINE_TOL)
        elif what == "reproduce":
            if x is None:
                raise ValueError("--verify reproduce needs --coeffs <vector file>")
            lam = _parse_complex(args.lam)
            e_coords = np.zeros(model.dim_defect, dtype=np.complex128)
            e_coords[0] = 1.0
            rep = verify_reproducing(
                model, x, lam, e_coords, run.tol, threshold=_REPRODUCE_TOL
            )
            run.check("reproduce", rep.passed, rep.residual, _REPRODUCE_TOL)
        elif what == "semigroup":
            rep = verify_semigroup_model(
                model, float(args.semigroup_t), N=args.N, tol=run.tol
            )
            run.warn(MULTIPLIER_SIGN_NOTE)
            run.truncations["N"] = args.N
            run.check(
                "semigroup_generator",
                rep.generator_residual <= _GENERATOR_TOL,
                rep.generator_residual,
                _GENERATOR_TOL,
            )
            run.check(
                "semigroup_commutation",
                rep.commutation_residual <= run.tol.residual_tol,
                rep.commutation_residual,
                run.tol.residual_tol,
            )
            run.check(
                "semigroup_constant_term",
                rep.constant_term_residual <= _CONSTANT_TOL,
                rep.constant_term_residual,
                _CONSTANT_TOL,
            )

    if args.wold:
        wold = wold_decompose(T, tol=run.tol)
        run.results["wold"] = dataclasses.asdict(wold)
        run.check("wandering_span", wold.wandering_span_ok)
        run.check(
            "unitary_restriction",
            wold.unitary_residual <= run.tol.residual_tol,
            wold.unitary_residual,
            run.tol.residual_tol,
        )


def _hardy_symbol(args: argparse.Namespace, run: _Run) -> tuple[PowerSeries, int | None, str]:
    """Load the working symbol; returns (series, degree or None, source label)."""
    sources = [s for s in (args.blaschke, args.blaschke_file, args.symbol_file) if s]
    if len(sources) != 1:
        raise ValueError(
            "exactly one of --blaschke, --blaschke-file, --symbol-file is required"
        )
    if args.blaschke:
        spec = BlaschkeSpec(tuple(_parse_complex_list(args.blaschke)))
        return blaschke_series(spec, args.N - 1), spec.degree, "blaschke"
    if args.blaschke_file:
        run.record_input(args.blaschke_file)
        spec = BlaschkeSpec.from_json(_load_json(args.blaschke_file))
        return blaschke_series(spec, args.N - 1), spec.degree, "blaschke"
    run.record_input(args.symbol_file)
    series = PowerSeries.from_json(_load_json(args.symbol_file))
    return series, (args.degree if args.degree else None), "series"


def _cmd_hardy(args: argparse.Namespace, run: _Run) -> None:
    run.truncations["N"] = args.N
    sources = (args.blaschke, args.blaschke_file, args.symbol_file)
    needs_symbol = (
        any(sources)
        or args.inner_check
        or args.semigroup_t is not None
        or args.model_space
        or args.ladder is not None
    )
    if not needs_symbol and not args.caradus:
        raise ValueError(
            "nothing to do: provide a symbol source or request --caradus"
        )
    phi = degree = None
    if needs_symbol:
        phi, degree, source = _hardy_symbol(args, run)
        run.results["symbol"] = {
            "source": source,
            "degree": degree,
            "series": [_pair(c) for c in phi.coeffs],
        }

    if args.semigroup_t is not None:
        phi = inner_semigroup_symbol(phi, float(args.semigroup_t), args.N - 1)
        run.warn(MULTIPLIER_SIGN_NOTE)
        run.results["semigroup_symbol"] = {
            "t": float(args.semigroup_t),
            "series": [_pair(c) for c in phi.coeffs],
        }
        degree = None

    if args.inner_check:
        report = inner_check(phi, tol=run.tol)
        run.results["inner_check"] = dataclasses.asdict(report)
        run.check("inner_check", report.passed)

    if args.model_space or args.ladder is not None:
        if degree is None and not args.degree:
            raise ValueError("--model-space and --ladder need --degree for series symbols")
        degree = degree if degree is not None else args.degree

    if args.model_space:
        basis = model_space_basis(phi, args.N, degree, run.tol)
        columns = analytic_toeplitz_trunc(phi, args.N).array[:, : args.N // 2]
        residual = float(np.max(np.abs(basis.conj().T @ columns)))
        run.results["model_space"] = {
            "degree": degree,
            "n": args.N,
            "basis": _matrix_pairs(basis),
        }
        run.check(
            "model_space_orthogonality",
            residual <= run.tol.residual_tol,
            residual,
            run.tol.residual_tol,
        )

    if args.ladder is not None:
        report = verify_ladder_decomposition(phi, degree, int(args.ladder), args.N, run.tol)
        run.results["ladder"] = dataclasses.asdict(report)
        run.check(
            "ladder_orthogonality",
            report.passed,
            max(report.offdiag_residual, report.within_block_residual),
            run.tol.residual_tol,
        )

    if args.caradus:
        pieces = args.caradus.split(",")
        if len(pieces) != 2:
            raise ValueError("--caradus expects 'multiplicity,dimension'")
        d, n = int(pieces[0]), int(pieces[1])
        backward = caradus_certificate(
            block_backward_shift_trunc(d, n), run.tol, structure="backward_shift"
        )
        forward = caradus_certificate(
            block_forward_shift_trunc(d, n), run.tol, structure="forward_shift"
        )
        run.results["caradus"] = {
            "backward": dataclasses.asdict(backward),
            "forward": dataclasses.asdict(forward),
        }
        run.check("caradus_backward_certified", backward.passed)
        run.check("caradus_forward_refused", not forward.passed)


def _cmd_verify_all(args: argparse.Namespace, run: _Run) -> None:
    del args
    criteria = []
    for result in run_all():
        criteria.append(dataclasses.asdict(result))
        run.check(f"criterion_{result.number:02d}_{result.name}", result.passed)
    run.results["criteria"] = criteria


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shiftmodels",
        description="concave operators, semigroup cogenerators, and shift models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol-rank", type=float, default=None, help="rank tolerance")
    common.add_argument("--tol-psd", type=float, default=None, help="semidefiniteness tolerance")
    common.add_argument("--tol-residual", type=float, default=None, help="residual tolerance")
    common.add_argument("--tol-tail", type=float, default=None, help="series tail tolerance")
    common.add_argument("--format", choices=("json", "text"), default="json")
    common.add_argument("--out", default=None, help="write the report to this path")

    p = sub.add_parser("classify", parents=[common], help="classify an operator file")
    p.add_argument("--operator", required=True, help="operator JSON file")

    p = sub.add_parser("semigroup", parents=[common], help="semigroup of a matrix generator")
    p.add_argument("--generator", required=True, help="dense operator JSON file")
    p.add_argument("--t", default=None, help="comma-separated evolution times")
    p.add_argument("--cogenerator", action="store_true", help="emit the Cayley cogenerator")
    p.add_argument("--growth-bound", action="store_true", help="emit and cross-check omega")
    p.add_argument("--equivalence-suite", action="store_true", help="run the concavity suite")
    p.add_argument("--rescale", type=float, default=None, help="shift the generator by -lam Id")

    p = sub.add_parser("model", parents=[common], help="analytic model of a shift operator")
    p.add_argument("--operator", required=True, help="shift-regime operator JSON file")
    p.add_argument("--coeffs", default=None, help="vector JSON file to expand")
    p.add_argument("--kernel", default=None, help="kernel evaluation point 'lam,z'")
    p.add_argument(
        "--verify",
        action="append",
        choices=("intertwine", "reproduce", "semigroup"),
        help="run a model verification (repeatable)",
    )
    p.add_argument("--N", type=int, default=64, help="coefficient truncation order")
    p.add_argument("--lam", default="0.3", help="evaluation point for --verify reproduce")
    p.add_argument("--semigroup-t", default=1.0, type=float, help="time for --verify semigroup")
    p.add_argument("--wold", action="store_true", help="split into unitary and wandering parts")

    p = sub.add_parser("hardy", parents=[common], help="inner symbols and ladder models")
    p.add_argument("--blaschke", default=None, help="comma-separated Blaschke zeros")
    p.add_argument("--blaschke-file", default=None, help="Blaschke specification JSON file")
    p.add_argument("--symbol-file", default=None, help="series JSON file [[re,im],...]")
    p.add_argument("--N", type=int, default=64, help="series / matrix truncation order")
    p.add_argument("--degree", type=int, default=None, help="symbol degree for series files")
    p.add_argument("--inner-check", action="store_true", help="boundary-circle inner check")
    p.add_argument("--semigroup-t", default=None, type=float,
                   help="build exp(t(phi+1)/(phi-1)) from the symbol")
    p.add_argument("--model-space", action="store_true", help="emit the model-space basis")
    p.add_argument("--ladder", type=int, default=None, help="verify this many ladder levels")
    p.add_argument("--caradus", default=None, help="certify block shifts: 'multiplicity,n'")

    sub.add_parser("verify-all", parents=[common], help="run the acceptance criteria")
    return parser


_DISPATCH = {
    "classify": _cmd_classify,
    "semigroup": _cmd_semigroup,
    "model": _cmd_model,
    "hardy": _cmd_hardy,
    "verify-all": _cmd_verify_all,
}


def _tolerances(args: argparse.Namespace) -> ToleranceConfig:
    return ToleranceConfig(
        rank_tol=args.tol_rank if args.tol_rank is not None else DEFAULT_TOL.rank_tol,
        psd_tol=args.tol_psd if args.tol_psd is not None else DEFAULT_TOL.psd_tol,
        residual_tol=(
            args.tol_residual if args.tol_residual is not None else DEFAULT_TOL.residual_tol
        ),
        tail_tol=args.tol_tail if args.tol_tail is not None else DEFAULT_TOL.tail_tol,
    )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        tol = _tolerances(args)
        run = _Run(args.command, tol)
        _DISPATCH[args.command](args, run)
    except ToolkitError as exc:
        print(f"error: {args.command}: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {args.command}: {exc}", file=sys.stderr)
        return 2
    _emit(run, args)
    return 0 if run.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
