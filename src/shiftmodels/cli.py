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
import functools
import hashlib
import json
import math
import re
import sys
from json.encoder import encode_basestring_ascii as _encode_str

import numpy as np

from .acceptance import run_all
from .classify import classify_operator
from .config import DEFAULT_TOL, Check, ToleranceConfig
from .errors import NonFinite, ToolkitError
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
from .operators import Dense, operator_from_json, vector_from_json
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


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------


def _json_default(value):
    """The conversion rule of every report writer: what JSON cannot hold as it is.

    Complex scalars become [re, im] pairs, numpy arrays (the package's are complex)
    nested lists of such pairs, numpy scalars their Python values, and dataclass
    reports the dict of their fields.  A check carries its residual and tolerance
    only where a residual was measured.
    """
    if isinstance(value, Check):
        entry = {"name": value.name, "passed": bool(value.passed)}
        if value.residual is not None:
            entry["residual"] = float(value.residual)
            entry["tolerance"] = None if value.tolerance is None else float(value.tolerance)
        return entry
    if isinstance(value, np.ndarray):
        arr = np.asarray(value, dtype=np.complex128)
        return np.stack((arr.real, arr.imag), axis=-1).tolist()
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, np.generic):
        return value.item()
    if dataclasses.is_dataclass(value):
        return dataclasses.asdict(value)
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


# compact report parts (text mode): NaN and infinity raise ValueError
_dumps = functools.partial(json.dumps, sort_keys=True, allow_nan=False, default=_json_default)


def _float_text(value: float) -> str:
    if math.isfinite(value):
        return float.__repr__(value)
    raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")


def _key_text(key) -> str:
    if isinstance(key, str):
        return _encode_str(key)
    if isinstance(key, float):
        return _encode_str(_float_text(key))
    if key is True:
        return '"true"'
    if key is False:
        return '"false"'
    if key is None:
        return '"null"'
    if isinstance(key, int):
        return _encode_str(int.__repr__(key))
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _write(value, level: int = 0) -> str:
    """``json.dumps(value, indent=2, sort_keys=True, allow_nan=False, default=_json_default)``.

    The stdlib writes indented JSON in pure Python, one element at a time.  This
    writer keeps its bytes and its errors (key order and coercions, string escapes,
    float text, the ValueError for NaN and infinity), but writes a non-empty finite
    array with one string format over its interleaved ``tolist()`` values, one row
    at a time if it has more than one axis.  Everything else goes through
    ``_json_default``.
    """
    if isinstance(value, str):
        return _encode_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float_text(value)
    close = "\n" + "  " * level
    sep = close + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [_write(item, level + 1) for item in value]
        return "[" + sep + ("," + sep).join(items) + close + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [_key_text(k) + ": " + _write(v, level + 1) for k, v in sorted(value.items())]
        return "{" + sep + ("," + sep).join(items) + close + "}"
    if isinstance(value, np.ndarray) and value.ndim and value.size:
        arr = np.asarray(value, dtype=np.complex128)
        if arr.ndim > 1:
            return _write(list(arr), level)
        if np.isfinite(arr).all():
            pair = "[" + sep + "  %r," + sep + "  %r" + sep + "]"
            pairs = ("," + sep).join([pair] * arr.size)
            flat = np.ascontiguousarray(arr).view(np.float64).tolist()  # re, im, re, im, ...
            return "[" + sep + (pairs % tuple(flat)) + close + "]"
    return _write(_json_default(value), level)


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
    except RecursionError as exc:
        raise ValueError(f"malformed JSON in {path}: nested too deeply ({exc})") from exc


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
        self.checks: list[Check] = []
        self.results: dict = {}
        self.warnings: list[str] = []
        self.inputs: dict[str, str] = {}
        self.truncations: dict[str, int] = {}

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
                "tolerances": self.tol,
                "truncations": self.truncations,
            },
        }

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _emit(run: _Run, args: argparse.Namespace) -> None:
    """Write the report; one holding NaN or infinity is refused as NonFinite, with one text in
    either format (the encoder's error is its cause).

    Each part is serialized once: the JSON report by ``_write``, text mode's
    results key by key as compact JSON.  Text mode's checks are the only other
    part that can hold a number (tolerances are finite).
    """
    try:
        if args.format == "text":
            _dumps(run.checks)  # refuses a non-finite residual or tolerance
            lines = [f"command: {run.command}"]
            for c in run.checks:
                status = "PASS" if c.passed else "FAIL"
                if c.residual is not None:
                    lines.append(
                        f"check {c.name}: {status} (residual {c.residual:.3e}, "
                        f"tolerance {c.tolerance:.0e})"
                    )
                else:
                    lines.append(f"check {c.name}: {status}")
            for key in sorted(run.results):
                lines.append(f"result {key}: {_dumps(run.results[key])}")
            lines.extend(f"warning: {w}" for w in run.warnings)
            text = "\n".join(lines) + "\n"
        else:
            text = _write(run.report()) + "\n"
    except ValueError as exc:
        raise NonFinite("report holds a non-finite number") from exc
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
    run.results["classification"] = classify_operator(T, run.tol)


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
        run.results["growth_bound"] = growth_bound(S)
        consistency = growth_bound_consistency(S)
        run.checks.append(Check.judged("growth_bound_consistency", consistency, _CONSISTENCY_TOL))
    if args.equivalence_suite:
        suite = concavity_equivalence_suite(S, tol=run.tol)
        run.results["equivalence_suite"] = suite
        run.checks.append(Check("equivalence_agree", suite.agree))


def _cmd_model(args: argparse.Namespace, run: _Run) -> None:
    T = _load_operator(run, args.operator)
    verifications = args.verify or []
    needs_model = bool(args.coeffs or args.kernel or verifications) or not args.wold
    model = None
    if needs_model:
        model = build_model(T)
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
            "rows": coeff.coeffs,
        }

    if args.kernel:
        points = _parse_complex_list(args.kernel)
        if len(points) != 2:
            raise ValueError(f"--kernel expects 'lam,z', got {len(points)} values")
        lam, z = points
        run.results["kernel"] = {"lam": lam, "z": z, "matrix": kernel_eval(model, lam, z, run.tol)}

    for what in verifications:
        if what == "intertwine":
            if x is None:
                raise ValueError("--verify intertwine needs --coeffs <vector file>")
            rep = verify_intertwining(model, x, N=args.N)
            run.truncations["N"] = args.N
        elif what == "reproduce":
            if x is None:
                raise ValueError("--verify reproduce needs --coeffs <vector file>")
            lam = _parse_complex(args.lam)
            e_coords = np.zeros(model.dim_defect, dtype=np.complex128)
            e_coords[0] = 1.0
            rep = verify_reproducing(model, x, lam, e_coords, run.tol)
        elif what == "semigroup":
            rep = verify_semigroup_model(float(args.semigroup_t), N=args.N, tol=run.tol)
            run.warn(MULTIPLIER_SIGN_NOTE)
            run.truncations["N"] = args.N
        run.checks.extend(rep.checks)

    if args.wold:
        wold = wold_decompose(T, tol=run.tol)
        run.results["wold"] = wold
        run.checks += [
            Check("wandering_span", wold.wandering_span_ok),
            Check.judged("unitary_restriction", wold.unitary_residual, run.tol.residual_tol),
        ]


def _hardy_symbol(args: argparse.Namespace, run: _Run) -> tuple[PowerSeries, int | None, str]:
    """Load the working symbol; returns (series, degree or None, source label)."""
    sources = [s for s in (args.blaschke, args.blaschke_file, args.symbol_file) if s]
    if len(sources) != 1:
        raise ValueError(
            "exactly one of --blaschke, --blaschke-file, --symbol-file is required"
        )
    if args.symbol_file:
        run.record_input(args.symbol_file)
        series = PowerSeries.from_json(_load_json(args.symbol_file))
        return series, args.degree, "series"
    if args.blaschke:
        spec = BlaschkeSpec(tuple(_parse_complex_list(args.blaschke)))
    else:
        run.record_input(args.blaschke_file)
        spec = BlaschkeSpec.from_json(_load_json(args.blaschke_file))
    return blaschke_series(spec, args.N - 1), spec.degree, "blaschke"


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
        run.results["symbol"] = {"source": source, "degree": degree, "series": phi.coeffs}

    if args.semigroup_t is not None:
        phi = inner_semigroup_symbol(phi, float(args.semigroup_t), args.N - 1)
        run.warn(MULTIPLIER_SIGN_NOTE)
        run.results["semigroup_symbol"] = {"t": float(args.semigroup_t), "series": phi.coeffs}
        degree = None

    if args.inner_check:
        report = inner_check(phi, tol=run.tol)
        run.results["inner_check"] = report
        run.checks.append(Check("inner_check", report.passed))

    if args.model_space or args.ladder is not None:
        if degree is None and args.degree is None:
            raise ValueError("--model-space and --ladder need --degree for series symbols")
        degree = degree if degree is not None else args.degree

    if args.model_space:
        basis = model_space_basis(phi, args.N, degree, run.tol)
        columns = analytic_toeplitz_trunc(phi, args.N)[:, : args.N // 2]
        residual = float(np.max(np.abs(basis.conj().T @ columns)))
        run.results["model_space"] = {"degree": degree, "n": args.N, "basis": basis}
        run.checks.append(Check.judged("model_space_orthogonality", residual, run.tol.residual_tol))

    if args.ladder is not None:
        report = verify_ladder_decomposition(phi, degree, int(args.ladder), args.N, run.tol)
        run.results["ladder"] = report
        run.checks.append(
            Check(
                "ladder_orthogonality",
                report.passed,
                max(report.offdiag_residual, report.within_block_residual),
                run.tol.residual_tol,
            )
        )

    if args.caradus:
        pieces = args.caradus.split(",")
        if len(pieces) != 2:
            raise ValueError("--caradus expects 'multiplicity,dimension'")
        d, n = int(pieces[0]), int(pieces[1])
        backward = caradus_certificate(block_backward_shift_trunc(d, n), run.tol)
        forward = caradus_certificate(block_forward_shift_trunc(d, n), run.tol)
        run.results["caradus"] = {"backward": backward, "forward": forward}
        run.checks += [
            Check(
                "caradus_backward_certified", backward.passed, backward.sigma_min, backward.rank_tol
            ),
            Check(
                "caradus_forward_refused", not forward.passed, forward.sigma_min, forward.rank_tol
            ),
        ]


def _cmd_verify_all(args: argparse.Namespace, run: _Run) -> None:
    del args
    criteria = run_all()
    run.results["criteria"] = criteria
    run.checks.extend(Check(f"criterion_{c.number:02d}_{c.name}", c.passed) for c in criteria)


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
    common.add_argument(
        "--tol-rank", type=float, default=DEFAULT_TOL.rank_tol, help="rank tolerance"
    )
    common.add_argument(
        "--tol-psd", type=float, default=DEFAULT_TOL.psd_tol, help="semidefiniteness tolerance"
    )
    common.add_argument(
        "--tol-residual", type=float, default=DEFAULT_TOL.residual_tol, help="residual tolerance"
    )
    common.add_argument(
        "--tol-tail", type=float, default=DEFAULT_TOL.tail_tol, help="series tail tolerance"
    )
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


def _attach_dash_values(argv: list[str]) -> list[str]:
    """Join ``--opt -0.3,0.2`` into ``--opt=-0.3,0.2``.

    argparse takes only plain negative numbers as values; no option here
    starts with ``-`` followed by a digit or ``.``.
    """
    out: list[str] = []
    for arg in argv:
        if out and re.match(r"-[0-9.]", arg) and out[-1].startswith("--") and "=" not in out[-1]:
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_dash_values(sys.argv[1:] if argv is None else argv))
    try:
        tol = ToleranceConfig(args.tol_rank, args.tol_psd, args.tol_residual, args.tol_tail)
        run = _Run(args.command, tol)
        _DISPATCH[args.command](args, run)
        _emit(run, args)
    except (ToolkitError, np.linalg.LinAlgError, MemoryError) as exc:
        print(f"error: {args.command}: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 3
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {args.command}: {exc}", file=sys.stderr)
        return 2
    return 0 if run.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
