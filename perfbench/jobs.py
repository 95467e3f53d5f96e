"""The four workloads: seeded inputs, fixed job lists and one oracle per job.

A job is one call into shiftmodels that ends in a verified verdict.  Its
``check`` compares the output with a closed form or an independent route
(numpy on the raw inputs, or a second shiftmodels route the paper says must
agree) and raises ``Mismatch`` when it misses.  A job with ``expect`` set
succeeds only when exactly that typed refusal is raised.

Jobs call the package through module attributes (``sm.kernel_eval``,
``cli.main``) at call time, so spans installed by ``spans.Tracer`` see them.
Fixture paths are relative to the checkout root, the worker's working
directory; CLI report digests are therefore only comparable within one
checkout, because ``provenance.inputs`` is keyed by that path.
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

import numpy as np

import shiftmodels as sm
from shiftmodels import cli

FIXTURES = "src/shiftmodels/fixtures"


class Mismatch(Exception):
    """A job's output missed its oracle."""


@dataclass(frozen=True)
class Job:
    name: str
    call: Callable[[dict], object]
    check: Callable[[object, dict], None] | None = None
    expect: type[BaseException] | None = None


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: str
    stderr: str


def run_cli(argv: list[str]) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return CliResult(code, out.getvalue(), err.getvalue())


def require(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


def near(label: str, value, target, tol: float) -> None:
    err = float(np.max(np.abs(np.asarray(value) - np.asarray(target))))
    require(err <= tol, f"{label}: deviation {err:.3e} above {tol:.0e}")


def cli_report(result: CliResult, code: int = 0) -> dict:
    require(result.code == code, f"exit {result.code}, expected {code}: {result.stderr.strip()}")
    report = json.loads(result.stdout)
    require(all(c["passed"] for c in report["checks"]), f"failed checks: {report['checks']}")
    return report


def _complex(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _fixture_matrix(name: str) -> np.ndarray:
    with open(f"{FIXTURES}/{name}", encoding="utf-8") as fh:
        m = json.load(fh)["matrix"]
    flat = np.array([complex(re, im) for re, im in m["data"]])
    return flat.reshape(m["rows"], m["cols"])


def _defect_eigs(arr: np.ndarray) -> np.ndarray:
    """Eigenvalues of T*^2 T^2 - 2 T*T + Id, computed here with numpy."""
    sq = arr @ arr
    form = sq.conj().T @ sq - 2.0 * arr.conj().T @ arr + np.eye(arr.shape[0])
    return np.linalg.eigvalsh((form + form.conj().T) / 2.0)


def interleave(heavy: list[Job], light: list[Job], visits: int) -> list[Job]:
    """Spread ``visits`` rounds of the light jobs evenly before the heavy ones.

    A job's latency is its median over every visit in the run (see
    ``worker.py``).  The heavy jobs allow two or three passes a run, so the
    short jobs are visited several times per pass, spread over it: their
    median then rests on many samples at little cost next to the heavy
    jobs.  A light job comes first, so it is the warm-up.
    """
    light = light * visits
    out: list[Job] = []
    for i, job in enumerate(heavy):
        out += light[i * len(light) // len(heavy) : (i + 1) * len(light) // len(heavy)]
        out.append(job)
    return out


# ---------------------------------------------------------------------------
# semigroup-suite
# ---------------------------------------------------------------------------

SIZES = (4, 6, 16, 32)
PER_CELL = 4  # generators per (size, family)
# criterion 2's families with their expected concavity verdicts
FAMILIES = {"skew": True, "dissipative": False, "general": False}


def _family_generator(rng: np.random.Generator, family: str, n: int) -> np.ndarray:
    B = _complex(rng, (n, n))
    if family == "skew":
        return (B - B.conj().T) / 2.0
    if family == "dissipative":
        return -(B.conj().T @ B + np.eye(n))
    return B


def _generator_jobs(label: str, A: np.ndarray, concave: bool) -> list[Job]:
    scale = max(1.0, float(np.linalg.norm(A, 2)))
    form = A @ A
    form = (form + form.conj().T) / 2.0 + A.conj().T @ A
    margin = float(np.linalg.eigvalsh(form)[-1])
    defect = _defect_eigs(A)
    sigma = np.linalg.svd(A, compute_uv=False)

    def spec():
        return sm.SemigroupSpec(sm.ComplexMatrix(A))

    def check_suite(rep, state):
        require(rep.agree, "the four concavity routes disagree")
        require(rep.verdict is concave, f"verdict {rep.verdict}, family expects {concave}")
        near("generator margin", rep.generator_margin, margin, 1e-9 * scale**2)

    def round_trip(state):
        return sm.inverse_cayley(sm.cogenerator(spec()))

    def check_round_trip(out, state):
        near("inverse_cayley(cogenerator(A)) - A", out.array, A, 1e-9)

    def check_growth(out, state):
        require(0.0 <= out <= 1e-8, f"growth-bound consistency {out:.3e} above 1e-08")

    def check_classify(rep, state):
        near("concavity defect", rep.concavity_defect, defect[-1], 1e-9 * scale**4)
        near("contraction margin", rep.contraction_margin, defect[0], 1e-9 * scale**4)
        near("lower bound", rep.lower_bound, sigma[-1], 1e-9 * scale)
        if sigma[-1] > 1e-6 * sigma[0]:  # invertible: bounded below, neither pure nor wandering
            require(rep.bounded_below and not rep.pure and not rep.wandering, f"flags {rep}")

    return [
        Job(f"suite/{label}", lambda s: sm.concavity_equivalence_suite(spec()), check_suite),
        Job(f"cayley/{label}", round_trip, check_round_trip),
        Job(f"growth/{label}", lambda s: sm.growth_bound_consistency(spec()), check_growth),
        Job(
            f"classify/{label}",
            lambda s: sm.classify_operator(sm.Dense(sm.ComplexMatrix(A))),
            check_classify,
        ),
    ]


def semigroup_suite(rng: np.random.Generator) -> list[Job]:
    jobs: list[Job] = []
    for i in range(PER_CELL):
        for n in SIZES:
            for family, concave in FAMILIES.items():
                A = _family_generator(rng, family, n)
                jobs += _generator_jobs(f"{family}{n}-{i}", A, concave)

    skew = _fixture_matrix("skew4.json")
    omega = float(np.max(np.linalg.eigvals(skew).real))

    def check_semigroup(result, state):
        report = cli_report(result)
        suite = report["results"]["equivalence_suite"]
        require(suite["agree"] and suite["verdict"] is True, f"suite {suite}")
        near("omega", report["results"]["growth_bound"]["omega"], omega, 1e-12)
        near("omega of a skew generator", omega, 0.0, 1e-12)

    jordan = _fixture_matrix("jordan3.json")
    jordan_defect = _defect_eigs(jordan)

    def check_classify(result, state):
        rep = cli_report(result)["results"]["classification"]
        near("concavity defect", rep["concavity_defect"], jordan_defect[-1], 1e-12)
        near("contraction margin", rep["contraction_margin"], jordan_defect[0], 1e-12)
        nilpotent = not np.any(np.linalg.matrix_power(jordan, 3))
        require(rep["pure"] is nilpotent and rep["bounded_below"] is False, f"flags {rep}")
        require(rep["wandering"] is True, "a Jordan block's defect iterates span the space")

    jobs.append(
        Job(
            "cli/semigroup-skew4",
            lambda s: run_cli(
                [
                    "semigroup",
                    "--generator",
                    f"{FIXTURES}/skew4.json",
                    "--growth-bound",
                    "--equivalence-suite",
                ]
            ),
            check_semigroup,
        )
    )
    jobs.append(
        Job(
            "cli/classify-jordan3",
            lambda s: run_cli(["classify", "--operator", f"{FIXTURES}/jordan3.json"]),
            check_classify,
        )
    )
    return jobs


# ---------------------------------------------------------------------------
# shift-kernels
# ---------------------------------------------------------------------------

KERNEL_RADII = {"iso": (0.5, 0.9, 0.95, 0.97), "dir": (0.5, 0.9, 0.95, 0.97), "sum": (0.5, 0.9)}
SWAP_UP_TO = 0.9  # k(z, lam) = k(lam, z)* is also evaluated at these r
INTERTWINE_PER_MODEL = 30
REPRODUCE_PER_MODEL = 18
KERNEL_TOL = 10.0 * sm.DEFAULT_TOL.tail_tol
KERNEL_SHORT_VISITS = 3  # per pass; a run has three or four passes


def _szego(q: complex) -> complex:
    return 1.0 / (1.0 - q)


def _dirichlet(q: complex) -> complex:
    return 1.0 + 0.0j if q == 0 else -np.log(1.0 - q) / q


def _closed_kernel(model: str, lam: complex, z: complex) -> np.ndarray:
    q = np.conj(lam) * z
    if model == "iso":
        return np.array([[_szego(q)]])
    if model == "dir":
        return np.array([[_dirichlet(q)]])
    return np.diag([_szego(q), _dirichlet(q)])


def _operator(model: str):
    if model == "iso":
        return sm.isometric_shift()
    if model == "dir":
        return sm.dirichlet_shift()
    return sm.DirectSum((sm.isometric_shift(), sm.dirichlet_shift()))


def _beta(model: str, n: int) -> float:
    """||T^n e_0||: 1 for the isometric shift, sqrt(n + 1) for the Dirichlet one."""
    return 1.0 if model == "iso" else math.sqrt(n + 1.0)


def _support_vector(rng: np.random.Generator, support: int, max_index: int):
    """Seeded vector with a fixed support size that always reaches max_index."""
    rest = rng.choice(max_index, size=support - 1, replace=False)
    indices = np.append(rest, max_index)
    values = _complex(rng, support)
    values /= np.linalg.norm(values)
    return sm.FiniteSupportVector(tuple(zip(indices.tolist(), values.tolist())), None)


def _build_job(model: str) -> Job:
    def call(state):
        state[model] = sm.build_model(_operator(model))
        return state[model]

    def check(m, state):
        dim = 2 if model == "sum" else 1
        require(m.dim_defect == dim, f"defect dimension {m.dim_defect}, expected {dim}")
        require(m.radius == 1.0 and m.left_inverse_norm == 1.0, f"radius {m.radius}")

    return Job(f"build/{model}", call, check)


def _kernel_job(model: str, r: float, lam: complex, z: complex, swapped: bool) -> Job:
    key = f"kernel/{model}/{r}"
    a, b = (z, lam) if swapped else (lam, z)

    def call(state):
        out = sm.kernel_eval(state[model], a, b)
        if not swapped:
            state[key] = out
        return out

    def check(k, state):
        near(f"{key} closed form", k, _closed_kernel(model, a, b), KERNEL_TOL)
        if swapped:
            near(f"{key} Hermitian symmetry", k, state[key].conj().T, KERNEL_TOL)

    return Job(key + ("/swapped" if swapped else ""), call, check)


def _intertwine_job(model: str, i: int, x) -> Job:
    def check(rep, state):
        require(rep.passed and rep.max_residual <= 1e-12, f"residual {rep.max_residual:.3e}")

    return Job(
        f"intertwine/{model}/{i}",
        lambda s: sm.verify_intertwining(s[model], x, N=200),
        check,
    )


def _reproduce_job(model: str, i: int, x, lam: complex) -> Job:
    # (Ux)(lam) paired with e_0 is sum_n x_n lam^n / beta_n in closed form
    closed = sum(v * lam**k / _beta(model, k) for k, v in x.entries)

    def check(rep, state):
        require(rep.passed, f"reproducing residual {rep.residual:.3e}")
        near("model side", rep.lhs, closed, 1e-12)
        near("kernel side", rep.rhs, closed, 1e-8)

    return Job(
        f"reproduce/{model}/{i}",
        lambda s: sm.verify_reproducing(s[model], x, lam, np.ones(1)),
        check,
    )


def shift_kernels(rng: np.random.Generator) -> list[Job]:
    builds = [_build_job(model) for model in KERNEL_RADII]
    heavy = []
    for model, radii in KERNEL_RADII.items():
        for r in radii:
            alpha, beta = rng.uniform(0.0, 2.0 * np.pi, size=2)
            lam, z = r * np.exp(1j * alpha), r * np.exp(1j * beta)  # model radius is 1
            heavy.append(_kernel_job(model, r, lam, z, swapped=False))
            if r <= SWAP_UP_TO:
                heavy.append(_kernel_job(model, r, lam, z, swapped=True))

    edge = (1.0, -1.0, 1j, -1j)[int(rng.integers(4))]  # exact modulus 1 = radius
    inside = 0.5 * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    heavy.append(
        Job(
            "kernel/iso/on-radius",
            lambda s: sm.kernel_eval(s["iso"], edge, inside),
            expect=sm.OutsideDisc,
        )
    )

    def check_cli(result, state):
        value = cli_report(result)["results"]["kernel"]["matrix"][0][0]
        require(value == [1.3333333333333333, 0.0], f"k(0.5, 0.5) = {value}, expected 4/3")

    heavy.append(
        Job(
            "cli/model-kernel",
            lambda s: run_cli(
                ["model", "--operator", f"{FIXTURES}/isometric.json", "--kernel", "0.5,0.5"]
            ),
            check_cli,
        )
    )

    light = []
    for i in range(INTERTWINE_PER_MODEL):
        for model in ("iso", "dir"):
            light.append(_intertwine_job(model, i, _support_vector(rng, 40, 60)))
            if i < REPRODUCE_PER_MODEL:
                lam = 0.5 * math.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
                light.append(_reproduce_job(model, i, _support_vector(rng, 12, 20), complex(lam)))
    return builds + interleave(heavy, light, KERNEL_SHORT_VISITS)


# ---------------------------------------------------------------------------
# inner-symbols
# ---------------------------------------------------------------------------

SYMBOL_TIMES = (0.5, 3.0)
SYMBOL_ORDER = 2047
BLASCHKE_ORDER = 256
BLASCHKE_JOBS = 48
INNER_CHECK_JOBS = 12
LADDER_SIZES = (128, 256, 512)
LADDER_LEVELS = 4
SYMBOL_SHORT_VISITS = 8  # per pass; a run has two passes
ZERO_RADIUS = 0.6  # Blaschke zeros lie in |a| <= 0.6, so N=256 resolves every series


def _zeros(rng: np.random.Generator, degree: int) -> tuple[complex, ...]:
    radii = ZERO_RADIUS * np.sqrt(rng.uniform(size=degree))
    return tuple(complex(v) for v in radii * np.exp(2j * np.pi * rng.uniform(size=degree)))


def _blaschke_closed(zeros, zs: np.ndarray) -> np.ndarray:
    out = np.ones_like(zs)
    for a in zeros:
        out = out * (zs if a == 0 else (abs(a) / a) * (a - zs) / (1.0 - np.conj(a) * zs))
    return out


def _toeplitz(coeffs: np.ndarray, n: int) -> np.ndarray:
    """Lower-triangular n x n matrix with entry (i, j) = c_{i-j}, built here."""
    c = np.zeros(n, dtype=np.complex128)
    c[: min(n, coeffs.size)] = coeffs[:n]
    i, j = np.indices((n, n))
    return np.where(i >= j, c[np.clip(i - j, 0, n - 1)], 0.0)


def _symbol_jobs(t: float) -> list[Job]:
    coordinate = sm.PowerSeries((0.0, 1.0))
    key = f"symbol/{t}"

    def call_symbol(state):
        state[key] = sm.inner_semigroup_symbol(coordinate, t, SYMBOL_ORDER)
        return state[key]

    def check_symbol(f, state):
        near("constant term", f.coeffs[0], math.exp(-t), 1e-12)
        energy = float(np.sum(np.abs(f.coeffs) ** 2))
        require(energy <= 1.0 + 1e-9, f"H2 norm^2 {energy} of an inner symbol exceeds 1")

    def check_multiplier(f, state):
        near("constant term", f.coeffs[0], math.exp(-t), 1e-12)
        near("series algebra vs recurrence", f.coeffs, state[key].coeffs, 1e-12)

    return [
        Job(key, call_symbol, check_symbol),
        Job(f"multiplier/{t}", lambda s: sm.semigroup_multiplier(t, SYMBOL_ORDER), check_multiplier),
        Job(
            f"inner-check/symbol/{t}",
            lambda s: sm.inner_check(s[key]),
            expect=sm.TailNotConvergent,
        ),
    ]


def _blaschke_job(i: int, zeros, points: np.ndarray) -> Job:
    def call(state):
        spec = sm.BlaschkeSpec(zeros)
        f = sm.blaschke_series(spec, BLASCHKE_ORDER)
        by_series = [sm.series_eval(f, z) for z in points]
        by_rational = [sm.blaschke_eval(spec, z) for z in points]
        return f, by_series, by_rational

    def check(out, state):
        f, by_series, by_rational = out
        near("series vs rational form", by_series, by_rational, 1e-12)
        near("rational form vs numpy", by_rational, _blaschke_closed(zeros, points), 1e-12)

    return Job(f"blaschke/{i}", call, check)


def _inner_check_job(i: int, zeros) -> Job:
    def call(state):
        return sm.inner_check(sm.blaschke_series(sm.BlaschkeSpec(zeros), BLASCHKE_ORDER))

    def check(rep, state):
        require(rep.passed, f"Blaschke product not certified inner: {rep}")
        for rho, top in zip(rep.radii, rep.max_modulus):
            circle = rho * np.exp(2j * np.pi * np.arange(rep.grid) / rep.grid)
            near(f"max modulus at {rho}", top, np.abs(_blaschke_closed(zeros, circle)).max(), 1e-9)

    return Job(f"inner-check/blaschke/{i}", call, check)


def _ladder_jobs(n: int, zeros) -> list[Job]:
    degree = len(zeros)
    expected = (LADDER_LEVELS + 1) * degree

    def symbol():
        return sm.blaschke_series(sm.BlaschkeSpec(zeros), n - 1)

    def model_space(state):
        phi = symbol()
        return phi, sm.model_space_basis(phi, n, degree)

    def check_basis(out, state):
        phi, basis = out
        require(basis.shape == (n, degree), f"basis shape {basis.shape}, expected {(n, degree)}")
        near("orthonormal columns", basis.conj().T @ basis, np.eye(degree), 1e-9)
        shifted = _toeplitz(phi.coeffs, n)[:, : n - degree]
        near("orthogonal to phi z^k", basis.conj().T @ shifted, 0.0, 1e-9)

    def check_ladder(rep, state):
        require(rep.passed, f"ladder residuals {rep}")
        require(rep.total_dim == rep.expected_dim == expected, f"dimension {rep.total_dim}")

    return [
        Job(f"model-space/{n}", model_space, check_basis),
        Job(
            f"ladder/{n}",
            lambda s: sm.verify_ladder_decomposition(symbol(), degree, LADDER_LEVELS, n),
            check_ladder,
        ),
    ]


def inner_symbols(rng: np.random.Generator) -> list[Job]:
    def check_pinned(f, state):
        near("Blaschke(0.5) head", f.coeffs[:4], (0.5, -0.75, -0.375, -0.1875), 1e-15)

    light = [
        Job(
            "blaschke/pinned-0.5",
            lambda s: sm.blaschke_series(sm.BlaschkeSpec((0.5,)), BLASCHKE_ORDER),
            check_pinned,
        )
    ]
    every = BLASCHKE_JOBS // INNER_CHECK_JOBS
    for i in range(BLASCHKE_JOBS):
        points = 0.9 * np.sqrt(rng.uniform(size=4)) * np.exp(2j * np.pi * rng.uniform(size=4))
        light.append(_blaschke_job(i, _zeros(rng, 2), points))
        if i % every == every - 1:
            light.append(_inner_check_job(i // every, _zeros(rng, 1 + (i // every) % 3)))

    def check_hardy(result, state):
        report = cli_report(result)
        series = report["results"]["semigroup_symbol"]["series"]
        require(len(series) == 4096, f"{len(series)} coefficients, expected 4096")
        near("constant term", complex(*series[0]), math.exp(-1.0), 1e-12)
        require(report["results"]["inner_check"]["passed"] is True, "inner check failed")

    heavy = [
        Job(
            "cli/hardy-4096",
            lambda s: run_cli(
                [
                    "hardy",
                    "--blaschke",
                    "0",
                    "--semigroup-t",
                    "1.0",
                    "--N",
                    "4096",
                    "--inner-check",
                ]
            ),
            check_hardy,
        )
    ]
    for t in SYMBOL_TIMES:
        heavy += _symbol_jobs(t)
    for i, n in enumerate(LADDER_SIZES):
        heavy += _ladder_jobs(n, _zeros(rng, 1 + i))
    return interleave(heavy, light, SYMBOL_SHORT_VISITS)


# ---------------------------------------------------------------------------
# verify-all
# ---------------------------------------------------------------------------

VERIFY_ALL_CALLS = 2  # per pass


def verify_all(rng: np.random.Generator) -> list[Job]:
    del rng  # the acceptance criteria carry their own fixed seeds

    def check(result, state):
        report = cli_report(result)
        require(len(report["checks"]) == 12, f"{len(report['checks'])} criteria, expected 12")
        first = state.setdefault("verify-all/report", result.stdout)
        require(result.stdout == first, "verify-all report differs from the first in this run")

    return [
        Job(f"cli/verify-all/{i}", lambda s: run_cli(["verify-all"]), check)
        for i in range(VERIFY_ALL_CALLS)
    ]


# name -> job-list builder; the first job of each list doubles as the warm-up
WORKLOADS = {
    "semigroup-suite": semigroup_suite,
    "shift-kernels": shift_kernels,
    "inner-symbols": inner_symbols,
    "verify-all": verify_all,
}
