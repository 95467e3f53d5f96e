"""Acceptance criteria: twelve pinned, deterministic end-to-end checks.

Each criterion function runs one stated check with fixed seeds and fixed
tolerances and returns a ``CriterionResult``.  Its name
``criterion_<number>_<name>`` is the one place its number and name are
written: ``_criterion`` reads them from it and lists the function in
``ALL_CRITERIA``, in definition order; ``run_all`` executes all twelve.  The
test suite asserts each result and the command line exposes the same
functions through ``verify-all``, so the two entry points cannot drift apart.

The criteria deliberately cross independent code paths: closed forms against
brute-force series, generator-side against semigroup-side concavity, the
Laguerre multiplier against the symbol-algebra and exponential-recurrence
multipliers, and measured ranks against structural predictions.

A criterion that loops over small random matrices draws its whole population
first, in its one rng order, and then makes one LAPACK call per matrix size:
criterion 1 runs the Cayley transform both ways over one stack per size,
criterion 2 the concavity suite over one stack per generator family, criterion
8 the Wold split of its sums and the classification of its unitaries over one
stack per size, criterion 10 the growth pass over one stack, and criteria 8 and
12 take their random unitaries from one QR per size.  Batched LAPACK calls treat
each member alone, so every detail string keeps the bits of one call per matrix.
Criterion 12 takes each power orbit in one pass (``concave_power_growth_check``).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .classify import _classify_stack, concave_power_growth_check
from .config import DEFAULT_TOL, ToleranceConfig
from .errors import NotConcave
from .hardy import (
    BlaschkeSpec,
    blaschke_series,
    block_backward_shift_trunc,
    block_forward_shift_trunc,
    caradus_certificate,
    inner_semigroup_symbol,
    model_space_basis,
    verify_ladder_decomposition,
)
from .numkit import ComplexMatrix
from .operators import (
    Dense,
    DirectSum,
    FiniteSupportVector,
    dirichlet_shift,
    isometric_shift,
    to_dense_matrix,
)
from .semigroup import (
    _cayley,
    _concavity_suites,
    _growth_consistencies,
)
from .series import PowerSeries, series_exp, series_mul
from .shimorin import (
    build_model,
    defect_projection,
    kernel_eval,
    left_inverse_apply,
    semigroup_multiplier,
    verify_intertwining,
    verify_reproducing,
    verify_semigroup_model,
    _wold_split,
)

__all__ = ["CriterionResult", "run_all", "ALL_CRITERIA"]


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str


_CRITERIA = []  # in definition order


def _criterion(fn):
    """Register ``fn``, a criterion ``criterion_<number>_<name>`` returning (passed, detail),
    as a function returning its ``CriterionResult``."""
    _, number, name = fn.__name__.split("_", 2)

    @functools.wraps(fn)
    def run() -> CriterionResult:
        passed, detail = fn()
        return CriterionResult(int(number), name, passed, detail)

    _CRITERIA.append(run)
    return run


def _random_complex(rng: np.random.Generator, shape) -> np.ndarray:
    """Real parts then imaginary parts drawn from ``rng``, written into one complex array."""
    z = np.empty(shape, dtype=np.complex128)
    z.real = rng.standard_normal(shape)
    z.imag = rng.standard_normal(shape)
    return z


def _generator_families(
    rng: np.random.Generator, count: int, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """``count`` n x n generators drawn in one sequence, by index mod 3 skew-adjoint (B - B*)/2,
    dissipative -(B*B + Id) and general B, as a (count, n, n) stack, with the stack of the
    dissipative members' Gram matrices B*B."""
    generators, grams = [], []
    for i in range(count):
        B = _random_complex(rng, (n, n))
        if i % 3 == 0:
            A = (B - B.conj().T) / 2.0
        elif i % 3 == 1:
            grams.append(B.conj().T @ B)
            A = -(grams[-1] + np.eye(n, dtype=np.complex128))
        else:
            A = B
        generators.append(A)
    return np.stack(generators), np.stack(grams)


def _by_size(matrices: list[np.ndarray]) -> dict[int, list[int]]:
    """The positions of the square matrices of each size, in order."""
    sizes: dict[int, list[int]] = {}
    for j, m in enumerate(matrices):
        sizes.setdefault(len(m), []).append(j)
    return sizes


def _unitaries(gaussians: list[np.ndarray]) -> list[np.ndarray]:
    """The unitary QR factor of each square matrix of ``gaussians``, in order, from one
    batched QR per size."""
    out = [None] * len(gaussians)
    for members in _by_size(gaussians).values():
        q, _ = np.linalg.qr(np.stack([gaussians[j] for j in members]))
        for j, u in zip(members, q):
            out[j] = u
    return out


def _random_vector(rng: np.random.Generator, max_support: int, max_index: int) -> FiniteSupportVector:
    support = int(rng.integers(1, max_support + 1))
    indices = rng.choice(max_index + 1, size=support, replace=False)
    values = _random_complex(rng, support)
    values /= np.linalg.norm(values)
    return FiniteSupportVector(tuple(zip(indices.tolist(), values.tolist())), None)


# ---------------------------------------------------------------------------
# 1. Cayley transform round trip
# ---------------------------------------------------------------------------


@_criterion
def criterion_1_cayley_round_trip() -> tuple[bool, str]:
    """The Cayley transform and its inverse return A to 1e-9 for 50 random generators.

    Each generator A = B - shift Id has max Re(spectrum) = -margin, margin in [0.5, 2.5),
    so 1 stays off its spectrum.  The generators are drawn in one sequence and grouped by
    size (n = 2..8): each group takes one batched eigvals for its shifts and one stacked
    Cayley transform each way.
    """
    tolerance = 1e-9
    rng = np.random.default_rng(101)
    groups: dict[int, list[tuple[np.ndarray, float]]] = {}
    for _ in range(50):
        n = int(rng.integers(2, 9))
        B = _random_complex(rng, (n, n))
        groups.setdefault(n, []).append((B, 0.5 + float(rng.uniform(0.0, 2.0))))
    worst = 0.0
    for n, draws in groups.items():
        B = np.stack([b for b, _ in draws])
        shift = np.linalg.eigvals(B).real.max(axis=-1) + [margin for _, margin in draws]
        A = B - shift[:, None, None] * np.eye(n, dtype=np.complex128)
        V = _cayley(A, DEFAULT_TOL, "generator")
        recovered = _cayley(V, DEFAULT_TOL, "cogenerator")
        worst = max(worst, float(np.max(np.abs(recovered - A))))
    return worst <= tolerance, (
        f"max entry residual {worst:.3e} over 50 generators (tolerance {tolerance:.0e})"
    )


# ---------------------------------------------------------------------------
# 2. four-way concavity equivalence
# ---------------------------------------------------------------------------


@_criterion
def criterion_2_concavity_equivalence() -> tuple[bool, str]:
    """All four concavity formulations agree on 100 mixed 6x6 generators.

    The generators are drawn in one sequence and fall into three families by index mod 3
    (skew-adjoint, dissipative, general), each with one expected verdict.  Each family is
    one call of the stacked suite: three calls in all, and the working set of one family's
    grid rather than of all 100.
    """
    tol = DEFAULT_TOL
    generators, _ = _generator_families(np.random.default_rng(202), 100, 6)
    disagreements = 0
    wrong_verdicts = 0
    # skew-adjoint, dissipative and general members, each family with one expected verdict
    for family, expected in enumerate((True, False, False)):
        for suite in _concavity_suites(generators[family::3], tol):
            if not suite.agree:
                disagreements += 1
            elif suite.verdict is not expected:
                wrong_verdicts += 1
    passed = disagreements == 0 and wrong_verdicts == 0
    return passed, (
        f"{disagreements} disagreements, {wrong_verdicts} wrong verdicts over "
        f"100 generators (grid slack {suite.grid_slack:.0e}, psd_tol {tol.psd_tol:.0e})"
    )


# ---------------------------------------------------------------------------
# 3. model construction: L T = Id and P = Id - T L is the defect projection
# ---------------------------------------------------------------------------


@_criterion
def criterion_3_model_projection() -> tuple[bool, str]:
    """Left-inverse and projection identities hold to 1e-14 on both stock models."""
    tolerance = 1e-14
    rng = np.random.default_rng(303)
    worst = 0.0
    for T in (dirichlet_shift(), isometric_shift()):
        model = build_model(T)
        probes = [FiniteSupportVector.basis(k, None) for k in range(8)]
        probes += [_random_vector(rng, 10, 20) for _ in range(4)]
        for x in probes:
            tx = T.apply(x)
            worst = max(worst, left_inverse_apply(model, tx).sub(x).norm())
            worst = max(worst, defect_projection(model, tx).norm())
            px = defect_projection(model, x)
            worst = max(worst, defect_projection(model, px).sub(px).norm())
        for e in model.defect_basis:
            worst = max(worst, left_inverse_apply(model, e).norm())
            worst = max(worst, defect_projection(model, e).sub(e).norm())
    return worst <= tolerance, f"max identity residual {worst:.3e} (tolerance {tolerance:.0e})"


# ---------------------------------------------------------------------------
# 4. the model map intertwines T with the coordinate shift
# ---------------------------------------------------------------------------


@_criterion
def criterion_4_model_intertwining() -> tuple[bool, str]:
    """Applying T shifts the model coefficients by one degree, to 1e-12."""
    tolerance = 1e-12
    rng = np.random.default_rng(404)
    worst = 0.0
    for T in (dirichlet_shift(), isometric_shift()):
        model = build_model(T)
        for _ in range(20):
            x = _random_vector(rng, 40, 60)
            report = verify_intertwining(model, x, N=200)
            worst = max(worst, report.max_residual)
            if not report.passed:
                break
    return worst <= tolerance, (
        f"max coefficient residual {worst:.3e} over 20 vectors per model at "
        f"N=200 (tolerance {tolerance:.0e})"
    )


# ---------------------------------------------------------------------------
# 5. reproducing property of the model kernel
# ---------------------------------------------------------------------------


@_criterion
def criterion_5_reproducing_property() -> tuple[bool, str]:
    """<(Ux)(lam), e> = <x, k_lam e> to 1e-8; k(0, .) is the identity to 1e-12."""
    tolerance = 1e-8
    identity_tolerance = 1e-12
    rng = np.random.default_rng(505)
    lams = (0.5, -0.5, 0.35 + 0.35j, 0.45j, -0.2 - 0.4j)
    worst = 0.0
    worst_identity = 0.0
    for T in (dirichlet_shift(), isometric_shift()):
        model = build_model(T)
        e_coords = np.ones(model.dim_defect, dtype=np.complex128)
        for lam in lams:
            for _ in range(4):
                x = _random_vector(rng, 12, 20)
                report = verify_reproducing(model, x, lam, e_coords)
                worst = max(worst, report.residual)
        for k in range(10):
            z = 0.07 * (k + 1) * np.exp(2j * np.pi * k / 10.0)
            kmat = kernel_eval(model, 0.0, z)
            worst_identity = max(
                worst_identity,
                float(np.max(np.abs(kmat - np.eye(model.dim_defect)))),
            )
    passed = worst <= tolerance and worst_identity <= identity_tolerance
    return passed, (
        f"max pairing residual {worst:.3e} (tolerance {tolerance:.0e}); "
        f"max |k(0,z) - Id| {worst_identity:.3e} (tolerance {identity_tolerance:.0e})"
    )


# ---------------------------------------------------------------------------
# 6. kernel closed forms against brute-force series
# ---------------------------------------------------------------------------


@_criterion
def criterion_6_kernel_closed_forms() -> tuple[bool, str]:
    """Szego and Dirichlet kernels match 1000-term series oracles to 1e-10."""
    tolerance = 1e-10

    def szego(w: complex) -> complex:
        return 1.0 / (1.0 - w)

    def dirichlet(w: complex) -> complex:
        return 1.0 + 0.0j if w == 0 else -np.log(1.0 - w) / w

    points = (0.0, 0.35, 0.7, 0.35j, -0.25 + 0.35j)
    m = np.arange(1000)
    worst = 0.0
    for T, beta_sq, closed_form in (
        (isometric_shift(), np.ones(1000), szego),
        (dirichlet_shift(), m + 1.0, dirichlet),
    ):
        model = build_model(T)
        for lam in points:
            for z in points:
                w = complex(z) * np.conj(complex(lam))
                oracle = complex(np.sum(w**m / beta_sq))
                closed = closed_form(w)
                value = complex(kernel_eval(model, lam, z)[0, 0])
                worst = max(worst, abs(value - oracle), abs(value - closed))
    return worst <= tolerance, (
        f"max deviation {worst:.3e} from series oracle and closed form on a "
        f"5x5 point grid (tolerance {tolerance:.0e})"
    )


# ---------------------------------------------------------------------------
# 7. the multiplier semigroup of the coordinate shift
# ---------------------------------------------------------------------------


@_criterion
def criterion_7_multiplier_semigroup() -> tuple[bool, str]:
    """Cocycle law, three independent routes to e_t, and the semigroup model report.

    The Laguerre multiplier, the series-algebra symbol and the exponential
    recurrence of the explicit series must agree pairwise.  For Blaschke
    symbols of degree 1-3, the product over the Clark points (rotated
    Laguerre multipliers) must agree with the series-algebra symbol of the
    same coefficients; the two share no code.  The model report is judged
    by its own checks, at its own tolerances.
    """
    cocycle_tolerance = 1e-10
    route_tolerance = 1e-12
    N = 128
    coordinate = PowerSeries((0.0, 1.0))

    worst_cocycle = 0.0
    worst_route = 0.0
    for t, s in ((0.3, 0.7), (0.5, 0.5), (1.0, 0.25)):
        et = semigroup_multiplier(t, N)
        es = semigroup_multiplier(s, N)
        ets = semigroup_multiplier(t + s, N)
        product = series_mul(et, es, N=N)
        worst_cocycle = max(worst_cocycle, float(np.max(np.abs(product.coeffs - ets.coeffs))))
        # t (z+1)/(z-1) = -t - 2t sum_{k>=1} z^k, exponentiated by its recurrence
        explicit = np.full(N + 1, -2.0 * t)
        explicit[0] = -t
        routes = (
            et.coeffs,
            inner_semigroup_symbol(coordinate, t, N).coeffs,
            series_exp(PowerSeries(explicit), N).coeffs,
        )
        for a, b in combinations(routes, 2):
            worst_route = max(worst_route, float(np.max(np.abs(a - b))))

    worst_blaschke = 0.0
    for zeros in ((0.5,), (0.3, -0.4), (0.2 + 0.3j, -0.5, 0.6j)):
        phi = blaschke_series(BlaschkeSpec(zeros), 64)
        by_clark = inner_semigroup_symbol(phi, 1.0, 64).coeffs
        by_algebra = inner_semigroup_symbol(PowerSeries(phi.coeffs), 1.0, 64).coeffs
        worst_blaschke = max(worst_blaschke, float(np.max(np.abs(by_clark - by_algebra))))

    report = verify_semigroup_model(t=0.7, N=64)
    passed = (
        worst_cocycle <= cocycle_tolerance
        and worst_route <= route_tolerance
        and worst_blaschke <= route_tolerance
        and report.passed
    )
    checks = ", ".join(f"{c.name} {c.residual:.3e} (<={c.tolerance:.0e})" for c in report.checks)
    return passed, (
        f"cocycle {worst_cocycle:.3e} (<={cocycle_tolerance:.0e}), "
        f"route agreement {worst_route:.3e} (<={route_tolerance:.0e}), "
        f"Blaschke route agreement {worst_blaschke:.3e} (<={route_tolerance:.0e}, "
        f"degrees 1-3, N=64, t=1); model report at t=0.7, N=64: {checks}"
    )


# ---------------------------------------------------------------------------
# 8. Wold splitting and finite-dimensional 2-isometry rigidity
# ---------------------------------------------------------------------------


@_criterion
def criterion_8_wold_split() -> tuple[bool, str]:
    """Unitary-plus-nilpotent sums split exactly; finite 2-isometries are unitary.

    The 20 sums, alternately direct sums of two dense parts and one block matrix, go
    through the Wold split as one stack per size; the 50 unitaries through the
    classification as one stack per size, their isometry residual one product per size.
    """
    unitary_tolerance = 1e-10
    rigidity_tolerance = 1e-8
    rng = np.random.default_rng(808)
    gaussians, nilpotents = [], []
    for _ in range(20):
        n_u = int(rng.integers(1, 6))
        n_n = int(rng.integers(1, 6))
        gaussians.append(_random_complex(rng, (n_u, n_u)))
        nilpotents.append(np.triu(_random_complex(rng, (n_n, n_n)), 1))
    for _ in range(50):  # the unitaries of the rigidity check
        n = int(rng.integers(2, 11))
        gaussians.append(_random_complex(rng, (n, n)))
    unitaries = _unitaries(gaussians)

    sums = []
    for i, (U, Nilp) in enumerate(zip(unitaries[:20], nilpotents)):
        n_u, n_n = len(U), len(Nilp)
        if i % 2 == 0:
            V = DirectSum((Dense(ComplexMatrix(U)), Dense(ComplexMatrix(Nilp))))
        else:
            block = np.zeros((n_u + n_n, n_u + n_n), dtype=np.complex128)
            block[:n_u, :n_u] = U
            block[n_u:, n_u:] = Nilp
            V = Dense(ComplexMatrix(block))
        sums.append(to_dense_matrix(V))
    dim_errors = 0
    worst_unitary = 0.0
    span_failures = 0
    for members in _by_size(sums).values():
        reports = _wold_split(np.stack([sums[j] for j in members]), DEFAULT_TOL)
        for j, report in zip(members, reports):
            n_u, n_n = len(unitaries[j]), len(nilpotents[j])
            if report.dim_unitary != n_u or report.dim_wandering_dense != n_n:
                dim_errors += 1
            worst_unitary = max(worst_unitary, report.unitary_residual)
            if not report.wandering_span_ok:
                span_failures += 1

    # rigidity: concave and invertible in finite dimension forces unitarity
    worst_rigidity = 0.0
    misclassified = 0
    rigid = unitaries[20:]
    for n, members in _by_size(rigid).items():
        U = np.stack([rigid[j] for j in members])
        for rep in _classify_stack(U, DEFAULT_TOL):
            if not (rep.concave and rep.bounded_below and rep.two_isometry):
                misclassified += 1
        worst_rigidity = max(worst_rigidity, float(np.max(np.abs(U.conj().mT @ U - np.eye(n)))))
    passed = (
        dim_errors == 0
        and span_failures == 0
        and worst_unitary <= unitary_tolerance
        and misclassified == 0
        and worst_rigidity <= rigidity_tolerance
    )
    return passed, (
        f"{dim_errors} dimension errors, {span_failures} span failures, unitary "
        f"residual {worst_unitary:.3e} (<={unitary_tolerance:.0e}) over 20 sums; 50 "
        f"unitaries classified 2-isometric with isometry residual {worst_rigidity:.3e} "
        f"(<={rigidity_tolerance:.0e})"
    )


# ---------------------------------------------------------------------------
# 9. ladder decompositions for inner symbols
# ---------------------------------------------------------------------------


@_criterion
def criterion_9_ladder_decomposition() -> tuple[bool, str]:
    """K, phi K, ..., phi^4 K are orthogonal with the exact total dimension, and
    the two model-space routes span the same K for Blaschke symbols."""
    tolerance = 1e-10
    span_tolerance = 1e-12
    n = 64
    levels = 4
    cases = (
        ("coordinate", PowerSeries((0.0, 1.0)), 1),
        ("blaschke(0.5)", blaschke_series(BlaschkeSpec((0.5,)), n - 1), 1),
        ("blaschke(0.3,-0.4)", blaschke_series(BlaschkeSpec((0.3, -0.4)), n - 1), 2),
    )
    worst = 0.0
    dim_errors = 0
    span_gap = 0.0
    for _, phi, degree in cases:
        report = verify_ladder_decomposition(phi, degree, levels, n)
        worst = max(worst, report.offdiag_residual, report.within_block_residual)
        if report.total_dim != report.expected_dim:
            dim_errors += 1
    for _, phi, degree in cases[1:]:
        # the Takenaka-Malmquist-Walsh basis against the SVD complement of the same coefficients
        tmw = model_space_basis(phi, n, degree)
        svd = model_space_basis(PowerSeries(phi.coeffs), n, degree)
        span_gap = max(span_gap, float(np.abs(tmw @ tmw.conj().T - svd @ svd.conj().T).max()))
    return worst <= tolerance and dim_errors == 0 and span_gap <= span_tolerance, (
        f"max Gram residual {worst:.3e} over 3 symbols at 5 levels, n=64 "
        f"(tolerance {tolerance:.0e}); {dim_errors} dimension errors; "
        f"TMW vs SVD span gap {span_gap:.3e} over 2 Blaschke symbols "
        f"(tolerance {span_tolerance:.0e})"
    )


# ---------------------------------------------------------------------------
# 10. growth bounds
# ---------------------------------------------------------------------------


@_criterion
def criterion_10_growth_bound() -> tuple[bool, str]:
    """omega matches closed-form oracles to 1e-10 and the evolved radius to 1e-8.

    The 30 generators are drawn in one sequence, by index mod 3 skew-adjoint (omega = 0),
    dissipative -(B*B + Id) (omega = -1 - the least eigenvalue of B*B) and general, and
    go through one stacked growth pass; the B*B oracle is one batched eigvalsh.
    """
    oracle_tolerance = 1e-10
    consistency_tolerance = 1e-8
    generators, grams = _generator_families(np.random.default_rng(1010), 30, 6)
    omegas, consistencies = _growth_consistencies(generators)
    oracles = -1.0 - np.linalg.eigvalsh(grams).min(axis=-1)
    worst_oracle = float(max(np.abs(omegas[0::3]).max(), np.abs(omegas[1::3] - oracles).max()))
    worst_consistency = float(consistencies.max())
    passed = worst_oracle <= oracle_tolerance and worst_consistency <= consistency_tolerance
    return passed, (
        f"max oracle deviation {worst_oracle:.3e} (<={oracle_tolerance:.0e}), max "
        f"radius consistency {worst_consistency:.3e} (<={consistency_tolerance:.0e}) "
        "over 30 generators"
    )


# ---------------------------------------------------------------------------
# 11. surjectivity certificates for block shift truncations
# ---------------------------------------------------------------------------


@_criterion
def criterion_11_caradus_certificates() -> tuple[bool, str]:
    """Backward block shifts certify, forward ones are refused, adjoints swap."""
    failures = []
    for d in range(1, 6):
        n = 8 * d
        backward = block_backward_shift_trunc(d, n)
        forward = block_forward_shift_trunc(d, n)
        cert_b = caradus_certificate(backward)
        cert_f = caradus_certificate(forward)
        if not (cert_b.kernel_dim == d and cert_b.surjective and cert_b.passed):
            failures.append(f"backward d={d}")
        if cert_f.passed or cert_f.surjective or cert_f.kernel_dim != 0:
            failures.append(f"forward d={d}")
        if cert_b.rank != cert_f.rank or not np.array_equal(backward.conj().T, forward):
            failures.append(f"adjoint swap d={d}")
    return not failures, (
        "backward certified / forward refused for multiplicities 1..5 at n=8d"
        if not failures
        else "failed: " + ", ".join(failures)
    )


# ---------------------------------------------------------------------------
# 12. concave power growth bound
# ---------------------------------------------------------------------------


@_criterion
def criterion_12_concave_power_growth() -> tuple[bool, str]:
    """||T^n x||^2 stays under the linear bound for n <= 50 at slack 1e-10."""
    slack = ToleranceConfig(residual_tol=1e-10)
    rng = np.random.default_rng(1212)
    failures = 0
    checks = 0
    T = dirichlet_shift()
    vectors = [FiniteSupportVector.basis(0, None), FiniteSupportVector.basis(3, None)]
    vectors += [_random_vector(rng, 6, 10) for _ in range(4)]
    for x in vectors:
        checks += 1
        if not concave_power_growth_check(T, x, N=50, tol=slack):
            failures += 1
    gaussians, amplitudes = [], []
    for _ in range(6):
        n = int(rng.integers(2, 9))
        gaussians.append(_random_complex(rng, (n, n)))
        amplitudes.append(_random_complex(rng, n))
    for U, x_values in zip(_unitaries(gaussians), amplitudes):
        n = len(U)
        x = FiniteSupportVector(tuple(enumerate(x_values / np.linalg.norm(x_values))), n)
        checks += 1
        if not concave_power_growth_check(Dense(ComplexMatrix(U)), x, N=50, tol=slack):
            failures += 1
    # negative control: a non-concave operator must be refused outright
    refused = False
    try:
        concave_power_growth_check(
            Dense(ComplexMatrix(np.diag([2.0, 0.5]))),
            FiniteSupportVector.basis(0, 2),
            N=5,
            tol=slack,
        )
    except NotConcave:
        refused = True
    passed = failures == 0 and refused
    return passed, (
        f"{checks - failures}/{checks} growth bounds hold at slack "
        f"{slack.residual_tol:.0e} for n<=50; non-concave input refused: {refused}"
    )


ALL_CRITERIA = tuple(_CRITERIA)


def run_all() -> tuple[CriterionResult, ...]:
    """Run the twelve acceptance criteria in order."""
    return tuple(fn() for fn in ALL_CRITERIA)
