"""Acceptance criteria: twelve pinned, deterministic end-to-end checks.

Each criterion function runs one stated check with fixed seeds and fixed
tolerances and returns a ``CriterionResult``; ``run_all`` executes all
twelve.  The test suite asserts each result and the command line exposes the
same functions through ``verify-all``, so the two entry points cannot
drift apart.

The criteria deliberately cross independent code paths: closed forms against
brute-force series, generator-side against semigroup-side concavity, the
Laguerre multiplier against the symbol-algebra and exponential-recurrence
multipliers, and measured ranks against structural predictions.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .classify import classify_operator, concave_power_growth_check
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
)
from .semigroup import (
    SemigroupSpec,
    cogenerator,
    concavity_equivalence_suite,
    growth_bound,
    growth_bound_consistency,
    inverse_cayley,
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
    wold_decompose,
)

__all__ = ["CriterionResult", "run_all", "ALL_CRITERIA"]


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str


def _random_complex(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    q, _ = np.linalg.qr(_random_complex(rng, (n, n)))
    return q


def _random_vector(rng: np.random.Generator, max_support: int, max_index: int) -> FiniteSupportVector:
    support = int(rng.integers(1, max_support + 1))
    indices = rng.choice(max_index + 1, size=support, replace=False)
    values = _random_complex(rng, support)
    values /= np.linalg.norm(values)
    return FiniteSupportVector(tuple(zip(indices.tolist(), values.tolist())), None)


# ---------------------------------------------------------------------------
# 1. Cayley transform round trip
# ---------------------------------------------------------------------------


def criterion_1_cayley_round_trip() -> CriterionResult:
    """inverse_cayley(cogenerator(A)) returns A to 1e-9 for 50 random generators."""
    tolerance = 1e-9
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 9))
        B = _random_complex(rng, (n, n))
        margin = 0.5 + float(rng.uniform(0.0, 2.0))
        shift = float(np.max(np.linalg.eigvals(B).real)) + margin
        A = ComplexMatrix(B - shift * np.eye(n, dtype=np.complex128))
        S = SemigroupSpec(A)
        recovered = inverse_cayley(cogenerator(S))
        worst = max(worst, float(np.max(np.abs(recovered.array - A.array))))
    return CriterionResult(
        number=1,
        name="cayley_round_trip",
        passed=worst <= tolerance,
        detail=f"max entry residual {worst:.3e} over 50 generators (tolerance {tolerance:.0e})",
    )


# ---------------------------------------------------------------------------
# 2. four-way concavity equivalence
# ---------------------------------------------------------------------------


def criterion_2_concavity_equivalence() -> CriterionResult:
    """All four concavity formulations agree on 100 mixed 6x6 generators."""
    tol = DEFAULT_TOL
    rng = np.random.default_rng(202)
    n = 6
    disagreements = 0
    wrong_verdicts = 0
    for i in range(100):
        B = _random_complex(rng, (n, n))
        if i % 3 == 0:
            A = (B - B.conj().T) / 2.0
            expected = True
        elif i % 3 == 1:
            A = -(B.conj().T @ B + np.eye(n, dtype=np.complex128))
            expected = False
        else:
            A = B
            expected = False
        suite = concavity_equivalence_suite(SemigroupSpec(ComplexMatrix(A)), tol)
        if not suite.agree:
            disagreements += 1
        elif suite.verdict is not expected:
            wrong_verdicts += 1
    passed = disagreements == 0 and wrong_verdicts == 0
    return CriterionResult(
        number=2,
        name="concavity_equivalence",
        passed=passed,
        detail=(
            f"{disagreements} disagreements, {wrong_verdicts} wrong verdicts over "
            f"100 generators (grid slack {suite.grid_slack:.0e}, psd_tol {tol.psd_tol:.0e})"
        ),
    )


# ---------------------------------------------------------------------------
# 3. model construction: L T = Id and P = Id - T L is the defect projection
# ---------------------------------------------------------------------------


def criterion_3_model_projection() -> CriterionResult:
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
    return CriterionResult(
        number=3,
        name="model_projection",
        passed=worst <= tolerance,
        detail=f"max identity residual {worst:.3e} (tolerance {tolerance:.0e})",
    )


# ---------------------------------------------------------------------------
# 4. the model map intertwines T with the coordinate shift
# ---------------------------------------------------------------------------


def criterion_4_model_intertwining() -> CriterionResult:
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
    return CriterionResult(
        number=4,
        name="model_intertwining",
        passed=worst <= tolerance,
        detail=(
            f"max coefficient residual {worst:.3e} over 20 vectors per model at "
            f"N=200 (tolerance {tolerance:.0e})"
        ),
    )


# ---------------------------------------------------------------------------
# 5. reproducing property of the model kernel
# ---------------------------------------------------------------------------


def criterion_5_reproducing_property() -> CriterionResult:
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
    return CriterionResult(
        number=5,
        name="reproducing_property",
        passed=passed,
        detail=(
            f"max pairing residual {worst:.3e} (tolerance {tolerance:.0e}); "
            f"max |k(0,z) - Id| {worst_identity:.3e} (tolerance {identity_tolerance:.0e})"
        ),
    )


# ---------------------------------------------------------------------------
# 6. kernel closed forms against brute-force series
# ---------------------------------------------------------------------------


def criterion_6_kernel_closed_forms() -> CriterionResult:
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
    return CriterionResult(
        number=6,
        name="kernel_closed_forms",
        passed=worst <= tolerance,
        detail=(
            f"max deviation {worst:.3e} from series oracle and closed form on a "
            f"5x5 point grid (tolerance {tolerance:.0e})"
        ),
    )


# ---------------------------------------------------------------------------
# 7. the multiplier semigroup of the coordinate shift
# ---------------------------------------------------------------------------


def criterion_7_multiplier_semigroup() -> CriterionResult:
    """Cocycle law, constant term, generator, and three independent routes to e_t.

    The Laguerre multiplier, the series-algebra symbol and the exponential
    recurrence of the explicit series must agree pairwise.  For Blaschke
    symbols of degree 1-3, the symbol computed from the zeros must agree
    with the series-algebra symbol of the same coefficients.
    """
    cocycle_tolerance = 1e-10
    constant_tolerance = 1e-12
    generator_tolerance = 1e-6
    route_tolerance = 1e-12
    N = 128
    coordinate = PowerSeries((0.0, 1.0))

    worst_cocycle = 0.0
    worst_constant = 0.0
    worst_route = 0.0
    for t, s in ((0.3, 0.7), (0.5, 0.5), (1.0, 0.25)):
        et = semigroup_multiplier(t, N)
        es = semigroup_multiplier(s, N)
        ets = semigroup_multiplier(t + s, N)
        product = series_mul(et, es, N=N)
        worst_cocycle = max(worst_cocycle, float(np.max(np.abs(product.coeffs - ets.coeffs))))
        worst_constant = max(worst_constant, abs(complex(et.coeffs[0]) - np.exp(-t)))
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
        by_zeros = inner_semigroup_symbol(phi, 1.0, 64).coeffs
        by_algebra = inner_semigroup_symbol(PowerSeries(phi.coeffs), 1.0, 64).coeffs
        worst_blaschke = max(worst_blaschke, float(np.max(np.abs(by_zeros - by_algebra))))

    report = verify_semigroup_model(t=0.7, N=64)
    passed = (
        worst_cocycle <= cocycle_tolerance
        and worst_constant <= constant_tolerance
        and worst_route <= route_tolerance
        and worst_blaschke <= route_tolerance
        and report.generator_residual <= generator_tolerance
        and report.commutation_residual <= route_tolerance
        and report.passed
    )
    return CriterionResult(
        number=7,
        name="multiplier_semigroup",
        passed=passed,
        detail=(
            f"cocycle {worst_cocycle:.3e} (<={cocycle_tolerance:.0e}), constant term "
            f"{worst_constant:.3e} (<={constant_tolerance:.0e}), generator fd "
            f"{report.generator_residual:.3e} (<={generator_tolerance:.0e}), "
            f"route agreement {worst_route:.3e} (<={route_tolerance:.0e}), "
            f"Blaschke route agreement {worst_blaschke:.3e} (<={route_tolerance:.0e}, "
            "degrees 1-3, N=64, t=1), "
            f"shift commutation {report.commutation_residual:.3e}"
        ),
    )


# ---------------------------------------------------------------------------
# 8. Wold splitting and finite-dimensional 2-isometry rigidity
# ---------------------------------------------------------------------------


def criterion_8_wold_split() -> CriterionResult:
    """Unitary-plus-nilpotent sums split exactly; finite 2-isometries are unitary."""
    unitary_tolerance = 1e-10
    rigidity_tolerance = 1e-8
    rng = np.random.default_rng(808)
    dim_errors = 0
    worst_unitary = 0.0
    span_failures = 0
    for i in range(20):
        n_u = int(rng.integers(1, 6))
        n_n = int(rng.integers(1, 6))
        U = _random_unitary(rng, n_u)
        Nilp = np.triu(_random_complex(rng, (n_n, n_n)), 1)
        if i % 2 == 0:
            V = DirectSum((Dense(ComplexMatrix(U)), Dense(ComplexMatrix(Nilp))))
        else:
            block = np.zeros((n_u + n_n, n_u + n_n), dtype=np.complex128)
            block[:n_u, :n_u] = U
            block[n_u:, n_u:] = Nilp
            V = Dense(ComplexMatrix(block))
        report = wold_decompose(V)
        if report.dim_unitary != n_u or report.dim_wandering_dense != n_n:
            dim_errors += 1
        worst_unitary = max(worst_unitary, report.unitary_residual)
        if not report.wandering_span_ok:
            span_failures += 1

    # rigidity: concave and invertible in finite dimension forces unitarity
    worst_rigidity = 0.0
    misclassified = 0
    for _ in range(50):
        n = int(rng.integers(2, 11))
        U = _random_unitary(rng, n)
        rep = classify_operator(Dense(ComplexMatrix(U)))
        if not (rep.concave and rep.bounded_below and rep.two_isometry):
            misclassified += 1
        worst_rigidity = max(
            worst_rigidity, float(np.max(np.abs(U.conj().T @ U - np.eye(n))))
        )
    passed = (
        dim_errors == 0
        and span_failures == 0
        and worst_unitary <= unitary_tolerance
        and misclassified == 0
        and worst_rigidity <= rigidity_tolerance
    )
    return CriterionResult(
        number=8,
        name="wold_split",
        passed=passed,
        detail=(
            f"{dim_errors} dimension errors, {span_failures} span failures, unitary "
            f"residual {worst_unitary:.3e} (<={unitary_tolerance:.0e}) over 20 sums; 50 "
            f"unitaries classified 2-isometric with isometry residual {worst_rigidity:.3e} "
            f"(<={rigidity_tolerance:.0e})"
        ),
    )


# ---------------------------------------------------------------------------
# 9. ladder decompositions for inner symbols
# ---------------------------------------------------------------------------


def criterion_9_ladder_decomposition() -> CriterionResult:
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
    return CriterionResult(
        number=9,
        name="ladder_decomposition",
        passed=worst <= tolerance and dim_errors == 0 and span_gap <= span_tolerance,
        detail=(
            f"max Gram residual {worst:.3e} over 3 symbols at 5 levels, n=64 "
            f"(tolerance {tolerance:.0e}); {dim_errors} dimension errors; "
            f"TMW vs SVD span gap {span_gap:.3e} over 2 Blaschke symbols "
            f"(tolerance {span_tolerance:.0e})"
        ),
    )


# ---------------------------------------------------------------------------
# 10. growth bounds
# ---------------------------------------------------------------------------


def criterion_10_growth_bound() -> CriterionResult:
    """omega matches closed-form oracles to 1e-10 and the evolved radius to 1e-8."""
    oracle_tolerance = 1e-10
    consistency_tolerance = 1e-8
    rng = np.random.default_rng(1010)
    n = 6
    worst_oracle = 0.0
    worst_consistency = 0.0
    for i in range(30):
        B = _random_complex(rng, (n, n))
        if i % 3 == 0:
            A = (B - B.conj().T) / 2.0
            oracle = 0.0
        elif i % 3 == 1:
            A = -(B.conj().T @ B + np.eye(n, dtype=np.complex128))
            oracle = -1.0 - float(np.min(np.linalg.eigvalsh(B.conj().T @ B)))
        else:
            A = B
            oracle = None
        S = SemigroupSpec(ComplexMatrix(A))
        omega = growth_bound(S).omega
        if oracle is not None:
            worst_oracle = max(worst_oracle, abs(omega - oracle))
        worst_consistency = max(worst_consistency, growth_bound_consistency(S))
    passed = worst_oracle <= oracle_tolerance and worst_consistency <= consistency_tolerance
    return CriterionResult(
        number=10,
        name="growth_bound",
        passed=passed,
        detail=(
            f"max oracle deviation {worst_oracle:.3e} (<={oracle_tolerance:.0e}), max "
            f"radius consistency {worst_consistency:.3e} (<={consistency_tolerance:.0e}) "
            "over 30 generators"
        ),
    )


# ---------------------------------------------------------------------------
# 11. surjectivity certificates for block shift truncations
# ---------------------------------------------------------------------------


def criterion_11_caradus_certificates() -> CriterionResult:
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
    return CriterionResult(
        number=11,
        name="caradus_certificates",
        passed=not failures,
        detail=(
            "backward certified / forward refused for multiplicities 1..5 at n=8d"
            if not failures
            else "failed: " + ", ".join(failures)
        ),
    )


# ---------------------------------------------------------------------------
# 12. concave power growth bound
# ---------------------------------------------------------------------------


def criterion_12_concave_power_growth() -> CriterionResult:
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
    for _ in range(6):
        n = int(rng.integers(2, 9))
        U = _random_unitary(rng, n)
        x_values = _random_complex(rng, n)
        x = FiniteSupportVector.from_dense(x_values / np.linalg.norm(x_values), n)
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
    return CriterionResult(
        number=12,
        name="concave_power_growth",
        passed=passed,
        detail=(
            f"{checks - failures}/{checks} growth bounds hold at slack "
            f"{slack.residual_tol:.0e} for n<=50; non-concave input refused: {refused}"
        ),
    )


ALL_CRITERIA = (
    criterion_1_cayley_round_trip,
    criterion_2_concavity_equivalence,
    criterion_3_model_projection,
    criterion_4_model_intertwining,
    criterion_5_reproducing_property,
    criterion_6_kernel_closed_forms,
    criterion_7_multiplier_semigroup,
    criterion_8_wold_split,
    criterion_9_ladder_decomposition,
    criterion_10_growth_bound,
    criterion_11_caradus_certificates,
    criterion_12_concave_power_growth,
)


def run_all() -> tuple[CriterionResult, ...]:
    """Run the twelve acceptance criteria in order."""
    return tuple(fn() for fn in ALL_CRITERIA)
