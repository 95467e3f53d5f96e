"""Tolerance configuration shared by every numeric check, and the record of one check."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields


@dataclass(frozen=True)
class ToleranceConfig:
    """Named tolerances; each must be finite and strictly positive.

    rank_tol      relative singular-value cutoff for rank decisions
    psd_tol       slack for semidefiniteness verdicts on Hermitian forms
    residual_tol  allowed residual for identities checked in floating point
    tail_tol      target bound for truncated series tails
    """

    rank_tol: float = 1e-10
    psd_tol: float = 1e-10
    residual_tol: float = 1e-9
    tail_tol: float = 1e-10

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not (0.0 < value < math.inf):
                raise ValueError(f"{f.name} must be finite and strictly positive, got {value!r}")


DEFAULT_TOL = ToleranceConfig()


@dataclass(frozen=True)
class Check:
    """One judged check: its verdict, and the residual and tolerance it was judged by."""

    name: str
    passed: bool
    residual: float | None = None
    tolerance: float | None = None

    @classmethod
    def judged(cls, name: str, residual: float, tolerance: float) -> "Check":
        """The check that passes when ``residual`` is at most ``tolerance``."""
        return cls(name, bool(residual <= tolerance), residual, tolerance)
