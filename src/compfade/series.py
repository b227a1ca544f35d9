"""Series evaluation controls, results, and the error types shared by every engine."""
from __future__ import annotations

import math
import os
from dataclasses import dataclass

DEFAULT_REL_TOL = 1e-12
DEFAULT_ABS_TOL = 1e-300
DEFAULT_MAX_TERMS = 100_000

# Kernel status codes (returned by _kernels, mapped to exceptions/flags here).
STATUS_OK = 0
STATUS_MAX_TERMS = 1
STATUS_DIVERGED = 2


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class ConvergenceError(ArithmeticError):
    """The requested value has no convergent series representation here."""


@dataclass(frozen=True)
class SeriesControl:
    """Termination policy for a series summation.

    rel_tol is measured term-to-partial-sum; abs_tol is an absolute floor;
    max_terms caps each summation index.
    """

    rel_tol: float = DEFAULT_REL_TOL
    abs_tol: float = DEFAULT_ABS_TOL
    max_terms: int = DEFAULT_MAX_TERMS

    def __post_init__(self) -> None:
        if not self.rel_tol > 0.0:
            raise DomainError("rel_tol must be > 0, got %r" % (self.rel_tol,))
        if self.abs_tol < 0.0:
            raise DomainError("abs_tol must be >= 0, got %r" % (self.abs_tol,))
        if self.max_terms < 1:
            raise DomainError("max_terms must be >= 1, got %r" % (self.max_terms,))


@dataclass(frozen=True)
class SeriesResult:
    """Value of a truncated series plus how it was reached.

    est_error is the magnitude of the last accepted term (or a tail bound);
    converged=False means the tolerance was not met within max_terms and the
    value must not be trusted silently.
    """

    value: float
    terms_used: int
    est_error: float
    converged: bool


def _control_from_env() -> SeriesControl:
    raw = os.environ.get("COMPFADE_MAX_TERMS")
    if raw is None:
        return SeriesControl()
    try:
        max_terms = int(raw)
    except ValueError:
        raise DomainError("COMPFADE_MAX_TERMS must be an integer, got %r" % raw)
    return SeriesControl(max_terms=max_terms)


# read once, at import: setting COMPFADE_MAX_TERMS later has no effect
_DEFAULT_CONTROL = _control_from_env()


def default_control() -> SeriesControl:
    """Default SeriesControl, honoring the COMPFADE_MAX_TERMS override read at import."""
    return _DEFAULT_CONTROL


def cdf_endpoint(gamma: float) -> SeriesResult | None:
    """The exact CDF at gamma = 0 or gamma = inf, None inside (0, inf);
    raises DomainError for a negative or NaN gamma."""
    if not gamma >= 0.0:
        raise DomainError(f"gamma must be non-negative, got {gamma}")
    if gamma == 0.0 or gamma == math.inf:
        return SeriesResult(
            value=float(gamma > 0.0), terms_used=0, est_error=0.0, converged=True
        )
    return None


def density_value(name: str, value: float, status: int) -> float:
    """A density kernel's result at 0 < gamma < inf; ConvergenceError if its
    series did not converge or the density overflowed."""
    if status != STATUS_OK:
        raise ConvergenceError(f"{name}: embedded hypergeometric did not converge")
    if not math.isfinite(value):
        raise ConvergenceError(f"{name}: the density overflowed the double range")
    return value


def cdf_clamped(raw: float, terms: int, est: float, converged: bool) -> SeriesResult:
    """A summed CDF clamped to [0, 1]; the clamping adjustment is added to
    est_error."""
    value = min(max(raw, 0.0), 1.0)
    return SeriesResult(
        value=value,
        terms_used=terms,
        est_error=est + abs(raw - value),
        converged=converged,
    )
