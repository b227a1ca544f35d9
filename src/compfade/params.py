"""Parameter bundles, cluster geometry formats, and normalization constants.

The alpha-eta-F family takes its eta parameter in one of two formats:
Format I uses the in-phase/quadrature power ratio eta in (0, inf), Format II
the correlation coefficient eta in (-1, 1). Both map to the same (h, H)
geometry pair, and eta' = (1 - eta)/(1 + eta) converts between them.

upsilon() and omega() are the mean-normalization constants that make the SNR
densities integrate to mean gamma_bar; both require ms > 2/alpha for the
underlying fractional moment to exist.
"""
from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

from . import _kernels as _k
from . import specfun
from ._kernels import KAPPA_ZERO_CUTOFF
from .series import ConvergenceError, DomainError

__all__ = [
    "Format",
    "AefParams",
    "AkfParams",
    "Geometry",
    "geometry",
    "convert_format",
    "upsilon",
    "omega",
]


class Format(enum.Enum):
    """Geometry convention for the alpha-eta-F eta parameter."""

    FORMAT_I = 1
    FORMAT_II = 2


def _require_shape(
    alpha: float | None = None, mu: float | None = None, ms: float | None = None
) -> None:
    """Shape parameters shared by both families and their physical models;
    each one given must be finite (the ms -> inf and kappa -> inf limit laws
    are not evaluated)."""
    if alpha is not None and not 0.0 < alpha < math.inf:
        raise DomainError(f"alpha must be positive and finite, got {alpha}")
    if mu is not None and not 0.0 < mu < math.inf:
        raise DomainError(f"mu must be positive and finite, got {mu}")
    if ms is not None and not 1.0 < ms < math.inf:
        raise DomainError(f"ms must exceed 1 and be finite, got {ms}")


@dataclass(frozen=True)
class AefParams:
    """Shape parameters of the alpha-eta-F distribution."""

    alpha: float
    eta: float
    mu: float
    ms: float
    format: Format = Format.FORMAT_I

    def __post_init__(self) -> None:
        _require_shape(self.alpha, self.mu, self.ms)
        if not isinstance(self.format, Format):
            raise DomainError(f"format must be a Format, got {self.format!r}")
        if self.format is Format.FORMAT_I:
            if not (self.eta > 0.0 and math.isfinite(self.eta)):
                raise DomainError(
                    f"Format I requires 0 < eta < inf, got {self.eta}"
                )
        else:
            if not -1.0 < self.eta < 1.0:
                raise DomainError(
                    f"Format II requires -1 < eta < 1, got {self.eta}"
                )


@dataclass(frozen=True)
class AkfParams:
    """Shape parameters of the alpha-kappa-F distribution."""

    alpha: float
    kappa: float
    mu: float
    ms: float

    def __post_init__(self) -> None:
        _require_shape(self.alpha, self.mu, self.ms)
        if not 0.0 <= self.kappa < math.inf:
            raise DomainError(
                "kappa must be finite and non-negative (0 gives the alpha-F limit), "
                f"got {self.kappa}"
            )


@dataclass(frozen=True)
class Geometry:
    """Cluster geometry pair (h, H); h >= 1 and |H| < h in both formats."""

    h: float
    H: float


def geometry(p: AefParams) -> Geometry:
    """Geometry pair of an alpha-eta-F parameter set."""
    if p.format is Format.FORMAT_I:
        inv = 1.0 / p.eta
        return Geometry(h=(2.0 + inv + p.eta) / 4.0, H=(inv - p.eta) / 4.0)
    c = 1.0 - p.eta * p.eta
    return Geometry(h=1.0 / c, H=p.eta / c)


def convert_format(eta: float, from_format: Format) -> float:
    """Map eta between Format I and Format II; the map is its own inverse."""
    if eta == -1.0:
        raise DomainError("eta = -1 is the conversion singularity")
    if from_format is Format.FORMAT_I:
        if not (eta > 0.0 and math.isfinite(eta)):
            raise DomainError(f"Format I requires 0 < eta < inf, got {eta}")
    else:
        if not -1.0 < eta < 1.0:
            raise DomainError(f"Format II requires -1 < eta < 1, got {eta}")
    return (1.0 - eta) / (1.0 + eta)


def _require_moment(alpha: float, ms: float) -> None:
    if not ms > 2.0 / alpha:
        raise DomainError(
            f"ms = {ms} must exceed 2/alpha = {2.0 / alpha}: the 2/alpha-order "
            "moment of the shadowing power does not exist"
        )


def _normalizer(constant):
    """Guards a normalization constant: DomainError where the 2/alpha-order
    moment does not exist, and ConvergenceError unless the constant and
    its factors are positive finite doubles. Huge or tiny shapes overflow
    an exp on the way (OverflowError, or ConvergenceError from a special
    function whose value leaves the double range) or take the log of a
    Beta function that underflowed to 0 (ValueError)."""

    @functools.wraps(constant)
    def checked(p):
        _require_moment(p.alpha, p.ms)
        try:
            value = constant(p)
        except (OverflowError, ValueError, ConvergenceError):
            value = math.nan
        if not 0.0 < value < math.inf:
            raise ConvergenceError(
                f"{constant.__name__}: the normalization constant or a factor of "
                "it is not a positive finite double at these shape parameters"
            )
        return value

    return checked


@_normalizer
def upsilon(p: AefParams) -> float:
    """Mean-SNR normalization constant of the alpha-eta-F distribution.

    upsilon = (2 mu h / (ms - 1)) * [B(2mu, ms) h^mu / (B(2mu + 2/alpha,
    ms - 2/alpha) 2F1(mu + 1/alpha, mu + 1/alpha + 1/2; mu + 1/2; H^2/h^2))
    ]^(alpha/2). Equals 1 at alpha = 2, eta = 1.
    """
    geo = geometry(p)
    h, H = geo.h, geo.H
    q = 2.0 / p.alpha
    zsq = (H / h) * (H / h)
    f = specfun.gauss_2f1(p.mu + 0.5 * q, p.mu + 0.5 * q + 0.5, p.mu + 0.5, zsq)
    if not f.converged:
        raise ConvergenceError("upsilon: geometry hypergeometric did not converge")
    ln_bracket = (
        _k._lbeta(2.0 * p.mu, p.ms)
        + p.mu * math.log(h)
        - _k._lbeta(2.0 * p.mu + q, p.ms - q)
        - math.log(f.value)
    )
    return 2.0 * p.mu * h / (p.ms - 1.0) * math.exp(0.5 * p.alpha * ln_bracket)


@_normalizer
def omega(p: AkfParams) -> float:
    """Mean-SNR normalization constant of the alpha-kappa-F distribution.

    omega = (mu (1 + kappa) / (ms - 1)) * [B(mu, ms) e^(mu kappa) /
    (B(mu + 2/alpha, ms - 2/alpha) 1F1(mu + 2/alpha; mu; mu kappa))
    ]^(alpha/2). Equals 1 at alpha = 2, kappa -> 0; kappa below the zero
    cutoff uses the exact limit form.
    """
    q = 2.0 / p.alpha
    ln_bb = _k._lbeta(p.mu, p.ms) - _k._lbeta(p.mu + q, p.ms - q)
    if p.kappa < KAPPA_ZERO_CUTOFF:
        return p.mu / (p.ms - 1.0) * math.exp(0.5 * p.alpha * ln_bb)
    mk = p.mu * p.kappa
    f = specfun.kummer_1f1(p.mu + q, p.mu, mk)
    if not f.converged:
        raise ConvergenceError("omega: confluent hypergeometric did not converge")
    ln_bracket = ln_bb + mk - math.log(f.value)
    return (
        p.mu * (1.0 + p.kappa) / (p.ms - 1.0) * math.exp(0.5 * p.alpha * ln_bracket)
    )
