"""Outage probability, high-SNR asymptotics, and coding/diversity gains.

The outage probability at threshold gamma_th is the SNR CDF evaluated there.
The asymptotic forms are the leading power-law terms as gamma_bar -> inf;
gains() factors them as (G_c gamma_bar)^(-G_d) with diversity gain G_d =
alpha mu (alpha-eta-F) or alpha mu / 2 (alpha-kappa-F).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels as _k
from .aef import AefDist
from .akf import AkfDist
from .series import (
    DEFAULT_CONTROL,
    ConvergenceError,
    DomainError,
    LaneResult,
    Law,
    SeriesControl,
    SeriesResult,
)

__all__ = [
    "GainPair",
    "outage",
    "asymptotic_outage_aef",
    "asymptotic_outage_akf",
    "gains",
]


@dataclass(frozen=True)
class GainPair:
    """Coding gain gc (linear SNR units) and diversity gain gd (slope)."""

    gc: float
    gd: float

    def __post_init__(self) -> None:
        if not (self.gc > 0.0 and self.gd > 0.0):
            raise DomainError(f"gains must be positive, got gc={self.gc}, gd={self.gd}")


def _check_threshold(gamma_th: float) -> None:
    if not (gamma_th > 0.0 and math.isfinite(gamma_th)):
        raise DomainError(f"gamma_th must be positive, got {gamma_th}")


def outage(
    dist: AefDist | AkfDist,
    gamma_th: float | np.ndarray,
    ctrl: SeriesControl = DEFAULT_CONTROL,
) -> SeriesResult | LaneResult:
    """Outage probability P[gamma < gamma_th]: the law's mixture CDF snr_cdf.
    An np.ndarray of thresholds gives a LaneResult, from one array call."""
    # a float inside (0, inf), the curves' point, needs no further check
    if not (type(gamma_th) is float and 0.0 < gamma_th < math.inf):
        if isinstance(gamma_th, np.ndarray):
            bad = ~((gamma_th > 0.0) & np.isfinite(gamma_th))
            if bad.any():
                raise DomainError(f"gamma_th must be positive, got {gamma_th[bad][0]}")
        else:
            _check_threshold(gamma_th)
    if not isinstance(dist, Law):
        raise DomainError(f"unsupported distribution type {type(dist).__name__}")
    return dist.snr_cdf(gamma_th, ctrl)


def _asymptote(dist: AefDist | AkfDist, gamma_th: float) -> float:
    """The asymptotic outage, the CDF head A x^p of the law at x = gamma_th;
    inf where it exceeds the double range."""
    _check_threshold(gamma_th)
    ln_a, p = dist._head
    return _k._signed_exp(1.0, ln_a + p * math.log(gamma_th))


def asymptotic_outage_aef(d: AefDist, gamma_th: float) -> float:
    """Leading high-SNR outage term of the alpha-eta-F distribution:
    (2mu)^(2mu-1) h^mu / B(2mu, ms) * (gamma_th^(alpha/2) / Lambda)^(2mu)
    with Lambda = (ms-1) upsilon gamma_bar^(alpha/2)."""
    return _asymptote(d, gamma_th)


def asymptotic_outage_akf(d: AkfDist, gamma_th: float) -> float:
    """Leading high-SNR outage term of the alpha-kappa-F distribution:
    mu^(mu-1) e^(-mu kappa) / B(mu, ms) * ((1+kappa) gamma_th^(alpha/2) /
    Lambda)^mu with Lambda = (ms-1) omega gamma_bar^(alpha/2)."""
    return _asymptote(d, gamma_th)


def gains(dist: AefDist | AkfDist, gamma_th: float) -> GainPair:
    """Coding and diversity gains of the high-SNR outage law
    (G_c gamma_bar)^(-G_d): G_c = 1 / (gamma_th A1^(1/G_d)), A1 the CDF head
    at gamma_bar = 1, whatever the law's gamma_bar. Raises ConvergenceError
    where G_c is not a positive finite double."""
    if not isinstance(dist, Law):
        raise DomainError(f"unsupported distribution type {type(dist).__name__}")
    _check_threshold(gamma_th)
    ln_a, gd = dist.params._unit.head
    gc = _k._signed_exp(1.0, -ln_a / gd - math.log(gamma_th))
    if not 0.0 < gc < math.inf:
        raise ConvergenceError(
            f"gains: the coding gain at gamma_th = {gamma_th} leaves the double range"
        )
    return GainPair(gc=gc, gd=gd)
