"""Analytical densities of the alpha-eta-F composite fading distribution.

AefDist models the instantaneous SNR with mean gamma_bar: snr_pdf, the
snr_cdf series with controllable truncation, and a closed-form upper bound
on the CDF truncation error. AefEnvelope models the signal envelope R with
mean power omega_power = E[R^2].

The CDF series is summed as a mixture of regularized incomplete beta
functions with positive weights that sum to one, which is an exact
reformulation of the term-by-term integrated PDF series and stays convergent
for arbitrarily large arguments.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import _kernels as _k
from . import params as _params
from .params import AefParams, Geometry
from .series import (
    STATUS_DIVERGED,
    STATUS_OK,
    ConvergenceError,
    DomainError,
    SeriesControl,
    SeriesResult,
    cdf_clamped,
    cdf_endpoint,
    default_control,
    density_value,
)

__all__ = ["AefDist", "AefEnvelope"]


@dataclass(frozen=True)
class AefDist:
    """alpha-eta-F instantaneous-SNR distribution with mean SNR gamma_bar."""

    params: AefParams
    gamma_bar: float
    geometry: Geometry = field(init=False, repr=False)
    upsilon: float = field(init=False, repr=False)
    _hsq: float = field(init=False, repr=False)
    _ln_lam: float = field(init=False, repr=False)
    _pdf_consts: tuple = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not (self.gamma_bar > 0.0 and math.isfinite(self.gamma_bar)):
            raise DomainError(f"gamma_bar must be positive, got {self.gamma_bar}")
        geo = _params.geometry(self.params)
        ups = _params.upsilon(self.params)
        p = self.params
        ln_lam = (
            math.log(p.ms - 1.0)
            + math.log(ups)
            + 0.5 * p.alpha * math.log(self.gamma_bar)
        )
        object.__setattr__(self, "geometry", geo)
        object.__setattr__(self, "upsilon", ups)
        object.__setattr__(self, "_hsq", geo.H * geo.H)
        object.__setattr__(self, "_ln_lam", ln_lam)
        object.__setattr__(
            self, "_pdf_consts", _k.aef_pdf_consts(p.alpha, p.mu, p.ms, geo.h, ln_lam)
        )

    def _head(self) -> tuple:
        """(ln A, p) of the CDF head F(x) ~ A x^p as x -> 0, with p = alpha mu."""
        p = self.params
        ln_a = (
            (2.0 * p.mu - 1.0) * math.log(2.0 * p.mu)
            + p.mu * math.log(self.geometry.h)
            - _k._lbeta(2.0 * p.mu, p.ms)
            - 2.0 * p.mu * self._ln_lam
        )
        return ln_a, float(p.alpha * p.mu)

    def snr_pdf(self, gamma: float, ctrl: SeriesControl | None = None) -> float:
        """Density of the instantaneous SNR at gamma >= 0.

        Its 2F1 factor comes from scipy.special for ms <= 50, where ctrl
        has no effect; ctrl governs the series that evaluates it for larger
        ms (or where scipy's value leaves the double range).
        """
        if not gamma >= 0.0:
            raise DomainError(f"gamma must be non-negative, got {gamma}")
        if gamma == 0.0:
            return _k.pdf_at_zero(*self._head())
        if gamma == math.inf:
            return 0.0
        if ctrl is None:
            ctrl = default_control()
        value, status = _k.aef_snr_pdf_kernel(
            self._pdf_consts, self._hsq, math.log(gamma),
            ctrl.rel_tol, ctrl.abs_tol, ctrl.max_terms,
        )
        return density_value("snr_pdf", value, status)

    def snr_cdf(self, gamma: float, ctrl: SeriesControl | None = None) -> SeriesResult:
        """CDF of the instantaneous SNR at gamma >= 0, as a truncated series.

        The returned value is clamped to [0, 1] after convergence; any
        clamping adjustment is added to est_error.
        """
        end = cdf_endpoint(gamma)
        if end is not None:
            return end
        if ctrl is None:
            ctrl = default_control()
        p = self.params
        raw, terms, est, status = _k.aef_snr_cdf_kernel(
            p.alpha, p.mu, p.ms, self.geometry.h, self._hsq, self._ln_lam,
            float(gamma), ctrl.rel_tol, ctrl.abs_tol, ctrl.max_terms,
        )
        return cdf_clamped(raw, terms, est, status == STATUS_OK)

    def cdf_truncation_bound(self, gamma: float, k0: int) -> float:
        """Upper bound on the CDF-series remainder after its first k0 terms
        (series indices k = 0 .. k0 - 1 kept)."""
        if not gamma >= 0.0:
            raise DomainError(f"gamma must be non-negative, got {gamma}")
        if k0 < 1 or k0 != int(k0):
            raise DomainError(f"k0 must be an integer >= 1, got {k0}")
        if gamma == 0.0:
            return 0.0
        ctrl = default_control()
        p = self.params
        value, status = _k.aef_cdf_bound_kernel(
            p.alpha, p.mu, p.ms, self.geometry.h, self._hsq, self._ln_lam,
            float(gamma), int(k0), ctrl.rel_tol, ctrl.abs_tol, ctrl.max_terms,
        )
        if status == STATUS_DIVERGED:
            raise ConvergenceError(
                "cdf_truncation_bound: the bounding series diverges here "
                "(its hypergeometric argument reaches 1); tighten gamma or "
                "use the direct series remainder"
            )
        if status != STATUS_OK:
            raise ConvergenceError("cdf_truncation_bound: series did not converge")
        return value


@dataclass(frozen=True)
class AefEnvelope:
    """alpha-eta-F signal envelope with mean power omega_power = E[R^2].

    R^2 follows the SNR law at gamma_bar = omega_power, so the envelope
    density is 2r f(r^2) of that AefDist.
    """

    params: AefParams
    omega_power: float
    geometry: Geometry = field(init=False, repr=False)
    upsilon: float = field(init=False, repr=False)
    _snr: AefDist = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not (self.omega_power > 0.0 and math.isfinite(self.omega_power)):
            raise DomainError(f"omega_power must be positive, got {self.omega_power}")
        snr = AefDist(self.params, self.omega_power)
        object.__setattr__(self, "_snr", snr)
        object.__setattr__(self, "geometry", snr.geometry)
        object.__setattr__(self, "upsilon", snr.upsilon)

    def envelope_pdf(self, r: float, ctrl: SeriesControl | None = None) -> float:
        """Density of the signal envelope at r >= 0; ctrl acts as in
        AefDist.snr_pdf."""
        if not r >= 0.0:
            raise DomainError(f"r must be non-negative, got {r}")
        d = self._snr
        if r == 0.0:
            ln_a, q = d._head()
            return _k.pdf_at_zero(ln_a, 2.0 * q)
        if r == math.inf:
            return 0.0
        if ctrl is None:
            ctrl = default_control()
        ln_r = math.log(r)
        value, status = _k.aef_snr_pdf_kernel(
            d._pdf_consts, d._hsq, 2.0 * ln_r,
            ctrl.rel_tol, ctrl.abs_tol, ctrl.max_terms, _k.LN2 + ln_r,
        )
        return density_value("envelope_pdf", value, status)
