"""Analytical densities of the alpha-eta-F composite fading distribution.

AefDist models the instantaneous SNR with mean gamma_bar: snr_pdf, the
snr_cdf series with controllable truncation, and a closed-form upper bound
on the CDF truncation error. AefEnvelope models the signal envelope R with
mean power omega_power = E[R^2]. Both use the front ends of series.Law and
series.Envelope; this module supplies the density kernels, the density
and CDF constants and the CDF head. The CDF is a mixture of regularized
incomplete betas with negative binomial weights, an exact reformulation
of the integrated PDF series that converges for arbitrarily large arguments.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import _kernels as _k
from . import params as _params
from .params import Geometry
from .series import (
    STATUS_DIVERGED,
    STATUS_OK,
    ConvergenceError,
    DomainError,
    Envelope,
    Law,
    _freeze,
    default_control,
)

__all__ = ["AefDist", "AefEnvelope"]


@dataclass(frozen=True)
class AefDist(Law):
    """alpha-eta-F instantaneous-SNR distribution with mean SNR gamma_bar."""

    geometry: Geometry = field(init=False, repr=False)
    upsilon: float = field(init=False, repr=False)

    _pdf_kernel = staticmethod(_k.aef_snr_pdf_kernel)
    _pdf_form = staticmethod(_k._aef_scipy_form)
    # bound here, not only inherited: perfbench's tracer wraps the class's own __dict__
    snr_pdf = Law.snr_pdf
    snr_cdf = Law.snr_cdf

    def __post_init__(self) -> None:
        super().__post_init__()
        p = self.params
        geo = _params.geometry(p)
        ups = _params.upsilon(p)
        ln_lam = self._ln_lambda(ups)
        # the CDF head A x^p, p = alpha mu
        ln_a = (
            (2.0 * p.mu - 1.0) * math.log(2.0 * p.mu)
            + p.mu * math.log(geo.h)
            - _k._lbeta(2.0 * p.mu, p.ms)
            - 2.0 * p.mu * ln_lam
        )
        _freeze(
            self, geometry=geo, upsilon=ups, _ln_lam=ln_lam,
            _head=(ln_a, float(p.alpha * p.mu)),
            _pdf_consts=_k.aef_pdf_consts(p.alpha, p.mu, p.ms, geo.h, ln_lam, ln_a),
            _cdf_consts=_k.aef_cdf_consts(p.alpha, p.mu, p.ms, geo.h, geo.H * geo.H,
                                          ln_lam),
        )

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
        value, status = _k.aef_cdf_bound_kernel(
            self._cdf_consts, self._head[0], float(gamma), int(k0), ctrl.rel_tol,
            ctrl.max_terms,
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
class AefEnvelope(Envelope):
    """alpha-eta-F signal envelope with mean power omega_power = E[R^2]."""

    _law = AefDist
    # bound here, not only inherited: perfbench's tracer wraps the class's own __dict__
    envelope_pdf = Envelope.envelope_pdf

    @property
    def geometry(self) -> Geometry:
        return self._snr.geometry

    @property
    def upsilon(self) -> float:
        return self._snr.upsilon
