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
from dataclasses import dataclass

from . import _kernels as _k
from .params import AefParams
from .series import (
    STATUS_DIVERGED,
    STATUS_OK,
    ConvergenceError,
    DomainError,
    Envelope,
    Law,
    default_control,
)

__all__ = ["AefDist", "AefEnvelope"]


@dataclass(frozen=True)
class AefDist(Law):
    """alpha-eta-F instantaneous-SNR distribution with mean SNR gamma_bar."""

    _params_type = AefParams
    _pdf_kernel = staticmethod(_k.aef_snr_pdf_kernel)
    _pdf_form = staticmethod(_k._aef_scipy_form)
    geometry = property(lambda self: self.params._unit.geometry)
    upsilon = property(lambda self: self.params._unit.norm)
    # bound here, not only inherited: perfbench's tracer wraps the class's own __dict__
    snr_pdf = Law.snr_pdf
    snr_cdf = Law.snr_cdf

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
            self._cdf_consts, self.params._unit.head[0], math.log(gamma) - self._ln_gb,
            int(k0), ctrl.rel_tol, ctrl.max_terms,
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
    geometry, upsilon = AefDist.geometry, AefDist.upsilon
