"""Analytical densities of the alpha-eta-F composite fading distribution.

AefDist models the instantaneous SNR with mean gamma_bar: snr_pdf, the
snr_cdf series with controllable truncation, and cdf_truncation_bound, an
upper bound on its remainder after k0 terms from the tail mass of the
negative binomial weights (series.Law; the paper's closed-form bound is
validation's reference). AefEnvelope models the signal envelope R with
mean power omega_power = E[R^2]. Both use the front ends of series.Law and
series.Envelope; this module supplies the density kernels, the density
and CDF constants and the CDF head. The CDF is a mixture of regularized
incomplete betas with negative binomial weights, an exact reformulation
of the integrated PDF series that converges for arbitrarily large arguments.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import _kernels as _k
from .params import AefParams
from .series import Envelope, Law

__all__ = ["AefDist", "AefEnvelope"]


@dataclass(frozen=True)
class AefDist(Law):
    """alpha-eta-F instantaneous-SNR distribution with mean SNR gamma_bar."""

    _params_type = AefParams
    _pdf_kernel = staticmethod(_k.aef_snr_pdf_kernel)
    _pdf_form = staticmethod(_k._aef_scipy_form)
    _tail_mass = staticmethod(_k.nb_tail_mass)
    geometry = property(lambda self: self.params._unit.geometry)
    upsilon = property(lambda self: self.params._unit.norm)
    # bound here, not only inherited: perfbench's tracer wraps the class's own __dict__
    snr_pdf = Law.snr_pdf
    snr_cdf = Law.snr_cdf
    cdf_truncation_bound = Law.cdf_truncation_bound


@dataclass(frozen=True)
class AefEnvelope(Envelope):
    """alpha-eta-F signal envelope with mean power omega_power = E[R^2]."""

    _law = AefDist
    # bound here, not only inherited: perfbench's tracer wraps the class's own __dict__
    envelope_pdf = Envelope.envelope_pdf
    geometry, upsilon = AefDist.geometry, AefDist.upsilon
