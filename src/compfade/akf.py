"""Analytical densities of the alpha-kappa-F composite fading distribution.

AkfDist models the instantaneous SNR with mean gamma_bar: snr_pdf and
snr_cdf, a Poisson-weighted mixture of regularized incomplete betas, an
exact reformulation of the integrated PDF series, also named
snr_cdf_series and snr_cdf_closed, and cdf_truncation_bound, an upper
bound on its remainder after k0 terms from the Poisson tail mass
(series.Law). The paper's two closed forms re-sum
that mixture: below X1 = 1 the Kampe de Feriet form's row m times the CDF
head is the mixture's term m, e^(-mu kappa) (mu kappa)^m/m! I_w(mu+m, ms)
at w = X1/(1+X1); above it 1 minus the Humbert Psi1 term is the mixture
row for row, since the term's row n with its prefactor is e^(-mu kappa)
(mu kappa)^n/n! I_(1-w)(ms, mu+n). So the closed CDF is the mixture on
both sides, one evaluation path; validation keeps the Humbert form as a
reference. AkfEnvelope models the signal envelope R with mean power
omega_power = E[R^2]. Both use the front ends of series.Law and
series.Envelope; this module supplies the density kernels, the density
and CDF constants and the CDF head.

Every kappa >= 0 takes the same forms, with no cutoff near 0: kappa = 0
is the alpha-F distribution. The CDF raises ConvergenceError past mu
kappa = 690.8, where e^(-mu kappa) is below the stop tests' floor.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import _kernels as _k
from .params import AkfParams
from .series import Envelope, Law

__all__ = ["AkfDist", "AkfEnvelope"]

# relative half-width of the guard band around the paper's closed-form case
# boundary X1 = 1: as X1 falls to 1 the Humbert argument -1/X1 approaches
# magnitude 1 and its double series converges arbitrarily slowly, so the
# Humbert form (validation's reference) is evaluated only above
# X1 = 1 + CLOSED_FORM_GUARD
CLOSED_FORM_GUARD = 0.05


@dataclass(frozen=True)
class AkfDist(Law):
    """alpha-kappa-F instantaneous-SNR distribution with mean SNR gamma_bar."""

    _params_type = AkfParams
    _pdf_kernel = staticmethod(_k.akf_snr_pdf_kernel)
    _pdf_form = staticmethod(_k._akf_scipy_form)
    _tail_mass = staticmethod(_k.poisson_tail_mass)
    omega_norm = property(lambda self: self.params._unit.norm)
    # ln X1, the odds of the CDF mixture
    _ln_x1 = Law._ln_y
    # bound here, not only inherited: perfbench's tracer wraps the class's own __dict__.
    # Both of the paper's closed forms re-sum the mixture (module docstring),
    # so snr_cdf_closed is snr_cdf on either side of X1 = 1.
    snr_pdf = Law.snr_pdf
    snr_cdf = snr_cdf_series = snr_cdf_closed = Law.snr_cdf
    cdf_truncation_bound = Law.cdf_truncation_bound


@dataclass(frozen=True)
class AkfEnvelope(Envelope):
    """alpha-kappa-F signal envelope with mean power omega_power = E[R^2]."""

    _law = AkfDist
    # bound here, not only inherited: perfbench's tracer wraps the class's own __dict__
    envelope_pdf = Envelope.envelope_pdf
    omega_norm = AkfDist.omega_norm
