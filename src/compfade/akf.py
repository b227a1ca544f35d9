"""Analytical densities of the alpha-kappa-F composite fading distribution.

AkfDist models the instantaneous SNR with mean gamma_bar: snr_pdf, snr_cdf
(a Poisson-weighted mixture of regularized incomplete betas, an exact
reformulation of the integrated PDF series; also named snr_cdf_series), and
snr_cdf_closed: the paper's two-term Humbert Psi1 form on the
large-argument side and snr_cdf below it, where the paper's Kampe de
Feriet form is the same sum, term for term. AkfEnvelope models the signal
envelope R with mean power omega_power = E[R^2]. Both use the front ends
of series.Law and series.Envelope; this module supplies the density
kernels, the density and CDF constants and the CDF head.

Every kappa >= 0 takes the same forms, with no cutoff near 0: kappa = 0
is the alpha-F distribution. Both CDF routes raise ConvergenceError
past mu kappa = 690.8, where e^(-mu kappa) is below the stop tests' floor.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels as _k
from .params import AkfParams
from .series import (
    STATUS_OK,
    ConvergenceError,
    DomainError,
    Envelope,
    Law,
    SeriesControl,
    SeriesResult,
    cdf_clamped,
    cdf_endpoint,
    default_control,
)

__all__ = ["AkfDist", "AkfEnvelope"]

# relative half-width of the guard band around the closed-form case boundary
# X1 = 1: as X1 falls to 1 the Humbert argument -1/X1 approaches magnitude 1
# and the double series converges arbitrarily slowly, so the Humbert form is
# taken only above X1 = 1 + CLOSED_FORM_GUARD and the mixture series below
CLOSED_FORM_GUARD = 0.05


@dataclass(frozen=True)
class AkfDist(Law):
    """alpha-kappa-F instantaneous-SNR distribution with mean SNR gamma_bar."""

    _params_type = AkfParams
    _pdf_kernel = staticmethod(_k.akf_snr_pdf_kernel)
    _pdf_form = staticmethod(_k._akf_scipy_form)
    omega_norm = property(lambda self: self.params._unit.norm)
    # ln X1, the odds of the CDF mixture
    _ln_x1 = Law._ln_y
    # bound here, not only inherited: perfbench's tracer wraps the class's own __dict__
    snr_pdf = Law.snr_pdf
    snr_cdf = snr_cdf_series = Law.snr_cdf

    def snr_cdf_closed(
        self, gamma: float, ctrl: SeriesControl | None = None
    ) -> SeriesResult:
        """CDF via the closed forms, dispatched on X1 = mu(1+kappa)gamma^(alpha/2)
        / ((ms-1) omega gamma_bar^(alpha/2)).

        Above X1 = 1 + CLOSED_FORM_GUARD it is the two-term Humbert Psi1
        form, elsewhere snr_cdf's result. The paper's Kampe de Feriet form
        for X1 < 1 is that mixture term for term: its row m, 2F1(mu+ms+m,
        mu+m; mu+1+m; -X1), times the CDF head is e^(-mu kappa)
        (mu kappa)^m/m! I_w(mu+m, ms) at w = X1/(1+X1).

        The Humbert form's first term, e^(-mu kappa) Psi1(mu; 0; 1-ms, mu;
        -1/X1, mu kappa) = e^(-mu kappa) 1F1(mu; mu; mu kappa), is exactly 1
        and is not summed: there terms_used and est_error are those of the
        second term's Psi1 alone.

        The closed forms take one point per call: an np.ndarray gamma raises
        DomainError (snr_cdf takes arrays). Past mu kappa = 690.8 it raises
        ConvergenceError on both sides, as the mixture it is below the band
        does.
        """
        self._require_first_weight("snr_cdf_closed")
        if isinstance(gamma, np.ndarray):
            raise DomainError("snr_cdf_closed takes one point per call, got an array")
        end = cdf_endpoint(gamma)
        if end is not None:
            return end
        ln_x1 = self._ln_x1(gamma)
        if not ln_x1 > math.log1p(CLOSED_FORM_GUARD):
            return self.snr_cdf(gamma, ctrl)
        if ctrl is None:
            ctrl = default_control()
        p = self.params
        mk = p.mu * p.kappa
        ln2, s2, t2, e2, st2 = _k.humbert_psi1_ln(
            p.mu + p.ms, p.ms, 1.0 + p.ms, p.mu, -math.exp(-ln_x1), mk,
            ctrl.rel_tol, ctrl.max_terms,
        )
        if st2 == 2:
            raise ConvergenceError("snr_cdf_closed: Humbert series diverged")
        ln_c2 = -mk - math.log(p.ms) - _k._lbeta(p.mu, p.ms) - p.ms * ln_x1
        term2 = s2 * math.exp(ln_c2 + ln2)
        return cdf_clamped(1.0 - term2, t2, e2 * abs(term2), st2 == STATUS_OK)


@dataclass(frozen=True)
class AkfEnvelope(Envelope):
    """alpha-kappa-F signal envelope with mean power omega_power = E[R^2]."""

    _law = AkfDist
    # bound here, not only inherited: perfbench's tracer wraps the class's own __dict__
    envelope_pdf = Envelope.envelope_pdf
    omega_norm = AkfDist.omega_norm
