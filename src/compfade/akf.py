"""Analytical densities of the alpha-kappa-F composite fading distribution.

AkfDist models the instantaneous SNR with mean gamma_bar: snr_pdf, snr_cdf
(a Poisson-weighted mixture of regularized incomplete betas, an exact
reformulation of the integrated PDF series; also named snr_cdf_series), and
snr_cdf_closed, which dispatches between two closed forms: a Kampe de
Feriet expression on the small-argument side and a two-term Humbert Psi1
expression on the large-argument side. AkfEnvelope models the signal
envelope R with mean power omega_power = E[R^2]. Both use the front ends
of series.Law and series.Envelope; this module supplies the density
kernels, the density and CDF constants and the CDF head.

Every kappa >= 0 takes the same forms, with no cutoff near 0: kappa = 0
is the alpha-F distribution. Both CDF routes raise ConvergenceError
past mu kappa = 690.8, where e^(-mu kappa) is below the stop tests' floor.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels as _k
from . import params as _params
from .series import (
    STATUS_OK,
    ConvergenceError,
    DomainError,
    Envelope,
    Law,
    SeriesControl,
    SeriesResult,
    _freeze,
    cdf_clamped,
    cdf_endpoint,
    default_control,
)

__all__ = ["AkfDist", "AkfEnvelope"]

# relative half-width of the guard band around the closed-form case boundary
# X1 = 1: inside it the Humbert/Kampe arguments approach magnitude 1 and the
# double series converge arbitrarily slowly, so the mixture series is used
CLOSED_FORM_GUARD = 0.05


@dataclass(frozen=True)
class AkfDist(Law):
    """alpha-kappa-F instantaneous-SNR distribution with mean SNR gamma_bar."""

    omega_norm: float = field(init=False, repr=False)

    _pdf_kernel = staticmethod(_k.akf_snr_pdf_kernel)
    _pdf_form = staticmethod(_k._akf_scipy_form)
    # ln X1, the odds of the CDF mixture
    _ln_x1 = Law._ln_y
    # bound here, not only inherited: perfbench's tracer wraps the class's own __dict__
    snr_pdf = Law.snr_pdf
    snr_cdf = snr_cdf_series = Law.snr_cdf

    def __post_init__(self) -> None:
        super().__post_init__()
        p = self.params
        om = _params.omega(p)
        ln_lam = self._ln_lambda(om)
        # the CDF head A x^p, p = alpha mu / 2
        ln_a = (
            (p.mu - 1.0) * math.log(p.mu)
            - p.mu * p.kappa
            + p.mu * math.log1p(p.kappa)
            - _k._lbeta(p.mu, p.ms)
            - p.mu * ln_lam
        )
        _freeze(
            self, omega_norm=om, _ln_lam=ln_lam, _head=(ln_a, 0.5 * p.alpha * p.mu),
            _pdf_consts=_k.akf_pdf_consts(p.alpha, p.mu, p.ms, p.kappa, ln_lam, ln_a),
            _cdf_consts=_k.akf_cdf_consts(p.alpha, p.mu, p.ms, p.kappa, ln_lam),
        )

    def snr_cdf_closed(
        self, gamma: float, ctrl: SeriesControl | None = None
    ) -> SeriesResult:
        """CDF via the closed forms, dispatched on X1 = mu(1+kappa)gamma^(alpha/2)
        / ((ms-1) omega gamma_bar^(alpha/2)).

        X1 < 1 uses the Kampe de Feriet form, X1 > 1 the two-term Humbert Psi1
        form; within the +-5% guard band around X1 = 1 both double series
        degrade, so the mixture series is evaluated instead.

        The Humbert form's first term, e^(-mu kappa) Psi1(mu; 0; 1-ms, mu;
        -1/X1, mu kappa) = e^(-mu kappa) 1F1(mu; mu; mu kappa), is exactly 1
        and is not summed: there terms_used and est_error are those of the
        second term's Psi1 alone.

        The closed forms take one point per call: an np.ndarray gamma raises
        DomainError (snr_cdf takes arrays). Past mu kappa = 690.8 it raises
        ConvergenceError as snr_cdf does: the Kampe de Feriet form was
        1.6e-8 off at mu kappa = 700 and 0.4 off at 800.
        """
        self._require_first_weight("snr_cdf_closed")
        if isinstance(gamma, np.ndarray):
            raise DomainError("snr_cdf_closed takes one point per call, got an array")
        end = cdf_endpoint(gamma)
        if end is not None:
            return end
        if ctrl is None:
            ctrl = default_control()
        p = self.params
        ln_x1 = self._ln_x1(gamma)
        mk = p.mu * p.kappa
        if ln_x1 < math.log1p(-CLOSED_FORM_GUARD):
            x1 = math.exp(ln_x1)
            ln_f, sgn, terms, est_rel, status = _k.kdf_2_1_ln(
                p.mu + p.ms, p.mu, p.mu + 1.0, p.mu, mk * x1, -x1,
                ctrl.rel_tol, ctrl.max_terms,
            )
            if status == 2:
                raise ConvergenceError("snr_cdf_closed: Kampe de Feriet series diverged")
            # led by the CDF head A gamma^p = e^(-mu kappa) X1^mu / (mu B(mu, ms))
            ln_a, power = self._head
            raw = sgn * math.exp(ln_a + power * math.log(gamma) + ln_f)
            return cdf_clamped(raw, terms, est_rel * abs(raw), status == STATUS_OK)
        if ln_x1 > math.log1p(CLOSED_FORM_GUARD):
            ln2, s2, t2, e2, st2 = _k.humbert_psi1_ln(
                p.mu + p.ms, p.ms, 1.0 + p.ms, p.mu, -math.exp(-ln_x1), mk,
                ctrl.rel_tol, ctrl.max_terms,
            )
            if st2 == 2:
                raise ConvergenceError("snr_cdf_closed: Humbert series diverged")
            ln_c2 = -mk - math.log(p.ms) - _k._lbeta(p.mu, p.ms) - p.ms * ln_x1
            term2 = s2 * math.exp(ln_c2 + ln2)
            return cdf_clamped(1.0 - term2, t2, e2 * abs(term2), st2 == STATUS_OK)
        return self.snr_cdf(gamma, ctrl)


@dataclass(frozen=True)
class AkfEnvelope(Envelope):
    """alpha-kappa-F signal envelope with mean power omega_power = E[R^2]."""

    _law = AkfDist
    # bound here, not only inherited: perfbench's tracer wraps the class's own __dict__
    envelope_pdf = Envelope.envelope_pdf

    @property
    def omega_norm(self) -> float:
        return self._snr.omega_norm
