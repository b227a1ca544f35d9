"""Independent extended-precision references used to freeze test constants.

Everything here is evaluated with mpmath at 60 significant digits (the
closed-form densities at 40, plus the digits their terms of size ms ln ms
cancel) and is deliberately written against the defining series or closed
form of each function rather than the production kernels, so the two
routes share no code. The Psi1 and Kampe de Feriet
oracles are those of compfade._oracles, which the validation battery uses
too. The helpers
are slow; tests call them for a handful of spot checks and otherwise rely
on constants frozen from these same routines.
"""

import math

import mpmath as mp

from compfade._oracles import (  # noqa: F401  the oracles are re-exported for the tests
    _STOP,
    _TINY,
    mp_humbert_psi1,
    mp_kdf_2_1,
)
from compfade._oracles import mp_setup as _setup

DENSITY_DPS = 40


def ln_lambda(d):
    """ln Lambda = ln((ms - 1) norm gamma_bar^(alpha/2)) of a law d, from its
    public normalizer (upsilon or omega_norm) and gamma_bar."""
    p = d.params
    norm = d.upsilon if hasattr(d, "upsilon") else d.omega_norm
    return math.log(p.ms - 1.0) + math.log(norm) + 0.5 * p.alpha * math.log(d.gamma_bar)


def _density_dps(ms):
    """DENSITY_DPS digits plus those the closed-form densities lose where
    their terms of size ms ln Lambda and ln Gamma(ms) cancel."""
    return DENSITY_DPS + int(math.log10(ms)) + 4


def _mp_beta_mixture(ln_odds, a0, da, b, ln_weights, terms, start=0):
    """Sum of weight_k * I_w(a0 + k da, b) over k >= start, with w =
    e^ln_odds / (1 + e^ln_odds) and ln_weights yielding ln weight_k > 0
    from k = 0.

    terms=None sums until the weights times the betas stop mattering at
    this precision, testing that only from the mode of the weights on (the
    first k whose weight is below the one before): the leading weights of
    a large mu kappa are far below any floor. An integer sums exactly the
    terms before k = `terms`.
    """
    _setup()
    odds = mp.exp(mp.mpf(ln_odds))
    w = odds / (1 + odds)
    s = mp.mpf(0)
    small = 0
    ln_prev, past_mode = None, False
    for k, ln_wk in enumerate(ln_weights):
        if terms is not None and k >= terms:
            break
        past_mode = past_mode or (ln_prev is not None and ln_wk < ln_prev)
        ln_prev = ln_wk
        if k < start:
            continue
        term = mp.exp(ln_wk) * mp.betainc(a0 + k * da, b, 0, w, regularized=True)
        s += term
        if terms is None and past_mode:
            if term <= _STOP * max(s, _TINY):
                small += 1
                if small >= 3:
                    break
            else:
                small = 0
    return s


def mp_kernel_mixture(ln_y, a, step, b, ln_w0, ln_z, r, d, ln_a, lb, terms, start=0):
    """The terms k = start .. terms - 1 of _kernels._beta_mixture's sum (with
    terms=None, every term from start on: the remainder after `start`
    terms, summed), from its own arguments taken as exact: weights w_0 =
    e^ln_w0, w_(k+1) = w_k e^ln_z (r + d k)/(k + 1), betas I_w(a +
    step k, b). ln_a and lb, the kernel's ln a and ln B(a, b), are not used:
    each I_w comes from mpmath."""
    _setup()

    def weights():
        ln_wk, k = mp.mpf(ln_w0), 0
        while True:
            yield ln_wk
            ln_wk += mp.mpf(ln_z) + mp.log((mp.mpf(r) + d * k) / (k + 1))
            k += 1

    return _mp_beta_mixture(ln_y, mp.mpf(a), step, mp.mpf(b), weights(), terms, start)


def mp_akf_cdf(mu, ms, kappa, ln_x1, terms=None):
    """alpha-kappa-F CDF as its Poisson mixture
    sum_t e^(-mu kappa) (mu kappa)^t / t! I_w(mu + t, ms), w = X1 / (1 + X1),
    at ln X1 = ln_x1."""
    _setup()
    mk = mp.mpf(mu) * mp.mpf(kappa)

    def weights():
        ln_wt, t = -mk, 0
        while True:
            yield ln_wt
            t += 1
            ln_wt += mp.log(mk / t)

    return _mp_beta_mixture(ln_x1, mp.mpf(mu), 1, mp.mpf(ms), weights(), terms)


def mp_aef_cdf(mu, ms, h, ln_y, terms=None):
    """alpha-eta-F CDF as its negative-binomial mixture
    sum_k h^(-mu) (mu)_k / k! (H^2/h^2)^k I_w(2mu + 2k, ms), w = y / (1 + y),
    at ln y = ln_y, with H^2/h^2 = 1 - 1/h (h^2 - H^2 = h in both geometry
    formats) from the double h."""
    _setup()
    mu, h = mp.mpf(mu), mp.mpf(h)
    ln_q = mp.log(1 - 1 / h)

    def weights():
        ln_wk, k = -mu * mp.log(h), 0
        while True:
            yield ln_wk
            ln_wk += mp.log((mu + k) / (k + 1)) + ln_q
            k += 1

    return _mp_beta_mixture(ln_y, 2 * mu, 2, mp.mpf(ms), weights(), terms)


def mp_aef_pdf(alpha, mu, ms, h, ln_lam, gamma):
    """alpha-eta-F SNR density in closed form,
    alpha 2^(2mu-1) mu^(2mu) h^mu Lambda^ms g^(alpha mu - 1)
    / (B(2mu, ms) D^(2mu + ms)) 2F1(mu + ms/2, mu + (ms+1)/2; mu + 1/2; z)
    with D = 2 mu h g^(alpha/2) + Lambda and z = H^2 (2 mu g^(alpha/2) / D)^2,
    at ln Lambda = ln_lam and the double h the density kernel is given,
    so only the kernel's own arithmetic is measured. H^2 is taken as
    h^2 - h, exact in both geometry formats, and not from the rounded
    double H^2, whose rounding would show as that of 1 - z = 1/h at strong
    imbalance. gamma may be an mpf (an envelope point r^2)."""
    with mp.workdps(_density_dps(ms)):
        alpha, mu, ms, h, ln_lam = (mp.mpf(v) for v in (alpha, mu, ms, h, ln_lam))
        g = mp.mpf(gamma)
        ge = g ** (alpha / 2)
        den = 2 * mu * h * ge + mp.exp(ln_lam)
        z = (h * h - h) * (2 * mu * ge / den) ** 2
        ln_pdf = (mp.log(alpha) + (2 * mu - 1) * mp.log(2) + 2 * mu * mp.log(mu)
                  + mu * mp.log(h) + ms * ln_lam + (alpha * mu - 1) * mp.log(g)
                  - _mp_lbeta(2 * mu, ms) - (2 * mu + ms) * mp.log(den))
        f = mp.hyp2f1(mu + ms / 2, mu + (ms + 1) / 2, mu + mp.mpf(1) / 2, z, maxterms=10**6)
        return +(mp.exp(ln_pdf) * f)


def mp_akf_pdf(alpha, mu, ms, kappa, ln_lam, gamma):
    """alpha-kappa-F SNR density in closed form,
    alpha mu^mu (1+kappa)^mu Lambda^ms e^(-mu kappa) g^(alpha mu/2 - 1)
    / (2 B(mu, ms) D^(mu + ms)) 1F1(mu + ms; mu; x)
    with D = mu (1+kappa) g^(alpha/2) + Lambda and
    x = mu kappa mu (1+kappa) g^(alpha/2) / D, at ln Lambda = ln_lam (the
    double the density kernel is given). gamma may be an mpf."""
    with mp.workdps(_density_dps(ms)):
        alpha, mu, ms, kappa, ln_lam = (mp.mpf(v) for v in (alpha, mu, ms, kappa, ln_lam))
        g = mp.mpf(gamma)
        ge = mu * (1 + kappa) * g ** (alpha / 2)
        den = ge + mp.exp(ln_lam)
        ln_pdf = (mp.log(alpha) + mu * mp.log(mu) + mu * mp.log1p(kappa) + ms * ln_lam
                  - mu * kappa - mp.log(2) - _mp_lbeta(mu, ms)
                  + (alpha * mu / 2 - 1) * mp.log(g) - (mu + ms) * mp.log(den))
        f = mp.hyp1f1(mu + ms, mu, mu * kappa * ge / den, maxterms=10**6)
        return +(mp.exp(ln_pdf) * f)


def _mp_lbeta(a, b):
    return mp.loggamma(a) + mp.loggamma(b) - mp.loggamma(a + b)
