"""The normalizers in closed form, and what they feed at the edges.

upsilon and omega are each one scipy.special call: Euler's form of the
geometry 2F1 with the exact 1 - (H/h)^2 = 1/h, and Kummer's form of the
1F1, so neither h nor e^(mu kappa) is left to overflow. The checks here:
both against 50-digit mpmath over a sweep of strong imbalance and large
kappa; their refusal at huge alpha, and where _lbeta's lgamma
difference loses the digits; the alpha-eta-F density at its eta -> 0
limit, out to eta = 1e-300 and 1e300; the alpha-kappa-F CDFs against scipy's noncentral F up to
the first-weight floor, and their refusal past it; and the Monte-Carlo
moments, which take the same two closed forms.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sc

from compfade import (
    AefDist,
    AefEnvelope,
    AefParams,
    AkfDist,
    AkfParams,
    ConvergenceError,
    Format,
    convert_format,
    make_phys,
    omega,
    upsilon,
)
from compfade.mc import envelope_alpha_mean, envelope_sq_mean
from compfade.validation import CDF_CLOSED_TOL, CDF_QUAD_TOL
from conftest import rel_err
from oracles import mp_akf_cdf, mp_akf_pdf

MP_DPS = 50
ALPHAS = (0.7, 1.0, 2.5, 3.5, 6.0)
MUS = (0.3, 0.5, 1.2, 3.0)
ETAS_I = (5.0, 0.5, 1e-2, 1e-4, 1e-6, 1e-9, 1e-12)
ETAS_II = (0.999999, -0.999999, -0.9, 0.3, 0.99)
KAPPAS = (0.0, 1e-12, 0.1, 1.5, 30.0, 100.0, 500.0, 1e3, 1e4, 1e5)
UPSILON_TOL = 2e-12
OMEGA_TOL = 1e-13
# ConvergenceError past this mu kappa: e^(-mu kappa) is below 1e-300
MK_FLOOR = -math.log(1e-300)
# the series density route, as in test_density_route
SERIES_ROUTE_TOL = 2e-11


def _aef_sweep():
    return ([(eta, Format.FORMAT_I) for eta in ETAS_I]
            + [(eta, Format.FORMAT_II) for eta in ETAS_II])


def mp_upsilon(p):
    """upsilon from its definition, with the geometry 2F1 of (H/h)^2 summed
    at MP_DPS digits from the exact eta."""
    with mp.workdps(MP_DPS):
        eta = mp.mpf(p.eta)
        if p.format is Format.FORMAT_I:
            h, H = (2 + 1 / eta + eta) / 4, (1 / eta - eta) / 4
        else:
            h, H = 1 / (1 - eta * eta), eta / (1 - eta * eta)
        alpha, mu, ms = mp.mpf(p.alpha), mp.mpf(p.mu), mp.mpf(p.ms)
        q = 2 / alpha
        f = mp.hyp2f1(mu + q / 2, mu + q / 2 + mp.mpf(1) / 2, mu + mp.mpf(1) / 2, (H / h) ** 2)
        bracket = mp.beta(2 * mu, ms) * h**mu / (mp.beta(2 * mu + q, ms - q) * f)
        return 2 * mu * h / (ms - 1) * bracket ** (alpha / 2)


def mp_omega(p):
    """omega from its definition, 1F1(mu + q; mu; mu kappa) at MP_DPS digits."""
    with mp.workdps(MP_DPS):
        alpha, mu, ms, kappa = (mp.mpf(v) for v in (p.alpha, p.mu, p.ms, p.kappa))
        q = 2 / alpha
        bracket = (mp.beta(mu, ms) * mp.exp(mu * kappa)
                   / (mp.beta(mu + q, ms - q) * mp.hyp1f1(mu + q, mu, mu * kappa)))
        return mu * (1 + kappa) / (ms - 1) * bracket ** (alpha / 2)


def _rel(got, want):
    with mp.workdps(MP_DPS):
        return float(abs(mp.mpf(got) / want - 1))


@pytest.mark.parametrize("alpha", ALPHAS)
def test_upsilon_matches_mpmath_on_the_sweep(alpha):
    # the power series was 2.2e-4 off at eta = 1e-12 (alpha = 6, mu = 3)
    worst = max(_rel(upsilon(p), mp_upsilon(p))
                for mu in MUS for eta, fmt in _aef_sweep()
                for p in [AefParams(alpha=alpha, eta=eta, mu=mu, ms=4.0, format=fmt)])
    assert worst <= UPSILON_TOL


@pytest.mark.parametrize("alpha", ALPHAS)
def test_omega_matches_mpmath_on_the_sweep(alpha):
    # the power series carried e^(mu kappa) and raised from mu kappa = 700
    worst = max(_rel(omega(p), mp_omega(p))
                for mu in MUS for kappa in KAPPAS
                for p in [AkfParams(alpha=alpha, kappa=kappa, mu=mu, ms=4.0)])
    assert worst <= OMEGA_TOL


@pytest.mark.parametrize("ms", [1.5, 4.0, 40.0])
def test_normalizers_are_one_at_alpha_two(ms):
    # both hypergeometric factors terminate at alpha = 2 (2F1 = 1, 1F1 =
    # 1 + kappa), and the Beta ratio is (ms - 1)/(2 mu) or (ms - 1)/mu: the
    # constants are 1 up to the rounding of ln B (measured 8e-15 at ms = 40,
    # where lgamma(40) = 106)
    for mu in MUS:
        for eta, fmt in _aef_sweep():
            p = AefParams(alpha=2.0, eta=eta, mu=mu, ms=ms, format=fmt)
            assert abs(upsilon(p) - 1.0) <= 1e-13
        for kappa in KAPPAS:
            assert abs(omega(AkfParams(alpha=2.0, kappa=kappa, mu=mu, ms=ms)) - 1.0) <= 1e-13


@pytest.mark.parametrize("alpha", [1e3, 1e6, 1e10, 1e15, 1e300])
def test_huge_alpha_is_accurate_or_raises(alpha):
    # the bracket's log is a difference of order 2/alpha, amplified by
    # alpha/2: the normalizers refuse once that passes 1e-10
    for mu in MUS:
        cases = [(upsilon, mp_upsilon, AefParams(alpha=alpha, eta=eta, mu=mu, ms=4.0, format=fmt))
                 for eta, fmt in ((0.5, Format.FORMAT_I), (1e-6, Format.FORMAT_I),
                                  (-0.9, Format.FORMAT_II))]
        cases += [(omega, mp_omega, AkfParams(alpha=alpha, kappa=kappa, mu=mu, ms=4.0))
                  for kappa in (0.0, 0.5, 30.0, 1e3)]
        for norm, ref, p in cases:
            try:
                got = norm(p)
            except ConvergenceError:
                continue
            assert _rel(got, ref(p)) <= 1e-10, p


@given(alpha=st.floats(0.5, 8.0), mu=st.floats(0.1, 10.0), gap=st.floats(0.05, 20.0),
       log_eta=st.floats(-6.0, 6.0))
@settings(derandomize=True, max_examples=200, deadline=None)
def test_upsilon_is_unchanged_by_eta_inversion_and_format(alpha, mu, gap, log_eta):
    # eta <-> 1/eta flips the sign of H, and the two formats describe the
    # same geometry: (H/h)^2, the one input of the closed form besides the
    # shapes, is the same up to rounding
    ms = max(2.0 / alpha, 1.0) + gap
    eta = 10.0**log_eta
    base = upsilon(AefParams(alpha=alpha, eta=eta, mu=mu, ms=ms))
    inverted = upsilon(AefParams(alpha=alpha, eta=1.0 / eta, mu=mu, ms=ms))
    eta2 = convert_format(eta, Format.FORMAT_I)
    converted = upsilon(AefParams(alpha=alpha, eta=eta2, mu=mu, ms=ms, format=Format.FORMAT_II))
    assert rel_err(inverted, base) <= 1e-12
    assert rel_err(converted, base) <= 1e-12


@pytest.mark.parametrize("eta", [1e-7, 1e-8, 1e-9, 1e-10, 1e-11, 1e-12])
def test_density_tends_to_its_eta_zero_limit(eta):
    # as eta -> 0 one of the two gamma powers vanishes: the law tends to
    # the balanced one (eta = 1) with half the shape, at relative distance
    # O(eta) (measured 48 eta). The power series upsilon drifted 1.6e-4
    # away at eta = 1e-12
    g = np.array([0.01, 0.1, 1.0, 5.0, 50.0])
    limit = AefDist(AefParams(alpha=2.5, eta=1.0, mu=0.6, ms=4.0), 1.0)
    want = np.array([limit.snr_pdf(float(x)) for x in g])
    d = AefDist(AefParams(alpha=2.5, eta=eta, mu=1.2, ms=4.0), 1.0)
    scalar = np.array([d.snr_pdf(float(x)) for x in g])
    assert np.max(np.abs(scalar / want - 1.0)) <= 100.0 * eta
    assert np.max(np.abs(d.snr_pdf(g) / want - 1.0)) <= 100.0 * eta


@pytest.mark.parametrize("eta", [1e-155, 1e-300, 1e155, 1e300])
def test_density_at_extreme_eta_is_its_limit_law(eta):
    # H^2 and h^2 overflow from eta = 1e-155 (or 1e155, the same law):
    # the density takes q = (H/h)^2 = 1 - 1/h and 1/h instead, and is its
    # eta -> 0 limit up to the rounding of the log terms of size mu ln h
    # (measured 6.1e-13 at 1e-300). It raised ConvergenceError here
    g = np.array([0.01, 0.1, 1.0, 5.0, 50.0])
    p = AefParams(alpha=2.5, eta=eta, mu=1.2, ms=4.0)
    limit = AefParams(alpha=2.5, eta=1.0, mu=0.6, ms=4.0)
    d, env = AefDist(p, 1.0), AefEnvelope(p, 1.0)
    tol = 16.0 * 2.0**-52 * p.mu * math.log(d.geometry.h)
    for law, lim, call in ((d, AefDist(limit, 1.0), "snr_pdf"),
                           (env, AefEnvelope(limit, 1.0), "envelope_pdf")):
        want = getattr(lim, call)(g)
        scalar = np.array([getattr(law, call)(float(x)) for x in g])
        assert np.max(np.abs(scalar / want - 1.0)) <= tol
        assert np.max(np.abs(getattr(law, call)(g) / scalar - 1.0)) <= 1e-13


def test_lgamma_difference_loss_is_refused_or_within_tolerance():
    # _lbeta's lgamma difference at a = 0.3, b = 40 keeps eps (|lgamma a| +
    # |lgamma b| + |lgamma(a + b)|), some 5e-14; alpha/2 = 5e4 makes it
    # 7.3e-10 of omega, which was returned unrefused
    p = AkfParams(alpha=1e5, kappa=0.5, mu=0.3, ms=40.0)
    try:
        got = omega(p)
    except ConvergenceError:
        return
    assert _rel(got, mp_omega(p)) <= 1e-10


def _akf(mu, mk, ms=4.0):
    return AkfDist(AkfParams(alpha=2.5, kappa=mk / mu, mu=mu, ms=ms), 1.0)


@pytest.mark.parametrize("mu, mk", [(1.2, 700.0), (1.2, 1200.0), (3.0, 1e4), (0.3, 691.0)])
def test_akf_cdfs_refuse_past_the_first_weight_floor(mu, mk):
    # past mu kappa = 690.8 the first Poisson weight e^(-mu kappa) is below
    # the stop test's floor: the mixture returned 5.3e-308 for 1.6e-8, the
    # Kampe de Feriet form was 0.4 off at 800
    assert mk > MK_FLOOR
    d = _akf(mu, mk)
    for cdf in (d.snr_cdf, d.snr_cdf_series, d.snr_cdf_closed):
        for g in (0.0, 1e-3, 1.0, 1e3, math.inf):
            with pytest.raises(ConvergenceError, match="1e-300"):
                cdf(g)
    for g in (np.array([1e-3, 1.0, 1e3]), np.array([0.0, math.inf])):
        with pytest.raises(ConvergenceError, match="1e-300"):
            d.snr_cdf(g)
    assert d.snr_pdf(1.0) > 0.0


def test_aef_cdf_refuses_past_the_first_weight_floor():
    # the same floor holds for the negative binomial weight h^(-mu): at
    # mu = 1e4 (mu ln h = 1178) the mixture returned a converged 0.0 at
    # twice the mean
    d = AefDist(AefParams(alpha=2.0, eta=0.5, mu=1e4, ms=4.0), 1.0)
    with pytest.raises(ConvergenceError, match="1e-300"):
        d.snr_cdf(2.0)
    with pytest.raises(ConvergenceError, match="1e-300"):
        d.snr_cdf(np.array([0.5, 2.0]))


def _ncf_cdf(d, g):
    p = d.params
    f = np.exp([d._ln_x1(float(x)) for x in g]) * p.ms / p.mu
    return sc.ncfdtr(2.0 * p.mu, 2.0 * p.ms, 2.0 * p.mu * p.kappa, f)


@pytest.mark.parametrize("mu, mk", [(1.2, 300.0), (1.2, 600.0), (1.2, 690.0),
                                    (0.5, 690.0), (3.0, 450.0)])
def test_akf_cdfs_match_the_noncentral_f_below_the_floor(mu, mk):
    # omega no longer overflows here, so both CDF routes run; scipy's
    # ncfdtr (Boost) shares no code with either. Where ncfdtr gives NaN
    # (one deep-tail point at mu kappa = 690) the mixture oracle stands in
    d = _akf(mu, mk)
    g = np.geomspace(1e-3, 1e3, 25)
    want = _ncf_cdf(d, g)
    for i in np.flatnonzero(np.isnan(want)):
        want[i] = float(mp_akf_cdf(d.params.mu, d.params.ms, d.params.kappa,
                                   d._ln_x1(float(g[i]))))
    lanes = d.snr_cdf(g)
    assert lanes.converged.all()
    assert np.max(np.abs(lanes.value - want)) <= CDF_QUAD_TOL
    closed = [d.snr_cdf_closed(float(x)) for x in g]
    assert all(r.converged for r in closed)
    assert max(abs(r.value - w) for r, w in zip(closed, want)) <= CDF_CLOSED_TOL


@pytest.mark.parametrize("ms", [1.5, 4.0, 20.0, 60.0])
def test_akf_pdf_at_kappa_1e3_matches_the_closed_form(ms):
    # omega used to raise here; the density runs past the CDF floor. At
    # mu kappa = 1200 the law is narrow: gamma = 1e-2 is below 1e-400
    d = AkfDist(AkfParams(alpha=2.5, kappa=1e3, mu=1.2, ms=ms), 1.0)
    for g in (0.3, 0.7, 1.0, 2.0, 1e2):
        want = mp_akf_pdf(2.5, 1.2, ms, 1e3, d._ln_lam, g)
        assert _rel(d.snr_pdf(g), want) <= SERIES_ROUTE_TOL


def _phys_cases():
    for alpha in (0.7, 2.5, 6.0):
        for mu in (1.0, 3.0):
            for eta, fmt in ((1e-3, Format.FORMAT_I), (1e3, Format.FORMAT_I),
                             (0.999, Format.FORMAT_II), (-0.999, Format.FORMAT_II)):
                yield make_phys(AefParams(alpha=alpha, eta=eta, mu=mu, ms=4.0, format=fmt))
            for kappa in (0.0, 0.5, 30.0, 1e3, 1e4):
                yield make_phys(AkfParams(alpha=alpha, kappa=kappa, mu=mu, ms=4.0))


def _mp_sum_moment(p, q):
    """E[S^q] of the physical model's Gaussian sum, at MP_DPS digits."""
    mu = mp.mpf(p.mu_int)
    if hasattr(p, "kappa"):
        mk = mp.mpf(p.d2) / (2 * p.sigma2)
        return ((2 * mp.mpf(p.sigma2)) ** q * mp.gamma(mu + q) / mp.gamma(mu)
                * mp.exp(-mk) * mp.hyp1f1(mu + q, mu, mk))
    if p.format is Format.FORMAT_I:
        a, b = mp.mpf(p.sigma_x2), mp.mpf(p.sigma_y2)
    else:
        a, b = mp.mpf(p.sigma2) * (1 + mp.mpf(p.eta)), mp.mpf(p.sigma2) * (1 - mp.mpf(p.eta))
    return ((2 * b) ** q * mp.gamma(2 * mu + q) / mp.gamma(2 * mu)
            * mp.hyp2f1(-q, mu, 2 * mu, 1 - a / b))


def test_mc_moments_match_mpmath():
    # the power series were 1.3e-9 off, and raised from mu kappa = 700
    worst = 0.0
    with mp.workdps(MP_DPS):
        for p in _phys_cases():
            q = 2 / mp.mpf(p.alpha)
            zq = (p.ms - 1) ** q * mp.gamma(p.ms - q) / mp.gamma(p.ms)
            worst = max(worst,
                        _rel(envelope_alpha_mean(p), _mp_sum_moment(p, 1)),
                        _rel(envelope_sq_mean(p), zq * _mp_sum_moment(p, q)))
    assert worst <= 1e-12
