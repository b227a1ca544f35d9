"""alpha-kappa-F distribution: density, CDF series, closed-form CDF.

Frozen constants were cross-checked against quadrature of the density and
against 60-digit evaluations of the underlying hypergeometric series.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from compfade import (
    AkfDist,
    AkfEnvelope,
    AkfParams,
    CLOSED_FORM_GUARD,
    DomainError,
    SeriesControl,
    kdf_2_1,
)
from compfade.validation import _CDF_POINTS, _humbert_cdf, _standard_grids
from conftest import rel_err
from oracles import mp_akf_cdf, mp_humbert_psi1

GOLDEN_TOL = 1e-11


@pytest.fixture
def dist(akf_params):
    return AkfDist(akf_params, gamma_bar=1.0)


def test_snr_pdf_frozen_spot(dist):
    assert rel_err(dist.snr_pdf(1.0), 0.5188845678495663) <= GOLDEN_TOL


def test_snr_cdf_series_frozen_spot(dist):
    assert rel_err(dist.snr_cdf_series(1.0).value, 0.6234834812997958) <= GOLDEN_TOL


def test_truncation_bound_frozen_spot(dist):
    # P(N >= 4) I_x(mu + 4, ms) + 2 eps x^mu / (mu B(mu, ms)), N the Poisson
    # count of the weights; 40-digit mpmath gives 0.031901601938961444, and
    # the remainder summed is 0.02749
    assert rel_err(dist.cdf_truncation_bound(1.0, 4), 0.03190160193896146) <= GOLDEN_TOL


def test_snr_cdf_closed_frozen_spots(dist):
    # 0.3 sits below the guard band and 3.0 above it, where the paper's
    # closed forms are the Kampe de Feriet and the Humbert form; both
    # re-sum the mixture, and both must agree with their frozen references.
    assert rel_err(dist.snr_cdf_closed(0.3).value, 0.13718380329128696) <= GOLDEN_TOL
    assert rel_err(dist.snr_cdf_closed(3.0).value, 0.9706655239700187) <= GOLDEN_TOL


def test_snr_pdf_normalizes(dist):
    total, _ = quad(dist.snr_pdf, 0.0, 80.0, limit=400)
    tail, _ = quad(dist.snr_pdf, 80.0, 5000.0, limit=400)
    assert abs(total + tail - 1.0) <= 1e-7


def test_snr_mean_matches_gamma_bar(akf_params):
    d = AkfDist(akf_params, gamma_bar=1.5)
    head, _ = quad(lambda g: g * d.snr_pdf(g), 0.0, 120.0, limit=400)
    tail, _ = quad(lambda g: g * d.snr_pdf(g), 120.0, 30000.0, limit=400)
    assert rel_err(head + tail, 1.5) <= 1e-6


def test_snr_cdf_matches_quadrature(dist):
    for g in (0.3, 1.0, 2.5):
        ref, err = quad(dist.snr_pdf, 0.0, g, limit=400, epsabs=1e-13, epsrel=1e-12)
        assert err < 1e-10
        assert abs(dist.snr_cdf_series(g).value - ref) <= 1e-9


def test_closed_form_agrees_with_series_both_branches(dist):
    # Above the guard band the paper's Humbert form (validation's reference)
    # and the incomplete-beta series are two independent routes to the same
    # CDF; the closed CDF is the series itself on both sides.
    above = 0
    for g in (0.2, 0.5, 0.9, 1.3, 2.0, 4.0):
        s = dist.snr_cdf_series(g)
        assert dist.snr_cdf_closed(g) == s
        if math.exp(dist._ln_x1(g)) > 1.0 + CLOSED_FORM_GUARD:
            above += 1
            assert abs(_humbert_cdf(dist, g).value - s.value) <= 1e-12
    assert above == 3


def test_closed_form_guard_band_falls_back_to_series(dist):
    # Inside the guard band around the closed forms' common singular
    # point the implementation must return the series value instead.
    g = 1.05  # x1 close to 1 for this parameter point
    x1 = math.exp(dist._ln_x1(g))
    assert abs(x1 - 1.0) < CLOSED_FORM_GUARD
    assert dist.snr_cdf_closed(g).value == dist.snr_cdf_series(g).value


# alpha 2, mu 5, ms 1e5 at gamma = 1e-60 (X1 = 5e-65 and 1e-64): the Kampe de
# Feriet rows' scipy hyp2f1 gave NaN there, a converged NaN at kappa = 0 and
# a NaN after 100k terms at kappa = 1
_TAIL_KW = dict(alpha=2.0, mu=5.0, ms=1e5)
_DEMO_KW = dict(alpha=2.5, kappa=1.5, mu=1.2, ms=4.0)
_BELOW_BAND = [(_DEMO_KW, g) for g in (0.2, 0.3, 0.5, 0.9)] + [
    (dict(alpha=0.8, kappa=100.0, mu=0.3, ms=30.0), 0.4),
    (dict(kappa=0.0, **_TAIL_KW), 1e-60),
    (dict(kappa=1.0, **_TAIL_KW), 1e-60),
]


@pytest.mark.parametrize("max_terms", [1, 2, 5, None])
@pytest.mark.parametrize("kw, g", _BELOW_BAND)
def test_closed_cdf_below_the_band_is_the_mixture(kw, g, max_terms):
    # the Kampe de Feriet form's row m times the CDF head is the mixture's
    # m-th term, so below the band the closed CDF is snr_cdf, field for field
    d = AkfDist(AkfParams(**kw), 1.0)
    assert math.exp(d._ln_x1(g)) < 1.0 - CLOSED_FORM_GUARD
    ctrl = SeriesControl() if max_terms is None else SeriesControl(max_terms=max_terms)
    assert d.snr_cdf_closed(g, ctrl) == d.snr_cdf(g, ctrl)


@pytest.mark.parametrize("kappa, want, terms", [(0.0, 2.6045573177095607e-299, 1),
                                                (1.0, 5.615798132098046e-300, 5)])
def test_closed_cdf_in_the_deep_tail_at_huge_ms(kappa, want, terms):
    r = AkfDist(AkfParams(kappa=kappa, **_TAIL_KW), 1.0).snr_cdf_closed(1e-60)
    assert r.converged and r.terms_used <= terms
    assert rel_err(r.value, want) <= 1e-13


# (mu, ms, kappa, y = 1/X1), y a dyadic fraction so that -1/X1 is exact
_ROWS = [(1.2, 4.0, 1.5, 0.4375), (0.5, 2.25, 20.0, 0.8125),
         (3.0, 1.5, 0.25, 0.0625), (2.25, 30.0, 8.0, 0.5)]


@pytest.mark.parametrize("mu, ms, kappa, y", _ROWS)
def test_humbert_term_is_the_mixture_row_for_row(mu, ms, kappa, y):
    # 2F1(B + b, B; B + 1; -y) = B y^-B B(B, b) I_(y/(1+y))(B, b) with B = ms,
    # b = mu + n: the Humbert term's row n times its prefactor is the
    # Poisson weight times I_(1/(1+X1))(ms, mu + n), so 1 minus the term is
    # the mixture on the Humbert side
    mp.mp.dps = 60
    mu, ms, mk, y = mp.mpf(mu), mp.mpf(ms), mp.mpf(mu * kappa), mp.mpf(y)
    psi = mp_humbert_psi1(mu + ms, ms, 1 + ms, mu, -y, mk)
    term = mp.exp(-mk) * y ** ms / (ms * mp.beta(mu, ms)) * psi
    rows, n, small = mp.mpf(0), 0, 0
    while small < 3:
        row = (mp.exp(-mk + n * mp.log(mk) - mp.loggamma(n + 1))
               * mp.betainc(ms, mu + n, 0, y / (1 + y), regularized=True))
        rows += row
        small = small + 1 if n > mk and row < mp.mpf(10) ** -45 else 0
        n += 1
    assert abs(term - rows) <= 1e-30


def test_closed_cdf_at_the_readme_point():
    # X1 = 1.297 at mu kappa = 52.6: the Humbert form returned 3.4451e-10
    # as converged, 0.49% off the CDF
    p = AkfParams(alpha=1.3634, mu=1.5732, ms=1.7077, kappa=33.41)
    d = AkfDist(p, 1.46534)
    r = d.snr_cdf_closed(1.46534e-3)
    want = float(mp_akf_cdf(p.mu, p.ms, p.kappa, d._ln_x1(1.46534e-3)))
    assert r.converged and rel_err(r.value, want) <= 1e-12


@pytest.mark.parametrize("mk", [15.0, 40.0, 67.0, 100.0])
def test_closed_cdf_error_within_est_error_past_the_guard_band(mk):
    # just past the band at large mu kappa the Humbert form's est_error was
    # a quarter to a half of its error (2.8e-12 for a CDF of 5.8e-14 at
    # mu kappa = 67, gamma = 5e-5)
    alpha, mu, ms, gb = 0.9057125651248272, 2.25140272766099, 2.305451353845446, 4.490640916205504
    d = AkfDist(AkfParams(alpha=alpha, mu=mu, ms=ms, kappa=mk / mu), gb)
    x1 = np.array([1.055, 1.06, 1.07])
    gammas = np.exp((np.log(x1) - d._ln_x1(1.0)) / (0.5 * alpha)).tolist()
    if mk == 67.0:
        gammas.append(5.0e-5)
    for g in gammas:
        assert 1.05 < math.exp(d._ln_x1(g)) < 1.075
        r = d.snr_cdf_closed(g)
        want = float(mp_akf_cdf(mu, ms, mk / mu, d._ln_x1(g)))
        assert r.converged and abs(r.value - want) <= r.est_error


def _kdf_form(d, g):
    # the paper's small-argument closed form: the CDF head e^(-mu kappa)
    # X1^mu / (mu B(mu, ms)) times F^{2:0;0}_{1:1;0}[mu+ms, mu; mu+1: mu;
    # mu kappa X1, -X1]
    p = d.params
    ln_x1 = d._ln_x1(g)
    x1 = math.exp(ln_x1)
    mk = p.mu * p.kappa
    ln_beta = math.lgamma(p.mu) + math.lgamma(p.ms) - math.lgamma(p.mu + p.ms)
    head = math.exp(-mk + p.mu * ln_x1 - math.log(p.mu) - ln_beta)
    return head * kdf_2_1(p.mu + p.ms, p.mu, p.mu + 1.0, p.mu, mk * x1, -x1).value


def test_kampe_de_feriet_form_matches_the_mixture(dist):
    # the closed form is kept as a reference for the mixture below the band:
    # at the spots above and at the battery's CDF points (check_cdf) below it
    cases = [(dist, g) for g in (0.2, 0.3, 0.5, 0.9)]
    for p in _standard_grids():
        if isinstance(p, AkfParams):
            d = AkfDist(p, 1.0)
            cases += [(d, float(g)) for g in _CDF_POINTS]
    below = [(d, g) for d, g in cases
             if math.exp(d._ln_x1(g)) < 1.0 - CLOSED_FORM_GUARD]
    assert len(below) > 400
    for d, g in below:
        assert abs(_kdf_form(d, g) - d.snr_cdf(g).value) <= 1e-13


def test_cdf_monotone_and_bounded(dist):
    grid = [0.05 * 1.35 ** k for k in range(22)]
    vals = [dist.snr_cdf_series(g).value for g in grid]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_pdf_cdf_at_zero_and_validation(dist, akf_params):
    assert dist.snr_pdf(0.0) == 0.0
    r = dist.snr_cdf_series(0.0)
    assert r.value == 0.0 and r.converged
    with pytest.raises(DomainError):
        dist.snr_pdf(-1.0)
    with pytest.raises(DomainError):
        AkfDist(akf_params, gamma_bar=0.0)


def test_kappa_zero_continuity():
    # kappa below the cutoff takes an exact limit route; approaching the
    # cutoff from above must land on the same curve.
    base = dict(alpha=2.4, mu=1.6, ms=5.0)
    d0 = AkfDist(AkfParams(kappa=0.0, **base), 1.0)
    d1 = AkfDist(AkfParams(kappa=1e-9, **base), 1.0)
    for g in (0.3, 1.0, 3.0):
        assert rel_err(d1.snr_pdf(g), d0.snr_pdf(g)) <= 1e-7
        assert rel_err(d1.snr_cdf_series(g).value, d0.snr_cdf_series(g).value) <= 1e-7


def test_fisher_spot():
    # alpha = 2, kappa = 0, mu = 1, ms = 2 is the Fisher-Snedecor F
    # channel: f(g) = 2 (1 + g)^(-3), F(g) = 1 - (1 + g)^(-2).
    d = AkfDist(AkfParams(alpha=2.0, kappa=0.0, mu=1.0, ms=2.0), 1.0)
    assert abs(d.snr_pdf(1.0) - 0.25) <= 1e-10
    assert abs(d.snr_cdf_series(1.0).value - 0.75) <= 1e-10
    assert abs(d.snr_cdf_closed(1.0).value - 0.75) <= 1e-10
    for g in (0.4, 2.0, 9.0):
        want = 1.0 - (1.0 + g) ** -2
        assert abs(d.snr_cdf_series(g).value - want) <= 1e-10


def test_unconverged_series_is_flagged(dist):
    r = dist.snr_cdf_series(1.0, SeriesControl(max_terms=2))
    assert not r.converged
    assert r.est_error > 0.0


def test_envelope_frozen_spot(akf_params):
    env = AkfEnvelope(akf_params, 1.0)
    assert rel_err(env.envelope_pdf(0.8), 1.1834289961575029) <= GOLDEN_TOL


def test_envelope_normalizes_and_carries_power(akf_params):
    env = AkfEnvelope(akf_params, 1.5)
    total, _ = quad(env.envelope_pdf, 0.0, 20.0, limit=300)
    power, _ = quad(lambda r: r * r * env.envelope_pdf(r), 0.0, 30.0, limit=300)
    assert abs(total - 1.0) <= 1e-8
    assert rel_err(power, 1.5) <= 1e-9


def test_envelope_matches_snr_change_of_variables(akf_params):
    env = AkfEnvelope(akf_params, 1.5)
    d = AkfDist(akf_params, 1.0)
    for r in (0.5, 1.0, 1.6):
        lhs, _ = quad(env.envelope_pdf, 0.0, r, limit=300, epsabs=1e-13)
        rhs = d.snr_cdf_series(r * r / 1.5).value
        assert abs(lhs - rhs) <= 1e-9
