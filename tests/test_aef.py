"""alpha-eta-F distribution: densities, CDF series, truncation bound (and
the paper's closed-form bound, validation's reference).

Frozen constants were cross-checked against quadrature of the density and
against 60-digit evaluations of the underlying hypergeometric series.
"""

import math

import mpmath
import pytest
from scipy.integrate import quad

from compfade import (
    AefDist,
    AefEnvelope,
    AefParams,
    AkfDist,
    AkfParams,
    ConvergenceError,
    DomainError,
    Format,
    SeriesControl,
    convert_format,
)
from compfade.validation import _paper_bound
from conftest import rel_err
from oracles import mp_kernel_mixture

GOLDEN_TOL = 1e-11  # frozen values, backend-agnostic headroom


@pytest.fixture
def dist(aef_params):
    return AefDist(aef_params, gamma_bar=2.0)


def test_snr_pdf_frozen_spots(dist):
    assert rel_err(dist.snr_pdf(1.0), 0.4151209489042374) <= GOLDEN_TOL
    assert rel_err(dist.snr_pdf(0.2), 0.0029535210570765945) <= GOLDEN_TOL


def test_snr_cdf_frozen_spots(dist):
    assert rel_err(dist.snr_cdf(1.0).value, 0.13439908435774853) <= GOLDEN_TOL
    assert rel_err(dist.snr_cdf(5.0).value, 0.9776757444423018) <= GOLDEN_TOL


def test_snr_pdf_normalizes(dist):
    total, _ = quad(dist.snr_pdf, 0.0, 60.0, limit=400)
    tail, _ = quad(dist.snr_pdf, 60.0, 4000.0, limit=400)
    assert abs(total + tail - 1.0) <= 1e-7


def test_snr_mean_matches_gamma_bar(dist):
    head, _ = quad(lambda g: g * dist.snr_pdf(g), 0.0, 90.0, limit=400)
    tail, _ = quad(lambda g: g * dist.snr_pdf(g), 90.0, 20000.0, limit=400)
    assert rel_err(head + tail, 2.0) <= 1e-6


def test_snr_cdf_matches_quadrature(dist):
    for g in (0.4, 1.0, 3.0):
        ref, err = quad(dist.snr_pdf, 0.0, g, limit=400, epsabs=1e-13, epsrel=1e-12)
        assert err < 1e-10
        assert abs(dist.snr_cdf(g).value - ref) <= 1e-9


def test_cdf_series_result_contract(dist):
    r = dist.snr_cdf(1.0)
    assert r.converged
    assert r.terms_used > 0
    assert 0.0 <= r.est_error <= 1e-10


def test_cdf_is_monotone_and_bounded(dist):
    grid = [0.05 * 1.3 ** k for k in range(24)]
    vals = [dist.snr_cdf(g).value for g in grid]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_pdf_and_cdf_at_zero(dist):
    assert dist.snr_pdf(0.0) == 0.0
    r = dist.snr_cdf(0.0)
    assert r.value == 0.0 and r.converged


def test_negative_gamma_rejected(dist):
    with pytest.raises(DomainError):
        dist.snr_pdf(-0.5)
    with pytest.raises(DomainError):
        dist.snr_cdf(-0.5)


def test_gamma_bar_validation(aef_params):
    with pytest.raises(DomainError):
        AefDist(aef_params, gamma_bar=0.0)
    with pytest.raises(DomainError):
        AefDist(aef_params, gamma_bar=-1.0)


def test_unconverged_cdf_is_flagged(dist):
    r = dist.snr_cdf(1.0, SeriesControl(max_terms=2))
    assert not r.converged
    assert r.est_error > 0.0


def test_eta_inversion_invariance():
    # In Format I the density only sees H^2, so eta and 1/eta give the
    # same distribution.
    d1 = AefDist(AefParams(alpha=2.6, eta=0.4, mu=1.2, ms=4.0), 1.5)
    d2 = AefDist(AefParams(alpha=2.6, eta=2.5, mu=1.2, ms=4.0), 1.5)
    for g in (0.3, 1.0, 2.7):
        assert rel_err(d1.snr_pdf(g), d2.snr_pdf(g)) <= 1e-12
        assert rel_err(d1.snr_cdf(g).value, d2.snr_cdf(g).value) <= 1e-12


def test_format_conversion_invariance():
    eta2 = -0.3
    eta1 = convert_format(eta2, Format.FORMAT_II)
    d2 = AefDist(AefParams(alpha=3.0, eta=eta2, mu=1.4, ms=5.0, format=Format.FORMAT_II), 1.0)
    d1 = AefDist(AefParams(alpha=3.0, eta=eta1, mu=1.4, ms=5.0), 1.0)
    for g in (0.2, 1.0, 4.0):
        assert rel_err(d1.snr_pdf(g), d2.snr_pdf(g)) <= 1e-10
        assert rel_err(d1.snr_cdf(g).value, d2.snr_cdf(g).value) <= 1e-10


def test_cross_family_balanced_identity():
    # eta = 1 collapses the in-phase/quadrature imbalance, which is the
    # same physical channel as the kappa = 0 limit with twice the
    # cluster count.
    da = AefDist(AefParams(alpha=2.0, eta=1.0, mu=1.0, ms=4.0), 1.0)
    dk = AkfDist(AkfParams(alpha=2.0, kappa=0.0, mu=2.0, ms=4.0), 1.0)
    for g in (0.5, 1.0, 2.0):
        assert rel_err(da.snr_pdf(g), dk.snr_pdf(g)) <= 1e-10
        assert rel_err(da.snr_cdf(g).value, dk.snr_cdf_series(g).value) <= 1e-10


def test_fisher_spot():
    # alpha = 2, balanced eta, mu = 1/2, ms = 2 is the Fisher-Snedecor F
    # channel whose CDF is 1 - (1 + g)^(-2) in closed form.
    d = AefDist(AefParams(alpha=2.0, eta=1.0, mu=0.5, ms=2.0), 1.0)
    assert abs(d.snr_pdf(1.0) - 0.25) <= 1e-10
    assert abs(d.snr_cdf(1.0).value - 0.75) <= 1e-10
    for g in (0.3, 2.0, 7.0):
        want = 1.0 - (1.0 + g) ** -2
        assert abs(d.snr_cdf(g).value - want) <= 1e-10


def test_truncation_bound_frozen_spot(dist):
    # the paper's closed-form bound, the battery's reference
    assert rel_err(_paper_bound(dist, 1.0, 4), 0.002117560664055892) <= GOLDEN_TOL


def test_public_truncation_bound_frozen_spot(dist):
    # P(N >= 4) I_x(2 mu + 8, ms) + 2 eps x^(2 mu) / (2 mu B(2 mu, ms)), N the
    # negative binomial count of the weights; 40-digit mpmath gives
    # 2.1514594636547328e-8, and the remainder summed is 1.916e-8
    assert rel_err(dist.cdf_truncation_bound(1.0, 4), 2.1514594636547312e-08) <= GOLDEN_TOL


def test_truncation_bound_dominates_remainder(dist):
    # The bound must sit above the actual tail left after k0 terms.
    full = dist.snr_cdf(1.0).value
    for k0 in (1, 2, 4, 8, 16):
        partial = dist.snr_cdf(1.0, SeriesControl(max_terms=k0)).value
        remainder = max(full - partial, 0.0)
        assert dist.cdf_truncation_bound(1.0, k0) >= remainder


def test_truncation_bound_decreases_in_k0(dist):
    bounds = [dist.cdf_truncation_bound(1.0, k) for k in (1, 2, 4, 8, 16)]
    assert all(b > 0.0 for b in bounds)
    assert all(b2 < b1 for b1, b2 in zip(bounds, bounds[1:]))


def test_truncation_bound_edge_cases(dist):
    assert dist.cdf_truncation_bound(0.0, 4) == 0.0
    with pytest.raises(DomainError):
        dist.cdf_truncation_bound(1.0, 0)


def test_truncation_bound_divergence_reported():
    # Extreme imbalance pushes the paper's bounding series argument to 1;
    # the reference must refuse rather than return something meaningless.
    d = AefDist(AefParams(alpha=2.0, eta=0.001, mu=1.0, ms=4.0), 1.0)
    with pytest.raises(ConvergenceError):
        _paper_bound(d, 10.0, 2)
    # an argument past e^709 raised a bare OverflowError
    with pytest.raises(ConvergenceError):
        _paper_bound(d, 1e300, 2)


def test_truncation_bound_where_the_papers_diverges():
    # the public bound needs no series, so it holds where the paper's refuses
    d = AefDist(AefParams(alpha=2.0, eta=0.001, mu=1.0, ms=4.0), 1.0)
    full, part = (d.snr_cdf(10.0, c).value for c in (None, SeriesControl(max_terms=2)))
    bound = d.cdf_truncation_bound(10.0, 2)
    assert math.isfinite(bound) and bound >= full - part  # 0.99203 >= 0.98920
    # at 1e300 the CDF is 1 within far less than an ulp, so the remainder is
    # 1 less the first two terms, here summed in mpmath
    c = d._cdf_consts
    part = mp_kernel_mixture(c[0] + c[1] * math.log(1e300), *c[2:], 2)
    bound = d.cdf_truncation_bound(1e300, 2)
    assert math.isfinite(bound) and bound >= 1 - part


@pytest.mark.parametrize("gamma, k0", [
    (1e-20, 16), (1e-100, 1), (1e-100, 4), (1e-100, 16),
])
def test_truncation_bound_where_the_incomplete_beta_underflows(gamma, k0):
    # w^(2 mu + 2 k0) underflows at these gamma, so betainc gives 0 and the
    # paper's bound read 0.0; the leading 2F1 then takes Pfaff's form. Reference:
    # A g^(alpha mu) mu/(mu + k0) 2F1(B + ms, B; B + 1; -y) 2F1(mu + ms/2,
    # mu + (ms + 1)/2; mu + 1/2; q y^2), B = 2 mu + 2 k0, y = 2 mu h
    # g^(alpha/2) / Lambda, q = (H/h)^2, A the CDF head's constant
    alpha, eta, mu, ms = 2.0, 0.5, 1.0, 4.0
    d = AefDist(AefParams(alpha=alpha, eta=eta, mu=mu, ms=ms), 1.0)
    with mpmath.workdps(30):
        mu_, ms_, h, H = (mpmath.mpf(v) for v in (mu, ms, d.geometry.h, d.geometry.H))
        lam = (ms_ - 1) * mpmath.mpf(d.upsilon) * mpmath.mpf(d.gamma_bar) ** (alpha / 2)
        y = 2 * mu_ * h * mpmath.mpf(gamma) ** (alpha / 2) / lam
        head = ((2 * mu_) ** (2 * mu_ - 1) * h ** mu_
                / (mpmath.beta(2 * mu_, ms_) * lam ** (2 * mu_)))
        b0 = 2 * mu_ + 2 * k0
        want = (head * mpmath.mpf(gamma) ** (alpha * mu_) * mu_ / (mu_ + k0)
                * mpmath.hyp2f1(b0 + ms_, b0, b0 + 1, -y)
                * mpmath.hyp2f1(mu_ + ms_ / 2, mu_ + (ms_ + 1) / 2, mu_ + 0.5,
                                (H / h * y) ** 2))
    got = _paper_bound(d, gamma, k0)
    assert got > 0.0
    assert rel_err(got, float(want)) <= 1e-12


def test_envelope_pdf_frozen_spot(aef_params):
    env = AefEnvelope(aef_params, 2.0)
    assert rel_err(env.envelope_pdf(1.1), 1.0902481172737382) <= GOLDEN_TOL


def test_envelope_normalizes_and_carries_power(aef_params):
    env = AefEnvelope(aef_params, 2.0)
    total, _ = quad(env.envelope_pdf, 0.0, 20.0, limit=300)
    power, _ = quad(lambda r: r * r * env.envelope_pdf(r), 0.0, 30.0, limit=300)
    assert abs(total - 1.0) <= 1e-8
    assert rel_err(power, 2.0) <= 1e-9


def test_envelope_matches_snr_change_of_variables(aef_params):
    # With mean power Omega, P(R <= r) equals the SNR CDF at
    # gamma_bar * r^2 / Omega.
    env = AefEnvelope(aef_params, 2.0)
    d = AefDist(aef_params, 1.0)
    for r in (0.6, 1.1, 1.8):
        lhs, _ = quad(env.envelope_pdf, 0.0, r, limit=300, epsabs=1e-13)
        rhs = d.snr_cdf(r * r / 2.0).value
        assert abs(lhs - rhs) <= 1e-9


def test_envelope_validation(aef_params):
    with pytest.raises(DomainError):
        AefEnvelope(aef_params, 0.0)
    env = AefEnvelope(aef_params, 1.0)
    with pytest.raises(DomainError):
        env.envelope_pdf(-1.0)


def test_envelope_at_zero_by_shape():
    # alpha*mu controls the r -> 0 behavior: above 1/2 the density
    # vanishes, below it diverges.
    vanishing = AefEnvelope(AefParams(alpha=2.0, eta=0.5, mu=1.0, ms=4.0), 1.0)
    assert vanishing.envelope_pdf(0.0) == 0.0
    diverging = AefEnvelope(AefParams(alpha=0.4, eta=0.5, mu=0.6, ms=8.0), 1.0)
    assert math.isinf(diverging.envelope_pdf(0.0))
