"""Outage probability, high-SNR asymptote, diversity and coding gains."""

import math

import numpy as np
import pytest

from compfade import (
    AefDist,
    AefParams,
    AkfDist,
    AkfParams,
    ConvergenceError,
    DomainError,
    GainPair,
    LaneResult,
    asymptotic_outage_aef,
    asymptotic_outage_akf,
    gains,
    outage,
)
from conftest import rel_err


@pytest.fixture
def aef_dist(aef_params):
    return AefDist(aef_params, gamma_bar=2.0)


@pytest.fixture
def akf_dist(akf_params):
    return AkfDist(akf_params, gamma_bar=1.0)


def test_outage_is_cdf_at_threshold(aef_dist, akf_dist):
    for g in (0.3, 1.0, 2.0):
        assert outage(aef_dist, g).value == aef_dist.snr_cdf(g).value
        assert outage(akf_dist, g).value == akf_dist.snr_cdf_series(g).value


def test_outage_frozen_spot(aef_dist):
    assert rel_err(outage(aef_dist, 0.5).value, 0.009529759629188889) <= 1e-11


def test_diversity_gain_values(aef_dist, akf_dist):
    # Slope of the outage floor: alpha*mu for the eta family, alpha*mu/2
    # for the kappa family (half the in-phase/quadrature pairs carry the
    # dominant term).
    ga = gains(aef_dist, 1.0)
    gk = gains(akf_dist, 1.0)
    assert rel_err(ga.gd, 3.5 * 1.5) <= 1e-12
    assert rel_err(gk.gd, 2.5 * 1.2 / 2.0) <= 1e-12


def test_diversity_gain_is_a_float_for_integer_parameters():
    # int shape parameters must not leak through as an int diversity gain
    ga = gains(AefDist(AefParams(alpha=2, eta=0.5, mu=1, ms=4), 1.0), 1.0)
    gk = gains(AkfDist(AkfParams(alpha=2, kappa=0.5, mu=1, ms=4), 1.0), 1.0)
    assert type(ga.gd) is float and ga.gd == 2.0
    assert type(gk.gd) is float and gk.gd == 1.0


def test_gains_frozen_spots(aef_dist, akf_dist):
    assert rel_err(gains(aef_dist, 1.0).gc, 0.5494644361456816) <= 1e-11
    assert rel_err(gains(akf_dist, 1.0).gc, 1.2292901246651782) <= 1e-11


def test_asymptote_consistent_with_gains(aef_params, akf_params):
    # The asymptote is exactly (gc * gamma_bar)^(-gd) by construction.
    for gbar in (1e3, 1e4):
        da = AefDist(aef_params, gbar)
        g = gains(da, 1.0)
        want = (g.gc * gbar) ** -g.gd
        assert rel_err(asymptotic_outage_aef(da, 1.0), want) <= 1e-12
        dk = AkfDist(akf_params, gbar)
        gk = gains(dk, 1.0)
        wantk = (gk.gc * gbar) ** -gk.gd
        assert rel_err(asymptotic_outage_akf(dk, 1.0), wantk) <= 1e-12


def test_asymptote_frozen_spots(aef_params, akf_params):
    da = AefDist(aef_params, 1e3)
    dk = AkfDist(akf_params, 1e3)
    assert rel_err(asymptotic_outage_aef(da, 1.0), 4.1239858098360796e-15) <= 1e-11
    assert rel_err(asymptotic_outage_akf(dk, 1.0), 2.3201625409018346e-05) <= 1e-11


def test_asymptote_approaches_exact_outage(aef_params, akf_params):
    # Relative error of the asymptote shrinks as gamma_bar grows.
    errs_a, errs_k = [], []
    for gbar in (1e3, 1e4):
        da = AefDist(aef_params, gbar)
        op = outage(da, 1.0).value
        errs_a.append(abs(asymptotic_outage_aef(da, 1.0) / op - 1.0))
        dk = AkfDist(akf_params, gbar)
        opk = outage(dk, 1.0).value
        errs_k.append(abs(asymptotic_outage_akf(dk, 1.0) / opk - 1.0))
    assert errs_a[1] < errs_a[0] < 0.05
    assert errs_k[1] < errs_k[0] < 0.05


def test_asymptote_slope_matches_diversity_gain(akf_params):
    # Finite-difference slope of log OP vs log gamma_bar at high SNR.
    d4 = AkfDist(akf_params, 1e4)
    d5 = AkfDist(akf_params, 1e5)
    op4 = outage(d4, 1.0).value
    op5 = outage(d5, 1.0).value
    slope = (math.log(op4) - math.log(op5)) / math.log(10.0)
    gd = gains(d4, 1.0).gd
    assert abs(slope / gd - 1.0) <= 0.02


def test_gamma_th_validation(aef_dist):
    with pytest.raises(DomainError):
        gains(aef_dist, 0.0)
    with pytest.raises(DomainError):
        asymptotic_outage_aef(aef_dist, -1.0)


@pytest.mark.parametrize("gamma_bar", [1.0, 1e3])
def test_gains_past_the_double_range_raise_convergence_error(gamma_bar):
    # gc = 1 / (gamma_th A^(1/gd)) overflows at the least subnormal gamma_th:
    # this raised a bare OverflowError
    d = AefDist(AefParams(alpha=2.5, eta=0.5, mu=1.2, ms=4.0), gamma_bar)
    with pytest.raises(ConvergenceError, match="gains: .* leaves the double range"):
        gains(d, 5e-324)
    assert math.isfinite(gains(d, 1e-300).gc)


def test_gain_pair_validation():
    with pytest.raises(DomainError):
        GainPair(gc=0.0, gd=1.0)
    with pytest.raises(DomainError):
        GainPair(gc=1.0, gd=-2.0)


def test_outage_on_an_array_is_one_lane_call(aef_dist, akf_dist):
    thresholds = np.array([0.05, 0.5, 1.0, 7.0])
    for d in (aef_dist, akf_dist):
        got = outage(d, thresholds)
        assert isinstance(got, LaneResult)
        want = [outage(d, float(g)) for g in thresholds]
        assert np.max(np.abs(got.value - [r.value for r in want])) <= 2e-15
        assert got.terms_used.tolist() == [r.terms_used for r in want]


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
def test_outage_rejects_an_array_with_a_bad_threshold(aef_dist, bad):
    with pytest.raises(DomainError, match="gamma_th"):
        outage(aef_dist, np.array([0.5, bad, 2.0]))


def test_closed_cdf_takes_one_point_per_call(akf_dist):
    with pytest.raises(DomainError, match="one point"):
        akf_dist.snr_cdf_closed(np.array([0.5, 1.0]))
