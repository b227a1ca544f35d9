"""Density routes: scipy.special inside the measured region, the series past it.

The alpha-eta-F density takes its 2F1 and the alpha-kappa-F density its 1F1
(in Kummer's form) from scipy.special for ms <= _kernels._SCIPY_MS_MAX, and
from the interpreted series beyond. Both routes are checked against the
40-digit closed forms of tests/oracles, evaluated from the same doubles the
kernels are given. The region bound rests on scipy 1.17.1: the corner test
below fails loudly if the installed scipy misses that accuracy.
"""

import math

import mpmath as mp
import numpy as np
import pytest
import scipy
from scipy import special as sc

from compfade import (
    AefDist,
    AefEnvelope,
    AefParams,
    AkfDist,
    AkfEnvelope,
    AkfParams,
    ConvergenceError,
    SeriesControl,
)
from compfade import _kernels as _k
from compfade import params as _params
from compfade.params import Format
from conftest import rel_err
from oracles import DENSITY_DPS, ln_lambda, mp_aef_pdf, mp_akf_pdf

MS_MAX = _k._SCIPY_MS_MAX
# scipy's 2F1 and Kummer-form 1F1 at the corners of the region (measured
# within 1.3e-13 of mpmath with scipy 1.17.1)
SCIPY_TOL = 5e-13
# either route against the oracle on the random box, where the density's own
# log-space arithmetic adds to the hypergeometric factor's error (measured
# at most 7.4e-14 and 3.4e-12)
SCIPY_ROUTE_TOL = 5e-13
SERIES_ROUTE_TOL = 2e-11


def _aef_oracle(d, x, envelope=False):
    p = d.params
    args = (p.alpha, p.mu, p.ms, d.geometry.h, ln_lambda(d))
    if envelope:
        r = mp.mpf(x)
        return 2 * r * mp_aef_pdf(*args, r * r)
    return mp_aef_pdf(*args, x)


def _akf_oracle(d, x, envelope=False):
    p = d.params
    args = (p.alpha, p.mu, p.ms, p.kappa, ln_lambda(d))
    if envelope:
        r = mp.mpf(x)
        return 2 * r * mp_akf_pdf(*args, r * r)
    return mp_akf_pdf(*args, x)


def _rel(got, want):
    with mp.workdps(DENSITY_DPS):
        return float(abs(mp.mpf(got) / want - 1))


def test_scipy_meets_the_region_accuracy_at_its_corners():
    with mp.workdps(DENSITY_DPS):
        misses = _scipy_corner_misses()
    assert not misses, (
        f"scipy {scipy.__version__} misses the accuracy the density region "
        f"ms <= {MS_MAX} was measured at (scipy 1.17.1): {misses[:5]}"
    )


def _scipy_corner_misses():
    misses = []
    for mu in (0.01, 0.2, 1.0, 200.0):
        for ms in (1.05, 2.05, 10.0, MS_MAX):
            a, b, c = mu + ms / 2, mu + (ms + 1) / 2, mu + 0.5
            for z in (1e-14, 1e-9, 1e-6, 1e-3, 0.3, 0.5, 0.5000001, 0.9, 0.9999, 1 - 1e-10):
                if z <= 0.5:
                    got, want = sc.hyp2f1(a, b, c, z), mp.hyp2f1(a, b, c, mp.mpf(z))
                else:  # the Euler form the kernel uses above z = 1/2
                    got, want = sc.hyp2f1(c - a, c - b, c, z), mp.hyp2f1(c - a, c - b, c, mp.mpf(z))
                if not _rel(got, want) <= SCIPY_TOL:
                    misses.append(("hyp2f1", mu, ms, z, _rel(got, want)))
            for x in (1e-12, 1e-3, 1.0, 30.0, 700.0, 4000.0):
                got, want = sc.hyp1f1(-ms, mu, -x), mp.hyp1f1(-ms, mu, -mp.mpf(x))
                if not _rel(got, want) <= SCIPY_TOL:
                    misses.append(("hyp1f1", mu, ms, x, _rel(got, want)))
    return misses


def _random_cases(rng, n, ms_lo, ms_hi):
    """(params, gamma_bar or omega_power, point, is_envelope) over a seeded
    box of both families and both formats."""
    cases = []
    for i in range(n):
        alpha = rng.uniform(0.8, 4.0)
        mu = math.exp(rng.uniform(math.log(0.2), math.log(20.0)))
        ms = math.exp(rng.uniform(math.log(max(ms_lo, 2.0 / alpha + 0.05)), math.log(ms_hi)))
        gb = math.exp(rng.uniform(math.log(0.2), math.log(5.0)))
        x = gb * math.exp(rng.uniform(math.log(1e-3), math.log(1e3)))
        envelope = i % 4 == 3
        kind = i % 3
        if kind == 0:
            eta = math.exp(rng.uniform(math.log(1e-2), math.log(1e2)))
            p = AefParams(alpha=alpha, eta=eta, mu=mu, ms=ms, format=Format.FORMAT_I)
        elif kind == 1:
            eta = rng.uniform(-0.95, 0.95)
            p = AefParams(alpha=alpha, eta=eta, mu=mu, ms=ms, format=Format.FORMAT_II)
        else:
            kappa = math.exp(rng.uniform(math.log(1e-3), math.log(50.0)))
            p = AkfParams(alpha=alpha, kappa=kappa, mu=mu, ms=ms)
        cases.append((p, gb, math.sqrt(x) if envelope else x, envelope))
    return cases


def _check(p, gb, x, envelope):
    if isinstance(p, AefParams):
        d = AefDist(p, gb)
        got = AefEnvelope(p, gb).envelope_pdf(x) if envelope else d.snr_pdf(x)
        return rel_err(got, float(_aef_oracle(d, x, envelope)))
    d = AkfDist(p, gb)
    got = AkfEnvelope(p, gb).envelope_pdf(x) if envelope else d.snr_pdf(x)
    return rel_err(got, float(_akf_oracle(d, x, envelope)))


@pytest.mark.parametrize("route, ms_lo, ms_hi, tol", [
    ("scipy", 1.05, MS_MAX, SCIPY_ROUTE_TOL),
    ("series", math.nextafter(MS_MAX, math.inf), 1e3, SERIES_ROUTE_TOL),
])
def test_random_box_matches_the_closed_form(route, ms_lo, ms_hi, tol):
    rng = np.random.default_rng(20261018 if route == "scipy" else 20261019)
    worst = max(_check(*case) for case in _random_cases(rng, 90, ms_lo, ms_hi))
    assert worst <= tol


@pytest.mark.parametrize("dist", [
    AefDist(AefParams(alpha=2.5, eta=0.5, mu=1.5, ms=MS_MAX), 1.3),
    AefDist(AefParams(alpha=1.7, eta=-0.4, mu=0.7, ms=MS_MAX, format=Format.FORMAT_II), 0.8),
    AkfDist(AkfParams(alpha=2.2, kappa=1.2, mu=1.5, ms=MS_MAX), 1.3),
], ids=["aef-I", "aef-II", "akf"])
def test_routes_agree_at_the_region_bound(dist, monkeypatch):
    # the same distribution at ms = MS_MAX, once on scipy and once on the
    # series that a bound one ulp lower would choose; neighbouring ms would
    # compare their normalizers too
    grid = (1e-3, 0.1, 0.7, 1.0, 3.0, 30.0, 1e3)
    inside = [dist.snr_pdf(g) for g in grid]
    monkeypatch.setattr(_k, "_SCIPY_MS_MAX", math.nextafter(MS_MAX, 0.0))
    for g, want in zip(grid, inside):
        assert rel_err(dist.snr_pdf(g), want) <= 1e-12


@pytest.mark.parametrize("eta, fmt", [
    (3e-5, Format.FORMAT_I), (2e4, Format.FORMAT_I),
    (0.99999, Format.FORMAT_II), (-0.99999, Format.FORMAT_II),
])
def test_strong_imbalance_keeps_the_digits_of_one_minus_z(eta, fmt):
    # z nears 1 at strong imbalance; 1 - z taken from the double z would
    # cost the density (mu + ms) times its relative rounding: up to 9e-9 here
    # on the scipy route (ms <= MS_MAX) and 1.1e-8 on the series route
    for ms in (2.5, 8.0, 40.0, 60.0, 120.0):
        tol = SCIPY_ROUTE_TOL if ms <= MS_MAX else SERIES_ROUTE_TOL
        d = AefDist(AefParams(alpha=2.0, eta=eta, mu=1.3, ms=ms, format=fmt), 1.0)
        for g in (1e-2, 1.0, 1e2, 1e4):
            assert rel_err(d.snr_pdf(g), float(_aef_oracle(d, g))) <= tol


@pytest.mark.parametrize("ms", [1e4, 1e5, 1e6, 1e8, 1e11, 1e13, 1e15])
def test_series_route_at_huge_ms_matches_the_closed_form(ms):
    # the density's log holds no term of size ms ln ms (ln Lambda^ms and
    # ln D^(2mu + ms) cancel in its softplus, ln B(2mu, ms) is in Stirling's
    # form), so huge ms costs it no digits: before, it lost about
    # eps ms |ln Lambda| (1.7e-4 at ms = 1e11) and refused past about 2e11
    a = AefDist(AefParams(alpha=2.5, eta=0.5, mu=1.5, ms=ms), 1.0)
    k = AkfDist(AkfParams(alpha=2.2, kappa=1.2, mu=1.5, ms=ms), 1.0)
    for g in (0.1, 1.0, 10.0):
        assert rel_err(a.snr_pdf(g), float(_aef_oracle(a, g))) <= SERIES_ROUTE_TOL
        assert rel_err(k.snr_pdf(g), float(_akf_oracle(k, g))) <= SERIES_ROUTE_TOL


def test_kummer_value_past_the_double_range_takes_the_series():
    # x near 700 at ms = 1000: the Kummer form 1F1(-ms; mu; -x) that scipy
    # would evaluate is past the double range, the series sums in log space
    p = AkfParams(alpha=2.0, kappa=200.0, mu=3.5, ms=1000.0)
    d = AkfDist(p, 1.0)
    for g in (1e3, 1e4):
        ln_x1 = d._ln_x1(g)
        x = p.mu * p.kappa * math.exp(ln_x1) / (1.0 + math.exp(ln_x1))
        assert x > 600.0
        assert not math.isfinite(sc.hyp1f1(-p.ms, p.mu, -x))
        assert rel_err(d.snr_pdf(g), float(_akf_oracle(d, g))) <= SERIES_ROUTE_TOL


def test_series_past_the_bound_where_scipy_drifts():
    # scipy 1.17.1 gives this 2F1 2.7e-12 off; past the bound the series
    # (exact to the last digits at so small a z) is used
    mu, ms, z = 0.3188, 232.557, 7.325596573411048e-13
    assert ms > MS_MAX
    a, b, c = mu + ms / 2, mu + (ms + 1) / 2, mu + 0.5
    ln_f, _, status = _k._density_2f1_ln(mu, ms, z, 1.0 - z, 1e-12, 100_000)
    with mp.workdps(DENSITY_DPS):
        want = float(mp.log(mp.hyp2f1(a, b, c, mp.mpf(z))))
    assert status == 0
    assert abs(ln_f - want) <= 1e-14  # 2F1 within 1e-14 relative


def test_2f1_past_the_double_range_falls_back_to_the_series():
    # inside the region by ms, but 2F1 ~ 2^(mu + ms) at z = 1/2 overflows
    mu, ms, z = 1000.0, 40.0, 0.5
    assert not math.isfinite(sc.hyp2f1(mu + ms / 2, mu + (ms + 1) / 2, mu + 0.5, z))
    ln_f, sgn, status = _k._density_2f1_ln(mu, ms, z, 1.0 - z, 1e-12, 100_000)
    with mp.workdps(DENSITY_DPS):
        want = float(mp.log(mp.hyp2f1(mu + ms / 2, mu + (ms + 1) / 2, mu + 0.5, z)))
    assert status == 0 and sgn == 1.0
    assert abs(ln_f - want) <= SERIES_ROUTE_TOL  # relative error of the 2F1


@pytest.mark.parametrize("make", [
    lambda ms: AefDist(AefParams(alpha=2.5, eta=0.5, mu=1.5, ms=ms), 1.0),
    lambda ms: AkfDist(AkfParams(alpha=2.2, kappa=1.2, mu=1.5, ms=ms), 1.0),
])
def test_series_control_governs_only_the_series_route(make):
    one_term = SeriesControl(max_terms=1)
    inside = make(4.0)
    assert inside.snr_pdf(1.0, one_term) == inside.snr_pdf(1.0)
    with pytest.raises(ConvergenceError):
        make(1e5).snr_pdf(1.0, one_term)


def test_closed_cdf_drops_the_constant_humbert_term(monkeypatch):
    # Values before the constant first term was dropped: (params, gamma_bar,
    # gamma, value, est_error). The value moves by no more than the error
    # estimate of that term's sum, and terms_used and est_error are now the
    # second term's alone (smaller). The values were taken with the omega
    # of their time, from the power series, which was up to 2.2e-13 off
    # here; it is frozen below so that only the Humbert change is measured.
    base = dict(alpha=2.5, kappa=1.5, mu=1.2, ms=4.0)
    tail_a = dict(alpha=1.1662670039922167, mu=1.7479139500442937,
                  ms=2.0455173384494008, kappa=37.25360458688263)
    tail_b = dict(alpha=0.9057125651248272, mu=2.25140272766099,
                  ms=2.305451353845446, kappa=29.821172039025416)
    omega_then = {AkfParams(**base): 1.0910680810237026,
                  AkfParams(**tail_a): 0.5363812426680662,
                  AkfParams(**tail_b): 0.28782071632261824}
    monkeypatch.setattr(_params, "omega", omega_then.__getitem__)
    before = [
        (base, 1.0, 1.3, 0.752018360360232, 8.501632388408039e-14),
        (base, 1.0, 2.0, 0.9037375285610987, 4.760066227918119e-14),
        (base, 1.0, 3.0, 0.9706655239700189, 1.3748875413814518e-14),
        (base, 1.0, 4.0, 0.9892021065871147, 1.1289589985875108e-14),
        # just past the guard band, X1 = 1.055 and 1.07, at large mu kappa
        (tail_a, 1.2054897240105176, 0.0003633265630647533,
         2.1742607714259066e-12, 1.1935922534220858e-12),
        (tail_a, 1.2054897240105176, 0.00037223018097009837,
         2.0321522242738865e-12, 1.1546057487155364e-12),
        (tail_b, 4.490640916205504, 4.9995740516424966e-05,
         2.3590018827235326e-12, 1.2088578266772647e-12),
        (tail_b, 4.490640916205504, 5.157891701959491e-05,
         2.1600499167107046e-12, 1.1593660916528093e-12),
    ]
    for kw, gb, g, value, est in before:
        r = AkfDist(AkfParams(**kw), gb).snr_cdf_closed(g)
        assert r.converged and r.est_error < est
        assert abs(r.value - value) <= 1.01 * (est - r.est_error) + 1e-16
        if kw is base:
            assert abs(r.value - value) <= 1e-13
