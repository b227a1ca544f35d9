"""The battery's array quadrature (validation._integrate) on integrals with
known values, against scipy.integrate.quad on the heavy-tailed mean
integrals, and inside the checks it serves: a budget that runs out and a
density off by 1e-6 must both fail."""

import dataclasses
import json
import math

import numpy as np
import pytest
from scipy import integrate, special

from compfade import AefParams, AkfParams, ConvergenceError
from compfade import validation as V

EXACT_TOL = 1e-13


def _f_density(d1, d2):
    """Fisher-Snedecor F(d1, d2) density with its closed-form normalizer."""
    ln_norm = 0.5 * d1 * math.log(d1 / d2) - special.betaln(0.5 * d1, 0.5 * d2)

    def pdf(x):
        return np.exp(ln_norm + (0.5 * d1 - 1.0) * np.log(x)
                      - 0.5 * (d1 + d2) * np.log1p(d1 * x / d2))

    return pdf


def test_power_with_an_integrable_singularity_at_zero():
    total, at = V._integrate(lambda x: x**-0.4, 1.0, -0.4, marks=(0.01, 0.3, 1.0))
    assert total == pytest.approx(1.0 / 0.6, rel=EXACT_TOL)
    np.testing.assert_allclose(at, np.array([0.01, 0.3, 1.0]) ** 0.6 / 0.6, rtol=EXACT_TOL)


@pytest.mark.parametrize("d1,d2", [(1.0, 2.2), (0.3, 7.0), (4.0, 0.5), (10.0, 30.0)])
def test_f_density_integrates_to_one_with_its_cdf_at_the_marks(d1, d2):
    pdf = _f_density(d1, d2)
    head_exp, tail_decay = 0.5 * d1 - 1.0, 0.5 * d2 + 1.0
    total, _ = V._integrate(pdf, 1.0, head_exp, tail_decay)
    assert abs(total - 1.0) <= EXACT_TOL
    marks = np.geomspace(0.05, 8.0, 10)
    _, at = V._integrate(pdf, marks[-1], head_exp, marks=marks)
    np.testing.assert_allclose(at, special.fdtr(d1, d2, marks), rtol=0, atol=EXACT_TOL)


@pytest.mark.parametrize("d2", [2.1, 2.02])
def test_f_mean_with_its_tail_past_1e100_from_the_remainder(d2):
    # x f(x) ~ x^-(d2/2): 1.1e-5 of the mean d2/(d2 - 2) at d2 = 2.1, a
    # tenth of it at d2 = 2.02, lies beyond x = 1e100, where the mesh stops
    # and the analytic remainder takes over
    pdf = _f_density(1.0, d2)
    mean, _ = V._integrate(lambda x: x * pdf(x), 1.0, 0.5, 0.5 * d2)
    assert mean == pytest.approx(d2 / (d2 - 2.0), rel=EXACT_TOL)


def _quad_mean(p):
    """Mean integral of the density at p by adaptive scalar quadrature, with
    the substitutions of _integrate."""
    _, pdf, head_exp = V._snr_pdf_fn(p)
    tail_decay = 0.5 * p.alpha * p.ms
    pk = max(1.0, 1.6 / (2.0 + head_exp))
    q = max(1.0, 1.6 / (tail_decay - 1.0))
    head, _ = integrate.quad(lambda t: t**pk * pdf(t**pk) * pk * t ** (pk - 1.0),
                             0.0, 1.0, **V._QUAD_OPTS)
    tail, _ = integrate.quad(lambda u: u**-q * pdf(u**-q) * q * u ** (-q - 1.0),
                             0.0, 1.0, **V._QUAD_OPTS)
    return head + tail


HEAVY_TAILS = [
    family(alpha=1.0, mu=mu, ms=2.1, **{shape: value})
    for family, shape, values in ((AefParams, "eta", V.VALIDATION_ETAS),
                                  (AkfParams, "kappa", V.VALIDATION_KAPPAS))
    for value in values
    for mu in V.VALIDATION_MUS
]


@pytest.mark.parametrize("p", HEAVY_TAILS, ids=[
    V._aef_tag(p) if isinstance(p, AefParams) else V._akf_tag(p) for p in HEAVY_TAILS])
def test_heavy_tailed_means_agree_with_scalar_quadrature(p):
    _, pdf, head_exp = V._snr_pdf_fn(p)
    mean, _ = V._integrate(lambda g: g * pdf(g), 1.0, head_exp + 1.0, 0.5 * p.alpha * p.ms)
    assert abs(mean - _quad_mean(p)) <= 1e-12


def _ripple(x):
    """1 + 1e-3 sin(1e5 x): its panels would have to be about 1e-5 wide."""
    return 1.0 + 1e-3 * np.sin(1e5 * x)


def test_an_unresolvable_integrand_runs_the_budget_out():
    with pytest.raises(ConvergenceError, match="panels pending"):
        V._integrate(_ripple, 1.0, 0.0)


def test_a_non_finite_integrand_is_refused():
    with pytest.raises(ConvergenceError, match="not finite"):
        V._integrate(lambda x: np.where(x < 0.5, np.nan, 1.0), 1.0, 0.0)


GRID = [AefParams(alpha=2.0, eta=0.2, mu=1.0, ms=5.0),
        AkfParams(alpha=1.0, kappa=5.0, mu=0.5, ms=2.1)]


def _patched_density(monkeypatch, change):
    """Make the checks integrate change(pdf) in place of each density."""
    fn = V._snr_pdf_fn

    def patched(p, gamma_bar=1.0):
        d, pdf, head_exp = fn(p, gamma_bar)
        return d, change(pdf), head_exp

    monkeypatch.setattr(V, "_snr_pdf_fn", patched)


def test_budget_run_out_fails_the_check_with_a_detail(monkeypatch):
    _patched_density(monkeypatch, lambda pdf: lambda g: pdf(g) * _ripple(g))
    for check in (V.check_normalization, V.check_mean, V.check_cdf):
        results = [c for c in check(GRID) if not c.name.startswith("cdf-closed")]
        assert len(results) == len(GRID)
        for c in results:
            assert not c.passed and math.isnan(c.measured)
            assert "panels pending" in c.detail


def test_normalization_catches_a_density_off_by_1e_6(monkeypatch):
    assert all(c.passed for c in V.check_normalization(GRID))
    _patched_density(monkeypatch, lambda pdf: lambda g: pdf(g) * (1.0 + 1e-6))
    results = V.check_normalization(GRID)
    assert not any(c.passed for c in results)
    assert all(c.measured == pytest.approx(1e-6, rel=1e-6) for c in results)


def test_quadrature_checks_are_json_ready():
    # the report is written with json.dumps: no numpy scalars in a Check
    checks = V.check_normalization(GRID) + V.check_mean(GRID) + V.check_cdf(GRID)
    assert any(c.name.startswith("cdf-closed") for c in checks)
    json.dumps([dataclasses.asdict(c) for c in checks])
