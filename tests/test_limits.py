"""Values at the ends of the domain, overflowing asymptotes, the term
budget read from the environment at import, and what the imports load."""

import math
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest

from compfade import _kernels as _k
from compfade import (
    AefDist,
    AefEnvelope,
    AefParams,
    AkfDist,
    AkfEnvelope,
    AkfParams,
    ConvergenceError,
    Format,
    asymptotic_outage_aef,
    asymptotic_outage_akf,
    default_control,
)
from conftest import child_env, rel_err

AEF = [AefParams(alpha=3.5, eta=0.5, mu=1.5, ms=3.0),
       AefParams(alpha=2.0, eta=-0.4, mu=0.7, ms=2.5, format=Format.FORMAT_II)]
AKF = [AkfParams(alpha=2.5, kappa=1.5, mu=1.2, ms=4.0),
       AkfParams(alpha=1.2, kappa=30.0, mu=1.6, ms=2.0),
       AkfParams(alpha=2.0, kappa=0.0, mu=1.0, ms=3.0)]


@pytest.mark.parametrize("p", AEF)
def test_aef_at_infinity(p):
    d = AefDist(p, 2.0)
    assert d.snr_pdf(math.inf) == 0.0
    assert AefEnvelope(p, 2.0).envelope_pdf(math.inf) == 0.0
    r = d.snr_cdf(math.inf)
    assert r.value == 1.0 and r.converged


@pytest.mark.parametrize("p", AKF)
def test_akf_at_infinity(p):
    d = AkfDist(p, 2.0)
    assert d.snr_pdf(math.inf) == 0.0
    assert AkfEnvelope(p, 2.0).envelope_pdf(math.inf) == 0.0
    for r in (d.snr_cdf_series(math.inf), d.snr_cdf_closed(math.inf)):
        assert r.value == 1.0 and r.converged


@pytest.mark.parametrize("gamma", [1e250, 1e300, 1.7e308])
def test_closed_cdf_at_huge_snr_matches_series(gamma):
    # X1 grows past the double range here; the branch is chosen in log space
    d = AkfDist(AKF[0], 1.0)
    closed, series = d.snr_cdf_closed(gamma), d.snr_cdf_series(gamma)
    assert closed.converged and series.converged
    assert abs(closed.value - series.value) <= 1e-12


def test_asymptotes_beyond_the_double_range_are_infinite():
    akf = AkfDist(AkfParams(alpha=2.0, kappa=0.5, mu=1.0, ms=4.0), 1e-300)
    aef = AefDist(AefParams(alpha=2.0, eta=0.5, mu=1.0, ms=4.0), 1e-300)
    assert asymptotic_outage_akf(akf, 1e300) == math.inf
    assert asymptotic_outage_aef(aef, 1e300) == math.inf


def _lbeta_rounding(a, b):
    """Bound on _lbeta's rounding: eps (a + b) ln(a + b) on the lgamma
    difference, eps |ln B| in Stirling's form (times 4)."""
    if a + b > _k._LBETA_STIRLING_MIN:
        return 4.0 * 2.0**-52 * abs(_k._lbeta(a, b))
    return 4.0 * 2.0**-52 * (a + b) * math.log(a + b)


@pytest.mark.parametrize("dist, a, b", [
    (lambda: AkfDist(AkfParams(alpha=2.0, kappa=0.5, mu=1e300, ms=4.0), 1.0).omega_norm,
     1e300, 4.0),
    (lambda: AefDist(AefParams(alpha=2.0, eta=0.5, mu=1e5, ms=4.0), 1.0).upsilon,
     2e5, 4.0),
], ids=["akf-mu=1e300", "aef-mu=1e5"])
def test_normalizer_at_huge_mu_is_one_at_alpha_two(dist, a, b):
    # the series forms left the double range here (omega underflowed to 0,
    # the geometry 2F1 overflowed); the closed forms give the true value,
    # 1 at alpha = 2, within the rounding of the two ln B in the bracket
    tol = _lbeta_rounding(a, b) + _lbeta_rounding(a + 1.0, b - 1.0)
    assert abs(dist() - 1.0) <= tol


@pytest.mark.parametrize("build", [
    lambda: AkfDist(AkfParams(alpha=1e300, kappa=0.5, mu=1.0, ms=4.0), 1.0),
    lambda: AefDist(AefParams(alpha=1e300, eta=0.5, mu=1.0, ms=4.0), 1.0),
], ids=["akf", "aef"])
def test_normalization_at_huge_alpha_raises(build):
    # the bracket's log is a difference of order 2/alpha between terms of
    # order 1, and alpha/2 times its rounding is past 1e-10: a bare closed
    # form gave omega = 0.5 for 2.006 here. No bare arithmetic error either
    with pytest.raises(ConvergenceError, match="normalization constant"):
        build()


@pytest.mark.parametrize("ms", [1e4, 1e6, 1e12, 1e15, 1e100, 1e300])
@pytest.mark.parametrize("a", [0.3, 2.0, 60.0])
def test_lbeta_matches_mpmath_at_large_shapes(a, ms):
    # Stirling's form keeps the digits the lgamma difference and betaln lose
    # (both 3e-9 relative at a + b = 1e6); the reference keeps 40 digits
    # after its own loggamma terms of size ms ln ms cancel
    with mp.workdps(40 + int(math.log10(ms)) + 3):
        exact = float(mp.loggamma(a) + mp.loggamma(ms) - mp.loggamma(mp.mpf(a) + ms))
    for got in (_k._lbeta(a, ms), _k._lbeta(ms, a)):
        assert abs(got - exact) <= 1e-14 * max(1.0, abs(exact))


def _eta_mu_pdf(eta, mu):
    """Density of the ms -> inf limit of the alpha-eta-F law at alpha = 2,
    gamma_bar = 1, Format I: the eta-mu law, at the working precision."""
    h, H = (2 + 1 / mp.mpf(eta) + eta) / 4, (1 / mp.mpf(eta) - eta) / 4
    c = 2 * mp.sqrt(mp.pi) * mu ** (mu + 0.5) * h**mu / (mp.gamma(mu) * H ** (mu - 0.5))
    return lambda x: (c * x ** (mu - 0.5) * mp.exp(-2 * mu * h * x)
                      * mp.besseli(mu - 0.5, 2 * mu * H * x))


def _kappa_mu_pdf(kappa, mu):
    """Density of the ms -> inf limit of the alpha-kappa-F law at alpha = 2,
    gamma_bar = 1: the kappa-mu law, at the working precision."""
    c = mu * (1 + kappa) ** ((mu + 1) / 2) / (kappa ** ((mu - 1) / 2) * mp.exp(mu * kappa))
    return lambda x: (c * x ** ((mu - 1) / 2) * mp.exp(-mu * (1 + kappa) * x)
                      * mp.besseli(mu - 1, 2 * mu * mp.sqrt(kappa * (1 + kappa) * x)))


def _eta_mu_cdf(eta, mu, g):
    with mp.workdps(30):
        return float(mp.quad(_eta_mu_pdf(eta, mu), [0, g]))


def _kappa_mu_cdf(kappa, mu, g):
    with mp.workdps(30):
        return float(mp.quad(_kappa_mu_pdf(kappa, mu), [0, g]))


@pytest.mark.parametrize("ms", [1e15, 1e100, 1e300])
def test_cdf_at_huge_ms_is_the_limit_law_or_raises(ms):
    # a CDF within 1/ms of the ms -> inf law, or ConvergenceError. With
    # ln B from the lgamma difference alone (ln B(2, 1e15) = -64.0 for
    # -69.08), ms = 1e300 gave a converged 0.99999999999999
    cases = ((AefDist(AefParams(alpha=2.0, eta=0.5, mu=1.0, ms=ms), 1.0),
              _eta_mu_cdf(0.5, 1.0, 1.0)),
             (AkfDist(AkfParams(alpha=2.0, kappa=1.0, mu=1.0, ms=ms), 1.0),
              _kappa_mu_cdf(1.0, 1.0, 1.0)))
    for d, want in cases:
        try:
            r = d.snr_cdf(1.0)
        except ConvergenceError:
            continue
        assert r.converged and abs(r.value - want) <= 1e-12


@pytest.mark.parametrize("ms", [1e13, 1e100, 1.7e308])
def test_density_at_huge_ms_is_the_limit_law_or_raises(ms):
    # a density within 1e-12 + 1/ms of the ms -> inf law, or ConvergenceError,
    # at a float point and in lanes. With ms ln Lambda and (2mu + ms) ln D
    # formed apart, the densities were 1.7e-4 off at ms = 1e11 and refused
    # past about 2e11
    g = np.array([0.1, 1.0, 3.0])
    with mp.workdps(30):
        cases = ((AefDist(AefParams(alpha=2.0, eta=0.5, mu=1.0, ms=ms), 1.0),
                  [float(_eta_mu_pdf(0.5, 1.0)(x)) for x in g]),
                 (AkfDist(AkfParams(alpha=2.0, kappa=1.0, mu=1.0, ms=ms), 1.0),
                  [float(_kappa_mu_pdf(1.0, 1.0)(x)) for x in g]))
    for d, want in cases:
        for got in (lambda: [d.snr_pdf(float(x)) for x in g], lambda: d.snr_pdf(g)):
            try:
                values = got()
            except ConvergenceError:
                continue
            assert max(map(rel_err, values, want)) <= 1e-12 + 1.0 / ms


def test_hyper_series_ends_at_a_partial_sum_that_is_not_finite():
    # (a + n)(b + n) overflows: an infinite sum was reported as converged;
    # at z = 0 the first term is inf * 0 = NaN, which ran to max_terms
    for z in (1e-300, 0.0):
        _, _, terms, _, status = _k._hyper_series(1e155, 1e155, 1.5, z, 1e-12, 1000)
        assert status == 1 and terms <= 3


def test_density_past_the_series_range_refuses_at_once(monkeypatch):
    # at ms = 1e200 t^2 underflows and the 2F1 series' first term is NaN;
    # it took 100k NaN terms (80 ms) to refuse
    series, used = _k._hyper_series, []

    def counted(*args, **kwargs):
        out = series(*args, **kwargs)
        used.append(out[2])
        return out

    monkeypatch.setattr(_k, "_hyper_series", counted)
    d = AefDist(AefParams(alpha=2.0, eta=0.5, mu=1.0, ms=1e200), 1.0)
    for x in (1.0, np.array([0.5, 1.0, 2.0])):
        with pytest.raises(ConvergenceError, match="did not converge"):
            d.snr_pdf(x)
    assert used and max(used) <= 3


def test_overflowing_density_raises():
    d = AkfDist(AkfParams(alpha=0.5, kappa=1.0, mu=0.1, ms=10.0), 1e-3)
    with pytest.raises(ConvergenceError, match="density overflowed"):
        d.snr_pdf(5e-324)


def test_default_control_is_resolved_once():
    assert default_control() is default_control()


def _import_with_max_terms(raw):
    code = "import compfade; print(compfade.default_control().max_terms)"
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          env=child_env(COMPFADE_MAX_TERMS=raw))


def test_max_terms_override_is_read_at_import():
    r = _import_with_max_terms("250")
    assert r.returncode == 0 and r.stdout.decode().strip() == "250"


def test_non_integer_max_terms_fails_the_import():
    r = _import_with_max_terms("lots")
    assert r.returncode != 0
    assert b"DomainError" in r.stderr and b"COMPFADE_MAX_TERMS" in r.stderr


def test_import_runs_the_interpreted_kernels_only():
    code = (
        "import sys, compfade\n"
        "from compfade import backend\n"
        "print(backend.BACKEND, 'numba' in sys.modules)"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, env=child_env())
    assert r.returncode == 0, r.stderr
    assert r.stdout.decode().split() == ["numpy", "False"]


def test_cli_import_leaves_the_validation_battery_unloaded():
    code = (
        "import sys, compfade.cli\n"
        "print('scipy.integrate' in sys.modules, 'compfade.validation' in sys.modules)"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, env=child_env())
    assert r.returncode == 0, r.stderr
    assert r.stdout.decode().split() == ["False", "False"]


def test_validation_import_leaves_scipy_integrate_and_linalg_unloaded():
    # the battery's quadrature hard-codes its Kronrod table: taking it from
    # scipy.integrate, or Gauss rules from special.roots_legendre (which
    # loads scipy.linalg), costs every run's start-up time and memory
    code = (
        "import sys, compfade.validation\n"
        "print('scipy.integrate' in sys.modules, 'scipy.linalg' in sys.modules)"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, env=child_env())
    assert r.returncode == 0, r.stderr
    assert r.stdout.decode().split() == ["False", "False"]
