"""Mixture CDFs summed by parts over the incomplete-beta recurrence, and the
Humbert Psi1 diagonal sweep, against the extended-precision oracles.

Each CDF series term is a weight times I_w(a + k, ms). The kernels step
T(a) = I_x(a, b) - I_x(a+1, b) from term to term by one product and sum
T against the partial sums of the weights, so scipy.special is called
for I at the first term and at the last one only. The deep lower tail at
strong line of sight, where many terms matter and I falls fast, is where
stepping I itself by I - T lost digits to cancellation.
"""

import math
import sys

import numpy as np
import pytest
from scipy import special

from compfade import (
    AefDist,
    AefParams,
    AkfDist,
    AkfParams,
    Format,
    SeriesControl,
    humbert_psi1,
    outage,
)
from compfade import _kernels as _k
from compfade.validation import ENGINE_TOL
from conftest import rel_err
import oracles

MIXTURE_TOL = 1e-11

# Strong line of sight with ms just above 2/alpha. The first set is the
# point where re-anchoring on the drop from the previous step, instead of
# from the last continued-fraction value, was 40-280x off.
DEEP_AKF = [
    (dict(alpha=1.3634063826958926, mu=1.5732042868809806,
          ms=1.707655737948103, kappa=33.409811425211686), 1.4653436413533034),
    (dict(alpha=0.9, mu=0.7, ms=2.3, kappa=20.0), 0.8),
    (dict(alpha=1.1, mu=1.2, ms=2.0, kappa=27.0), 1.7),
    (dict(alpha=1.5, mu=2.4, ms=1.45, kappa=40.0), 3.0),
]

# Format II with negative eta: H < 0, the cluster imbalance the series
# tail workload draws near eta = -1.
FORMAT_II_NEG = [
    (AefParams(alpha=2.0, eta=-0.9, mu=1.3, ms=3.0, format=Format.FORMAT_II), 1.0),
    (AefParams(alpha=1.4, eta=-0.95, mu=0.6, ms=1.8, format=Format.FORMAT_II), 2.5),
]


def _aef_ln_y(d: AefDist, g: float) -> float:
    p = d.params
    return math.log(2.0 * p.mu * d.geometry.h) + 0.5 * p.alpha * math.log(g) - oracles.ln_lambda(d)


@pytest.mark.parametrize("ratio", [1e-4, 1e-3])
@pytest.mark.parametrize("kw,gamma_bar", DEEP_AKF)
def test_akf_deep_lower_tail_matches_mixture_oracle(kw, gamma_bar, ratio):
    d = AkfDist(AkfParams(**kw), gamma_bar)
    g = gamma_bar * ratio
    want = float(oracles.mp_akf_cdf(kw["mu"], kw["ms"], kw["kappa"], d._ln_x1(g)))
    r = d.snr_cdf_series(g)
    assert r.converged
    assert rel_err(r.value, want) <= MIXTURE_TOL
    assert outage(d, g).value == r.value


@pytest.mark.parametrize("g", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("mu, kappa", [(1.2, 700.0), (1.2, 1e3 / 1.2)])
def test_akf_mixture_oracle_sums_past_the_mode_at_large_mu_kappa(mu, kappa, g):
    # the oracle's weights rise from e^(-mu kappa), far below its floor, to
    # their mode at mu kappa; stopping before it gave 0.0 for 0.6237 here.
    # scipy's noncentral F (Boost) is the independent reference
    d = AkfDist(AkfParams(alpha=2.5, kappa=kappa, mu=mu, ms=4.0), 1.0)
    ln_x1 = d._ln_x1(g)
    want = special.ncfdtr(2.0 * mu, 8.0, 2.0 * mu * kappa, math.exp(ln_x1) * 4.0 / mu)
    got = float(oracles.mp_akf_cdf(mu, 4.0, kappa, ln_x1))
    assert rel_err(got, want) <= MIXTURE_TOL


@pytest.mark.parametrize("ratio", [1e-4, 1e-3, 1.0, 1e3])
@pytest.mark.parametrize("p,gamma_bar", FORMAT_II_NEG)
def test_aef_format_ii_negative_eta_matches_mixture_oracle(p, gamma_bar, ratio):
    d = AefDist(p, gamma_bar)
    g = gamma_bar * ratio
    want = float(oracles.mp_aef_cdf(p.mu, p.ms, d.geometry.h, d.geometry.H ** 2,
                                    _aef_ln_y(d, g)))
    r = d.snr_cdf(g)
    assert r.converged
    assert rel_err(r.value, want) <= MIXTURE_TOL


@pytest.mark.parametrize("ratio", [1e-3, 1.0, 30.0])
def test_aef_alternating_weights_match_mixture_oracle(ratio):
    # A negative H^2, as the battery's flipped-sign check injects, makes
    # the weights alternate in sign; the kernel must still sum them right.
    p, gamma_bar = FORMAT_II_NEG[0]
    d = AefDist(p, gamma_bar)
    g = gamma_bar * ratio
    hsq = d.geometry.H ** 2
    flipped = _k.aef_cdf_consts(p.alpha, p.mu, p.ms, d.geometry.h, -hsq,
                                 oracles.ln_lambda(d))
    raw, _, _, status = _k._beta_mixture(flipped[0] + flipped[1] * math.log(g), *flipped[2:],
                                         1e-12, 100_000)
    want = float(oracles.mp_aef_cdf(p.mu, p.ms, d.geometry.h, -hsq, _aef_ln_y(d, g)))
    assert status == 0
    assert rel_err(raw, want) <= MIXTURE_TOL


SLOW_AEF = AefDist(AefParams(alpha=2.5, eta=0.2, mu=1.3, ms=4.0), 1.0)
SLOW_AKF = AkfDist(AkfParams(alpha=2.5, kappa=12.0, mu=1.2, ms=4.0), 1.0)


@pytest.mark.parametrize("k", range(1, 17))
def test_truncated_series_is_the_first_k_mixture_terms(k):
    # check_bound reads max_terms=k0 as "the first k0 terms of the series"
    g = 2.0
    d = SLOW_AEF
    r = d.snr_cdf(g, SeriesControl(max_terms=k))
    want = oracles.mp_aef_cdf(d.params.mu, d.params.ms, d.geometry.h, d.geometry.H ** 2,
                              _aef_ln_y(d, g), terms=k)
    assert r.terms_used == k and not r.converged
    assert rel_err(r.value, float(want)) <= MIXTURE_TOL
    d = SLOW_AKF
    r = d.snr_cdf_series(g, SeriesControl(max_terms=k))
    want = oracles.mp_akf_cdf(d.params.mu, d.params.ms, d.params.kappa, d._ln_x1(g),
                              terms=k)
    assert r.terms_used == k and not r.converged
    assert rel_err(r.value, float(want)) <= MIXTURE_TOL


def _kernel_args(ln_y, a, step, b, ln_w0, ln_z, sgn_z, r, d):
    """_beta_mixture's arguments (ln y, a, step, b, ln w0, ln z, sgn z, r, d,
    ln a, ln B(a, b)), ln a and ln B(a, b) formed as the CDF consts form them."""
    return ln_y, a, step, b, ln_w0, ln_z, sgn_z, r, d, math.log(a), _k._lbeta(a, b)


# _beta_mixture's arguments at two alpha-kappa-F points where I falls fast,
# and their terms_used. Stepping I by I - T and re-anchoring it on scipy at
# every hundredfold drop left these 1.98e-13 and 6.8e-14 off the sum of
# their terms.
FAST_DROPS = [
    (_kernel_args(0.28093922288360496, 1.5925575289977438, 1, 1.7049429043372746,
                  -52.840273822307466, 3.9672736617434126, 1.0, 1.0, 0.0), 79),
    (_kernel_args(-2.8210240080849, 2.5393784477829064, 1, 15.891022518889262,
                  -8.25490433034906, 2.1108074880074255, 1.0, 1.0, 0.0), 18),
]


@pytest.mark.parametrize("args,terms", FAST_DROPS)
def test_mixture_is_its_terms_summed_to_rounding(args, terms):
    raw, used, _, status = _k._beta_mixture(*args, 1e-12, 100_000)
    assert status == 0 and used == terms
    assert rel_err(raw, float(oracles.mp_kernel_mixture(*args, terms=used))) <= 2e-14


def _count_scipy_calls(monkeypatch) -> list:
    """Patches the incomplete betas the kernels call, the ufuncs of array
    calls and the typed entries of scalar calls; returns the list that
    records one entry per call."""
    calls = []
    for module, fn in ((_k._sc, "betainc"), (_k._sc, "betaincc"), (_k, "_betainc"),
                       (_k, "_betaincc")):
        real = getattr(module, fn)
        monkeypatch.setattr(module, fn, lambda *args, _f=real: calls.append(1) or _f(*args))
    return calls


@pytest.mark.parametrize("ln_y", [FAST_DROPS[1][0][0], -3.5, 0.3, 4.0])
def test_scalar_mixture_calls_scipy_at_most_twice(ln_y, monkeypatch):
    # I_0 and the last term's I; re-anchoring at every hundredfold drop made
    # 6 calls at the first point, where x = 0.056, and 7 at x = 0.029
    args = FAST_DROPS[1][0][1:]
    calls = _count_scipy_calls(monkeypatch)
    _, terms, _, status = _k._beta_mixture(ln_y, *args, 1e-12, 100_000)
    assert status == 0 and terms > 5
    assert 1 <= len(calls) <= 2


def test_lanes_call_scipy_as_often_however_many_terms(monkeypatch):
    d = AefDist(AefParams(alpha=2.5, eta=1e-2, mu=1.2, ms=4.0), 1.0)
    grid = np.geomspace(1e-4, 1e2, 40)
    assert grid.size >= _k._LANES_START
    calls = _count_scipy_calls(monkeypatch)
    counts = []
    for max_terms in (5, 50, 100_000):
        calls.clear()
        r = d.snr_cdf(grid, SeriesControl(max_terms=max_terms))
        counts.append(len(calls))
    assert r.terms_used.max() > 500
    assert 1 <= counts[0] == counts[1] == counts[2]


def _assert_lanes_equal_scalar_calls(d, g, ctrl=None):
    assert g.size >= _k._LANES_START  # the array loop, not scalar calls
    lanes = d.snr_cdf(g, ctrl)
    scalars = [d.snr_cdf(float(v), ctrl) for v in g]
    assert np.max(np.abs(lanes.value - [r.value for r in scalars])) <= 2e-15
    assert list(lanes.terms_used) == [r.terms_used for r in scalars]
    assert list(lanes.converged) == [r.converged for r in scalars]
    return lanes


def test_akf_cdf_where_the_first_step_term_underflows():
    # T_0 = x^a (1-x)^b / (a B(a, b)) is e^-758 at g = 1.15 and e^-790 at
    # 1.2, yet the T_j rise into the sum within its 860 terms. As products
    # of the underflowed T_0 every T_j would be 0 and the CDF would read
    # 0.50 for 0.996; the kernel steps such a T by its logarithm until it
    # is representable. scipy's noncentral F drifts by some 1e-11 at ms = 1e4
    mu, kappa, ms = 1.0, 690.0, 1e4
    d = AkfDist(AkfParams(alpha=2.0, kappa=kappa, mu=mu, ms=ms), 1.0)
    g = np.linspace(1.05, 1.2, 40)
    lanes = _assert_lanes_equal_scalar_calls(d, g)
    want = special.ncfdtr(2.0 * mu, 2.0 * ms, 2.0 * mu * kappa,
                          np.array([math.exp(d._ln_x1(float(v))) for v in g]) * ms / mu)
    assert lanes.converged.all()
    assert np.max(np.abs(lanes.value - want) / want) <= 1e-10


@pytest.mark.parametrize("gamma_bar, g", [(1.0, 1e-200), (1.0, 1e-320), (1e300, 1e-30)])
def test_akf_cdf_where_x_underflows(gamma_bar, g):
    # ln y is below -745, so x = y/(1+y) is 0 while ln x is finite: the
    # lagging T is stepped by ln x + ln f, never by the ln of a 0 ratio
    d = AkfDist(AkfParams(alpha=4.0, kappa=1.0, mu=1.0, ms=4.0), gamma_bar)
    r = d.snr_cdf(g)
    assert r.converged and r.value == 0.0
    lanes = _assert_lanes_equal_scalar_calls(d, np.full(40, g))
    assert not lanes.value.any()


# Lagging starts: ln T_0 is below _LN_POW_MIN, so T is stepped by its
# logarithm until it rises into the sum. On LAGGING_AEF (step 2) at g = 2,
# ln T_0 = -942 and the lag ends at the second step j of term 35 (j = 71);
# over g in (1.9, 2.1) it ends at the first step of a term at some points
# and at the second at others. On LAGGING_AKF (step 1) at g = 5, ln T_0 =
# -951 and the lag ends at term 74 of 308. (The alpha-kappa-F lag that
# rises within the sum is test_akf_cdf_where_the_first_step_term_underflows.)
LAGGING_AEF = AefDist(AefParams(alpha=2.0, eta=1e-3, mu=1.0, ms=1e4), 1.0)
LAGGING_AKF = AkfDist(AkfParams(alpha=2.0, kappa=200.0, mu=1.0, ms=1e4), 1.0)


def _mp_partial(d, g, terms):
    """The first `terms` terms of d's CDF mixture at g from the oracles."""
    p = d.params
    if isinstance(d, AefDist):
        return float(oracles.mp_aef_cdf(p.mu, p.ms, d.geometry.h, d.geometry.H ** 2,
                                        _aef_ln_y(d, g), terms=terms))
    return float(oracles.mp_akf_cdf(p.mu, p.ms, p.kappa, d._ln_x1(g), terms=terms))


def test_aef_lagging_start_rises_within_the_sum():
    d, g = LAGGING_AEF, 2.0
    r = d.snr_cdf(g)
    assert r.converged and r.terms_used == 603
    # 38 terms: past term 35, where the lag ends
    ctrl = SeriesControl(max_terms=38)
    r = d.snr_cdf(g, ctrl)
    assert r.terms_used == 38 and not r.converged
    assert rel_err(r.value, _mp_partial(d, g, 38)) <= MIXTURE_TOL
    grid = np.linspace(1.9, 2.1, 40)
    _assert_lanes_equal_scalar_calls(d, grid)
    _assert_lanes_equal_scalar_calls(d, grid, ctrl)


@pytest.mark.parametrize("gamma_bar, g", [(1.0, 1e-300), (1e10, 1e-320)])
def test_aef_lagging_start_where_x_underflows(gamma_bar, g):
    # x = 5e-302 at the first point, so x^a underflows, and x = 0 at the
    # second (ln y = -763): T lags throughout, stepped by ln x + ln f
    d = AefDist(LAGGING_AEF.params, gamma_bar)
    r = d.snr_cdf(g)
    assert r.converged and r.value == 0.0
    assert rel_err(r.value, _mp_partial(d, g, r.terms_used)) <= MIXTURE_TOL
    lanes = _assert_lanes_equal_scalar_calls(d, np.full(40, g))
    assert not lanes.value.any()


@pytest.mark.parametrize("max_terms", [1, 2, 3])
@pytest.mark.parametrize("d, g", [(LAGGING_AEF, 2.0), (LAGGING_AKF, 5.0)],
                         ids=["aef", "akf"])
def test_first_terms_of_a_lagging_start(d, g, max_terms):
    ctrl = SeriesControl(max_terms=max_terms)
    r = d.snr_cdf(g, ctrl)
    assert r.terms_used == max_terms and not r.converged
    assert rel_err(r.value, _mp_partial(d, g, max_terms)) <= MIXTURE_TOL
    _assert_lanes_equal_scalar_calls(d, np.full(40, g), ctrl)


@pytest.mark.parametrize("args", [
    (1.7, 0.9, 2.3, 1.4, 0.65, 40.0),
    (1.2, 0.8, 2.0, 1.5, -0.85, 60.0),
])
def test_humbert_psi1_over_many_diagonals(args):
    r = humbert_psi1(*args)
    assert r.converged and r.terms_used >= 100
    assert rel_err(r.value, float(oracles.mp_humbert_psi1(*args))) <= ENGINE_TOL


def test_humbert_psi1_past_the_rescale():
    # the running sum passes 1e290 on the way, so the columns get rescaled
    args = (1.0, 0.5, 1.5, 1.0, 1e-3, 680.0)
    r = humbert_psi1(*args)
    assert r.converged and r.value > 1e290
    assert rel_err(r.value, float(oracles.mp_humbert_psi1(*args))) <= ENGINE_TOL


def _assert_plain(r):
    assert type(r.value) is float
    assert type(r.terms_used) is int
    assert type(r.est_error) is float
    assert type(r.converged) is bool


@pytest.mark.parametrize("g", [0.3, 50.0])  # below and above the band, both the mixture
def test_closed_form_results_hold_plain_python_types(g):
    _assert_plain(AkfDist(AkfParams(alpha=2.5, kappa=1.5, mu=1.2, ms=4.0), 1.0)
                  .snr_cdf_closed(g))


def test_humbert_psi1_result_holds_plain_python_types():
    _assert_plain(humbert_psi1(1.3, 0.7, 2.1, 1.9, 0.5, 2.5))


@pytest.mark.parametrize("eta", [1e-2, 1e-3, 1e-4])
@pytest.mark.parametrize("mu", [0.5, 1.0, 2.5, 7.0])
def test_aef_negative_binomial_weights_sum_to_one(eta, mu):
    # the weights h^-mu (mu)_k/k! q^k sum to h^-mu (1 - q)^-mu, here in
    # mpmath from the double constants ln w0 = -mu ln h and ln q. With
    # q = 1 - 1/h from h^2 - H^2 = h the sum is 1 within 1e-15 up to mu = 1;
    # past that the rounding of ln w0 itself, eps |ln w0|, dominates. ln q
    # taken as ln H^2 - 2 ln h left it 1 - 2.8e-13 off at eta = 1e-3, mu = 1.
    d = AefDist(AefParams(alpha=2.0, eta=eta, mu=mu, ms=4.0), 1.0)
    ln_w0, ln_q, sgn_q = d._cdf_consts[_k.CDF_LN_W0], d._cdf_consts[6], d._cdf_consts[7]
    assert sgn_q == 1.0
    mp = oracles._setup()
    q = mp.exp(mp.mpf(ln_q))
    total = mp.exp(mp.mpf(ln_w0)) * (1 - q) ** (-mu)
    if eta == 1e-2:
        # the same sum term by term, past the mode until the weights are
        # below 1e-30 (some 2000 terms here, 10^5 and more at smaller eta)
        terms, weight, k = mp.mpf(0), mp.exp(mp.mpf(ln_w0)), 0
        while weight > mp.mpf(10) ** -30 or k < mu / (1 - q):
            terms += weight
            weight *= (mu + k) / mp.mpf(k + 1) * q
            k += 1
        assert abs(terms - total) <= 1e-25
    eps = sys.float_info.epsilon
    assert abs(float(total) - 1.0) <= max(1e-15, eps * (abs(ln_w0) + mu + 2.0))
