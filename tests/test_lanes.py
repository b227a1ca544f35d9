"""Array calls of the densities and the mixture CDF (lanes) against the
scalar calls, point by point.

An np.ndarray argument of snr_pdf, envelope_pdf and snr_cdf runs every
point as a lane of one array computation; a float keeps the scalar
kernels. Each lane must give what the scalar call gives at its point: the
density within 1e-13 relative, the CDF value within 2e-15 absolute with
the same terms_used and converged, and the same exceptions.
"""

import math

import numpy as np
import pytest

from compfade import (
    AefDist,
    AefEnvelope,
    AefParams,
    AkfDist,
    AkfEnvelope,
    AkfParams,
    ConvergenceError,
    DomainError,
    Format,
    LaneResult,
    SeriesControl,
    SeriesResult,
)
from compfade import _kernels as _k
from compfade import mc
from compfade.series import cdf_clamped
from compfade.validation import _envelope_cdf_interp, _flip_h_sign, check_mc

PDF_REL = 1e-13
CDF_ABS = 2e-15

LAWS = [
    ("aef-I", AefDist, AefEnvelope, AefParams(alpha=2.5, eta=0.5, mu=1.2, ms=4.0)),
    ("aef-II", AefDist, AefEnvelope,
     AefParams(alpha=1.7, eta=-0.4, mu=0.7, ms=9.0, format=Format.FORMAT_II)),
    ("aef-eta1", AefDist, AefEnvelope, AefParams(alpha=2.2, eta=1.0, mu=1.5, ms=3.0)),
    ("aef-II-eta0", AefDist, AefEnvelope,
     AefParams(alpha=3.0, eta=0.0, mu=1.0, ms=2.5, format=Format.FORMAT_II)),
    ("aef-imbalance", AefDist, AefEnvelope, AefParams(alpha=2.0, eta=3e-5, mu=1.3, ms=5.0)),
    # 5 to 137 mixture terms a point: lanes leave the loop at many steps
    ("aef-eta0.05", AefDist, AefEnvelope, AefParams(alpha=2.0, eta=0.05, mu=1.3, ms=5.0)),
    ("aef-ms60", AefDist, AefEnvelope, AefParams(alpha=2.5, eta=0.5, mu=1.2, ms=60.0)),
    ("akf", AkfDist, AkfEnvelope, AkfParams(alpha=2.5, kappa=1.5, mu=1.2, ms=4.0)),
    ("akf-kappa0", AkfDist, AkfEnvelope, AkfParams(alpha=3.0, kappa=0.0, mu=2.0, ms=5.0)),
    ("akf-kappa-tiny", AkfDist, AkfEnvelope,
     AkfParams(alpha=2.0, kappa=1e-12, mu=1.5, ms=3.0)),
    ("akf-strong-los", AkfDist, AkfEnvelope, AkfParams(alpha=1.1, kappa=27.0, mu=1.2, ms=2.0)),
    ("akf-ms60", AkfDist, AkfEnvelope, AkfParams(alpha=2.5, kappa=1.5, mu=1.2, ms=60.0)),
]
# at eta = 3e-5 the mixture weights fall as (H/h)^2k, H/h within 6e-5 of 1:
# its CDF needs up to max_terms terms a point and is left out
CDF_LAWS = [law[0] for law in LAWS if law[0] != "aef-imbalance"]


def laws(*names):
    """The LAWS entries named, as pytest parameters with their ids."""
    return [pytest.param(*law, id=law[0]) for law in LAWS if law[0] in names]


# log-spaced interior points with both endpoints
GRID = np.concatenate(([0.0], np.geomspace(1e-6, 1e6, 241), [math.inf]))


def _assert_pdf_lanes(lanes, scalars):
    scalars = np.array(scalars)
    assert lanes.shape == scalars.shape
    same = lanes == scalars  # also inf == inf at a singular 0
    with np.errstate(invalid="ignore"):
        gap = np.abs(lanes - scalars)
    assert np.all(same | (gap <= PDF_REL * np.abs(scalars) + 1e-300)), (
        np.max(gap[~same] / np.abs(scalars[~same]))
    )


def _assert_cdf_lanes(lanes, scalars):
    assert isinstance(lanes, LaneResult)
    assert np.max(np.abs(lanes.value - [r.value for r in scalars]), initial=0.0) <= CDF_ABS
    assert lanes.terms_used.tolist() == [r.terms_used for r in scalars]
    assert lanes.converged.tolist() == [r.converged for r in scalars]


@pytest.mark.parametrize("gamma_bar", [1.0, 1.7])
@pytest.mark.parametrize("name,law,envelope,p", laws(*(law[0] for law in LAWS)))
def test_density_lanes_match_scalar_calls(name, law, envelope, p, gamma_bar):
    d, env = law(p, gamma_bar), envelope(p, gamma_bar)
    _assert_pdf_lanes(d.snr_pdf(GRID), [d.snr_pdf(float(g)) for g in GRID])
    _assert_pdf_lanes(env.envelope_pdf(GRID), [env.envelope_pdf(float(r)) for r in GRID])


@pytest.mark.parametrize("gamma_bar", [1.0, 1.7])
@pytest.mark.parametrize("name,law,envelope,p", laws(*CDF_LAWS))
def test_cdf_lanes_match_scalar_calls(name, law, envelope, p, gamma_bar):
    d = law(p, gamma_bar)
    _assert_cdf_lanes(d.snr_cdf(GRID), [d.snr_cdf(float(g)) for g in GRID])


@pytest.mark.parametrize("name,law,envelope,p", laws("aef-I", "akf"))
def test_short_arrays_match_scalar_calls(name, law, envelope, p):
    # arrays of fewer than _k._LANES_START points are summed by the scalar
    # loop point by point, longer ones by the array loop
    d = law(p, 1.0)
    for grid in (GRID[100:101], GRID[100:103], GRID[95:104],
                 GRID[95:95 + _k._LANES_START - 1], GRID[95:95 + _k._LANES_START]):
        _assert_cdf_lanes(d.snr_cdf(grid), [d.snr_cdf(float(g)) for g in grid])


@pytest.mark.parametrize("max_terms", [100_000, 300])
@pytest.mark.parametrize("d", [
    AefDist(AefParams(alpha=2.5, eta=1e-2, mu=1.2, ms=4.0), 1.0),
    AkfDist(AkfParams(alpha=2.5, kappa=200.0, mu=1.2, ms=4.0), 1.0),
], ids=["aef", "akf"])
def test_straggler_lanes_run_to_their_own_stop(d, max_terms):
    # 4 to 28 terms in the deep lower tail, 357 (akf) or 630 (aef) at the 4
    # large gammas: the array loop runs on for the stragglers alone, and
    # with max_terms = 300 they end unconverged where the rest converged
    grid = np.concatenate((np.geomspace(1e-6, 1e-3, 36), np.geomspace(1e2, 1e4, 4)))
    assert grid.size >= _k._LANES_START
    ctrl = SeriesControl(max_terms=max_terms)
    lanes = d.snr_cdf(grid, ctrl)
    scalars = [d.snr_cdf(float(g), ctrl) for g in grid]
    _assert_cdf_lanes(lanes, scalars)
    assert lanes.terms_used[-4:].min() > 10 * lanes.terms_used[:36].max()
    assert lanes.converged[:36].all()
    assert lanes.converged[-4:].all() == (max_terms == 100_000)


def test_cdf_lanes_clamp_as_the_scalar_call_does(monkeypatch):
    raw = np.array([-1e-17, 0.25, 1.0 + 2e-16])
    terms, est, status = np.array([3, 4, 5]), np.full(3, 1e-18), np.array([0, 0, 1])
    monkeypatch.setattr(_k, "_beta_mixture_lanes", lambda *args: (raw, terms, est, status))
    got = AefDist(AefParams(alpha=2.5, eta=0.5, mu=1.2, ms=4.0), 1.0).snr_cdf(np.array([0.5, 1.0, 2.0]))
    want = [cdf_clamped(*args) for args in zip(raw, terms, est, status == 0)]
    assert got.value.tolist() == [r.value for r in want]
    assert got.est_error.tolist() == [r.est_error for r in want]
    assert got.converged.tolist() == [r.converged for r in want]


@pytest.mark.parametrize("name,law,envelope,p", laws("aef-I", "aef-II", "akf"))
def test_density_lanes_scipy_does_not_serve_take_the_series(name, law, envelope, p,
                                                           monkeypatch):
    # scipy gives no finite value once |z| or x passes 0.1, through the ufunc
    # (array calls) and the typed entry (scalar calls): both sum the series.
    # The law is built first, so its normalizer takes scipy's value.
    d = law(p, 1.0)
    refused = []
    for fn in ("hyp2f1", "hyp1f1"):
        real = getattr(_k._sc, fn)
        monkeypatch.setattr(_k._sc, fn, lambda *args, _f=real: np.where(
            np.abs(args[-1]) > 0.1, np.inf, _f(*args)))

        def scalar(*args, _f=getattr(_k, "_" + fn)):
            if abs(args[-1]) > 0.1:
                refused.append(args)
                return math.inf
            return _f(*args)

        monkeypatch.setattr(_k, "_" + fn, scalar)
    _assert_pdf_lanes(d.snr_pdf(GRID), [d.snr_pdf(float(g)) for g in GRID])
    assert refused


@pytest.mark.parametrize("name,law,envelope,p", laws("aef-I", "aef-II"))
def test_cdf_lanes_read_the_flipped_h_sign(name, law, envelope, p):
    d = _flip_h_sign(AefDist(p, 1.0))
    lanes = d.snr_cdf(GRID)
    _assert_cdf_lanes(lanes, [d.snr_cdf(float(g)) for g in GRID])
    assert np.max(np.abs(lanes.value - AefDist(p, 1.0).snr_cdf(GRID).value)) > 1e-3


@pytest.mark.parametrize("k0", range(1, 17))
@pytest.mark.parametrize("name,law,envelope,p", laws("aef-I", "aef-II", "akf"))
def test_cdf_lanes_honor_max_terms_per_point(name, law, envelope, p, k0):
    d = law(p, 1.0)
    ctrl = SeriesControl(max_terms=k0)
    _assert_cdf_lanes(d.snr_cdf(GRID, ctrl), [d.snr_cdf(float(g), ctrl) for g in GRID])


@pytest.mark.parametrize("name,law,envelope,p", laws("aef-I", "akf"))
def test_endpoint_lanes_and_empty_arrays(name, law, envelope, p):
    d, env = law(p, 1.0), envelope(p, 1.0)
    ends = np.array([0.0, math.inf])
    cdf = d.snr_cdf(ends)
    assert cdf.value.tolist() == [0.0, 1.0]
    assert cdf.terms_used.tolist() == [0, 0]
    assert cdf.est_error.tolist() == [0.0, 0.0]
    assert cdf.converged.tolist() == [True, True]
    assert d.snr_pdf(ends).tolist() == [d.snr_pdf(0.0), 0.0]
    assert env.envelope_pdf(ends).tolist() == [env.envelope_pdf(0.0), 0.0]
    empty = np.array([])
    assert d.snr_pdf(empty).shape == (0,)
    assert env.envelope_pdf(empty).shape == (0,)
    cdf = d.snr_cdf(empty)
    assert cdf.value.shape == cdf.terms_used.shape == cdf.converged.shape == (0,)


def test_lanes_keep_the_argument_shape_and_scalars_the_scalar_result():
    d = AkfDist(AkfParams(alpha=2.5, kappa=1.5, mu=1.2, ms=4.0), 1.0)
    grid = np.geomspace(0.01, 100.0, 12).reshape(3, 4)
    assert d.snr_pdf(grid).shape == (3, 4)
    r = d.snr_cdf(grid)
    assert r.value.shape == r.terms_used.shape == r.est_error.shape == (3, 4)
    # the array result is not a SeriesResult, whose fields are scalars
    assert type(r) is not SeriesResult
    assert type(d.snr_cdf(1.0)) is SeriesResult
    assert type(d.snr_cdf(np.float64(1.0))) is SeriesResult


@pytest.mark.parametrize("bad", [-1.0, math.nan])
@pytest.mark.parametrize("name,law,envelope,p", laws("aef-I", "akf"))
def test_a_negative_or_nan_lane_raises_domain_error(name, law, envelope, p, bad):
    d, env = law(p, 1.0), envelope(p, 1.0)
    grid = np.array([0.5, bad, 2.0])
    for call in (d.snr_pdf, d.snr_cdf, env.envelope_pdf):
        with pytest.raises(DomainError):
            call(grid)


@pytest.mark.parametrize("law,p", [
    (AefDist, AefParams(alpha=2.5, eta=0.5, mu=1.2, ms=1e5)),
    (AkfDist, AkfParams(alpha=2.5, kappa=1.5, mu=1.2, ms=1e5)),
])
def test_a_lane_the_scalar_call_rejects_raises_convergence_error(law, p):
    d = law(p, 1.0)
    ctrl = SeriesControl(max_terms=1)
    with pytest.raises(ConvergenceError):
        d.snr_pdf(1.0, ctrl)
    with pytest.raises(ConvergenceError):
        d.snr_pdf(np.array([0.0, 1.0]), ctrl)


# 2 alpha mu < 1 (alpha-eta-F) and alpha mu < 1 (alpha-kappa-F): the envelope
# density is infinite at r = 0 and its CDF rises steeply there
INFINITE_AT_ZERO = [
    AefParams(alpha=0.4, eta=0.5, mu=1.0, ms=8.0),
    AkfParams(alpha=0.4, kappa=1.0, mu=1.0, ms=8.0),
]


@pytest.mark.parametrize("p", INFINITE_AT_ZERO + [
    AefParams(alpha=0.1, eta=0.5, mu=1.0, ms=30.0),
    AkfParams(alpha=0.1, kappa=1.0, mu=1.0, ms=30.0),
    AefParams(alpha=2.0, eta=0.5, mu=2.0, ms=4.0),
], ids=["aef", "akf", "aef-alpha0.1", "akf-alpha0.1", "aef-finite-at-zero"])
def test_envelope_cdf_of_the_mc_check_follows_the_snr_cdf(p):
    # measured within 6e-5; the head below r0 matters most where 2q is small
    aef = isinstance(p, AefParams)
    d, env = (AefDist if aef else AkfDist)(p, 1.0), (AefEnvelope if aef else AkfEnvelope)(p, 1.0)
    r = np.geomspace(1e-10, 30.0, 400)
    assert np.max(np.abs(_envelope_cdf_interp(env, r) - d.snr_cdf(r * r).value)) < 2e-4


@pytest.mark.parametrize("p", INFINITE_AT_ZERO, ids=["aef", "akf"])
def test_mc_check_passes_when_the_envelope_density_is_infinite_at_zero(p):
    env = (AefEnvelope if isinstance(p, AefParams) else AkfEnvelope)(p, 1.0)
    assert env.envelope_pdf(0.0) == math.inf
    checks = check_mc(n=20000, seed=3, configs=[p])
    assert [c.passed for c in checks] == [True, True], checks
    snr, envelope = (c.measured for c in checks)
    # the same draws in two domains: the two distances nearly agree
    assert abs(snr - envelope) < 0.1 * mc.ks_threshold(20000)
