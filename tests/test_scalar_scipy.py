"""Scalar scipy.special calls through cython_special's typed double entries.

A scalar call of betainc, fdtr, hyp2f1 or hyp1f1 goes to scipy's C
kernel through the typed entry (_kernels._betainc, ...), an array call
through the ufunc. Both routes must give the same double at every point a
kernel passes, and the typed entries must take int-valued shapes, which
cython_special's fused functions refuse ("No matching signature found").
"""

import math

import numpy as np
import pytest
from scipy import special

from compfade import (
    AefDist,
    AefEnvelope,
    AefParams,
    AkfDist,
    AkfEnvelope,
    AkfParams,
    mc,
    outage,
    params,
)
from compfade import _kernels as _k

DRAWS = 20_000


def _log_uniform(rng, lo, hi, n):
    return np.exp(rng.uniform(math.log(lo), math.log(hi), n))


def _sweeps():
    """(name, typed entry, ufunc, argument arrays) over the ranges the call
    sites pass: the mixture's and the 2F1 beta rows' incomplete betas (x up
    to 1/2, above it the F CDF at the odds, inf included), the alpha-eta-F
    density's 2F1 in the direct and Euler forms, upsilon's and the physical
    model's 2F1, the alpha-kappa-F density's Kummer 1F1, omega's and the
    physical model's 1F1."""
    rng = np.random.default_rng(20251019)
    n = DRAWS // 4
    ab = lambda: (_log_uniform(rng, 1e-2, 1e4, 2 * n), _log_uniform(rng, 1.0, 1e3, 2 * n))
    # x log-uniform down to 1e-300 on half the draws, uniform up to 1/2 on the rest
    x = np.concatenate((_log_uniform(rng, 1e-300, 0.5, n), rng.uniform(0.0, 0.5, n)))
    a, b = ab()
    yield "betainc", _k._betainc, special.betainc, (a, b, x)
    a, b = ab()
    # reg_inc_beta's odds (b/a) (x/cx) at 1 - x = cx, 0 at every 500th (odds inf)
    cx = rng.permutation(x)
    cx[::500] = 0.0
    with np.errstate(divide="ignore", over="ignore"):
        f = (b / a) * ((1.0 - cx) / cx)
    assert np.isinf(f).sum() >= 2 * n // 500
    yield "fdtr", _k._fdtr, special.fdtr, (2.0 * a, 2.0 * b, f)
    mu, ms = rng.uniform(0.05, 10.0, n), rng.uniform(1.0, 50.0, n)
    z = np.concatenate((rng.uniform(0.0, 0.5, n // 2), 1.0 - _log_uniform(rng, 1e-12, 0.5, n - n // 2)))
    euler = z > 0.5
    c = mu + 0.5
    q = 2.0 / rng.uniform(0.3, 10.0, n)
    yield "hyp2f1", _k._hyp2f1, special.hyp2f1, tuple(np.concatenate(parts) for parts in zip(
        (np.where(euler, -0.5 * ms, mu + 0.5 * ms), np.where(euler, -0.5 * ms - 0.5,
                                                             mu + 0.5 * (ms + 1.0)), c, z),
        (0.5 - 0.5 * q, -0.5 * q, c, rng.uniform(0.0, 1.0, n)),
        (-q, np.floor(mu) + 1.0, 2.0 * np.floor(mu) + 2.0, 1.0 - _log_uniform(rng, 1e-3, 1e3, n)),
    ))
    mu, ms, q = rng.uniform(0.05, 10.0, n), rng.uniform(1.0, 50.0, n), 2.0 / rng.uniform(0.3, 10.0, n)
    yield "hyp1f1", _k._hyp1f1, special.hyp1f1, tuple(np.concatenate(parts) for parts in zip(
        (-ms, mu, -_log_uniform(rng, 1e-6, 2e3, n)),
        (-q, mu, -mu * _log_uniform(rng, 1e-9, 1e3, n)),
    ))


@pytest.mark.parametrize("name, typed, ufunc, args", [
    pytest.param(*sweep, id=sweep[0]) for sweep in _sweeps()])
def test_typed_entries_equal_the_ufuncs_bit_for_bit(name, typed, ufunc, args):
    assert all(a.size >= DRAWS // 2 for a in args)
    with np.errstate(all="ignore"):
        want = ufunc(*args)
    got = np.array([typed(*point) for point in zip(*(a.tolist() for a in args))])
    assert np.isfinite(want).mean() > 0.9
    same = (got == want) | (np.isnan(got) & np.isnan(want))
    assert same.all(), [point for point, ok in zip(zip(*args), same) if not ok][:5]
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_typed_entries_take_ints_and_return_floats():
    for typed, ufunc, args in ((_k._betainc, special.betainc, (2, 1, 0.5)),
                               (_k._fdtr, special.fdtr, (4, 2, 3)),
                               (_k._hyp2f1, special.hyp2f1, (1, 2, 3, 0.5)),
                               (_k._hyp1f1, special.hyp1f1, (-2, 1, -3))):
        got = typed(*args)
        assert type(got) is float
        assert got == float(ufunc(*args))


INT_FAMILIES = [
    pytest.param(AefDist, AefEnvelope, AefParams, dict(alpha=2, eta=1, mu=1, ms=4), id="aef"),
    pytest.param(AefDist, AefEnvelope, AefParams, dict(alpha=3, eta=2, mu=2, ms=5), id="aef-2"),
    pytest.param(AkfDist, AkfEnvelope, AkfParams, dict(alpha=2, kappa=1, mu=1, ms=4), id="akf"),
    pytest.param(AkfDist, AkfEnvelope, AkfParams, dict(alpha=3, kappa=2, mu=2, ms=5), id="akf-2"),
]
POINTS = (0.05, 0.3, 1.0, 4.0, 30.0)  # both sides of snr_cdf_closed's guard band


def _evaluate(law, envelope, params_cls, kw):
    """Every quantity of the law at gamma_bar = 1, as plain values."""
    p = params_cls(**kw)
    d, env = law(p, 1), envelope(p, 1)
    out = {"norm": params.upsilon(p) if params_cls is AefParams else params.omega(p)}
    for n in (10, 48):  # point by point and the array loop
        g = np.geomspace(1e-3, 1e2, n)
        out[f"snr_pdf[{n}]"] = d.snr_pdf(g).tolist()
        out[f"envelope_pdf[{n}]"] = env.envelope_pdf(g).tolist()
        out[f"snr_cdf[{n}]"] = d.snr_cdf(g).value.tolist()
        out[f"outage[{n}]"] = outage(d, g).value.tolist()
    for g in POINTS:
        out[f"snr_pdf({g})"] = d.snr_pdf(g)
        out[f"envelope_pdf({g})"] = env.envelope_pdf(g)
        out[f"snr_cdf({g})"] = d.snr_cdf(g)
        out[f"outage({g})"] = outage(d, g)
        out[f"cdf_truncation_bound({g})"] = d.cdf_truncation_bound(g, 4)
        if law is AkfDist:
            out[f"snr_cdf_closed({g})"] = d.snr_cdf_closed(g)
    return out


@pytest.mark.parametrize("law, envelope, params_cls, kw", INT_FAMILIES)
def test_int_valued_shapes_equal_the_float_valued(law, envelope, params_cls, kw):
    got = _evaluate(law, envelope, params_cls, kw)
    want = _evaluate(law, envelope, params_cls, {k: float(v) for k, v in kw.items()})
    assert got == want
    assert all(math.isfinite(v) for v in got["snr_cdf[48]"])
    assert all(isinstance(got[f"cdf_truncation_bound({g})"], float) for g in POINTS)


def test_physical_model_moments_take_int_valued_powers():
    phys = [mc.make_phys(AefParams(alpha=2, eta=2, mu=1, ms=4)),
            mc.make_phys(AkfParams(alpha=2, kappa=1, mu=1, ms=4))]
    for moment, p in zip((mc._aef_sum_moment, mc._akf_sum_moment), phys):
        assert moment(p, 1) == moment(p, 1.0) > 0.0
