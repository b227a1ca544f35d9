"""A law is its parameter set's law at gamma_bar = 1 plus a scale.

gamma_bar enters both laws only through Lambda = (ms - 1) norm
gamma_bar^(alpha/2), so the law with mean gamma_bar at gamma is the law
with mean 1 at gamma/gamma_bar. The normalizer, the geometry and the kernel
constants are computed once per params object, and every law built on it
shares them.
"""

import numpy as np
import pytest

from compfade import (
    AefDist,
    AefEnvelope,
    AefParams,
    AkfDist,
    AkfEnvelope,
    AkfParams,
    DomainError,
    gains,
)
from compfade import params as _params
from compfade import validation
from compfade.params import Format

GAMMA_BARS = (1e-3, 0.7, 40.0)
SCALE_TOL = 1e-13

FAMILIES = [
    ("upsilon", AefDist, AefEnvelope, AefParams,
     dict(alpha=2.5, eta=0.5, mu=1.2, ms=4.0)),
    ("upsilon", AefDist, AefEnvelope, AefParams,
     dict(alpha=1.7, eta=-0.4, mu=0.7, ms=9.0, format=Format.FORMAT_II)),
    ("omega", AkfDist, AkfEnvelope, AkfParams, dict(alpha=2.5, kappa=1.5, mu=1.2, ms=4.0)),
    ("omega", AkfDist, AkfEnvelope, AkfParams, dict(alpha=3.0, kappa=0.0, mu=2.0, ms=5.0)),
]


@pytest.mark.parametrize("name, law, envelope, params, kw", FAMILIES)
def test_the_normalizer_runs_once_per_params_object(monkeypatch, name, law, envelope,
                                                    params, kw):
    calls = []
    original = getattr(_params, name)
    monkeypatch.setattr(_params, name, lambda p: calls.append(p) or original(p))
    p = params(**kw)
    laws = [law(p, gb) for gb in GAMMA_BARS]
    env = envelope(p, 2.0)
    assert len(calls) == 1
    for d in laws:
        assert d._pdf_consts is laws[0]._pdf_consts
        assert d._cdf_consts is laws[0]._cdf_consts
    assert env._snr._cdf_consts is laws[0]._cdf_consts


def test_a_law_refuses_the_other_familys_params():
    with pytest.raises(DomainError, match="AefDist takes AefParams"):
        AefDist(AkfParams(alpha=2.5, kappa=1.5, mu=1.2, ms=4.0), 1.0)
    with pytest.raises(DomainError, match="AkfDist takes AkfParams"):
        AkfDist(AefParams(alpha=2.5, eta=0.5, mu=1.2, ms=4.0), 1.0)


def test_a_failing_normalizer_raises_at_every_build():
    p = AefParams(alpha=1.5, eta=0.5, mu=1.2, ms=1.2)
    for gb in GAMMA_BARS:
        with pytest.raises(DomainError, match="must exceed 2/alpha"):
            AefDist(p, gb)


def _close(got, want):
    return abs(got - want) <= SCALE_TOL * abs(want)


@pytest.mark.parametrize("gamma_bar", GAMMA_BARS)
@pytest.mark.parametrize("name, law, envelope, params, kw", FAMILIES)
def test_a_law_at_gamma_is_the_unit_law_at_gamma_over_gamma_bar(name, law, envelope,
                                                                params, kw, gamma_bar):
    p = params(**kw)
    d, unit = law(p, gamma_bar), law(p, 1.0)
    gammas = gamma_bar * np.geomspace(1e-3, 1e2, 48)
    for g in gammas:
        g, g1 = float(g), float(g) / gamma_bar
        assert _close(d.snr_pdf(g) * gamma_bar, unit.snr_pdf(g1))
        r, r1 = d.snr_cdf(g), unit.snr_cdf(g1)
        assert _close(r.value, r1.value)
        assert (r.terms_used, r.converged) == (r1.terms_used, r1.converged)
        if law is AkfDist:
            r, r1 = d.snr_cdf_closed(g), unit.snr_cdf_closed(g1)
            assert _close(r.value, r1.value)
            assert (r.terms_used, r.converged) == (r1.terms_used, r1.converged)
        assert _close(d.cdf_truncation_bound(g, 5), unit.cdf_truncation_bound(g1, 5))
        assert _close(gains(d, g).gc * gamma_bar, gains(unit, g1).gc)
    pdf, pdf1 = d.snr_pdf(gammas), unit.snr_pdf(gammas / gamma_bar)
    assert np.all(np.abs(pdf * gamma_bar - pdf1) <= SCALE_TOL * pdf1)
    cdf, cdf1 = d.snr_cdf(gammas), unit.snr_cdf(gammas / gamma_bar)
    assert np.all(np.abs(cdf.value - cdf1.value) <= SCALE_TOL * cdf1.value)
    assert cdf.terms_used.tolist() == cdf1.terms_used.tolist()
    assert cdf.converged.tolist() == cdf1.converged.tolist()


def test_the_flipped_sign_hook_leaves_the_shared_constants_alone():
    p = AefParams(alpha=2.5, eta=0.5, mu=1.2, ms=4.0)
    want = AefDist(p, 2.0).snr_cdf(1.0).value
    flipped = validation._flip_h_sign(AefDist(p, 2.0))
    assert abs(flipped.snr_cdf(1.0).value - want) > 1e-3
    assert AefDist(p, 2.0)._cdf_consts is p._unit.cdf_consts
    assert AefDist(p, 2.0).snr_cdf(1.0).value == want
