"""Density at the origin for the critical shapes of all four densities.

At the critical shape the CDF starts linearly (A x for the SNR, A r for the
envelope), so the density at 0 is the finite head coefficient A and must
continue the curve just above 0. The envelope is evaluated at r = 1e-170,
where r*r underflows to 0: the envelope density must not square r.
"""

import pytest

from compfade import AefDist, AefEnvelope, AefParams, AkfDist, AkfEnvelope, AkfParams
from conftest import rel_err

CRITICAL_SNR = [
    (AefDist(AefParams(alpha=2.0, eta=0.5, mu=0.5, ms=4.0), 1.0), 1.4142135623730885),
    (AkfDist(AkfParams(alpha=2.0, kappa=1.5, mu=1.0, ms=4.0), 1.0), 0.7437672004947622),
]
CRITICAL_ENVELOPE = [
    (AefEnvelope(AefParams(alpha=1.0, eta=0.5, mu=0.5, ms=4.0), 1.0), 2.5166114784235734),
    (AkfEnvelope(AkfParams(alpha=1.0, kappa=1.5, mu=1.0, ms=4.0), 1.0), 1.1665532715604015),
]


@pytest.mark.parametrize("dist,f0", CRITICAL_SNR, ids=["aef", "akf"])
def test_snr_pdf_at_zero_continues_the_curve(dist, f0):
    assert rel_err(dist.snr_pdf(0.0), f0) <= 1e-12
    assert rel_err(dist.snr_pdf(1e-12), dist.snr_pdf(0.0)) <= 1e-6


@pytest.mark.parametrize("env,f0", CRITICAL_ENVELOPE, ids=["aef", "akf"])
def test_envelope_pdf_at_zero_continues_the_curve(env, f0):
    assert rel_err(env.envelope_pdf(0.0), f0) <= 1e-12
    assert rel_err(env.envelope_pdf(1e-12), env.envelope_pdf(0.0)) <= 1e-6


@pytest.mark.parametrize("env,f0", CRITICAL_ENVELOPE, ids=["aef", "akf"])
def test_envelope_pdf_below_square_underflow(env, f0):
    assert rel_err(env.envelope_pdf(1e-170), env.envelope_pdf(0.0)) <= 1e-12
