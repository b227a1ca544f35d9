"""The front ends both laws share (series.Law, series.Envelope).

snr_pdf, snr_cdf and envelope_pdf are written once and bound by name in
each family's class body. perfbench's tracer wraps exactly the entries of
a class's own __dict__, so a method that is only inherited would break
`perfbench/run.py --trace 1`; the first test reads the tracer's target
list (without installing it) and checks every entry is there.
"""

import importlib
import importlib.util
import math
import sys
from pathlib import Path

import pytest

from compfade import (
    AefDist,
    AefEnvelope,
    AefParams,
    AkfDist,
    AkfEnvelope,
    AkfParams,
    outage,
)
from compfade.params import Format

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_name_is_in_its_owners_own_dict(monkeypatch):
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # its dataclasses look it up
    spec.loader.exec_module(spans)
    for _, module, cls, attr in spans.TARGETS:
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls)
        assert attr in owner.__dict__, f"{module}.{cls}.{attr} is only inherited"


AKF_PARAMS = [
    AkfParams(alpha=2.5, kappa=1.5, mu=1.2, ms=4.0),
    AkfParams(alpha=3.0, kappa=0.0, mu=2.0, ms=5.0),
]


@pytest.mark.parametrize("omega_power", [0.3, 1.0, 4.0])
@pytest.mark.parametrize("envelope, law, p", [
    (AefEnvelope, AefDist, AefParams(alpha=2.5, eta=0.5, mu=1.2, ms=4.0)),
    (AefEnvelope, AefDist,
     AefParams(alpha=1.7, eta=-0.4, mu=0.7, ms=9.0, format=Format.FORMAT_II)),
] + [(AkfEnvelope, AkfDist, p) for p in AKF_PARAMS])
def test_envelope_reads_the_normalizers_of_its_law(envelope, law, p, omega_power):
    env, d = envelope(p, omega_power), law(p, omega_power)
    names = ("geometry", "upsilon") if law is AefDist else ("omega_norm",)
    for name in names:
        assert getattr(env, name) == getattr(d, name)


@pytest.mark.parametrize("p", AKF_PARAMS)
def test_akf_snr_cdf_snr_cdf_series_and_outage_agree_exactly(p):
    d = AkfDist(p, 1.3)
    assert AkfDist.snr_cdf_series is AkfDist.snr_cdf
    for g in (1e-4, 0.05, 1.0, 1.3, 20.0, 1e4, math.inf):
        r = d.snr_cdf(g)
        assert d.snr_cdf_series(g) == r
        if g < math.inf:
            assert outage(d, g) == r
