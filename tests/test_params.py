"""Parameter containers, format geometry, and normalization constants."""

import math

import pytest

from compfade import DomainError
from compfade.params import (
    AefParams,
    AkfParams,
    Format,
    convert_format,
    geometry,
    omega,
    upsilon,
)
from conftest import rel_err


def test_geometry_format_one_spot():
    g = geometry(AefParams(alpha=2.0, eta=0.5, mu=1.0, ms=4.0))
    assert g.h == pytest.approx(1.125, abs=0.0)
    assert g.H == pytest.approx(0.375, abs=0.0)


def test_geometry_format_two_spot():
    p = AefParams(alpha=2.0, eta=0.5, mu=1.0, ms=4.0, format=Format.FORMAT_II)
    g = geometry(p)
    assert rel_err(g.h, 4.0 / 3.0) <= 1e-15
    assert rel_err(g.H, 2.0 / 3.0) <= 1e-15


@pytest.mark.parametrize("fmt,etas", [
    (Format.FORMAT_I, (0.1, 0.5, 1.0, 2.0, 9.0)),
    (Format.FORMAT_II, (-0.9, -0.3, 0.0, 0.4, 0.95)),
])
def test_geometry_identity_h2_minus_H2(fmt, etas):
    # Both formats satisfy h^2 - H^2 = h, which is what makes the two
    # parameterizations describe the same family.
    for eta in etas:
        g = geometry(AefParams(alpha=2.0, eta=eta, mu=1.0, ms=4.0, format=fmt))
        assert rel_err(g.h * g.h - g.H * g.H, g.h) <= 1e-12


def test_geometry_balanced_points_coincide():
    g1 = geometry(AefParams(alpha=2.0, eta=1.0, mu=1.0, ms=4.0))
    g2 = geometry(AefParams(alpha=2.0, eta=0.0, mu=1.0, ms=4.0, format=Format.FORMAT_II))
    assert g1.h == g2.h == 1.0
    assert g1.H == g2.H == 0.0


def test_geometry_eta_inversion_flips_H():
    g = geometry(AefParams(alpha=2.0, eta=0.4, mu=1.0, ms=4.0))
    ginv = geometry(AefParams(alpha=2.0, eta=2.5, mu=1.0, ms=4.0))
    assert rel_err(g.h, ginv.h) <= 1e-15
    assert rel_err(g.H, -ginv.H) <= 1e-15


def test_convert_format_is_involution():
    for eta in (-0.3, 0.0, 0.7):
        ep = convert_format(eta, Format.FORMAT_II)
        back = convert_format(ep, Format.FORMAT_I)
        assert rel_err(back, eta) <= 1e-14 or abs(back - eta) <= 1e-14


def test_convert_format_spot():
    assert rel_err(convert_format(-0.3, Format.FORMAT_II), 13.0 / 7.0) <= 1e-14


def test_convert_format_preserves_geometry():
    p2 = AefParams(alpha=2.0, eta=-0.3, mu=1.0, ms=4.0, format=Format.FORMAT_II)
    eta1 = convert_format(-0.3, Format.FORMAT_II)
    p1 = AefParams(alpha=2.0, eta=eta1, mu=1.0, ms=4.0)
    g1, g2 = geometry(p1), geometry(p2)
    assert rel_err(g1.h, g2.h) <= 1e-12
    assert abs(abs(g1.H) - abs(g2.H)) <= 1e-12


def test_upsilon_is_one_at_alpha_two():
    for eta, fmt in ((0.5, Format.FORMAT_I), (3.0, Format.FORMAT_I), (-0.3, Format.FORMAT_II)):
        p = AefParams(alpha=2.0, eta=eta, mu=1.3, ms=4.0, format=fmt)
        assert rel_err(upsilon(p), 1.0) <= 1e-12


def test_upsilon_frozen_spot():
    p = AefParams(alpha=3.5, eta=0.5, mu=1.5, ms=3.0)
    assert rel_err(upsilon(p), 1.201974164266742) <= 1e-11


def test_omega_is_one_at_alpha_two_kappa_zero():
    p = AkfParams(alpha=2.0, kappa=0.0, mu=1.7, ms=5.0)
    assert rel_err(omega(p), 1.0) <= 1e-12


def test_omega_frozen_spot():
    p = AkfParams(alpha=2.5, kappa=1.5, mu=1.2, ms=4.0)
    assert rel_err(omega(p), 1.0910680810237026) <= 1e-11


def test_omega_continuous_at_kappa_cutoff():
    # omega has no kappa cutoff branch (1F1(-q; mu; 0) = 1); it must still
    # be continuous as kappa -> 0, where the densities' cutoff sits.
    lo = omega(AkfParams(alpha=3.0, kappa=0.0, mu=1.5, ms=4.0))
    hi = omega(AkfParams(alpha=3.0, kappa=1e-9, mu=1.5, ms=4.0))
    assert rel_err(hi, lo) <= 1e-7


def test_aef_params_validation():
    with pytest.raises(DomainError):
        AefParams(alpha=0.0, eta=0.5, mu=1.0, ms=4.0)
    with pytest.raises(DomainError):
        AefParams(alpha=2.0, eta=-0.2, mu=1.0, ms=4.0)
    with pytest.raises(DomainError):
        AefParams(alpha=2.0, eta=1.2, mu=1.0, ms=4.0, format=Format.FORMAT_II)
    with pytest.raises(DomainError):
        AefParams(alpha=2.0, eta=0.5, mu=0.0, ms=4.0)
    with pytest.raises(DomainError):
        AefParams(alpha=2.0, eta=0.5, mu=1.0, ms=1.0)


def test_akf_params_validation():
    with pytest.raises(DomainError):
        AkfParams(alpha=2.0, kappa=-0.5, mu=1.0, ms=4.0)
    with pytest.raises(DomainError):
        AkfParams(alpha=-1.0, kappa=0.5, mu=1.0, ms=4.0)
    with pytest.raises(DomainError):
        AkfParams(alpha=2.0, kappa=0.5, mu=1.0, ms=0.5)


@pytest.mark.parametrize("cls,name", [
    (AefParams, "alpha"), (AefParams, "mu"), (AefParams, "ms"),
    (AkfParams, "alpha"), (AkfParams, "mu"), (AkfParams, "ms"), (AkfParams, "kappa"),
], ids=lambda v: getattr(v, "__name__", v))
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_non_finite_shape_parameter_rejected(cls, name, value):
    # the ms -> inf and kappa -> inf limit laws are not evaluated, so an
    # infinite shape parameter is refused where the parameters are built
    kw = {"alpha": 2.0, "mu": 1.0, "ms": 4.0,
          "eta" if cls is AefParams else "kappa": 0.5, name: value}
    with pytest.raises(DomainError):
        cls(**kw)


def test_akf_kappa_zero_is_valid():
    p = AkfParams(alpha=2.0, kappa=0.0, mu=1.0, ms=4.0)
    assert p.kappa == 0.0
