"""Special-case parameter mappings and distribution-lattice equivalence checks.

Both fading families collapse to a shared lattice of known models when
coordinates are pinned: removing shadowing (ms -> infinity), removing the
medium nonlinearity (alpha = 2), removing cluster imbalance (eta = 1 in
Format I, equivalently kappa = 0), or fixing the cluster count (mu = 1).
The mappings here produce parameter bundles at those limit points, and
check_lattice verifies the equivalences numerically.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

from . import mc
from .aef import AefDist, AefEnvelope
from .akf import AkfDist, AkfEnvelope
from .outage import asymptotic_outage_aef, asymptotic_outage_akf
from .params import AefParams, AkfParams, Format, convert_format
from .series import DomainError

__all__ = [
    "CaseId",
    "LatticeCheck",
    "LatticeReport",
    "MS_INF_PROXY",
    "reduce",
    "check_lattice",
]

# Finite stand-in for the ms -> infinity (shadowing removed) limit; paired
# with a stabilization check at 10^4 / 10^5 / 10^6 in check_lattice.
MS_INF_PROXY = 1.0e5

# The exact identities hold to roundoff, so they get tight bounds; the
# ms -> infinity stabilization gap at ms = 1e6 gets a looser one.
CROSS_FAMILY_TOL = 1e-8
FORMAT_TOL = 1e-10
MS_STABILIZATION_TOL = 1e-4


class _Family(NamedTuple):
    """What goes with a family's parameter bundle: its SNR law, its envelope
    law, its physical-model sampler, its high-SNR outage and the format of
    its tag in check names."""

    law: type
    envelope: type
    sampler: str  # the name in mc, looked up at each call (a tracer may wrap it)
    asymptote: Callable
    tag: str

    def sample(self, *args, **kwargs):
        return getattr(mc, self.sampler)(*args, **kwargs)


_FAMILIES = {
    AefParams: _Family(AefDist, AefEnvelope, "sample_aef_envelope", asymptotic_outage_aef,
                       "aef[a={alpha:g},eta={eta:g},mu={mu:g},ms={ms:g},fmt={format.value}]"),
    AkfParams: _Family(AkfDist, AkfEnvelope, "sample_akf_envelope", asymptotic_outage_akf,
                       "akf[a={alpha:g},k={kappa:g},mu={mu:g},ms={ms:g}]"),
}


class CaseId(Enum):
    """Named special cases reachable from the two families."""

    ALPHA_ETA_MU = "alpha-eta-mu"
    ALPHA_KAPPA_MU = "alpha-kappa-mu"
    ETA_MU_INV_GAMMA = "eta-mu-inv-gamma"
    KAPPA_MU_INV_GAMMA = "kappa-mu-inv-gamma"
    ALPHA_F = "alpha-f"
    FISHER_F = "fisher-f"
    ALPHA_ETA_INV_GAMMA = "alpha-eta-inv-gamma"
    ALPHA_KAPPA_INV_GAMMA = "alpha-kappa-inv-gamma"


_AEF_ONLY = {
    CaseId.ALPHA_ETA_MU,
    CaseId.ETA_MU_INV_GAMMA,
    CaseId.ALPHA_ETA_INV_GAMMA,
}
_AKF_ONLY = {
    CaseId.ALPHA_KAPPA_MU,
    CaseId.KAPPA_MU_INV_GAMMA,
    CaseId.ALPHA_KAPPA_INV_GAMMA,
}


def _balanced_eta(params: AefParams) -> float:
    """The eta value that removes cluster imbalance in the bundle's format."""
    return 1.0 if params.format is Format.FORMAT_I else 0.0


def reduce(
    params: AefParams | AkfParams, case: CaseId
) -> AefParams | AkfParams:
    """Parameter bundle at the special-case limit point.

    ms -> infinity uses the finite proxy MS_INF_PROXY; the balanced eta (1 in
    Format I, 0 in Format II) and kappa = 0 are exact, and take the same
    mixture and density code as any other point. Raises DomainError for a
    case/family mismatch.
    """
    if type(params) not in _FAMILIES:
        raise DomainError(f"unsupported parameter type {type(params).__name__}")
    is_aef = isinstance(params, AefParams)
    if case in _AEF_ONLY and not is_aef:
        raise DomainError(f"case {case.value} requires alpha-eta-F parameters")
    if case in _AKF_ONLY and is_aef:
        raise DomainError(f"case {case.value} requires alpha-kappa-F parameters")

    if case is CaseId.ALPHA_ETA_MU or case is CaseId.ALPHA_KAPPA_MU:
        return dataclasses.replace(params, ms=MS_INF_PROXY)
    if case is CaseId.ETA_MU_INV_GAMMA or case is CaseId.KAPPA_MU_INV_GAMMA:
        return dataclasses.replace(params, alpha=2.0)
    if case is CaseId.ALPHA_ETA_INV_GAMMA or case is CaseId.ALPHA_KAPPA_INV_GAMMA:
        return dataclasses.replace(params, mu=1.0)
    if case is CaseId.ALPHA_F:
        if is_aef:
            return dataclasses.replace(params, eta=_balanced_eta(params))
        return dataclasses.replace(params, kappa=0.0)
    if case is CaseId.FISHER_F:
        if is_aef:
            return dataclasses.replace(params, alpha=2.0, eta=_balanced_eta(params))
        return dataclasses.replace(params, alpha=2.0, kappa=0.0)
    raise DomainError(f"unknown case {case!r}")


@dataclass(frozen=True)
class LatticeCheck:
    """One equivalence check: measured max deviation against its bound."""

    name: str
    max_dev: float
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class LatticeReport:
    """Outcome of the full equivalence battery."""

    checks: tuple
    passed: bool


def _max_dev(grid: np.ndarray, pdf_a, pdf_b, cdf_a=None, cdf_b=None) -> float:
    """Largest gap over the grid between the pdfs of two laws and, when
    their CDF callables are given, between the CDF values; one array call
    per curve."""
    dev = np.max(np.abs(pdf_a(grid) - pdf_b(grid)))
    if cdf_a is not None:
        dev = max(dev, np.max(np.abs(cdf_a(grid).value - cdf_b(grid).value)))
    return float(dev)


def check_lattice() -> LatticeReport:
    """Run the equivalence battery and report per-check max deviations.

    MS_STABILIZATION_TOL bounds the ms -> infinity stabilization gap
    (checks b/c); the exact cross-family and format identities (checks a/d)
    use the tighter CROSS_FAMILY_TOL and FORMAT_TOL.
    """
    checks = []
    grid = np.geomspace(0.01, 20.0, 30)

    # (a) alpha-eta-F at eta=1 coincides with alpha-kappa-F at kappa=0 with
    # doubled cluster count.
    dev_a = 0.0
    for alpha, mu, ms in ((2.5, 1.0, 3.0), (3.2, 0.75, 4.5)):
        a = AefDist(AefParams(alpha=alpha, eta=1.0, mu=mu, ms=ms), 1.0)
        k = AkfDist(AkfParams(alpha=alpha, kappa=0.0, mu=2.0 * mu, ms=ms), 1.0)
        dev_a = max(dev_a, _max_dev(grid, a.snr_pdf, k.snr_pdf, a.snr_cdf, k.snr_cdf_series))
    checks.append(
        LatticeCheck("cross-family", dev_a, CROSS_FAMILY_TOL, dev_a <= CROSS_FAMILY_TOL)
    )

    # (b, c) each family stabilizes as ms grows: successive deviations across
    # ms = 1e4, 1e5, 1e6 must shrink, and the last gap must sit below
    # MS_STABILIZATION_TOL.
    grid_b = np.geomspace(0.1, 10.0, 15)
    for name, base in (
        ("aef-ms-stabilization", AefParams(alpha=2.5, eta=0.5, mu=1.5, ms=1.0e4)),
        ("akf-ms-stabilization", AkfParams(alpha=2.2, kappa=1.2, mu=1.5, ms=1.0e4)),
    ):
        law = _FAMILIES[type(base)].law
        d4, d5, d6 = (law(dataclasses.replace(base, ms=ms), 1.0) for ms in (1e4, 1e5, 1e6))
        dev1 = _max_dev(grid_b, d4.snr_pdf, d5.snr_pdf)
        dev2 = _max_dev(grid_b, d5.snr_pdf, d6.snr_pdf)
        checks.append(LatticeCheck(name, dev2, MS_STABILIZATION_TOL,
                                   dev2 < dev1 and dev2 <= MS_STABILIZATION_TOL))

    # (d) Format I and Format II describe the same distribution under the
    # eta conversion.
    eta1 = 0.4
    p1 = AefParams(alpha=2.7, eta=eta1, mu=1.25, ms=3.5, format=Format.FORMAT_I)
    p2 = AefParams(
        alpha=2.7,
        eta=convert_format(eta1, Format.FORMAT_I),
        mu=1.25,
        ms=3.5,
        format=Format.FORMAT_II,
    )
    d1, d2 = AefDist(p1, 1.0), AefDist(p2, 1.0)
    dev_d = _max_dev(grid, d1.snr_pdf, d2.snr_pdf, d1.snr_cdf, d2.snr_cdf)
    checks.append(LatticeCheck("format-equivalence", dev_d, FORMAT_TOL, dev_d <= FORMAT_TOL))

    return LatticeReport(
        checks=tuple(checks), passed=all(c.passed for c in checks)
    )
