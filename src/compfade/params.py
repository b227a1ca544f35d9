"""Parameter bundles, cluster geometry formats, and normalization constants.

The alpha-eta-F family takes its eta parameter in one of two formats:
Format I uses the in-phase/quadrature power ratio eta in (0, inf), Format II
the correlation coefficient eta in (-1, 1). Both map to the same (h, H)
geometry pair, and eta' = (1 - eta)/(1 + eta) converts between them.

upsilon() and omega() are the mean-normalization constants that make the SNR
densities integrate to mean gamma_bar; both require ms > 2/alpha for the
underlying fractional moment to exist.

A parameter set's law at gamma_bar = 1 (its normalizer, geometry, CDF head
and kernel constants) is computed once, on first use, as its _unit field,
and an alpha-eta-F set's geometry once as its _geometry field (_once);
series.Law applies gamma_bar at evaluation, as ln gamma - ln gamma_bar.
"""
from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

from . import _kernels as _k
from .series import ConvergenceError, DomainError

__all__ = [
    "Format",
    "AefParams",
    "AkfParams",
    "Geometry",
    "geometry",
    "convert_format",
    "upsilon",
    "omega",
]


class Format(enum.Enum):
    """Geometry convention for the alpha-eta-F eta parameter."""

    FORMAT_I = 1
    FORMAT_II = 2


def _require_shape(
    alpha: float | None = None, mu: float | None = None, ms: float | None = None
) -> None:
    """Shape parameters shared by both families and their physical models;
    each one given must be finite (the ms -> inf and kappa -> inf limit laws
    are not evaluated)."""
    if alpha is not None and not 0.0 < alpha < math.inf:
        raise DomainError(f"alpha must be positive and finite, got {alpha}")
    if mu is not None and not 0.0 < mu < math.inf:
        raise DomainError(f"mu must be positive and finite, got {mu}")
    if ms is not None and not 1.0 < ms < math.inf:
        raise DomainError(f"ms must exceed 1 and be finite, got {ms}")


def _require_eta(eta: float, fmt: Format) -> None:
    """eta's range in its format: 0 < eta < inf in Format I, -1 < eta < 1
    otherwise (Format II)."""
    if fmt is Format.FORMAT_I:
        if not 0.0 < eta < math.inf:
            raise DomainError(f"Format I requires 0 < eta < inf, got {eta}")
    elif not -1.0 < eta < 1.0:
        raise DomainError(f"Format II requires -1 < eta < 1, got {eta}")


class _once:
    """A field computed from its instance on first access and stored in the
    instance's __dict__, where later lookups find it before this non-data
    descriptor: functools.cached_property without the class-wide lock it
    takes on every first access before Python 3.12 (1.4 us). Two threads
    may both compute the field; they store equal values."""

    def __init__(self, fn):
        self._fn, self._name = fn, fn.__name__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = obj.__dict__[self._name] = self._fn(obj)
        return value


@dataclass(frozen=True)
class AefParams:
    """Shape parameters of the alpha-eta-F distribution."""

    alpha: float
    eta: float
    mu: float
    ms: float
    format: Format = Format.FORMAT_I

    def __post_init__(self) -> None:
        _require_shape(self.alpha, self.mu, self.ms)
        if not isinstance(self.format, Format):
            raise DomainError(f"format must be a Format, got {self.format!r}")
        _require_eta(self.eta, self.format)

    @_once
    def _geometry(self) -> Geometry:
        if self.format is Format.FORMAT_I:
            inv = 1.0 / self.eta
            return Geometry(h=(2.0 + inv + self.eta) / 4.0, H=(inv - self.eta) / 4.0)
        c = 1.0 - self.eta * self.eta
        return Geometry(h=1.0 / c, H=self.eta / c)

    @_once
    def _unit(self) -> _UnitLaw:
        geo, ups = geometry(self), upsilon(self)
        ln_lam = math.log(self.ms - 1.0) + math.log(ups)
        alpha, mu, ms = self.alpha, self.mu, self.ms
        cdf = _k.aef_cdf_consts(alpha, mu, ms, geo.h, geo.H * geo.H, ln_lam)
        # the CDF head A x^p, p = alpha mu; ln B(2 mu, ms) is the CDF's last constant
        ln_a = ((2.0 * mu - 1.0) * math.log(2.0 * mu) + mu * math.log(geo.h)
                - cdf[-1] - 2.0 * mu * ln_lam)
        return _UnitLaw(ups, geo, ln_lam, (ln_a, float(alpha * mu)),
                        _k.aef_pdf_consts(alpha, mu, ms, geo.h, ln_lam, ln_a), cdf)


@dataclass(frozen=True)
class AkfParams:
    """Shape parameters of the alpha-kappa-F distribution."""

    alpha: float
    kappa: float
    mu: float
    ms: float

    def __post_init__(self) -> None:
        _require_shape(self.alpha, self.mu, self.ms)
        if not 0.0 <= self.kappa < math.inf:
            raise DomainError(
                "kappa must be finite and non-negative (0 gives the alpha-F limit), "
                f"got {self.kappa}"
            )

    @_once
    def _unit(self) -> _UnitLaw:
        om = omega(self)
        ln_lam = math.log(self.ms - 1.0) + math.log(om)
        alpha, mu, ms, kappa = self.alpha, self.mu, self.ms, self.kappa
        cdf = _k.akf_cdf_consts(alpha, mu, ms, kappa, ln_lam)
        # the CDF head A x^p, p = alpha mu / 2; ln B(mu, ms) is the CDF's last constant
        ln_a = ((mu - 1.0) * math.log(mu) - mu * kappa + mu * math.log1p(kappa)
                - cdf[-1] - mu * ln_lam)
        return _UnitLaw(om, None, ln_lam, (ln_a, 0.5 * alpha * mu),
                        _k.akf_pdf_consts(alpha, mu, ms, kappa, ln_lam, ln_a), cdf)


@dataclass(frozen=True)
class Geometry:
    """Cluster geometry pair (h, H); h >= 1 and |H| < h in both formats."""

    h: float
    H: float


class _UnitLaw(NamedTuple):
    """A parameter set's law at gamma_bar = 1: its normalizer (upsilon or
    omega), geometry (None for alpha-kappa-F), ln Lambda = ln((ms - 1) norm),
    CDF head (ln A, p) and the family's density and CDF kernel constants."""

    norm: float
    geometry: Geometry | None
    ln_lam: float
    head: tuple
    pdf_consts: tuple
    cdf_consts: tuple


def geometry(p: AefParams) -> Geometry:
    """Geometry pair of an alpha-eta-F parameter set, computed once per
    params object."""
    return p._geometry


def convert_format(eta: float, from_format: Format) -> float:
    """Map eta between Format I and Format II; the map is its own inverse."""
    if eta == -1.0:
        raise DomainError("eta = -1 is the conversion singularity")
    _require_eta(eta, from_format)
    return (1.0 - eta) / (1.0 + eta)


def _require_moment(alpha: float, ms: float) -> None:
    if not ms > 2.0 / alpha:
        raise DomainError(
            f"ms = {ms} must exceed 2/alpha = {2.0 / alpha}: the 2/alpha-order "
            "moment of the shadowing power does not exist"
        )


# alpha/2 times the bracket's rounding above which a normalizer is refused
_BRACKET_ROUNDING_MAX = 1e-10


def _normalizer(terms):
    """The normalization constant pre [B(a, b) / (B(a + q, b - q) F)]^(alpha/2),
    q = 2/alpha, given terms(p) = (pre, a, b, F); ln B is _kernels._lbeta.

    Raises DomainError where the 2/alpha-order moment does not exist, and
    ConvergenceError where the constant is not a positive finite double or
    alpha/2 times the bracket's rounding, eps times the size of its log
    terms, of F and of the lgamma terms each ln B cancels, passes
    _BRACKET_ROUNDING_MAX. At alpha = 1e300 the bracket's log is a
    difference of order 2/alpha between terms of order 1, and the bare
    closed form gave omega = 0.5 for 2.006 (mu = 1, kappa = 0.5, ms = 4);
    the lgamma difference left omega 7.3e-10 off at alpha = 1e5, mu = 0.3,
    ms = 40. A huge or tiny shape overflows an exp (OverflowError) or takes
    the log of a factor that is not positive (ValueError) on the way."""

    @functools.wraps(terms)
    def checked(p):
        _require_moment(p.alpha, p.ms)
        q = 2.0 / p.alpha
        try:
            pre, a, b, f = terms(p)
            logs = (_k._lbeta(a, b), _k._lbeta(a + q, b - q), math.log(f))
            size = 1.0 + sum(map(abs, logs))
            if a + b <= _k._LBETA_STIRLING_MIN:
                # _lbeta's lgamma difference rounds like the lgamma terms it cancels
                lg = math.lgamma
                size += (abs(lg(a)) + abs(lg(b)) + abs(lg(a + q)) + abs(lg(b - q))
                         + 2.0 * abs(lg(a + b)))
            rounding = 0.5 * p.alpha * 2.0**-52 * size
            value = math.exp(math.log(pre) + 0.5 * p.alpha * (logs[0] - logs[1] - logs[2]))
        except (OverflowError, ValueError):
            value = rounding = math.nan
        if not (0.0 < value < math.inf and rounding <= _BRACKET_ROUNDING_MAX):
            raise ConvergenceError(
                f"{terms.__name__}: the normalization constant is not a positive "
                f"finite double within {_BRACKET_ROUNDING_MAX:g} at these shape parameters"
            )
        return value

    return checked


@_normalizer
def upsilon(p: AefParams):
    """Mean-SNR normalization constant of the alpha-eta-F distribution.

    upsilon = (2 mu / (ms - 1)) * [B(2mu, ms) / (B(2mu + q, ms - q)
    2F1(1/2 - q/2, -q/2; mu + 1/2; (H/h)^2))]^(alpha/2), q = 2/alpha:
    Euler's transformation (DLMF 15.8.1) of the geometry 2F1 with the exact
    1 - (H/h)^2 = 1/h, whose power cancels h. The 2F1 is one
    scipy.special.hyp2f1 call. Equals 1 at alpha = 2 for every eta (the
    2F1 terminates at 1).
    """
    geo, q = geometry(p), 2.0 / p.alpha
    f = _k._hyp2f1(0.5 - 0.5 * q, -0.5 * q, p.mu + 0.5, (geo.H / geo.h) ** 2)
    return 2.0 * p.mu / (p.ms - 1.0), 2.0 * p.mu, p.ms, f


@_normalizer
def omega(p: AkfParams):
    """Mean-SNR normalization constant of the alpha-kappa-F distribution.

    omega = (mu (1 + kappa) / (ms - 1)) * [B(mu, ms) / (B(mu + q, ms - q)
    1F1(-q; mu; -mu kappa))]^(alpha/2), q = 2/alpha: Kummer's transformation
    (DLMF 13.2.39) of 1F1(mu + q; mu; mu kappa), whose e^(mu kappa) cancels.
    The 1F1 is one scipy.special.hyp1f1 call, exactly 1 at kappa = 0. Equals
    1 at alpha = 2 for every kappa (the 1F1 terminates at 1 + kappa).
    """
    f = _k._hyp1f1(-2.0 / p.alpha, p.mu, -p.mu * p.kappa)
    return p.mu * (1.0 + p.kappa) / (p.ms - 1.0), p.mu, p.ms, f
