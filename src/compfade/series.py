"""Series evaluation controls, results and error types shared by every
engine, and the front ends of both composite laws: Law (the one density
front end _density and the one mixture CDF snr_cdf) and Envelope. Each
family supplies only its density kernels, the constants of its density
and of its CDF mixture, and the head of its CDF, A x^p as x -> 0, stored
as _head = (ln A, p). The density constants are built from it (the
densities are its derivative times powers of Lambda/D), and pdf(0), the
outage asymptote and the validation battery read it.

The densities and the mixture CDF take a float or an np.ndarray. A float
runs the scalar kernels; an array runs every point as a lane of one array
computation (the _kernels *_lanes functions), and the CDF then returns a
LaneResult of arrays in place of a SeriesResult. Law._densities evaluates
the densities of many laws of one family in one such computation, each
lane with its law's constants.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from . import _kernels as _k

if TYPE_CHECKING:
    from .params import AefParams, AkfParams

DEFAULT_REL_TOL = 1e-12
DEFAULT_MAX_TERMS = 100_000

# Kernel status codes (returned by _kernels, mapped to exceptions/flags here).
STATUS_OK = 0
STATUS_MAX_TERMS = 1
STATUS_DIVERGED = 2


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class ConvergenceError(ArithmeticError):
    """The requested value has no convergent series representation here."""


@dataclass(frozen=True)
class SeriesControl:
    """Termination policy for a series summation.

    rel_tol is measured term-to-partial-sum; max_terms caps each summation
    index.
    """

    rel_tol: float = DEFAULT_REL_TOL
    max_terms: int = DEFAULT_MAX_TERMS

    def __post_init__(self) -> None:
        if not self.rel_tol > 0.0:
            raise DomainError("rel_tol must be > 0, got %r" % (self.rel_tol,))
        if self.max_terms < 1:
            raise DomainError("max_terms must be >= 1, got %r" % (self.max_terms,))


@dataclass(frozen=True)
class SeriesResult:
    """Value of a truncated series plus how it was reached.

    est_error is the magnitude of the last accepted term (or a tail bound);
    converged=False means the tolerance was not met within max_terms and the
    value must not be trusted silently.
    """

    value: float
    terms_used: int
    est_error: float
    converged: bool


@dataclass(frozen=True)
class LaneResult:
    """SeriesResult of an array call: each field is an array of the
    argument's shape, holding that point's SeriesResult field."""

    value: np.ndarray
    terms_used: np.ndarray
    est_error: np.ndarray
    converged: np.ndarray


def _control_from_env() -> SeriesControl:
    raw = os.environ.get("COMPFADE_MAX_TERMS")
    if raw is None:
        return SeriesControl()
    try:
        max_terms = int(raw)
    except ValueError:
        raise DomainError("COMPFADE_MAX_TERMS must be an integer, got %r" % raw)
    return SeriesControl(max_terms=max_terms)


# read once, at import: setting COMPFADE_MAX_TERMS later has no effect
_DEFAULT_CONTROL = _control_from_env()


def default_control() -> SeriesControl:
    """Default SeriesControl, honoring the COMPFADE_MAX_TERMS override read at import."""
    return _DEFAULT_CONTROL


def cdf_endpoint(gamma: float) -> SeriesResult | None:
    """The exact CDF at gamma = 0 or gamma = inf, None inside (0, inf);
    raises DomainError for a negative or NaN gamma."""
    if not gamma >= 0.0:
        raise DomainError(f"gamma must be non-negative, got {gamma}")
    if gamma == 0.0 or gamma == math.inf:
        return SeriesResult(
            value=float(gamma > 0.0), terms_used=0, est_error=0.0, converged=True
        )
    return None


def cdf_clamped(raw: float, terms: int, est: float, converged: bool) -> SeriesResult:
    """A summed CDF clamped to [0, 1]; the clamping adjustment is added to
    est_error."""
    value = min(max(raw, 0.0), 1.0)
    return SeriesResult(
        value=value,
        terms_used=terms,
        est_error=est + abs(raw - value),
        converged=converged,
    )


def _lanes(var: str, x: np.ndarray) -> np.ndarray:
    """The points of an array argument as a flat float array; raises
    DomainError for a negative or NaN point."""
    x = np.asarray(x, dtype=float).ravel()
    if not np.all(x >= 0.0):
        raise DomainError(f"{var} must be non-negative, got {x[~(x >= 0.0)][0]}")
    return x


def _density_error(name: str, failed: bool) -> ConvergenceError:
    """The error of a density whose series failed or that overflowed."""
    if failed:
        return ConvergenceError(f"{name}: embedded hypergeometric did not converge")
    return ConvergenceError(f"{name}: the density overflowed the double range")


def _cdf_error() -> ConvergenceError:
    """The error of a mixture CDF whose sum is not finite (an incomplete
    beta that scipy gives as NaN, at shapes such as ms = 1e300)."""
    return ConvergenceError("snr_cdf: the mixture sum is not finite")


def _freeze(obj, **values) -> None:
    """Set derived fields of a frozen dataclass in __post_init__."""
    for name, value in values.items():
        object.__setattr__(obj, name, value)


@dataclass(frozen=True)
class Law:
    """Instantaneous-SNR law with mean SNR gamma_bar. A family subclass sets
    _ln_lam, _head, _pdf_consts and _cdf_consts in __post_init__, and names
    its density kernel in _pdf_kernel and its array form in _pdf_lanes.
    _head is (ln A, p) of the CDF head F(x) ~ A x^p as x -> 0; the density
    constants are built from it. _cdf_consts is the CDF: ln y0, alpha/2 and
    the arguments of _kernels._beta_mixture at ln y = ln y0 + (alpha/2) ln x."""

    params: AefParams | AkfParams
    gamma_bar: float
    _ln_lam: float = field(init=False, repr=False)
    _head: tuple = field(init=False, repr=False)
    _pdf_consts: tuple = field(init=False, repr=False)
    _cdf_consts: tuple = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not (self.gamma_bar > 0.0 and math.isfinite(self.gamma_bar)):
            raise DomainError(f"gamma_bar must be positive, got {self.gamma_bar}")

    def _ln_lambda(self, norm: float) -> float:
        """ln Lambda = ln((ms - 1) norm gamma_bar^(alpha/2)), with norm the
        family's power normalizer (upsilon or omega)."""
        p = self.params
        return (
            math.log(p.ms - 1.0)
            + math.log(norm)
            + 0.5 * p.alpha * math.log(self.gamma_bar)
        )

    def _density(self, name: str, var: str, x: float, power: float,
                 ctrl: SeriesControl | None) -> float:
        """Density at x >= 0 of x = gamma^(1/power): power 1 is the SNR,
        power 2 the envelope (gamma_bar the mean power). The kernel takes
        ln gamma = power ln x and the log-Jacobian, so an x whose power
        under- or overflows stays on the curve; pdf(0) follows from the CDF
        head A gamma^q = A x^(power q). An np.ndarray x goes to
        _density_lanes."""
        if isinstance(x, np.ndarray):
            return self._density_lanes(name, var, x, power, ctrl)
        if not x >= 0.0:
            raise DomainError(f"{var} must be non-negative, got {x}")
        if x == 0.0:
            ln_a, q = self._head
            return _k.pdf_at_zero(ln_a, power * q)
        if x == math.inf:
            return 0.0
        if ctrl is None:
            ctrl = default_control()
        ln_x = math.log(x)
        ln_jac = 0.0 if power == 1.0 else (power - 1.0) * ln_x + math.log(power)
        value, status = self._pdf_kernel(
            self._pdf_consts, power * ln_x, ctrl.rel_tol, ctrl.max_terms, ln_jac
        )
        if status != STATUS_OK or not math.isfinite(value):
            raise _density_error(name, status != STATUS_OK)
        return value

    def _density_lanes(self, name: str, var: str, x: np.ndarray, power: float,
                       ctrl: SeriesControl | None) -> np.ndarray:
        """_density at every point of the array x: _densities' one-law
        case; an array of x's shape. Raises as the scalar call would at any
        of its points."""
        values, errors = Law._densities([self], name, var, x, None, power, ctrl)
        if errors:
            raise errors[0]
        return values.reshape(np.shape(x))

    @staticmethod
    def _densities(laws: list, name: str, var: str, x: np.ndarray, which,
                   power: float, ctrl: SeriesControl | None) -> tuple:
        """_density of laws[which[i]] at x[i] for every point of the array x,
        for laws of one family, as lanes of one call to the family's
        _pdf_lanes in which each lane takes its law's _pdf_consts; which is
        None for one law. Returns (values, errors), values a flat array:
        errors maps the index of each law that fails, as its scalar call
        would raise (a series that did not converge, an overflow), to that
        ConvergenceError, and its lanes hold NaN. The other laws' lanes are
        unaffected."""
        x = _lanes(var, x)
        if which is None:
            which = np.zeros(x.size, dtype=np.intp)
        out = np.zeros(x.shape)
        errors = {}
        zero = x == 0.0
        if zero.any():
            for i in np.unique(which[zero]):
                ln_a, q = laws[i]._head
                out[zero & (which == i)] = _k.pdf_at_zero(ln_a, power * q)
        mid = np.flatnonzero((x > 0.0) & (x < math.inf))
        if mid.size:
            if ctrl is None:
                ctrl = default_control()
            ln_x = np.log(x[mid])
            if power == 1.0:
                ln_jac = np.zeros(mid.size)
            else:
                ln_jac = (power - 1.0) * ln_x + math.log(power)
            if len(laws) == 1:
                consts = laws[0]._pdf_consts
            else:
                table = np.ascontiguousarray(np.array([law._pdf_consts for law in laws]).T)
                consts = tuple(table[:, which[mid]])
            values, status = laws[0]._pdf_lanes(
                consts, power * ln_x, ctrl.rel_tol, ctrl.max_terms, ln_jac
            )
            bad = (status != 0) | ~np.isfinite(values)
            if bad.any():
                for i in np.unique(which[mid[bad]]):
                    errors[int(i)] = _density_error(
                        name, bool(np.any(status[which[mid] == i])))
            out[mid] = values
        if errors:
            out[np.isin(which, list(errors))] = math.nan
        return out, errors

    def snr_pdf(self, gamma: float | np.ndarray,
                ctrl: SeriesControl | None = None) -> float | np.ndarray:
        """Density of the instantaneous SNR at gamma >= 0, or at every point
        of an np.ndarray gamma.

        Its hypergeometric factor (the alpha-eta-F 2F1, the alpha-kappa-F
        1F1) comes from scipy.special for ms <= 50, where ctrl has no
        effect; ctrl governs the series that evaluates it for larger ms (or
        where scipy's value leaves the double range).
        """
        return self._density("snr_pdf", "gamma", gamma, 1.0, ctrl)

    def snr_cdf(self, gamma: float | np.ndarray,
                ctrl: SeriesControl | None = None) -> SeriesResult | LaneResult:
        """CDF of the instantaneous SNR at gamma >= 0, as a truncated mixture
        of regularized incomplete betas (negative binomial weights for
        alpha-eta-F, Poisson for alpha-kappa-F), clamped to [0, 1]; any
        clamping adjustment is added to est_error.

        An np.ndarray gamma gives a LaneResult whose fields are arrays of
        its shape; ctrl's rel_tol and max_terms then act on each point as
        on a scalar call. Raises ConvergenceError where the sum is not
        finite, and at every gamma where _require_first_weight does."""
        self._require_first_weight("snr_cdf")
        if isinstance(gamma, np.ndarray):
            return self._cdf_lanes_result(gamma, ctrl)
        end = cdf_endpoint(gamma)
        if end is not None:
            return end
        if ctrl is None:
            ctrl = default_control()
        c = self._cdf_consts
        raw, terms, est, status = _k._beta_mixture(
            c[0] + c[1] * math.log(gamma), *c[2:], ctrl.rel_tol, ctrl.max_terms
        )
        if not math.isfinite(raw):
            raise _cdf_error()
        return cdf_clamped(raw, terms, est, status == STATUS_OK)

    def _ln_y(self, gamma: float) -> float:
        """ln of the CDF mixture's odds at gamma > 0 (X1 on alpha-kappa-F)."""
        return self._cdf_consts[0] + self._cdf_consts[1] * math.log(gamma)

    def _require_first_weight(self, name: str) -> None:
        """Raises ConvergenceError where the mixture's first weight (e^(-mu
        kappa), h^(-mu)) is below the stop tests' floor 1e-300: the sum would
        end before the weights rise (5.3e-308 for 1.6e-8 at mu kappa = 720)."""
        if self._cdf_consts[_k.CDF_LN_W0] < _k._LN_ABS_TOL:
            raise ConvergenceError(
                f"{name}: the mixture's first weight is below {_k._ABS_TOL:g}, the floor "
                f"of its stop tests (mu kappa or mu ln h above {-_k._LN_ABS_TOL:.1f})"
            )

    def _cdf_lanes_result(self, gamma: np.ndarray,
                          ctrl: SeriesControl | None) -> LaneResult:
        """snr_cdf at every point of the array gamma, as lanes of one
        _kernels._beta_mixture_lanes call, with cdf_endpoint's values at 0
        and inf and cdf_clamped's clamping."""
        shape = np.shape(gamma)
        g = _lanes("gamma", gamma)
        value = (g > 0.0).astype(float)
        terms = np.zeros(g.shape, dtype=np.int64)
        est = np.zeros(g.shape)
        converged = np.ones(g.shape, dtype=bool)
        mid = np.flatnonzero((g > 0.0) & (g < math.inf))
        if mid.size:
            if ctrl is None:
                ctrl = default_control()
            c = self._cdf_consts
            raw, terms[mid], e, status = _k._beta_mixture_lanes(
                c[0] + c[1] * np.log(g[mid]), *c[2:], ctrl.rel_tol, ctrl.max_terms
            )
            if not np.isfinite(raw).all():
                raise _cdf_error()
            value[mid] = np.clip(raw, 0.0, 1.0)
            est[mid] = e + np.abs(raw - value[mid])
            converged[mid] = status == STATUS_OK
        return LaneResult(value=value.reshape(shape), terms_used=terms.reshape(shape),
                          est_error=est.reshape(shape), converged=converged.reshape(shape))


@dataclass(frozen=True)
class Envelope:
    """Signal envelope R with mean power omega_power = E[R^2]: R^2 follows
    the subclass's _law at gamma_bar = omega_power, so its density is
    2r f(r^2)."""

    params: AefParams | AkfParams
    omega_power: float
    _snr: Law = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not (self.omega_power > 0.0 and math.isfinite(self.omega_power)):
            raise DomainError(f"omega_power must be positive, got {self.omega_power}")
        _freeze(self, _snr=self._law(self.params, self.omega_power))

    def envelope_pdf(self, r: float | np.ndarray,
                     ctrl: SeriesControl | None = None) -> float | np.ndarray:
        """Density of the signal envelope at r >= 0 (or at every point of an
        np.ndarray r); ctrl acts as in snr_pdf."""
        return self._snr._density("envelope_pdf", "r", r, 2.0, ctrl)
