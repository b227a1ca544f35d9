"""Series evaluation controls, results and error types shared by every
engine, and the front ends of both composite laws: Law (the one density
front end _density and the one mixture CDF snr_cdf) and Envelope. A law
is its parameter set's law at gamma_bar = 1 at gamma/gamma_bar: its
constants are computed once per params object (params._unit), and every
kernel takes ln gamma - ln gamma_bar; Law.cdf_truncation_bound bounds
the mixture's remainder for both families. Each family supplies its
density kernels and the tail mass of its mixture's weights; its params,
the constants of its density and CDF mixture and the head of its CDF, A
x^p as x -> 0, as (ln A, p). The density constants are built from the
head (the densities are its derivative times powers of Lambda/D), and
pdf(0), the outage asymptote and the battery read it.

The densities and the mixture CDF take a float or an np.ndarray. A float
runs the scalar kernels; an array runs every point as a lane of one array
computation (_kernels._scipy_or_scalar_lanes for the densities,
_kernels._beta_mixture_lanes for the CDF), and the CDF then returns a
LaneResult of arrays in place of a SeriesResult. Law._densities evaluates
the densities of many laws of either family, one such computation per
family, each lane with its law's constants.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from . import _kernels as _k

if TYPE_CHECKING:
    from .params import AefParams, AkfParams

DEFAULT_REL_TOL = 1e-12
DEFAULT_MAX_TERMS = 100_000
# twice the double's epsilon, the rounding term of Law.cdf_truncation_bound
_TWO_EPS = 2.0 * 2.220446049250313e-16

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

    rel_tol is measured term-to-partial-sum, 0 < rel_tol < 1; max_terms, an
    integer >= 1, caps each summation index.
    """

    rel_tol: float = DEFAULT_REL_TOL
    max_terms: int = DEFAULT_MAX_TERMS

    def __post_init__(self) -> None:
        if not 0.0 < self.rel_tol < 1.0:
            raise DomainError("rel_tol must be in (0, 1), got %r" % (self.rel_tol,))
        try:
            whole = operator.index(self.max_terms) >= 1
        except TypeError:
            whole = False
        if not whole:
            raise DomainError("max_terms must be an integer >= 1, got %r" % (self.max_terms,))


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


# the one default of every ctrl parameter
DEFAULT_CONTROL = SeriesControl()


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
    # positional: the frozen dataclass's keyword call costs 0.6 us more
    return SeriesResult(value, terms, est + abs(raw - value), converged)


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
    """Set derived fields of a frozen dataclass in __post_init__, in one
    __dict__ update (0.5 us a law less than object.__setattr__ per field)."""
    obj.__dict__.update(values)


@dataclass(frozen=True)
class Law:
    """Instantaneous-SNR law with mean SNR gamma_bar. A family subclass names
    its params class in _params_type, its density kernel in _pdf_kernel, its
    scipy array form in _pdf_form (the pair _kernels._scipy_or_scalar_lanes
    takes) and the tail mass of its CDF mixture's weights in _tail_mass
    (_kernels.nb_tail_mass, poisson_tail_mass); Law._densities takes laws of
    either family. _pdf_consts and _cdf_consts are the params' gamma_bar = 1
    tuples, shared; the densities take their log-Jacobian minus ln gamma_bar
    too. _head is (ln A, p) of the CDF head F(x) ~ A x^p as x -> 0.
    _cdf_consts is the CDF: ln y0, alpha/2 and the arguments of
    _kernels._beta_mixture at ln y = ln y0 + (alpha/2) (ln x - ln
    gamma_bar)."""

    params: AefParams | AkfParams
    gamma_bar: float
    _ln_gb: float = field(init=False, repr=False)
    _head: tuple = field(init=False, repr=False)
    _pdf_consts: tuple = field(init=False, repr=False)
    _cdf_consts: tuple = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not (self.gamma_bar > 0.0 and math.isfinite(self.gamma_bar)):
            raise DomainError(f"gamma_bar must be positive, got {self.gamma_bar}")
        if not isinstance(self.params, self._params_type):
            raise DomainError(f"{type(self).__name__} takes {self._params_type.__name__}")
        unit = self.params._unit
        ln_gb = math.log(self.gamma_bar)
        ln_a, p = unit.head
        _freeze(self, _ln_gb=ln_gb, _head=(ln_a - p * ln_gb, p),
                _pdf_consts=unit.pdf_consts, _cdf_consts=unit.cdf_consts)

    def _density(self, name: str, var: str, x: float, power: float,
                 ctrl: SeriesControl) -> float:
        """Density at x >= 0 of x = gamma^(1/power): power 1 is the SNR,
        power 2 the envelope (gamma_bar the mean power). The kernel takes
        ln gamma = power ln x and the log-Jacobian, so an x whose power
        under- or overflows stays on the curve; pdf(0) follows from the CDF
        head A gamma^q = A x^(power q). An np.ndarray x is _densities' one-law
        case, an array of x's shape; it raises as the scalar call would at
        any of its points."""
        if isinstance(x, np.ndarray):
            values, errors = Law._densities([self], name, var, x, None, power, ctrl)
            if errors:
                raise errors[0]
            return values.reshape(np.shape(x))
        if not x >= 0.0:
            raise DomainError(f"{var} must be non-negative, got {x}")
        if x == 0.0:
            ln_a, q = self._head
            return _k.pdf_at_zero(ln_a, power * q)
        if x == math.inf:
            return 0.0
        ln_x = math.log(x)
        ln_jac = 0.0 if power == 1.0 else (power - 1.0) * ln_x + math.log(power)
        value, status = self._pdf_kernel(
            self._pdf_consts, power * ln_x - self._ln_gb, ctrl.rel_tol, ctrl.max_terms,
            ln_jac - self._ln_gb
        )
        if status != STATUS_OK or not math.isfinite(value):
            raise _density_error(name, status != STATUS_OK)
        return value

    @staticmethod
    def _densities(laws: list, name: str, var: str, x: np.ndarray, which,
                   power: float, ctrl: SeriesControl = DEFAULT_CONTROL) -> tuple:
        """_density of laws[which[i]] at x[i] for every point of the array x,
        for laws of either family; which is None for one law. Each family
        present, in order of first appearance, is one
        _kernels._scipy_or_scalar_lanes call on its own lanes with its
        _pdf_kernel and _pdf_form, each lane taking its law's _pdf_consts
        and ln gamma_bar.
        Returns (values, errors), values a flat array: errors maps the index
        of each law that fails, as its scalar call would raise (a series
        that did not converge, an overflow), to that ConvergenceError, and
        its lanes hold NaN. The other laws' lanes are unaffected."""
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
        for kind in dict.fromkeys(map(type, laws)):
            member = np.array([type(law) is kind for law in laws])
            lanes = mid if member.all() else mid[member[which[mid]]]
            if not lanes.size:
                continue
            members = np.flatnonzero(member)
            ln_x = np.log(x[lanes])
            if power == 1.0:
                ln_jac = np.zeros(lanes.size)
            else:
                ln_jac = (power - 1.0) * ln_x + math.log(power)
            if members.size == 1:
                law = laws[members[0]]
                consts, ln_gb = law._pdf_consts, law._ln_gb
            else:
                rows = [laws[i]._pdf_consts + (laws[i]._ln_gb,) for i in members]
                table = np.ascontiguousarray(np.array(rows).T)
                *consts, ln_gb = table[:, np.searchsorted(members, which[lanes])]
                consts = tuple(consts)
            values, status = _k._scipy_or_scalar_lanes(
                kind._pdf_kernel, kind._pdf_form, consts, power * ln_x - ln_gb, ctrl.rel_tol,
                ctrl.max_terms, ln_jac - ln_gb
            )
            bad = (status != 0) | ~np.isfinite(values)
            for i in np.unique(which[lanes[bad]]):
                errors[int(i)] = _density_error(name, bool(np.any(status[which[lanes] == i])))
            out[lanes] = values
        if errors:
            out[np.isin(which, list(errors))] = math.nan
        return out, errors

    def snr_pdf(self, gamma: float | np.ndarray,
                ctrl: SeriesControl = DEFAULT_CONTROL) -> float | np.ndarray:
        """Density of the instantaneous SNR at gamma >= 0, or at every point
        of an np.ndarray gamma.

        Its hypergeometric factor (the alpha-eta-F 2F1, the alpha-kappa-F
        1F1) comes from scipy.special for ms <= 50, where ctrl has no
        effect; ctrl governs the series that evaluates it for larger ms (or
        where scipy's value leaves the double range).
        """
        return self._density("snr_pdf", "gamma", gamma, 1.0, ctrl)

    def snr_cdf(self, gamma: float | np.ndarray,
                ctrl: SeriesControl = DEFAULT_CONTROL) -> SeriesResult | LaneResult:
        """CDF of the instantaneous SNR at gamma >= 0, as a truncated mixture
        of regularized incomplete betas (negative binomial weights for
        alpha-eta-F, Poisson for alpha-kappa-F), clamped to [0, 1]; any
        clamping adjustment is added to est_error.

        An np.ndarray gamma gives a LaneResult whose fields are arrays of
        its shape; ctrl's rel_tol and max_terms then act on each point as
        on a scalar call. Raises ConvergenceError where the sum is not
        finite, and at every gamma where the mixture's first weight (e^(-mu
        kappa), h^(-mu)) is below the stop tests' floor 1e-300: the sum would
        end before the weights rise (5.3e-308 for 1.6e-8 at mu kappa = 720)."""
        c = self._cdf_consts
        if c[_k.CDF_LN_W0] < _k._LN_ABS_TOL:
            raise ConvergenceError(
                f"snr_cdf: the mixture's first weight is below {_k._ABS_TOL:g}, the floor "
                f"of its stop tests (mu kappa or mu ln h above {-_k._LN_ABS_TOL:.1f})"
            )
        # a float inside (0, inf), the curves' point, goes straight to the kernel
        if not (type(gamma) is float and 0.0 < gamma < math.inf):
            if isinstance(gamma, np.ndarray):
                return self._cdf_lanes_result(gamma, ctrl)
            end = cdf_endpoint(gamma)
            if end is not None:
                return end
        # ln y, as _ln_y forms it
        raw, terms, est, status = _k._beta_mixture(
            c[0] + c[1] * (math.log(gamma) - self._ln_gb), *c[2:], ctrl.rel_tol,
            ctrl.max_terms
        )
        if not math.isfinite(raw):
            raise _cdf_error()
        return cdf_clamped(raw, terms, est, status == STATUS_OK)

    def cdf_truncation_bound(self, gamma: float, k0: int) -> float:
        """Upper bound on snr_cdf's remainder after its first k0 terms (k =
        0 .. k0 - 1 kept): P(N >= k0) I_x(a + step k0, b) + 2 eps I_x(a, b).

        The terms left out, w_k I_x(a + step k, b) for k >= k0, have
        positive weights summing to P(N >= k0), the weights' tail mass
        (_tail_mass), and betas that fall as k grows: the noncentral-beta
        remainder bound of AS R84 (Frick 1990). I_x(a, b) is at least the
        CDF, so 2 eps I_x(a, b) covers the rounding of a remainder taken as
        the difference of two summed CDFs; it stands as x^a (1 - x)^min(b -
        1, 0) / (a B(a, b)), at most 1, an upper bound on I_x(a, b) from the
        law's constants, so a call makes two scipy calls and sums no
        series."""
        if not gamma >= 0.0:
            raise DomainError(f"gamma must be non-negative, got {gamma}")
        if not (k0 >= 1 and k0 % 1 == 0):  # k0 % 1 is NaN at k0 = inf
            raise DomainError(f"k0 must be an integer >= 1, got {k0}")
        if gamma == 0.0:
            return 0.0
        ln_y0, half_alpha, a, step, b, _, ln_z, r, _, ln_a, lb = self._cdf_consts
        x, cx, lnx, lncx = _k._beta_argument(
            ln_y0 + half_alpha * (math.log(gamma) - self._ln_gb))
        ln_i0 = a * lnx - ln_a - lb
        if b < 1.0:  # min(b - 1, 0) ln(1 - x), with no 0 * ln 0 at gamma = inf
            ln_i0 += (b - 1.0) * lncx
        k0 = float(k0)
        return (self._tail_mass(k0, r, ln_z) * _k.reg_inc_beta(a + step * k0, b, x, cx)
                + _TWO_EPS * math.exp(min(ln_i0, 0.0)))

    def _ln_y(self, gamma: float) -> float:
        """ln of the CDF mixture's odds at gamma > 0 (X1 on alpha-kappa-F)."""
        return self._cdf_consts[0] + self._cdf_consts[1] * (math.log(gamma) - self._ln_gb)

    def _cdf_lanes_result(self, gamma: np.ndarray, ctrl: SeriesControl) -> LaneResult:
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
            c = self._cdf_consts
            raw, terms[mid], e, status = _k._beta_mixture_lanes(
                c[0] + c[1] * (np.log(g[mid]) - self._ln_gb), *c[2:], ctrl.rel_tol,
                ctrl.max_terms
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
                     ctrl: SeriesControl = DEFAULT_CONTROL) -> float | np.ndarray:
        """Density of the signal envelope at r >= 0 (or at every point of an
        np.ndarray r); ctrl acts as in snr_pdf."""
        return self._snr._density("envelope_pdf", "r", r, 2.0, ctrl)
