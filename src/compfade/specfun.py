"""Scalar special functions and convergent-series engines.

Public surface: ln_gamma, beta, pochhammer, gauss_2f1, kummer_1f1,
humbert_psi1, kdf_2_1. The hypergeometric engines return a SeriesResult and
never return a silently wrong value: tolerance unmet at max_terms comes back
with converged=False, and argument combinations outside every convergent
route raise ConvergenceError, as does a value beyond the double range.
Precondition violations raise DomainError.
"""
from __future__ import annotations

import math

from . import _kernels as _k
from ._kernels import _is_nonpos_int
from .series import (
    STATUS_DIVERGED,
    STATUS_OK,
    ConvergenceError,
    DomainError,
    SeriesControl,
    SeriesResult,
    default_control,
)

__all__ = [
    "ln_gamma",
    "beta",
    "pochhammer",
    "gauss_2f1",
    "kummer_1f1",
    "humbert_psi1",
    "kdf_2_1",
]

_POCH_PRODUCT_MAX = 128


def ln_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0."""
    if not x > 0.0:
        raise DomainError(f"ln_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def _in_double_range(name: str, value: float) -> float:
    if not math.isfinite(value):
        raise ConvergenceError(f"{name}: the value leaves the double range")
    return value


def beta(a: float, b: float) -> float:
    """Beta function B(a, b) for a, b > 0, computed in log space."""
    if not (a > 0.0 and b > 0.0):
        raise DomainError(f"beta requires positive arguments, got ({a}, {b})")
    return _in_double_range("beta", _k._signed_exp(1.0, _k._lbeta(a, b)))


def pochhammer(x: float, n: int) -> float:
    """Rising factorial (x)_n = x (x+1) ... (x+n-1); (x)_0 = 1. A product up
    to n = _POCH_PRODUCT_MAX, past it Gamma(x + n)/Gamma(x) in log space."""
    if n < 0 or n != int(n):
        raise DomainError(f"pochhammer requires integer n >= 0, got {n}")
    n = int(n)
    if _is_nonpos_int(x) and n > -x:
        return 0.0
    if n <= _POCH_PRODUCT_MAX:
        return _in_double_range("pochhammer", math.prod((x + i for i in range(n)), start=1.0))
    if _is_nonpos_int(x):  # (x)_n = (-1)^n Gamma(1 - x)/Gamma(1 - x - n)
        ln_p, sgn = math.lgamma(1.0 - x) - math.lgamma(1.0 - x - n), (-1.0) ** n
    else:
        (ln_hi, s_hi), (ln_lo, s_lo) = _k._lgamma_sign(x + n), _k._lgamma_sign(x)
        ln_p, sgn = ln_hi - ln_lo, s_hi * s_lo
    return _in_double_range("pochhammer", _k._signed_exp(sgn, ln_p))


def _finish(
    name: str,
    ln_abs: float,
    sign: float,
    terms: int,
    est_rel: float,
    status: int,
) -> SeriesResult:
    if status == STATUS_DIVERGED:
        raise ConvergenceError(f"{name}: no convergent series route for these arguments")
    if sign == 0.0 or ln_abs == -math.inf:
        value = 0.0
        est = est_rel
    else:
        value = _k._signed_exp(sign, ln_abs)
        if not math.isfinite(value):
            raise ConvergenceError(
                f"{name}: the value leaves the double range (ln|value| = {ln_abs})"
            )
        est = est_rel * abs(value)
    return SeriesResult(
        value=value,
        terms_used=terms,
        est_error=est,
        converged=(status == STATUS_OK),
    )


def gauss_2f1(
    a: float,
    b: float,
    c: float,
    z: float,
    ctrl: SeriesControl | None = None,
) -> SeriesResult:
    """Gauss hypergeometric 2F1(a, b; c; z) for real arguments.

    Direct series for z in [0, 0.5]; Pfaff map for z < 0; same-argument Euler
    map for z in (0.5, 1) when it accelerates decay; the Gauss summation
    value at z = 1 when the series converges there. A terminating numerator
    parameter (non-positive integer a or b) gives the exact polynomial for
    any z.
    """
    if ctrl is None:
        ctrl = default_control()
    if _is_nonpos_int(c) and not (
        (_is_nonpos_int(a) and a > c) or (_is_nonpos_int(b) and b > c)
    ):
        raise DomainError(f"gauss_2f1: c = {c} is a non-positive integer")
    return _finish("gauss_2f1", *_k.gauss_2f1_ln(
        float(a), float(b), float(c), float(z), ctrl.rel_tol, ctrl.max_terms,
    ))


def kummer_1f1(
    a: float,
    b: float,
    z: float,
    ctrl: SeriesControl | None = None,
) -> SeriesResult:
    """Confluent hypergeometric 1F1(a; b; z) for real arguments.

    z >= 0 sums the defining series directly (cancellation-free for positive
    parameters); z < 0 goes through Kummer's transformation
    1F1(a; b; z) = e^z 1F1(b - a; b; -z) so the summed series again has
    eventually fixed-sign terms.
    """
    if ctrl is None:
        ctrl = default_control()
    if _is_nonpos_int(b) and not (_is_nonpos_int(a) and a > b):
        raise DomainError(f"kummer_1f1: b = {b} is a non-positive integer")
    return _finish("kummer_1f1", *_k.kummer_1f1_ln(
        float(a), float(b), float(z), ctrl.rel_tol, ctrl.max_terms
    ))


def humbert_psi1(
    a: float,
    b: float,
    c: float,
    cp: float,
    x: float,
    y: float,
    ctrl: SeriesControl | None = None,
) -> SeriesResult:
    """Humbert Psi1(a; b; c, c'; x, y) double hypergeometric series.

    Summed as a series of rows with a two-consecutive-small-rows stopping
    rule, so terms_used counts rows: for y >= 0 over n, each row a
    2F1(a + n, b; c; x) with coefficient (a)_n y^n / ((c')_n n!), whose
    coefficients share one sign; for y < 0, and for x >= 0 with c above
    10, over m, each row a 1F1(a + m; c'; y). Requires |x| < 1 unless b is
    a non-positive integer (which truncates the m-range and lifts the
    restriction). c may be a non-positive integer only when such a b zeroes
    every term at or past the (c)_m pole.
    """
    if ctrl is None:
        ctrl = default_control()
    if _is_nonpos_int(cp):
        raise DomainError(f"humbert_psi1: c' = {cp} is a non-positive integer")
    b_term = _is_nonpos_int(b)
    if _is_nonpos_int(c) and not (b_term and int(-b) < int(-c) + 1):
        raise DomainError(
            f"humbert_psi1: c = {c} pole is reached before b = {b} truncates the series"
        )
    if abs(x) >= 1.0 and not b_term:
        raise ConvergenceError(f"humbert_psi1: |x| = {abs(x)} >= 1 outside convergence domain")
    return _finish("humbert_psi1", *_k.humbert_psi1_ln(
        float(a), float(b), float(c), float(cp), float(x), float(y),
        ctrl.rel_tol, ctrl.max_terms,
    ))


def kdf_2_1(
    a1: float,
    a2: float,
    b1: float,
    c1: float,
    x: float,
    y: float,
    ctrl: SeriesControl | None = None,
) -> SeriesResult:
    """Kampe de Feriet F[a1, a2; b1 : c1; x, y] with the 2:0;0 / 1:1;0 layout.

    Sum over m, n of (a1)_{m+n} (a2)_{m+n} / ((b1)_{m+n} (c1)_m) x^m y^n /
    (m! n!). Evaluated as an iterated sum: for each power of x the inner
    y-series is a Gauss 2F1 with shifted parameters, which keeps the
    evaluation convergent for any x when |y| < 1 (the region of the alpha-
    kappa-F CDF's form; y <= -1 still works through the 2F1 Pfaff map).
    terms_used counts those rows.
    """
    if ctrl is None:
        ctrl = default_control()
    if _is_nonpos_int(b1):
        raise DomainError(f"kdf_2_1: b1 = {b1} is a non-positive integer")
    if _is_nonpos_int(c1):
        raise DomainError(f"kdf_2_1: c1 = {c1} is a non-positive integer")
    return _finish("kdf_2_1", *_k.kdf_2_1_ln(
        float(a1), float(a2), float(b1), float(c1), float(x), float(y),
        ctrl.rel_tol, ctrl.max_terms,
    ))
