"""Scalar special functions and the four convergent-series engines.

Public surface: ln_gamma, beta, pochhammer, gauss_2f1, kummer_1f1,
humbert_psi1, kdf_2_1. The hypergeometric engines return a SeriesResult and
never return a silently wrong value: tolerance unmet at max_terms comes back
with converged=False, and argument combinations outside every convergent
route raise ConvergenceError, as does a value beyond the double range.

Each engine checks its domain once, in its public function: a non-finite
argument, or a parameter at a pole the series reaches, raises DomainError,
as a non-finite argument of ln_gamma, beta or pochhammer does, and an
integer argument past the double range. The kernels behind them
(gauss_2f1_ln, _kernels.kummer_1f1_ln, humbert_psi1_ln, kdf_2_1_ln) take
what that check admits and what their other callers form, which is never
such a pole. They return (ln_abs, sign, terms, est_rel, status): status 0
ok, 1 tolerance unmet at max_terms, 2 no convergent route.

The single-variable engines sum _kernels._hyper_series after a
transformation. The double series, Humbert Psi1 and Kampe de Feriet, add
one row per step in one outer loop (_row_sum): 2F1 rows from _ln_2f1_row,
1F1 rows from _ln_1f1_row. A row is a scipy.special call where scipy
1.17.1 was measured accurate against mpmath. Its hyp2f1 was within 3e-12
at z in (0, 1), a and b up to 1e3, up to c = _SCIPY_2F1_C_MAX, and up to
30% off past c = 11 where a is 1.5-3 c and z > 0.3. Its hyp1f1(a, c, z)
was orders of magnitude off at z < 0 once a passed about 150, so the 1F1
rows take Kummer's form. On 2F1(B + b, B; B + 1; -y) its hyp2f1 was up to
1e59 off, or NaN, so that row is an incomplete beta (_ln_2f1_beta).
"""
from __future__ import annotations

import math

from ._kernels import (
    _ABS_TOL,
    _LN_POW_MIN,
    _LN_RESCALE,
    _beta_argument,
    _hyp1f1,
    _hyp2f1,
    _hyper_series,
    _is_nonpos_int,
    _lbeta,
    _signed_exp,
    kummer_1f1_ln,
    reg_inc_beta,
)
from .series import (
    DEFAULT_CONTROL,
    STATUS_DIVERGED,
    STATUS_OK,
    ConvergenceError,
    DomainError,
    SeriesControl,
    SeriesResult,
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
# at x >= 0, humbert_psi1_ln takes 2F1 rows only up to this c
_SCIPY_2F1_C_MAX = 10.0


def ln_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0."""
    _require_finite("ln_gamma", x)
    if not x > 0.0:
        raise DomainError(f"ln_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def _in_double_range(name: str, value: float) -> float:
    if not math.isfinite(value):
        raise ConvergenceError(f"{name}: the value leaves the double range")
    return value


def _require_finite(name: str, *args) -> None:
    try:
        if all(map(math.isfinite, args)):
            return
    except OverflowError:  # an integer past the double range
        raise DomainError(f"{name} requires arguments in the double range") from None
    raise DomainError(f"{name} requires finite arguments, got {args}")


def _lgamma_sign(x):
    """(ln|Gamma(x)|, sign of Gamma(x)); sign 0.0 marks a pole."""
    if x > 0.0:
        return math.lgamma(x), 1.0
    if x == math.floor(x):
        return math.inf, 0.0
    # lgamma already returns ln|Gamma| for negative non-integers; Gamma alternates
    # sign on successive unit intervals below zero.
    if int(math.floor(x)) % 2 == 0:
        return math.lgamma(x), 1.0
    return math.lgamma(x), -1.0


def beta(a: float, b: float) -> float:
    """Beta function B(a, b) for a, b > 0, computed in log space."""
    _require_finite("beta", a, b)
    if not (a > 0.0 and b > 0.0):
        raise DomainError(f"beta requires positive arguments, got ({a}, {b})")
    return _in_double_range("beta", _signed_exp(1.0, _lbeta(a, b)))


def pochhammer(x: float, n: int) -> float:
    """Rising factorial (x)_n = x (x+1) ... (x+n-1); (x)_0 = 1. A product up
    to n = _POCH_PRODUCT_MAX, past it Gamma(x + n)/Gamma(x) in log space."""
    _require_finite("pochhammer", x, n)
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
        (ln_hi, s_hi), (ln_lo, s_lo) = _lgamma_sign(x + n), _lgamma_sign(x)
        ln_p, sgn = ln_hi - ln_lo, s_hi * s_lo
    return _in_double_range("pochhammer", _signed_exp(sgn, ln_p))


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
        value = _signed_exp(sign, ln_abs)
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
    ctrl: SeriesControl = DEFAULT_CONTROL,
) -> SeriesResult:
    """Gauss hypergeometric 2F1(a, b; c; z) for real arguments.

    Direct series for z in [0, 0.5]; Pfaff map for z < 0; same-argument Euler
    map for z in (0.5, 1) when it accelerates decay; the Gauss summation
    value at z = 1 when the series converges there. A terminating numerator
    parameter (non-positive integer a or b) gives the exact polynomial for
    any z. c may be a non-positive integer only where such an a or b lies
    above it, so the series ends before the (c)_n pole.
    """
    _require_finite("gauss_2f1", a, b, c, z)
    if _is_nonpos_int(c) and not (
        (_is_nonpos_int(a) and a > c) or (_is_nonpos_int(b) and b > c)
    ):
        raise DomainError(f"gauss_2f1: c = {c} is a non-positive integer")
    return _finish("gauss_2f1", *gauss_2f1_ln(
        float(a), float(b), float(c), float(z), ctrl.rel_tol, ctrl.max_terms,
    ))


def gauss_2f1_ln(a, b, c, z, rel_tol, max_terms):
    """gauss_2f1's routes. Its other callers, the 2F1 rows and the paper's
    bound, pass no c that gauss_2f1 refuses."""
    # terminating numerator: exact polynomial, any z
    a_term = _is_nonpos_int(a)
    b_term = _is_nonpos_int(b)
    if a_term or b_term:
        if a_term and b_term:
            nmax = int(-max(a, b))
        elif a_term:
            nmax = int(-a)
        else:
            nmax = int(-b)
        # all nmax nonzero terms; the next one is zero, and its (c + nmax)
        # may be too when c = -nmax
        ln_f, sgn, _, _, _ = _hyper_series(a, b, c, z, 0.0, nmax, floor=0.0)
        return ln_f, sgn, min(nmax + 1, max_terms), 0.0, 0
    if z == 0.0:
        return 0.0, 1.0, 1, 0.0, 0
    if z < 0.0:
        # Pfaff map w = z/(z-1) in (0,1); pick the variant whose transformed
        # parameter sum is smaller (faster coefficient decay near w=1).
        w = z / (z - 1.0)
        if a <= b:
            ln_pref = -a * math.log1p(-z)
            ln_f, sgn, terms, est, st = _hyper_series(a, c - b, c, w, rel_tol, max_terms)
        else:
            ln_pref = -b * math.log1p(-z)
            ln_f, sgn, terms, est, st = _hyper_series(c - a, b, c, w, rel_tol, max_terms)
        return ln_pref + ln_f, sgn, terms, est, st
    if z < 1.0:
        if z <= 0.5 or c - a - b >= 0.0:
            return _hyper_series(a, b, c, z, rel_tol, max_terms)
        # Euler map keeps the argument but flips the decay exponent positive
        ln_pref = (c - a - b) * math.log1p(-z)
        ln_f, sgn, terms, est, st = _hyper_series(c - a, c - b, c, z, rel_tol, max_terms)
        return ln_pref + ln_f, sgn, terms, est, st
    if z == 1.0 and c - a - b > 0.0:
        # Gauss summation theorem
        ln1, s1 = _lgamma_sign(c)
        ln2, s2 = _lgamma_sign(c - a - b)
        ln3, s3 = _lgamma_sign(c - a)
        ln4, s4 = _lgamma_sign(c - b)
        if s3 == 0.0 or s4 == 0.0:
            return 0.0, 0.0, 0, 0.0, 2
        return ln1 + ln2 - ln3 - ln4, s1 * s2 * s3 * s4, 1, 0.0, 0
    return 0.0, 0.0, 0, 0.0, 2


def kummer_1f1(
    a: float,
    b: float,
    z: float,
    ctrl: SeriesControl = DEFAULT_CONTROL,
) -> SeriesResult:
    """Confluent hypergeometric 1F1(a; b; z) for real arguments, by
    _kernels.kummer_1f1_ln's routes. b may be a non-positive integer only
    where a non-positive integer a lies above it."""
    _require_finite("kummer_1f1", a, b, z)
    if _is_nonpos_int(b) and not (_is_nonpos_int(a) and a > b):
        raise DomainError(f"kummer_1f1: b = {b} is a non-positive integer")
    return _finish("kummer_1f1", *kummer_1f1_ln(
        float(a), float(b), float(z), ctrl.rel_tol, ctrl.max_terms
    ))


def _is_beta_row(a, b, c, z):
    """Whether 2F1(a, b; c; z) is 2F1(B + b', B; B + 1; -y) with B = b, b' =
    a - b > 0 and y = -z > 0, the contiguous structure of the composite CDF's
    double series. c = b + 1 is tested up to a few ulps: c built as b + 1 in
    floating point can sit an ulp off, and snapping it changes the function
    by far less than the row-evaluation error it avoids."""
    ulps = 64.0 * 2.220446049250313e-16 * max(1.0, abs(c))
    return z < 0.0 and a > b > 0.0 and abs(c - b - 1.0) <= ulps


def _ln_2f1_row(a, b, c, z, rel_tol, max_terms):
    """(ln|2F1(a, b; c; z)|, sign, status), a row of a double series.

    A row of the contiguous structure (_is_beta_row) comes from
    _ln_2f1_beta, which keeps every factor positive. Any other comes from
    scipy's hyp2f1 where it gives a finite nonzero double; where it
    overflows at 0 < z < 1, from Euler's (1 - z)^(c-a-b) 2F1(c - a, c - b;
    c; z) with that 2F1 from scipy; else from gauss_2f1_ln.
    """
    if _is_beta_row(a, b, c, z):
        ln_y = math.log(-z)
        ln_f, st = _ln_2f1_beta(b, a - b, ln_y, *_beta_argument(ln_y), rel_tol, max_terms)
        return ln_f, 1.0, st
    f = _hyp2f1(a, b, c, z)
    if 0.0 < abs(f) < math.inf:
        return math.log(abs(f)), math.copysign(1.0, f), 0
    if abs(f) == math.inf and 0.0 < z < 1.0:
        f = _hyp2f1(c - a, c - b, c, z)
        if 0.0 < abs(f) < math.inf:
            return (c - a - b) * math.log1p(-z) + math.log(abs(f)), math.copysign(1.0, f), 0
    ln_f, sgn, _, _, st = gauss_2f1_ln(a, b, c, z, rel_tol, max_terms)
    return ln_f, sgn, st


def _ln_1f1_row(a, c, z, rel_tol, max_terms):
    """(ln|1F1(a; c; z)|, sign, status), a row of a double series: Kummer's
    e^z 1F1(c - a; c; -z) with that 1F1 from scipy's hyp1f1 where it gives a
    finite nonzero double, else kummer_1f1_ln. The direct hyp1f1(a; c; z)
    also overflows sooner at z > 0."""
    f = _hyp1f1(c - a, c, -z)
    if 0.0 < abs(f) < math.inf:
        return z + math.log(abs(f)), math.copysign(1.0, f), 0
    ln_f, sgn, _, _, st = kummer_1f1_ln(a, c, z, rel_tol, max_terms)
    return ln_f, sgn, st


def _ln_2f1_beta(B, b, ln_y, w, cw, lnw, lncw, rel_tol, max_terms):
    """(ln 2F1(B + b, B; B + 1; -y), status) for B, b, y > 0, given
    _beta_argument(ln y): B y^-B B(B, b) I_w(B, b), w = y/(1 + y), where B ln
    w > _LN_POW_MIN and I > 0, else Pfaff's (1 + y)^-(B + b) 2F1(B + b, 1;
    B + 1; w) as its power series of positive terms.
    """
    if B * lnw > _LN_POW_MIN:
        iw = reg_inc_beta(B, b, w, cw)
        if iw > 0.0:
            return math.log(B) - B * ln_y + _lbeta(B, b) + math.log(iw), 0
    ln_f, _, _, _, st = _hyper_series(B + b, 1.0, B + 1.0, w, rel_tol, max_terms)
    return ln_f + (B + b) * lncw, st


def _row_sum(row, ratio, rel_tol, max_terms):
    """sum_m coef_m row(m), the outer loop of both double series: row(m)
    gives (ln|row|, sign, status), coef_0 = 1 and coef_(m+1) = coef_m
    ratio(m), carried as ln|coef| and a sign.

    Rows are added until two successive terms fall below rel_tol of the
    partial sum or below _ABS_TOL, a ratio of exactly 0 ends a terminating
    series, or max_terms rows are added; the partial sum is shifted down
    before a term passes e^_LN_RESCALE. A row of status 2 ends the sum with
    status 2; otherwise the status is the worse of the stop's and the
    rows'. Returns (ln_abs, sign, rows, est_rel, status).
    """
    s = 0.0
    ln_scale = 0.0
    ln_coef = 0.0
    sgn_coef = 1.0
    small = 0
    m = 0
    est = 0.0
    status = 1
    worst_row = 0
    while m < max_terms:
        ln_f, sgn_f, row_st = row(m)
        if row_st == 2:
            return 0.0, 0.0, m, 0.0, 2
        worst_row = max(worst_row, row_st)
        e = ln_coef + ln_f - ln_scale
        if e > _LN_RESCALE:
            shift = e - 600.0
            s *= math.exp(-shift)
            ln_scale += shift
            e = 600.0
        term = sgn_coef * sgn_f * math.exp(e)
        s += term
        m += 1
        at = abs(term)
        est = at
        if at <= max(rel_tol * abs(s), _ABS_TOL):
            small += 1
            if small >= 2:
                status = 0
                break
        else:
            small = 0
        r = ratio(m - 1)
        if r == 0.0:
            est = 0.0
            status = 0
            break
        ln_coef += math.log(abs(r))
        if r < 0.0:
            sgn_coef = -sgn_coef
    status = max(status, worst_row)
    if s == 0.0:
        return -math.inf, 0.0, m, est, status
    sgn = 1.0 if s > 0.0 else -1.0
    return math.log(abs(s)) + ln_scale, sgn, m, est / abs(s), status


def humbert_psi1(
    a: float,
    b: float,
    c: float,
    cp: float,
    x: float,
    y: float,
    ctrl: SeriesControl = DEFAULT_CONTROL,
) -> SeriesResult:
    """Humbert Psi1(a; b; c, c'; x, y) = sum_{m,n} (a)_{m+n} (b)_m /
    ((c)_m (c')_n) x^m y^n / (m! n!), summed by _row_sum over
    single-variable rows, so terms_used counts rows.

    For y >= 0 it runs over n, rows 2F1(a + n, b; c; x) (_ln_2f1_row) with
    coefficients (a)_n / ((c')_n n!) y^n of one sign for a > 0; at x >= 0
    only for b a non-positive integer or c at most _SCIPY_2F1_C_MAX, where
    scipy's rows were measured. Otherwise it runs over m, rows 1F1(a + m;
    c'; y) (_ln_1f1_row) with coefficients (a)_m (b)_m / ((c)_m m!) x^m, so
    for y < 0 the alternating powers of y stay inside the rows. Requires
    |x| < 1 (else ConvergenceError) unless b is a non-positive integer,
    which ends the m-sum after m = -b. c may be a non-positive integer only
    when such a b zeroes every term at or past the (c)_m pole.
    """
    _require_finite("humbert_psi1", a, b, c, cp, x, y)
    if _is_nonpos_int(cp):
        raise DomainError(f"humbert_psi1: c' = {cp} is a non-positive integer")
    b_term = _is_nonpos_int(b)
    if _is_nonpos_int(c) and not (b_term and int(-b) < int(-c) + 1):
        raise DomainError(
            f"humbert_psi1: c = {c} pole is reached before b = {b} truncates the series"
        )
    if abs(x) >= 1.0 and not b_term:
        raise ConvergenceError(f"humbert_psi1: |x| = {abs(x)} >= 1 outside convergence domain")
    return _finish("humbert_psi1", *humbert_psi1_ln(
        float(a), float(b), float(c), float(cp), float(x), float(y),
        ctrl.rel_tol, ctrl.max_terms,
    ))


def humbert_psi1_ln(a, b, c, cp, x, y, rel_tol, max_terms):
    """humbert_psi1's rows. Its other caller, validation._humbert_cdf, takes
    c' = mu > 0, c = 1 + ms > 0 and x = -1/X1 with X1 > 1."""
    if y >= 0.0 and (x < 0.0 or _is_nonpos_int(b) or c <= _SCIPY_2F1_C_MAX):
        return _row_sum(lambda n: _ln_2f1_row(a + n, b, c, x, rel_tol, max_terms),
                        lambda n: (a + n) / ((cp + n) * (n + 1.0)) * y, rel_tol, max_terms)
    # the ratio is 0 where b + m = 0 ends a terminating b, also where c + m
    # = 0 there makes it 0/0
    return _row_sum(lambda m: _ln_1f1_row(a + m, cp, y, rel_tol, max_terms),
                    lambda m: (a + m) * (b + m) / ((c + m) * (m + 1.0)) * x if b + m else 0.0,
                    rel_tol, max_terms)


def kdf_2_1(
    a1: float,
    a2: float,
    b1: float,
    c1: float,
    x: float,
    y: float,
    ctrl: SeriesControl = DEFAULT_CONTROL,
) -> SeriesResult:
    """Kampe de Feriet F^{2:0;0}_{1:1;0}[a1, a2; b1: c1; x, y] = sum_{m,n}
    (a1)_{m+n} (a2)_{m+n} / ((b1)_{m+n} (c1)_m) x^m y^n / (m! n!), summed by
    _row_sum over m in x: rows 2F1(a1 + m, a2 + m; b1 + m; y) from
    _ln_2f1_row with coefficients (a1)_m (a2)_m / ((b1)_m (c1)_m m!) x^m;
    terms_used counts rows. Where b1 = a2 + 1 with a1 > a2 > 0 and y < 0
    (the contiguous structure of the composite CDF's form) every row is an
    incomplete beta (_ln_2f1_beta), whose factors are positive; the power
    series rows would lose digits to cancellation once x |y| grows.

    Converges for y < 1 and any x (y <= -1 through the 2F1 Pfaff map). For
    x >= 0 every outer term shares one sign and the sum is well
    conditioned; negative x alternates in m and relative accuracy degrades
    by the usual cancellation factor once the rows grow before decaying.
    b1 and c1 must not be non-positive integers.
    """
    _require_finite("kdf_2_1", a1, a2, b1, c1, x, y)
    if _is_nonpos_int(b1):
        raise DomainError(f"kdf_2_1: b1 = {b1} is a non-positive integer")
    if _is_nonpos_int(c1):
        raise DomainError(f"kdf_2_1: c1 = {c1} is a non-positive integer")
    return _finish("kdf_2_1", *kdf_2_1_ln(
        float(a1), float(a2), float(b1), float(c1), float(x), float(y),
        ctrl.rel_tol, ctrl.max_terms,
    ))


def kdf_2_1_ln(a1, a2, b1, c1, x, y, rel_tol, max_terms):
    """kdf_2_1's rows; kdf_2_1 is its only caller."""
    return _row_sum(lambda m: _ln_2f1_row(a1 + m, a2 + m, b1 + m, y, rel_tol, max_terms),
                    lambda m: (a1 + m) * (a2 + m) * x / ((b1 + m) * (c1 + m) * (m + 1.0)),
                    rel_tol, max_terms)
