"""Scalar series kernels.

Every kernel returns plain tuples of floats/ints with an integer status code
(0 ok, 1 tolerance unmet at max_terms, 2 divergent/invalid region) instead of
raising: running out of terms is not an error but a result that the series
wrappers in specfun/aef/akf report as converged=False next to the value
reached. They raise for status 2, and the density front end
(series.Law._density), which returns a bare float, raises for any nonzero
status and for a density that overflowed (the density kernels give it as
an infinite value).

Magnitudes are carried as (ln|value|, sign) pairs wherever gamma-function
growth can overflow doubles: the composite-fading expressions multiply very
large Gamma terms by very small powers, and only the combination is
representable.

The regularized incomplete beta comes from scipy.special (reg_inc_beta).
The CDF mixture of both laws (_beta_mixture) and the Kampe de Feriet beta
rows step it from term to term by the DLMF 8.17.20 recurrence and
re-anchor on scipy once it has dropped by 1e-2 (_REANCHOR).

The density kernels take their hypergeometric factor from scipy.special
where scipy was measured accurate (scipy 1.17.1 within 4e-13 of mpmath):
the alpha-eta-F 2F1 from hyp2f1, through Euler's transformation above
z = 1/2, and the alpha-kappa-F 1F1 from hyp1f1 in Kummer's form, both for
ms <= _SCIPY_MS_MAX. Larger ms, and any value scipy does not give as a
positive finite double, go to the series (gauss_2f1_ln, kummer_1f1_ln),
which the SeriesControl settings then govern; both 2F1 routes take
Euler's prefactor from the exact 1 - z. Each density is the derivative
of its CDF head, p A g^(p-1), times s^(c+ms), s = Lambda/D, and that
factor; ln s = -ln(1 + e^u) comes from _beta_argument, so no term of size
ms ln Lambda is formed, and the densities keep their digits at any ms. The
kernels' constants are computed once per distribution (aef_pdf_consts,
aef_cdf_consts, akf_pdf_consts, akf_cdf_consts). ln B(a, b) takes
Stirling's form above a + b = 1e3 (_lbeta).

The single series and the mixture add one term per interpreted loop
step. The Humbert Psi1 double series instead advances every live column
over a block of up to _PSI1_BLOCK diagonals in one 2-D array, so its
interpreted cost is paid per block rather than per diagonal; its stop test
and rescaling still act diagonal by diagonal (humbert_psi1_ln).
"""
from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy import special as _sc

# below this, kappa-dependent factors are replaced by their exact kappa -> 0
# limit forms for numerical hygiene
KAPPA_ZERO_CUTOFF = 1e-10

_LN_RESCALE = 645.0  # e^645 is close to the overflow edge; rescale margin below it
# an incomplete beta stepped by recurrence is recomputed once it falls below
# this share of its last value from scipy
_REANCHOR = 1e-2
_LN_POW_MIN = -700.0  # e^-700 = 1e-304, just above the subnormal range
# absolute floor of every stop test: a term below it counts as small
_ABS_TOL = 1e-300
_LN_ABS_TOL = math.log(_ABS_TOL)
CDF_LN_W0 = 5  # index of ln w_0, the mixtures' first weight, in the CDF consts
# humbert_psi1_ln sums up to this many diagonals per block, in blocks of
# at most this many terms (1 MB of doubles)
_PSI1_BLOCK = 64
_PSI1_BLOCK_ELEMS = 1 << 17
_PSI1_UPPER = ~np.tri(_PSI1_BLOCK, dtype=bool)  # [j, i]: i > j
# the density kernels take their 2F1 and 1F1 from scipy.special up to this
# ms, where scipy 1.17.1 was measured within 4e-13 of mpmath (CHANGES.md);
# past it hyp2f1 drifts to 5e-12 near z = 0 by ms = 250 and gives NaN at
# ms = 1e4, so the series are kept there
_SCIPY_MS_MAX = 50.0
# _lbeta's lgamma difference loses about eps (a + b) ln(a + b) (1.7e-12
# relative at a + b = 1e3, 3e-9 at 1e6, against mpmath); above this a + b it
# takes Stirling's form instead, which keeps no term that grows with b
_LBETA_STIRLING_MIN = 1e3
_LN_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
# an array of fewer points goes to _beta_mixture point by point: on the
# battery's 162 grid cells (points 0.05 to 8), the array loop cost 2.4x the
# scalar calls at 10 points, 1.3x at 20-24, 0.95x at 28-32 and 0.8x at 40
_LANES_START = 32


def _is_nonpos_int(x):
    return x <= 0.0 and x == math.floor(x)


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


def _ln_gamma_star(a):
    """ln Gamma*(a) = ln Gamma(a) - (a - 1/2) ln a + a - ln sqrt(2 pi), the
    Stirling correction: from lgamma below a = 10, above it from five terms
    of Stirling's series (error below 2e-14)."""
    if a < 10.0:
        return math.lgamma(a) - (a - 0.5) * math.log(a) + a - _LN_SQRT_2PI
    r = 1.0 / (a * a)
    return (1.0 / 12.0 - r * (1.0 / 360.0 - r * (1.0 / 1260.0 - r * (
        1.0 / 1680.0 - r / 1188.0)))) / a


def _lbeta(a, b):
    """ln B(a, b) for a, b > 0: the lgamma difference up to a + b =
    _LBETA_STIRLING_MIN, above it, with a <= b and c = a + b, Stirling's form
    lgamma(a) - a ln c - (b - 1/2) log1p(a/b) + a + Gamma*(b) - Gamma*(c)
    (the ln Gamma* of _ln_gamma_star), whose terms do not grow with b."""
    c = a + b
    if c <= _LBETA_STIRLING_MIN:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(c)
    if a > b:
        a, b = b, a
    return (math.lgamma(a) - a * math.log(c) - (b - 0.5) * math.log1p(a / b) + a
            + _ln_gamma_star(b) - _ln_gamma_star(c))


def pdf_at_zero(ln_a, q):
    """Density at 0 of a law whose CDF starts as A x^q: 0 above q = 1,
    infinite below it, and A at exactly q = 1."""
    if q > 1.0:
        return 0.0
    if q < 1.0:
        return math.inf
    return math.exp(ln_a)


def reg_inc_beta(a, b, x, cx):
    """Regularized incomplete beta I_x(a,b) given x and cx = 1 - x, from
    scipy.special.

    Above x = 1/2 it is the complement betaincc(b, a, cx), so an x within an
    ulp of 1 (the CDF mixtures reach both ends) keeps the digits cx carries.
    Where x^a falls below about e^_LN_POW_MIN, betainc loses digits although
    I may be representable; the CDF mixtures weight such an I by at most 1,
    and the KdF beta rows, which would scale it by |y|^-a, avoid it.
    """
    if x > 0.5:
        return float(_sc.betaincc(b, a, cx))
    return float(_sc.betainc(a, b, x))


def _ln_beta_step(a, b, lnx, lncx):
    """ln T(a) for T(a) = x^a (1-x)^b / (a B(a,b)) = I_x(a,b) - I_x(a+1,b)
    (DLMF 8.17.20)."""
    return a * lnx + b * lncx - math.log(a) - _lbeta(a, b)


def _inc_beta_up(i, ln_t, anchor, a, b, x, cx, lnx, lncx):
    """Step I = I_x(a,b) with ln_t = ln T(a) to I_x(a+1,b) and ln T(a+1).

    The subtraction I - T(a) cancels when T is close to I, and the loss
    compounds over successive steps, so I is recomputed by reg_inc_beta
    once it falls below _REANCHOR times anchor, the last value
    reg_inc_beta gave; measuring the drop step by step would let many
    small drops add up unchecked. Returns (I, ln_t, anchor).
    """
    i -= math.exp(ln_t)
    a1 = a + 1.0
    if i < _REANCHOR * anchor:
        i = reg_inc_beta(a1, b, x, cx)
        return i, _ln_beta_step(a1, b, lnx, lncx), i
    return i, ln_t + lnx + math.log((a + b) / a1), anchor


def _signed_exp(sgn, ln_abs):
    """sgn * exp(ln_abs), infinite where exp overflows."""
    try:
        return sgn * math.exp(ln_abs)
    except OverflowError:
        return sgn * math.inf


def _beta_argument(ln_y):
    """For w = y/(1+y) with y = exp(ln_y): returns (w, 1-w, ln w, ln(1-w))."""
    if ln_y > 0.0:
        t = math.log1p(math.exp(-ln_y))
        lnw, lncw = -t, -ln_y - t
    else:
        t = math.log1p(math.exp(ln_y))
        lnw, lncw = ln_y - t, -t
    return math.exp(lnw), math.exp(lncw), lnw, lncw


def _hyper_series(a, b, c, z, rel_tol, max_terms, ln_pref=0.0, floor=_ABS_TOL):
    """Power series of 2F1(a, b; c; z), or of 1F1(a; c; z) when b is None,
    times exp(ln_pref), summed until two successive terms fall below rel_tol
    of the partial sum or below floor, or max_terms terms are added. The
    partial sum is rescaled before it overflows, and a term of exactly zero
    ends a terminating series. Returns (ln_abs, sign, terms, est_rel, status).
    """
    t = 1.0
    s = 1.0
    ln_scale = 0.0
    small = 0
    n = 0
    est = 0.0
    while n < max_terms:
        if b is None:
            t *= (a + n) / (c + n) * z / (n + 1.0)
        else:
            t *= (a + n) * (b + n) / (c + n) * z / (n + 1.0)
        s += t
        n += 1
        at = abs(t)
        if t == 0.0:
            # numerator hit a non-positive integer: the series terminated exactly
            est = 0.0
            small = 2
            break
        est = at
        if at <= max(rel_tol * abs(s), floor):
            small += 1
            if small >= 2:
                break
        else:
            small = 0
        if abs(s) > 1e290 or at > 1e290:
            s *= 1e-290
            t *= 1e-290
            ln_scale += math.log(1e290)
    status = 0 if small >= 2 else 1
    terms = min(n + 1, max_terms)
    if s == 0.0:
        return -math.inf, 0.0, terms, est, status
    sgn = 1.0 if s > 0.0 else -1.0
    return ln_pref + math.log(abs(s)) + ln_scale, sgn, terms, est / abs(s), status


def gauss_2f1_ln(a, b, c, z, rel_tol, max_terms):
    """Gauss 2F1 dispatch: the direct series up to z = 1/2, Pfaff's map for
    z < 0, Euler's same-argument map above z = 1/2 where c - a - b < 0, and
    Gauss's sum at z = 1.

    Returns (ln_abs, sign, terms, est_rel, status).
    """
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
        if _is_nonpos_int(c) and -c <= nmax - 1:
            return 0.0, 0.0, 0, 0.0, 2  # pole before termination
        # all nmax nonzero terms; the next one is zero, and its (c + nmax)
        # may be too when c = -nmax
        ln_f, sgn, _, _, _ = _hyper_series(a, b, c, z, 0.0, nmax, floor=0.0)
        return ln_f, sgn, min(nmax + 1, max_terms), 0.0, 0
    if _is_nonpos_int(c):
        return 0.0, 0.0, 0, 0.0, 2
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


def kummer_1f1_ln(a, b, z, rel_tol, max_terms):
    """Confluent 1F1. Returns (ln_abs, sign, terms, est_rel, status).

    z >= 0 is summed directly (all terms positive for a,b > 0); z < 0 goes
    through Kummer's transform e^z 1F1(b-a; b; -z) so the transformed series
    is again cancellation-free in the b > a cases this package produces.
    """
    if _is_nonpos_int(b) and not (_is_nonpos_int(a) and a > b):
        return 0.0, 0.0, 0, 0.0, 2
    ln_pref = 0.0
    if z < 0.0 and not _is_nonpos_int(a):
        ln_pref = z
        a = b - a
        z = -z
    return _hyper_series(a, None, b, z, rel_tol, max_terms, ln_pref)


def humbert_psi1_ln(a, b, c, cp, x, y, rel_tol, max_terms):
    """Humbert Psi1 double series summed over expanding anti-diagonals,
    a block of up to _PSI1_BLOCK diagonals at a time.

    Psi1(a;b;c,c';x,y) = sum_{m,n} (a)_{m+n} (b)_m / ((c)_m (c')_n) x^m y^n / (m! n!).
    Column m keeps its own running term T(m,n), advanced one n-step per
    diagonal d by (a+d-1) y / ((n+c'-1) n), so no division by x or y ever
    happens (stable when either is tiny). A block is one 2-D array whose
    cumulative product down each column, seeded with the column's current
    term, forms the same products in the same order as stepping one
    diagonal at a time; the columns that open inside the block form its
    lower triangle, seeded with T(m,0) from the x-recurrence. One reduction
    gives the diagonal sums, and the stop test (two successive small
    diagonals) runs on their sequential partial sums. The block is cut after
    the first diagonal that stops the sum or leaves 1e290 in the partial
    sum or a term; there everything is rescaled by 1e-290 and the next block
    starts. A block holds at most _PSI1_BLOCK_ELEMS terms.

    b a non-positive integer truncates the m-range and lifts the |x| < 1
    requirement. Negative x with non-terminating b is rewritten
    through Psi1(a,b;c,c';x,y) = (1-x)^(-a) Psi1(a,c-b;c,c';x/(x-1),y/(1-x)),
    whose terms do not alternate in m; without it the raw series cancels
    catastrophically once y is large. Returns (ln_abs, sign, diagonals,
    est_rel, status).
    """
    if _is_nonpos_int(cp):
        return 0.0, 0.0, 0, 0.0, 2
    ln_pref = 0.0
    if x < 0.0 and not _is_nonpos_int(b):
        ln_pref = -a * math.log1p(-x)
        b = c - b
        y = y / (1.0 - x)
        x = x / (x - 1.0)
    b_term = _is_nonpos_int(b)
    m_cap = max_terms + 1
    if b_term:
        m_cap = int(-b) + 1
    if not b_term and abs(x) >= 1.0:
        return 0.0, 0.0, 0, 0.0, 2
    if _is_nonpos_int(c) and not (b_term and int(-b) < int(-c) + 1):
        return 0.0, 0.0, 0, 0.0, 2
    col = np.ones(1)  # T(m, diag - m) of the live columns m = 0..len(col)-1
    row_base = 1.0  # T(m,0) of the newest column
    s = 1.0  # running double sum (includes diagonal 0)
    ln_scale = 0.0
    small = False  # whether the last diagonal passed the stop test
    diag = 0
    est = 0.0
    status = 1
    # the factors of columns not yet open divide by zero, and a block may
    # overflow past the diagonal where it is cut; neither value is used
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        while status and diag < max_terms:
            n0 = len(col)
            nb = min(_PSI1_BLOCK, max_terms - diag)
            n1 = min(diag + nb + 1, m_cap)
            if nb * n1 > _PSI1_BLOCK_ELEMS:
                nb = max(1, _PSI1_BLOCK_ELEMS // n1)
                n1 = min(diag + nb + 1, m_cap)
            k = n1 - n0  # columns n0..n1-1 open on the block's first k diagonals
            d = np.arange(diag + 1.0, diag + nb + 1.0)
            # column m is at n = d - m on diagonal d, so n and the denominator
            # (n + c' - 1) n are constant along the block's anti-diagonals:
            # computed once per n, read through a Toeplitz view
            n = np.arange(diag + nb, diag - n1 + 1, -1.0)
            den = (n + (cp - 1.0)) * n
            den = as_strided(den[nb - 1:], shape=(nb, n1),
                             strides=(-den.itemsize, den.itemsize), writeable=False)
            # row 0 seeds the cumprod with the live terms, and with 1 for the
            # new columns, whose factors are 1 up to their first diagonal,
            # where they take T(m,0)
            t = np.empty((nb + 1, n1))
            t[0, :n0] = col
            t[0, n0:] = 1.0
            np.divide(((a + d - 1.0) * y)[:, None], den, out=t[1:])
            if k:
                dm = d[:k]
                bases = np.cumprod(np.concatenate((
                    [row_base], (a + dm - 1.0) * (b + dm - 1.0) * x / ((c + dm - 1.0) * dm))))
                upper = _PSI1_UPPER[:nb, :k]
                t[1:, n0:][upper] = 1.0
                t.reshape(-1)[n1 + n0::n1 + 1][:k] = bases[1:]
            np.cumprod(t, axis=0, out=t)
            t = t[1:]
            if k:
                t[:, n0:][upper] = 0.0
            d_sums = t.sum(axis=1)
            sums = np.cumsum(np.concatenate(([s], d_sums)))[1:]
            ad = np.abs(d_sums)
            small_v = ad <= np.maximum(rel_tol * np.abs(sums), _ABS_TOL)
            stop_v = small_v & np.concatenate(([small], small_v[:-1]))
            peaks = np.maximum(t.max(axis=1), -t.min(axis=1))
            over_v = np.maximum(np.abs(sums), peaks) > 1e290
            # the block ends at the first diagonal that stops or needs a rescale
            ends = stop_v | over_v
            j = int(ends.argmax()) if ends.any() else nb - 1
            diag += j + 1
            s = float(sums[j])
            est = float(ad[j])
            small = bool(small_v[j])
            col = t[j, :min(diag + 1, m_cap)]
            if k:
                row_base = float(bases[min(j + 1, k)])
            if stop_v[j]:
                status = 0
            elif over_v[j]:
                inv = 1e-290
                s *= inv
                row_base *= inv
                col = col * inv
                ln_scale += math.log(1e290)
    terms = min(diag + 1, max_terms)
    if s == 0.0:
        return -math.inf, 0.0, terms, est, status
    sgn = 1.0 if s > 0.0 else -1.0
    return ln_pref + math.log(abs(s)) + ln_scale, sgn, terms, est / abs(s), status


def kdf_2_1_ln(a1, a2, b1, c1, x, y, rel_tol, max_terms):
    """Kampe de Feriet F^{2:0;0}_{1:1;0}[a1,a2; b1: c1; x, y], iterated summation.

    Outer sum over m in x (coefficients by recurrence) of the rows
    2F1(a1+m, a2+m; b1+m; y), by default through the gauss dispatch.
    Converges for y < 1 and any x. For x >= 0 every outer term shares one
    sign and the sum is well conditioned (the composite-CDF usage); negative
    x alternates in m and relative accuracy degrades by the usual
    cancellation factor once the rows grow before decaying.

    When b1 = a2 + 1 with a1 > a2 > 0, x >= 0 and y < 0 (the contiguous
    structure the composite CDF produces), each row reduces to an incomplete
    beta with positive arguments, 2F1(A, B; B+1; y) =
    B |y|^(-B) B_w(B, A-B) at w = |y|/(1+|y|), so the rows are incomplete
    betas instead of power series. Row m needs I_w(a2+m, a1-a2), stepped
    from the previous row by the DLMF 8.17.20 recurrence and recomputed by
    reg_inc_beta as _inc_beta_up decides. Once w^(a2+m) nears the subnormal
    range, I_w loses its digits (or underflows), and the row comes from
    Pfaff's transformation through scipy.special.hyp2f1 instead. The series
    rows lose digits to internal cancellation once x |y| grows; the beta
    route keeps every factor positive at any magnitude.

    Returns (ln_abs, sign, terms, est_rel, status).
    """
    if _is_nonpos_int(b1) or _is_nonpos_int(c1):
        return 0.0, 0.0, 0, 0.0, 2
    # structural test up to a few ulps: b1 built as a2 + 1 in floating point
    # can sit one ulp off the exact offset, and snapping it changes the
    # function by far less than the row-evaluation error it avoids
    beta_rows = (
        y < 0.0
        and x >= 0.0
        and abs(b1 - a2 - 1.0) <= 64.0 * 2.220446049250313e-16 * max(1.0, abs(b1))
        and a1 > a2 > 0.0
    )
    if beta_rows:
        ln_y = math.log(-y)
        w, cw, lnw, lncw = _beta_argument(ln_y)
        ams = a1 - a2
        iw = reg_inc_beta(a2, ams, w, cw)
        ln_t = _ln_beta_step(a2, ams, lnw, lncw)
        anchor = iw
        sgn_f = 1.0
    s = 0.0
    ln_scale = 0.0
    ln_coef = 0.0  # ln |(a1)_m (a2)_m / ((b1)_m (c1)_m m!) x^m|
    sgn_coef = 1.0
    small = 0
    m = 0
    est = 0.0
    status = 1
    worst_inner = 0
    while m < max_terms:
        if beta_rows:
            bm = a2 + m
            if iw > 0.0 and bm * lnw > _LN_POW_MIN:
                ln_f = math.log(bm) - bm * ln_y + _lbeta(bm, ams) + math.log(iw)
            else:  # (1+|y|)^-(a1+m) 2F1(a1+m, 1; bm+1; w)
                ln_f = (a1 + m) * lncw + math.log(_sc.hyp2f1(a1 + m, 1.0, bm + 1.0, w))
        else:
            ln_f, sgn_f, _, _, in_st = gauss_2f1_ln(
                a1 + m, a2 + m, b1 + m, y, rel_tol, max_terms
            )
            if in_st == 2:
                return 0.0, 0.0, m, 0.0, 2
            if in_st == 1:
                worst_inner = 1
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
        ratio = (a1 + m - 1.0) * (a2 + m - 1.0) * x / (
            (b1 + m - 1.0) * (c1 + m - 1.0) * m
        )
        # m starts the *next* coefficient here: advance from m-1 to m
        if ratio == 0.0:
            est = 0.0
            status = 0
            break
        ln_coef += math.log(abs(ratio))
        if ratio < 0.0:
            sgn_coef = -sgn_coef
        if beta_rows:
            iw, ln_t, anchor = _inc_beta_up(iw, ln_t, anchor, bm, ams, w, cw, lnw, lncw)
    status = max(status, worst_inner)
    if s == 0.0:
        return -math.inf, 0.0, m, est, status
    sgn = 1.0 if s > 0.0 else -1.0
    return math.log(abs(s)) + ln_scale, sgn, m, est / abs(s), status


# --- composite-distribution kernels -----------------------------------------


def _beta_mixture(ln_y, a, step, b, ln_w0, ln_z, sgn_z, r, d, rel_tol, max_terms):
    """The CDF of both laws: sum_k w_k I_x(a + step k, b) at x = y/(1+y),
    y = exp(ln_y), summed from k = 0 upward until two successive terms fall
    below the tolerances or max_terms terms are added; the arguments after
    ln_y are aef_cdf_consts' or akf_cdf_consts' past (ln y0, alpha/2).

    w_0 = exp(ln_w0) and w_(k+1)/w_k = sgn_z exp(ln_z) (r + d k)/(k + 1):
    negative binomial weights with d = 1, Poisson weights with r = 1, d = 0.
    ln_z = -inf makes the k = 0 term the whole sum. I_x(a, b) comes from
    reg_inc_beta; each later term takes `step` steps of the DLMF 8.17.20
    recurrence (_inc_beta_up). Returns (raw_value, terms, est_error_abs,
    status); a non-finite sum has status 1.
    """
    x, cx, lnx, lncx = _beta_argument(ln_y)
    i = reg_inc_beta(a, b, x, cx)
    ln_w = ln_w0
    sgn = 1.0
    s = math.exp(ln_w) * i
    est = abs(s)
    status = 1
    if ln_z == -math.inf:
        est, status, max_terms = 0.0, 0, 1
    small = 0
    k = 0
    ln_t = _ln_beta_step(a, b, lnx, lncx)
    anchor = i
    while k + 1 < max_terms:
        ln_w += ln_z + math.log(r + d * k) - math.log(k + 1.0)
        sgn *= sgn_z
        ak = a + step * k
        i, ln_t, anchor = _inc_beta_up(i, ln_t, anchor, ak, b, x, cx, lnx, lncx)
        if step == 2:
            i, ln_t, anchor = _inc_beta_up(i, ln_t, anchor, ak + 1.0, b, x, cx, lnx, lncx)
        k += 1
        term = sgn * math.exp(ln_w) * i
        s += term
        est = abs(term)
        # a NaN passes this test as well, ending the sum; it is reported below
        if not est > max(rel_tol * abs(s), _ABS_TOL):
            small += 1
            if small >= 2:
                status = 0
                break
        else:
            small = 0
    return s, k + 1, est, status if math.isfinite(s) else 1


def aef_pdf_consts(alpha, mu, ms, h, ln_lam, ln_a):
    """The per-distribution constants of aef_snr_pdf_kernel, computed once
    from ln A of the CDF head A g^p, p = alpha mu: 1/h, q = (H/h)^2 = 1 - 1/h,
    ln(p A) and ln(2 mu h / Lambda); no eta overflows them."""
    inv_h = 1.0 / h
    return (alpha, mu, ms, inv_h, 1.0 - inv_h, math.log(alpha * mu) + ln_a,
            math.log(2.0 * mu * h) - ln_lam)


def _density_2f1_ln(mu, ms, z, omz, rel_tol, max_terms):
    """(ln|2F1|, sign, status) of the alpha-eta-F density's factor
    2F1(mu + ms/2, mu + (ms + 1)/2; mu + 1/2; z), whose c - a - b =
    -(mu + ms) is negative, given omz = 1 - z.

    The direct form up to z = 1/2, above it Euler's (1 - z)^(c-a-b)
    2F1(c - a, c - b; c; z) with the prefactor from omz, exact as z nears 1.
    The form's 2F1 comes from scipy.special.hyp2f1 for ms <= _SCIPY_MS_MAX
    (the controls unused), else or where scipy's value is not a positive
    finite double from the power series. The density kernels give
    0 <= z <= 1 and omz > 0.
    """
    a, b, c = mu + 0.5 * ms, mu + 0.5 * (ms + 1.0), mu + 0.5
    ln_pre = 0.0
    if z > 0.5:
        ln_pre, a, b = (c - a - b) * math.log(omz), c - a, c - b
    if ms <= _SCIPY_MS_MAX:
        f = _sc.hyp2f1(a, b, c, z)
        if 0.0 < f < math.inf:
            return ln_pre + math.log(f), 1.0, 0
    if z >= 1.0:
        return 0.0, 0.0, 2
    ln_f, sgn_f, _, _, st = _hyper_series(a, b, c, z, rel_tol, max_terms)
    return ln_pre + ln_f, sgn_f, st


def aef_snr_pdf_kernel(consts, ln_g, rel_tol, max_terms, ln_jac):
    """Density of the alpha-eta-F instantaneous SNR at g = exp(ln_g) > 0, times
    exp(ln_jac), given consts = aef_pdf_consts(...). Returns (value, status).

    The density is p A g^(p - 1) s^(2 mu + ms) 2F1(...; z): the derivative
    of the CDF head A g^p, p = alpha mu, times the powers of s = Lambda/D,
    D = Lambda + 2 mu h g^(alpha/2). With u = ln(2 mu h g^(alpha/2) /
    Lambda), ln s = -ln(1 + e^u) and t = 1 - s come from _beta_argument(u),
    so the terms of size ms ln Lambda that the paper's Lambda^ms /
    D^(2 mu + ms) cancels are never formed.

    ln_jac is the log-Jacobian of a change of variables: the envelope density
    at r is this kernel at ln_g = 2 ln r, ln_jac = ln 2 + ln r, with Lambda
    built from the mean power. Taking logs keeps r below 1e-154, where r*r
    underflows, on the curve. The 2F1 factor comes from _density_2f1_ln.
    Its argument is z = q t^2, q = (H/h)^2 = 1 - 1/h. At strong imbalance
    z nears 1, and 1 - z taken from the double z keeps few digits. Above
    z = 1/2 it is formed as 1/h + q s (2 - s) instead, from 1 - t = s:
    both parts are positive, and s (2 - s) keeps the digits of 1 - t^2.
    """
    alpha, mu, ms, inv_h, q, ln_pa, ln_y0 = consts
    t, s, _, ln_s = _beta_argument(ln_y0 + 0.5 * alpha * ln_g)
    z = q * (t * t)
    omz = 1.0 - z
    if z > 0.5:
        omz = inv_h + q * s * (2.0 - s)
    ln_f, sgn_f, st = _density_2f1_ln(mu, ms, z, omz, rel_tol, max_terms)
    if st != 0:
        return 0.0, st
    ln_pdf = ln_pa + (alpha * mu - 1.0) * ln_g + ln_jac + (2.0 * mu + ms) * ln_s + ln_f
    return _signed_exp(sgn_f, ln_pdf), 0


def aef_cdf_consts(alpha, mu, ms, h, hsq, ln_lam):
    """The alpha-eta-F CDF, computed once per distribution: (ln y0, alpha/2,
    a, step, b, ln w0, ln z, sgn z, r, d), the odds ln y = ln y0 + (alpha/2)
    ln g and the rest _beta_mixture's arguments. The k-th series term of the
    CDF equals c_k I_w(2mu+2k, ms) with w = y/(1+y), y = 2 mu h g^(alpha/2) /
    Lambda, and c_k = h^-mu (mu)_k / k! q^k: the exact identity 2F1(B+ms, B;
    B+1; -y) = B y^-B Beta(B,ms) I_w(B, ms) applied term by term. The ratio
    q = H^2/h^2 is 1 - 1/h (h^2 - H^2 = h in both geometry formats), so
    ln|q| = log1p(-1/h) and the weights sum to h^-mu (1 - q)^-mu = 1 to
    rounding; q has the sign of hsq, and ln|q| is -inf where hsq or 1 - 1/h
    is 0."""
    ln_q = math.log1p(-1.0 / h) if hsq != 0.0 and h > 1.0 else -math.inf
    return (math.log(2.0 * mu * h) - ln_lam, 0.5 * alpha, 2.0 * mu, 2, ms,
            -mu * math.log(h), ln_q, math.copysign(1.0, hsq), mu, 1.0)


def aef_cdf_bound_kernel(consts, ln_a, g, k0, rel_tol, max_terms):
    """Closed-form upper bound on the CDF-series remainder after K0-1 terms.

    Its prefactor is the CDF head A g^(alpha mu), given ln A, times
    mu / (mu + k0). The bounding 2F1 argument is w = q y^2, q and y from
    consts = aef_cdf_consts(...); for w >= 1 that series has no convergent
    real form and status 2 is returned. Returns (value, status).
    """
    ln_y0, half_alpha, a, _, ms, _, ln_q, sgn_q, mu, _ = consts
    gexp = half_alpha * math.log(g)
    ln_y = ln_y0 + gexp
    w = _signed_exp(sgn_q, 2.0 * ln_y + ln_q)
    if w >= 1.0:
        return 0.0, 2
    ln_f2, sgn_f2, _, _, st2 = gauss_2f1_ln(
        0.5 * (a + ms), 0.5 * (a + ms + 1.0), mu + 0.5, w, rel_tol, max_terms
    )
    if st2 != 0:
        return 0.0, st2
    # leading 2F1(-y) factor through the incomplete-beta identity
    b0 = a + 2.0 * k0
    w1, cw1, _, _ = _beta_argument(ln_y)
    iw = reg_inc_beta(b0, ms, w1, cw1)
    if iw <= 0.0:
        return 0.0, 0
    ln_f1 = math.log(b0) - b0 * ln_y + _lbeta(b0, ms) + math.log(iw)
    ln_t = ln_a + a * gexp + math.log(mu / (mu + k0)) + ln_f1 + ln_f2
    return sgn_f2 * math.exp(ln_t), 0


def akf_pdf_consts(alpha, mu, ms, kappa, ln_lam, ln_a):
    """The per-distribution constants of akf_snr_pdf_kernel, computed once
    from ln A of the CDF head A g^p, p = alpha mu / 2: mu kappa, ln(p A) and
    ln(mu (1 + kappa) / Lambda). kappa below KAPPA_ZERO_CUTOFF is taken as
    0, the exact kappa -> 0 limit (alpha-F form)."""
    if kappa < KAPPA_ZERO_CUTOFF:
        kappa = 0.0
    return (alpha, mu, ms, mu * kappa, math.log(0.5 * alpha * mu) + ln_a,
            math.log(mu * (1.0 + kappa)) - ln_lam)


def akf_snr_pdf_kernel(consts, ln_g, rel_tol, max_terms, ln_jac):
    """Density of the alpha-kappa-F instantaneous SNR at g = exp(ln_g) > 0, times
    exp(ln_jac), given consts = akf_pdf_consts(...). Returns (value, status).

    The density is p A g^(p - 1) s^(mu + ms) 1F1(mu + ms; mu; x), p =
    alpha mu / 2, with s = Lambda/D as in aef_snr_pdf_kernel, D = Lambda +
    mu (1 + kappa) g^(alpha/2) and x = mu kappa (1 - s). ln_jac works as in
    aef_snr_pdf_kernel. The factor 1F1(mu + ms; mu; x) comes, for ms <=
    _SCIPY_MS_MAX, from scipy.special.hyp1f1 in Kummer's form e^x 1F1(-ms;
    mu; -x), since the direct form overflows past x = 700; the controls are
    then unused. A value scipy does not give as a positive finite double,
    and every larger ms, goes to the kummer_1f1_ln series. At kappa = 0
    (x = 0) the factor is 1.
    """
    alpha, mu, ms, mk, ln_pa, ln_y0 = consts
    t, _, _, ln_s = _beta_argument(ln_y0 + 0.5 * alpha * ln_g)
    x = mk * t
    ln_f, sgn_f = 0.0, 1.0
    if x > 0.0:
        f = _sc.hyp1f1(-ms, mu, -x) if ms <= _SCIPY_MS_MAX else math.inf
        if 0.0 < f < math.inf:
            ln_f = x + math.log(f)
        else:
            ln_f, sgn_f, _, _, st = kummer_1f1_ln(mu + ms, mu, x, rel_tol, max_terms)
            if st != 0:
                return 0.0, st
    ln_pdf = ln_pa + (0.5 * alpha * mu - 1.0) * ln_g + ln_jac + (mu + ms) * ln_s + ln_f
    return _signed_exp(sgn_f, ln_pdf), 0


def akf_cdf_consts(alpha, mu, ms, kappa, ln_lam):
    """The alpha-kappa-F CDF in the layout of aef_cdf_consts: the t-th term
    is e^(-mu kappa) (mu kappa)^t / t! I_w1(mu + t, ms), w1 = X1/(1+X1), X1 =
    mu (1 + kappa) g^(alpha/2) / Lambda. kappa below KAPPA_ZERO_CUTOFF keeps
    the t = 0 term alone at weight 1, the exact kappa -> 0 limit."""
    if kappa < KAPPA_ZERO_CUTOFF:
        ln_w0, ln_z = 0.0, -math.inf
    else:
        ln_w0, ln_z = -mu * kappa, math.log(mu * kappa)
    return (math.log(mu * (1.0 + kappa)) - ln_lam, 0.5 * alpha, mu, 1, ms,
            ln_w0, ln_z, 1.0, 1.0, 0.0)


# --- lanes: one array call per grid ------------------------------------------
#
# Each *_lanes function evaluates its scalar kernel at every point (lane) of
# an array argument of finite, positive points, with the same float
# operations in the same order, so a lane differs from the scalar call only
# where numpy's exp and log round differently from libm's; the density
# forms take 1 - s, s and ln s, s = 1/(1 + e^u), from scipy's expit and
# log_expit (one call each) where the scalar kernels take them from
# _beta_argument. A density lane that the array form does not serve goes
# through the scalar kernel; the mixture's array loop runs every lane to its stop.
#
# The density lanes also take per-lane constants: each entry of consts is
# either a scalar, shared by every lane, or an array aligned with ln_g, so
# one call evaluates the densities of many distributions of a family. The
# scipy form serves the lanes whose ms is at most _SCIPY_MS_MAX, and every
# other lane takes the scalar kernel with its own constants; a call whose
# constants are all scalars (one distribution) is the case where the lanes
# share them.


def _scipy_or_scalar_lanes(kernel, scipy_form, consts, ln_g, rel_tol, max_terms, ln_jac):
    """A density kernel at every lane: scipy_form(consts, ln_g, ln_jac) ->
    (values, served) on the lanes whose ms (consts[2]) is at most
    _SCIPY_MS_MAX, the scalar kernel on the rest and on any lane scipy_form
    does not serve. Returns (values, statuses)."""
    fit = consts[2] <= _SCIPY_MS_MAX
    values = np.zeros(ln_g.shape)
    served = np.zeros(ln_g.shape, dtype=bool)
    if isinstance(fit, np.ndarray) and not fit.all():
        lanes = np.flatnonzero(fit)
        if lanes.size:
            values[lanes], served[lanes] = scipy_form(
                tuple(c[lanes] if isinstance(c, np.ndarray) else c for c in consts),
                ln_g[lanes], ln_jac[lanes])
    elif isinstance(fit, np.ndarray) or fit:
        values, served = scipy_form(consts, ln_g, ln_jac)
    status = np.zeros(ln_g.shape, dtype=np.int64)
    for j in np.flatnonzero(~served):
        lane = tuple(float(c[j]) if isinstance(c, np.ndarray) else c for c in consts)
        values[j], status[j] = kernel(
            lane, float(ln_g[j]), rel_tol, max_terms, float(ln_jac[j])
        )
    return values, status


def _aef_scipy_form(consts, ln_g, ln_jac):
    """The alpha-eta-F density with the 2F1 factor of all lanes from one
    scipy.special.hyp2f1 call, in Euler's form above z = 1/2 with 1 - z
    formed as the scalar kernel forms it. Returns (values, served): a lane
    where scipy's value is not a positive finite double is not served."""
    alpha, mu, ms, inv_h, q, ln_pa, ln_y0 = consts
    u = ln_y0 + 0.5 * alpha * ln_g
    with np.errstate(all="ignore"):
        t, s, ln_s = _sc.expit(u), _sc.expit(-u), _sc.log_expit(-u)
        z = q * (t * t)
        euler = z > 0.5
        omz = np.where(euler, inv_h + q * s * (2.0 - s), 1.0 - z)
        a, b, c = mu + 0.5 * ms, mu + 0.5 * (ms + 1.0), mu + 0.5
        ln_pre = np.where(euler, (c - a - b) * np.log(omz), 0.0)
        f = _sc.hyp2f1(np.where(euler, c - a, a), np.where(euler, c - b, b), c, z)
        values = np.exp(ln_pa + (alpha * mu - 1.0) * ln_g + ln_jac + (2.0 * mu + ms) * ln_s
                        + (ln_pre + np.log(f)))
    return values, (f > 0.0) & (f < math.inf)


def _akf_scipy_form(consts, ln_g, ln_jac):
    """The alpha-kappa-F density with the 1F1 factor of all lanes from one
    scipy.special.hyp1f1 call in Kummer's form (1 at x = 0). Returns
    (values, served): a lane where scipy's value is not a positive finite
    double is not served."""
    alpha, mu, ms, mk, ln_pa, ln_y0 = consts
    u = ln_y0 + 0.5 * alpha * ln_g
    with np.errstate(all="ignore"):
        x = mk * _sc.expit(u)
        ln_s = _sc.log_expit(-u)
        f = _sc.hyp1f1(-ms, mu, -x)
        values = np.exp(ln_pa + (0.5 * alpha * mu - 1.0) * ln_g + ln_jac + (mu + ms) * ln_s
                        + (x + np.log(f)))
    return values, (f > 0.0) & (f < math.inf)


def aef_snr_pdf_lanes(consts, ln_g, rel_tol, max_terms, ln_jac):
    """aef_snr_pdf_kernel at every lane of the arrays ln_g and ln_jac, each
    entry of consts a scalar or an array of per-lane constants: the 2F1
    factor of the lanes with ms <= _SCIPY_MS_MAX from one scipy call
    (_aef_scipy_form), the scalar kernel elsewhere. Returns (values,
    statuses)."""
    return _scipy_or_scalar_lanes(aef_snr_pdf_kernel, _aef_scipy_form, consts, ln_g,
                                  rel_tol, max_terms, ln_jac)


def akf_snr_pdf_lanes(consts, ln_g, rel_tol, max_terms, ln_jac):
    """akf_snr_pdf_kernel at every lane of the arrays ln_g and ln_jac, each
    entry of consts a scalar or an array of per-lane constants: the 1F1
    factor of the lanes with ms <= _SCIPY_MS_MAX from one scipy call
    (_akf_scipy_form), the scalar kernel elsewhere. Returns (values,
    statuses)."""
    return _scipy_or_scalar_lanes(akf_snr_pdf_kernel, _akf_scipy_form, consts, ln_g,
                                  rel_tol, max_terms, ln_jac)


def _reg_inc_beta_lanes(a, b, x, cx):
    """reg_inc_beta at every lane of the arrays x and cx = 1 - x."""
    out = np.empty(x.shape)
    hi = x > 0.5
    out[hi] = _sc.betaincc(b, a, cx[hi])
    out[~hi] = _sc.betainc(a, b, x[~hi])
    return out


def _inc_beta_up_lanes(i, ln_t, anchor, a, b, x, cx, lnx, lncx):
    """_inc_beta_up at every lane; only the lanes that fell below _REANCHOR
    times their anchor are recomputed by scipy."""
    i = i - np.exp(ln_t)
    a1 = a + 1.0
    ln_t = ln_t + lnx + math.log((a + b) / a1)
    re = i < _REANCHOR * anchor
    if re.any():
        i[re] = _reg_inc_beta_lanes(a1, b, x[re], cx[re])
        ln_t[re] = _ln_beta_step(a1, b, lnx[re], lncx[re])
        anchor = np.where(re, i, anchor)
    return i, ln_t, anchor


def _beta_mixture_lanes(ln_y, a, step, b, ln_w0, ln_z, sgn_z, r, d, rel_tol, max_terms):
    """_beta_mixture at every lane of the array ln_y.

    The weights depend on k alone and are computed once per k, as scalars,
    with _beta_mixture's float operations. Each lane keeps its own
    incomplete beta, step term, anchor, partial sum and count of small
    terms, and leaves the loop once it passes the scalar stop test, so
    terms_used and status are those of the scalar call; the loop runs
    while any lane is live. An array of fewer than _LANES_START lanes is
    summed by _beta_mixture point by point. Returns the arrays (raw_value,
    terms, est_error_abs, status).
    """
    if ln_y.shape[0] < _LANES_START:
        sums = [_beta_mixture(float(v), a, step, b, ln_w0, ln_z, sgn_z, r, d, rel_tol,
                              max_terms) for v in ln_y]
        return tuple(np.array(field, dtype=dtype) for field, dtype in
                     zip(zip(*sums), (float, np.int64, float, np.int64)))
    t = np.log1p(np.exp(-np.abs(ln_y)))
    pos = ln_y > 0.0
    lnx = np.where(pos, -t, ln_y - t)
    lncx = np.where(pos, -ln_y - t, -t)
    x, cx = np.exp(lnx), np.exp(lncx)
    i = _reg_inc_beta_lanes(a, b, x, cx)
    ln_w = ln_w0
    sgn = 1.0
    s = math.exp(ln_w) * i
    n = ln_y.shape[0]
    if ln_z == -math.inf:
        return s, np.ones(n, dtype=np.int64), np.zeros(n), np.where(np.isfinite(s), 0, 1)
    out_s, out_est = np.empty(n), np.empty(n)
    out_terms = np.empty(n, dtype=np.int64)
    out_status = np.ones(n, dtype=np.int64)
    live = np.arange(n)
    est = np.abs(s)
    small = np.zeros(n, dtype=np.int64)
    ln_t = _ln_beta_step(a, b, lnx, lncx)
    anchor = i.copy()
    k = 0
    while k + 1 < max_terms and live.size:
        ln_w += ln_z + math.log(r + d * k) - math.log(k + 1.0)
        sgn *= sgn_z
        ak = a + step * k
        i, ln_t, anchor = _inc_beta_up_lanes(i, ln_t, anchor, ak, b, x, cx, lnx, lncx)
        if step == 2:
            i, ln_t, anchor = _inc_beta_up_lanes(i, ln_t, anchor, ak + 1.0, b, x, cx,
                                                 lnx, lncx)
        k += 1
        term = sgn * math.exp(ln_w) * i
        s = s + term
        est = np.abs(term)
        # a NaN passes this test as well, ending the lane; it is reported below
        small += 1
        small[est > np.maximum(rel_tol * np.abs(s), _ABS_TOL)] = 0
        done = small >= 2
        if done.any():
            ended = live[done]
            out_s[ended], out_est[ended] = s[done], est[done]
            out_terms[ended] = k + 1
            out_status[ended] = 0
            keep = ~done
            live, s, est, small, i, ln_t, anchor, x, cx, lnx, lncx = (
                v[keep] for v in (live, s, est, small, i, ln_t, anchor, x, cx, lnx, lncx)
            )
    out_s[live], out_est[live] = s, est
    out_terms[live] = k + 1
    out_status[~np.isfinite(out_s)] = 1
    return out_s, out_terms, out_est, out_status
