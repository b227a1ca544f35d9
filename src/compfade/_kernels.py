"""The kernels of the two laws, alpha-eta-F and alpha-kappa-F, and the
single-variable helpers they share with specfun's engines (_hyper_series,
kummer_1f1_ln, _lbeta, reg_inc_beta, _beta_argument, _signed_exp and the
typed scipy entries). This module imports nothing from specfun.

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

Every scalar call of a scipy.special function goes to scipy's C kernel
through scipy.special.cython_special's typed double entry (_betainc,
_betaincc, _gammainc, _hyp2f1, _hyp1f1), without the ufunc's dispatch;
every array call goes through the ufunc. Both routes run the same kernel and give the
same double.

The regularized incomplete beta comes from scipy.special (reg_inc_beta).
The CDF mixture of both laws (_beta_mixture) takes it from scipy at its
first and its last term only, and sums the steps T of the DLMF 8.17.20
recurrence between them by parts, against the partial sums of the
weights; ln a and ln B(a, b) of its first step come with the CDF
constants. The mixture's weights are the law of a count N, negative
binomial (alpha-eta-F) or Poisson (alpha-kappa-F), and P(N >= k), the
weight the sum has not reached at term k, is one scipy call per family
(nb_tail_mass, poisson_tail_mass); the truncation bound
(series.Law.cdf_truncation_bound) is that tail mass times one incomplete
beta.

The density kernels take their hypergeometric factor from scipy.special
where scipy was measured accurate (scipy 1.17.1 within 4e-13 of mpmath):
the alpha-eta-F 2F1 from hyp2f1, through Euler's transformation above
z = 1/2, and the alpha-kappa-F 1F1 from hyp1f1 in Kummer's form, both for
ms <= _SCIPY_MS_MAX. Larger ms, and any value scipy does not give as a
positive finite double, go to the power series (_hyper_series,
kummer_1f1_ln), which the SeriesControl settings then govern; both 2F1
routes take Euler's prefactor from the exact 1 - z, and where z rounds
to 1 the series route takes Gauss's sum within rel_tol or refuses
(_density_2f1_ln). No kappa is cut off to 0. Each density is the derivative
of its CDF head, p A g^(p-1), times s^(c+ms), s = Lambda/D, and that
factor; ln s = -ln(1 + e^u) comes from _beta_argument, so no term of size
ms ln Lambda is formed, and the densities keep their digits at any ms. The
kernels' constants are computed once per parameter set, at gamma_bar = 1
(aef_pdf_consts, aef_cdf_consts, akf_pdf_consts, akf_cdf_consts). ln B(a,
b) takes Stirling's form above a + b = 1e3 (_lbeta). The single series
and the mixture add one term per interpreted loop step.
"""
from __future__ import annotations

import math

import numpy as np
from scipy import special as _sc
from scipy.special import cython_special as _cs

# scalar scipy.special calls: the typed double entries of cython_special,
# which skip the ufunc's dispatch (about 0.75 us a call with scipy 1.17.1),
# not the fused functions, which refuse Python ints
_betainc = _cs.betainc["double"]
_betaincc = _cs.betaincc["double"]
_gammainc = _cs.gammainc  # double only, not fused
_hyp2f1 = _cs.hyp2f1["double"]
_hyp1f1 = _cs.hyp1f1["double"]

_LN_RESCALE = 645.0  # e^645 is close to the overflow edge; rescale margin below it
_LN_POW_MIN = -700.0  # e^-700 = 1e-304, just above the subnormal range
# absolute floor of every stop test: a term below it counts as small
_ABS_TOL = 1e-300
_LN_ABS_TOL = math.log(_ABS_TOL)
CDF_LN_W0 = 5  # index of ln w_0, the mixtures' first weight, in the CDF consts
# the density kernels take their 2F1 and 1F1 from scipy.special up to this
# ms, where scipy 1.17.1 was measured within 4e-13 of mpmath (CHANGES.md);
# past it hyp2f1 drifts to 5e-12 near z = 0 by ms = 250 and gives NaN at
# ms = 1e4, so the series (and Gauss's sum where z rounds to 1) are kept there
_SCIPY_MS_MAX = 50.0
# _lbeta's lgamma difference loses about eps (a + b) ln(a + b) (1.7e-12
# relative at a + b = 1e3, 3e-9 at 1e6, against mpmath); above this a + b it
# takes Stirling's form instead, which keeps no term that grows with b
_LBETA_STIRLING_MIN = 1e3
_LN_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
# an array of fewer points goes to _beta_mixture point by point: on the
# battery's 162 grid cells (points 0.05 to 8), the array loop cost 5.2x the
# scalar calls at 10 points, 3x at 20, 1.9x at 32, 1.55x at 40, 1.3x at 48,
# 1.1-1.3x at 56 and 64, 1.0x at 72 and 0.75x at 96 (best of 7-9 per cell,
# both sides interleaved); tests/test_lanes.py's 40-point straggler grid must
# reach the array loop, so the start is not above 40
_LANES_START = 40


def _is_nonpos_int(x):
    return x <= 0.0 and x == math.floor(x)


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
    """Regularized incomplete beta I_x(a,b) given x and cx = 1 - x, a float,
    from scipy.special's typed scalar entries (_betainc, _betaincc).

    Above x = 1/2 it is the complement betaincc(b, a, cx), so an x within an
    ulp of 1 (the CDF mixtures reach both ends) keeps the digits cx carries.
    Where x^a falls below about e^_LN_POW_MIN, betainc loses digits although
    I may be representable; the CDF mixtures weight such an I by at most 1,
    and specfun._ln_2f1_beta, which would scale it by y^-a, takes Pfaff's
    form there.
    """
    if x > 0.5:
        return _betaincc(b, a, cx)
    return _betainc(a, b, x)


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
    partial sum is rescaled before it overflows, a partial sum that is not
    finite (an overflowed term) ends the sum with status 1, and a term of
    exactly zero ends a terminating series. Returns (ln_abs, sign, terms,
    est_rel, status).
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
        if not (abs(s) <= 1e290 and at <= 1e290):
            if not math.isfinite(s):
                # an overflowed term (inf, or inf * 0 = NaN): no finite sum follows
                break
            s *= 1e-290
            t *= 1e-290
            ln_scale += math.log(1e290)
    status = 0 if small >= 2 else 1
    terms = min(n + 1, max_terms)
    if s == 0.0:
        return -math.inf, 0.0, terms, est, status
    sgn = 1.0 if s > 0.0 else -1.0
    return ln_pref + math.log(abs(s)) + ln_scale, sgn, terms, est / abs(s), status


def kummer_1f1_ln(a, b, z, rel_tol, max_terms):
    """Confluent 1F1(a; b; z) as (ln_abs, sign, terms, est_rel, status).

    z >= 0 is summed directly (all terms positive for a,b > 0); z < 0 goes
    through Kummer's transform e^z 1F1(b-a; b; -z) so the transformed series
    is again cancellation-free in the b > a cases this package produces.
    No caller passes a b at a pole the series reaches: specfun.kummer_1f1
    refuses one, specfun.humbert_psi1 refuses such a c', the b of its 1F1
    rows, and the alpha-kappa-F density's b is mu > 0.
    """
    ln_pref = 0.0
    if z < 0.0 and not _is_nonpos_int(a):
        ln_pref = z
        a = b - a
        z = -z
    return _hyper_series(a, None, b, z, rel_tol, max_terms, ln_pref)


# --- composite-distribution kernels -----------------------------------------


def _beta_mixture(ln_y, a, step, b, ln_w0, ln_z, sgn_z, r, d, ln_a, lb, rel_tol,
                  max_terms):
    """The CDF of both laws: sum_k w_k I_k, I_k = I_x(a + step k, b) at x =
    y/(1+y), y = exp(ln_y), from k = 0 upward until two successive terms
    fall below the tolerances or max_terms terms are added; the arguments
    after ln_y are aef_cdf_consts' or akf_cdf_consts' past (ln y0, alpha/2):
    step 2 (alpha-eta-F) or 1 (alpha-kappa-F), each written out in the loop,
    and ln_a, lb = ln a, ln B(a, b), so that a call takes no lgamma.
    w_0 = exp(ln_w0), w_(k+1) = w_k sgn_z exp(ln_z) (r + d k)/(k + 1):
    negative binomial weights with d = 1, Poisson with r = 1, d = 0; ln_z =
    -inf leaves the k = 0 term alone.

    Summed by parts: with T_j = I_x(a + j, b) - I_x(a + j + 1, b) (DLMF
    8.17.20), T_0 = x^a (1-x)^b / (a B(a, b)), T_(j+1) = T_j x f_j, f_j =
    (a + b + j)/(a + j + 1), and C_k = w_0 + ... + w_k, the first K terms
    are sum_(j < step (K-1)) T_j C_(j // step) + C_(K-1) I_(K-1), positive
    terms for both laws. Only I_0 and I_(K-1) come from scipy
    (reg_inc_beta). The T_j share the rounding of ln T_0 (3.5e-14 at ms =
    60), which scaling them by (I_0 - I_(K-1)) / sum T_j, the sum they
    telescope to, removes. Above x = 1/2 the ratio x f_j is taken as f_j -
    f_j (1 - x): x holds 1 - x to one absolute ulp only, an error the
    products would repeat at every step.
    A T below e^_LN_POW_MIN is stepped by its logarithm, ln T += ln x +
    ln f_j, until it rises above it, since its products would keep few
    digits or none; ln x stays finite where x underflows to 0.

    The stop test takes I_k as I_0 less the T_j summed, held within
    T_(step k)/(1 - x min(1, f)) <= I_k <= T_(step k)/(1 - x max(1, f)),
    f = f_(step k), the upper bound where its denominator is positive (the
    ratios T_(j+1)/T_j lie between x and x f from j = step k on). Below
    the lower bound that difference is all cancellation, and the upper
    bound stands for I_k: the ratios change slowly, so it is nearly I_k
    and never below it. Returns
    (raw_value, terms, est_error_abs, status), est_error the last term; a
    non-finite sum has status 1.
    """
    x, cx, lnx, lncx = _beta_argument(ln_y)
    i0 = reg_inc_beta(a, b, x, cx)
    w = c = math.exp(ln_w0)
    if ln_z == -math.inf:
        s = w * i0
        return s, 1, 0.0, 0 if math.isfinite(s) else 1
    z = sgn_z * math.exp(ln_z)
    ln_t = a * lnx + b * lncx - ln_a - lb  # ln T_0
    lag = ln_t < _LN_POW_MIN
    t = 0.0 if lag else math.exp(ln_t)
    p = sum_t = 0.0
    upper = x > 0.5
    aj = a
    f = (a + b) / (a + 1.0)
    rho = f - f * cx if upper else x * f
    two = step == 2
    abs_tol, last = _ABS_TOL, float(max_terms - 1)
    k = 0.0  # a float, so the weights' update mixes no int into its floats
    small = 0
    status = 1
    while k < last:
        dt = 0.0 + t  # the T_j of this step
        if lag:
            ln_t += lnx + math.log(f)  # ln rho, finite where x underflows
            lag = ln_t < _LN_POW_MIN
            t = 0.0 if lag else math.exp(ln_t)
        else:
            t *= rho
        aj += 1.0
        f = (aj + b) / (aj + 1.0)
        rho = f - f * cx if upper else x * f
        if two:
            dt += t
            if lag:
                ln_t += lnx + math.log(f)
                lag = ln_t < _LN_POW_MIN
                t = 0.0 if lag else math.exp(ln_t)
            else:
                t *= rho
            aj += 1.0
            f = (aj + b) / (aj + 1.0)
            rho = f - f * cx if upper else x * f
        p += c * dt
        sum_t += dt
        w *= z * (r + d * k) / (k + 1.0)
        c += w
        k += 1.0
        i_k = i0 - sum_t
        if not lag:
            if f > 1.0:
                om_lo, om_hi = cx, 1.0 - rho
            else:
                om_lo, om_hi = 1.0 - rho, cx
            bound = t / om_lo
            if i_k < bound:
                if om_hi > 0.0:
                    bound = t / om_hi
                i_k = bound
            elif om_hi > 0.0:
                bound = t / om_hi
                if i_k > bound:
                    i_k = bound
        at = abs(w) * i_k  # the term's size: i_k >= 0
        # a NaN fails this test, which counts it small and ends the sum;
        # it is reported below
        if at > abs_tol and at > rel_tol * abs(p + c * i_k):
            small = 0
        else:
            small += 1
            if small >= 2:
                status = 0
                break
    i = reg_inc_beta(a + step * k, b, x, cx) if k else i0
    s = c * i + (p * ((i0 - i) / sum_t) if sum_t else p)
    return s, int(k) + 1, abs(w * i), status if math.isfinite(s) else 1


def aef_pdf_consts(alpha, mu, ms, h, ln_lam, ln_a):
    """The per-parameter-set constants of aef_snr_pdf_kernel, computed once
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
    0 <= z <= 1 and omz > 0. Where z rounds to 1 the form's 2F1 is Gauss's
    sum Gamma(c) Gamma(a + b - c) / (Gamma(a) Gamma(b)), taken where its
    first-order change over the exact omz, omz |(c - a)(c - b)| / (a + b -
    c - 1), is at most rel_tol; elsewhere at z = 1 status 2.
    """
    a, b, c = mu + 0.5 * ms, mu + 0.5 * (ms + 1.0), mu + 0.5
    ln_pre = 0.0
    if z > 0.5:
        ln_pre, a, b = (c - a - b) * math.log(omz), c - a, c - b
    if ms <= _SCIPY_MS_MAX:
        f = _hyp2f1(a, b, c, z)
        if 0.0 < f < math.inf:
            return ln_pre + math.log(f), 1.0, 0
    if z >= 1.0:
        # Euler's a, b here, so Gauss's c - a - b is the original a + b - c
        if omz * abs(a * b) > rel_tol * (c - a - b - 1.0):
            return 0.0, 0.0, 2
        return ln_pre + _lbeta(c, c - a - b) - _lbeta(c - a, c - b), 1.0, 0
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
    at r is this kernel at ln_g = 2 ln r - ln W, ln_jac = ln 2 + ln r - ln W,
    W the mean power, with Lambda at gamma_bar = 1. Taking logs keeps r
    below 1e-154, where r*r underflows, on the curve. The 2F1 factor comes from _density_2f1_ln.
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
    """The alpha-eta-F CDF, computed once per parameter set: (ln y0, alpha/2,
    a, step, b, ln w0, ln z, sgn z, r, d, ln a, ln B(a, b)), the odds ln y =
    ln y0 + (alpha/2) ln g and the rest _beta_mixture's arguments, so that a
    call takes ln T_0 with no lgamma or log of a. The k-th series term of the
    CDF equals c_k I_w(2mu+2k, ms) with w = y/(1+y), y = 2 mu h g^(alpha/2) /
    Lambda, and c_k = h^-mu (mu)_k / k! q^k: the exact identity 2F1(B+ms, B;
    B+1; -y) = B y^-B Beta(B,ms) I_w(B, ms) applied term by term. The ratio
    q = H^2/h^2 is 1 - 1/h (h^2 - H^2 = h in both geometry formats), so
    ln|q| = log1p(-1/h) and the weights sum to h^-mu (1 - q)^-mu = 1 to
    rounding; q has the sign of hsq, and ln|q| is -inf where hsq or 1 - 1/h
    is 0."""
    ln_q = math.log1p(-1.0 / h) if hsq != 0.0 and h > 1.0 else -math.inf
    a = 2.0 * mu
    return (math.log(a * h) - ln_lam, 0.5 * alpha, a, 2, ms, -mu * math.log(h), ln_q,
            math.copysign(1.0, hsq), mu, 1.0, math.log(a), _lbeta(a, ms))


def akf_pdf_consts(alpha, mu, ms, kappa, ln_lam, ln_a):
    """The per-parameter-set constants of akf_snr_pdf_kernel, computed once
    from ln A of the CDF head A g^p, p = alpha mu / 2: mu kappa, ln(p A) and
    ln(mu (1 + kappa) / Lambda); kappa = 0 is the alpha-F law."""
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
        f = _hyp1f1(-ms, mu, -x) if ms <= _SCIPY_MS_MAX else math.inf
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
    mu (1 + kappa) g^(alpha/2) / Lambda. Where mu kappa is 0, ln z = -inf
    leaves the t = 0 term alone at weight 1 (the alpha-F law)."""
    mk = mu * kappa
    return (math.log(mu * (1.0 + kappa)) - ln_lam, 0.5 * alpha, mu, 1, ms,
            -mk, math.log(mk) if mk > 0.0 else -math.inf, 1.0, 1.0, 0.0,
            math.log(mu), _lbeta(mu, ms))


def nb_tail_mass(k, r, ln_z):
    """P(N >= k) of the alpha-eta-F mixture's weights h^-r (r)_k / k! z^k,
    z = e^ln_z = 1 - 1/h: N negative binomial, whose P(N <= k - 1) is
    I_(1-z)(r, k), so P(N >= k) = I_z(k, r), one scipy betainc."""
    return _betainc(k, r, math.exp(ln_z))


def poisson_tail_mass(k, r, ln_z):
    """P(N >= k) of the alpha-kappa-F mixture's weights e^-z z^k / k!, z =
    e^ln_z = mu kappa (r = 1 unused): N Poisson, so P(N >= k) is the
    regularized lower incomplete gamma P(k, z), one scipy gammainc."""
    return _gammainc(k, math.exp(ln_z))


# --- lanes: one array call per grid ------------------------------------------
#
# The lanes functions evaluate a scalar kernel at every point (lane) of an
# array argument of finite, positive points, with the same float operations
# in the same order, so a lane differs from the scalar call only where
# numpy's exp and log round differently from libm's. A density runs as
# _scipy_or_scalar_lanes with its family's scalar kernel and scipy form
# (_aef_scipy_form, _akf_scipy_form; a Law's _pdf_kernel and _pdf_form),
# the forms taking 1 - s, s and ln s, s = 1/(1 + e^u), from scipy's expit
# and log_expit where the scalar kernels take them from _beta_argument; a
# lane the form does not serve goes through the scalar kernel. The
# mixture's array loop (_beta_mixture_lanes) runs every lane to its stop.
#
# The density lanes also take per-lane constants: each entry of consts is
# either a scalar, shared by every lane, or an array aligned with ln_g, so
# one call evaluates the densities of many distributions of a family
# (series.Law._densities makes one such call per family). The scipy form
# serves the lanes whose ms is at most _SCIPY_MS_MAX, and every other lane
# takes the scalar kernel with its own constants.


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


def _reg_inc_beta_lanes(a, b, x, cx):
    """reg_inc_beta at every lane of the arrays x and cx = 1 - x; a is a
    scalar or an array aligned with them."""
    a = np.broadcast_to(a, x.shape)
    out = np.empty(x.shape)
    hi = x > 0.5
    out[hi] = _sc.betaincc(b, a[hi], cx[hi])
    out[~hi] = _sc.betainc(a[~hi], b, x[~hi])
    return out


def _beta_mixture_lanes(ln_y, a, step, b, ln_w0, ln_z, sgn_z, r, d, ln_a, lb, rel_tol,
                        max_terms):
    """_beta_mixture at every lane of the array ln_y.

    The weights, their sums C_k and the f_j are scalars shared by all
    lanes. Each lane keeps its own T, sum of T and sum by parts, and leaves
    the loop once it passes the scalar stop test, so terms_used and status
    are those of the scalar call; the loop runs while any lane is live. One
    reg_inc_beta call over the lanes gives I_0, one more each lane's
    I_(K-1). An array of fewer than _LANES_START lanes is summed by
    _beta_mixture point by point. Returns the arrays (raw_value, terms,
    est_error_abs, status).
    """
    if ln_y.shape[0] < _LANES_START:
        sums = [_beta_mixture(float(v), a, step, b, ln_w0, ln_z, sgn_z, r, d, ln_a, lb,
                              rel_tol, max_terms) for v in ln_y]
        return tuple(np.array(field, dtype=dtype) for field, dtype in
                     zip(zip(*sums), (float, np.int64, float, np.int64)))
    u = np.log1p(np.exp(-np.abs(ln_y)))
    pos = ln_y > 0.0
    lnx = np.where(pos, -u, ln_y - u)
    lncx = np.where(pos, -ln_y - u, -u)
    x, cx_all = np.exp(lnx), np.exp(lncx)
    cx = cx_all
    i0_all = i0 = _reg_inc_beta_lanes(a, b, x, cx)
    w = c = math.exp(ln_w0)
    n = ln_y.shape[0]
    if ln_z == -math.inf:
        s = w * i0
        return s, np.ones(n, dtype=np.int64), np.zeros(n), np.where(np.isfinite(s), 0, 1)
    z = sgn_z * math.exp(ln_z)
    ln_t = a * lnx + b * lncx - ln_a - lb
    lag = ln_t < _LN_POW_MIN
    lagging = np.count_nonzero(lag)
    t = np.where(lag, 0.0, np.exp(ln_t))
    p, sum_t = np.zeros(n), np.zeros(n)
    upper = x > 0.5
    # rho = f rx - f rc is the scalar kernel's x f, or f - f cx above x = 1/2
    rx, rc = np.where(upper, 1.0, x), np.where(upper, cx, 0.0)
    aj = a
    f = (a + b) / (a + 1.0)
    rho = f * rx - f * rc
    out_p, out_t, out_c, out_w = np.empty((4, n))
    out_k = np.empty(n, dtype=np.int64)
    out_status = np.ones(n, dtype=np.int64)
    live = np.arange(n)
    small = np.zeros(n, dtype=bool)  # whether the lane's last term was small
    k = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        while k + 1 < max_terms and live.size:
            for j in range(step):
                dt = dt + t if j else t
                t = t * rho
                if lagging:
                    ln_t[lag] += lnx[lag] + math.log(f)
                    up = lag & (ln_t >= _LN_POW_MIN)
                    t[up] = np.exp(ln_t[up])
                    lag &= ~up
                    lagging = np.count_nonzero(lag)
                aj += 1.0
                f = (aj + b) / (aj + 1.0)
                rho = f * rx - f * rc
            p += c * dt
            sum_t += dt
            w *= z * (r + d * k) / (k + 1.0)
            c += w
            k += 1
            om_lo, om_hi = (cx, 1.0 - rho) if f > 1.0 else (1.0 - rho, cx)
            lo_b = t / om_lo
            # t / 0 = inf where 1 - x max(1, f) <= 0: no upper bound (t > 0
            # there but in a lagging lane, which takes I_0 instead)
            hi_b = t / np.maximum(om_hi, 0.0)
            i_k = i0 - sum_t
            i_k = np.where(i_k < lo_b, np.where(om_hi > 0.0, hi_b, lo_b), np.minimum(i_k, hi_b))
            if lagging:
                i_k[lag] = i0[lag]
            # a NaN fails this test as well, ending the lane; it is reported below
            big = abs(w) * i_k > np.maximum(rel_tol * np.abs(p + c * i_k), _ABS_TOL)
            done = small & ~big
            small = ~big
            if np.count_nonzero(done):
                ended = live[done]
                out_p[ended], out_t[ended] = p[done], sum_t[done]
                out_c[ended], out_w[ended], out_k[ended] = c, w, k
                out_status[ended] = 0
                keep = ~done
                live, p, sum_t, i0, t, ln_t, lag, small, rx, rc, cx, rho, lnx = (
                    v[keep] for v in (live, p, sum_t, i0, t, ln_t, lag, small, rx, rc, cx,
                                      rho, lnx))
        out_p[live], out_t[live], out_c[live], out_w[live], out_k[live] = p, sum_t, c, w, k
        i = _reg_inc_beta_lanes(a + step * out_k, b, x, cx_all)
        s = out_c * i + np.where(out_t != 0.0, out_p * ((i0_all - i) / out_t), out_p)
    out_status[~np.isfinite(s)] = 1
    return s, out_k + 1, np.abs(out_w * i), out_status
