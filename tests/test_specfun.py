"""Series engines against frozen extended-precision references.

Every EXPECTED_* constant below was produced by tests/oracles.py (mpmath
at 60 digits) and pasted in verbatim, so these tests never depend on the
production kernels for their reference values.
"""

import math
import time

import mpmath
import pytest

from compfade import _kernels as _k
from compfade import (
    ConvergenceError,
    DomainError,
    SeriesControl,
    beta,
    gauss_2f1,
    humbert_psi1,
    kdf_2_1,
    kummer_1f1,
    ln_gamma,
    pochhammer,
)
from conftest import rel_err
import oracles

ENGINE_TOL = 1e-10
TIGHT = SeriesControl(rel_tol=1e-14)

# (a, b, c, z, oracle value, exercised route)
GAUSS_CASES = [
    (0.3, 1.7, 2.2, -3.5, 0.6840372428767874, "pfaff"),
    (1.2, 0.7, 2.9, 0.35, 1.1229712435567148, "direct"),
    (1.9, 2.4, 1.3, 0.82, 242.27150668055482, "euler"),
    (0.5, 0.8, 2.6, 1.0, 1.3163768978091776, "auto"),
    (-3.0, 2.5, 1.2, 1.7, -3.7880415482954544, "auto"),
]

KUMMER_CASES = [
    (1.3, 2.7, 18.0, 1927248.6546443063),
    (0.9, 1.8, -22.0, 0.054198537741634334),
]

PSI1_CASES = [
    (1.3, 0.7, 2.1, 1.9, -0.6, 2.5, 4.2177505601728143),
    (2.2, 1.4, 3.0, 1.7, 0.45, 3.2, 349.38349853259277),
    # x < 0 with a large y is the ill-conditioned corner that the
    # internal argument transform exists for; the untransformed double
    # series loses ~50 digits here.
    (4.6, 2.1, 3.1, 2.5, -0.9, 12.5, 72852.970979484115),
]

KDF_CASES = [
    (3.1, 1.2, 2.3, 1.2, 2.5, -0.8, 2.1540351054370809),
    (1.5, 2.5, 3.5, 2.0, 0.6, 0.5, 3.8179565458859839),
    # b1 = a2 + 1 with y < 0 takes the incomplete-beta row route; these
    # x values are far past where the power-series rows lose precision.
    (32.5, 2.5, 3.5, 2.5, 11.2, -0.897, 209.00173872602569),
    (4.0, 1.5, 2.5, 1.5, 18.0, -0.95, 14524.565026898751),
]


def test_ln_gamma_matches_math_lgamma():
    for x in (0.3, 1.0, 4.5, 40.0):
        assert rel_err(ln_gamma(x), math.lgamma(x)) <= 1e-15


def test_ln_gamma_rejects_nonpositive():
    with pytest.raises(DomainError):
        ln_gamma(0.0)
    with pytest.raises(DomainError):
        ln_gamma(-2.5)


def test_beta_identity():
    want = math.exp(math.lgamma(2.3) + math.lgamma(1.1) - math.lgamma(3.4))
    assert rel_err(beta(2.3, 1.1), want) <= 1e-14
    with pytest.raises(DomainError):
        beta(-1.0, 2.0)


def test_pochhammer_basic():
    assert pochhammer(3.0, 0) == 1.0
    assert rel_err(pochhammer(2.5, 3), 2.5 * 3.5 * 4.5) <= 1e-14
    with pytest.raises(DomainError):
        pochhammer(2.5, -1)


@pytest.mark.parametrize("a,b,c,z,want,route", GAUSS_CASES)
def test_gauss_2f1_against_oracle(a, b, c, z, want, route):
    r = gauss_2f1(a, b, c, z)
    assert r.converged
    assert rel_err(r.value, want) <= ENGINE_TOL


def test_gauss_2f1_series_result_contract():
    ctrl = SeriesControl(rel_tol=1e-12, max_terms=500)
    r = gauss_2f1(1.2, 0.7, 2.9, 0.35, ctrl)
    assert r.converged
    assert 0 < r.terms_used <= ctrl.max_terms
    assert 0.0 <= r.est_error <= 1e-9 * abs(r.value)


def test_gauss_2f1_max_terms_exhaustion_is_flagged():
    r = gauss_2f1(0.3, 1.7, 2.2, -3.5, SeriesControl(max_terms=3))
    assert not r.converged
    assert r.terms_used == 3
    assert r.est_error > 0.0


def test_gauss_2f1_rejects_bad_arguments():
    with pytest.raises(DomainError):
        gauss_2f1(0.3, 1.7, -2.0, 0.5)
    with pytest.raises(ConvergenceError):
        gauss_2f1(0.3, 1.7, 2.2, 1.5)
    with pytest.raises(ConvergenceError):
        # z = 1 needs c - a - b > 0; here it is negative.
        gauss_2f1(1.9, 2.4, 1.3, 1.0)


def test_gauss_2f1_terminating_ignores_radius():
    # A non-positive integer a turns the series into a polynomial that is
    # valid for any z, including z > 1.
    r = gauss_2f1(-3.0, 2.5, 1.2, 1.7)
    assert r.converged
    assert r.terms_used <= 5


@pytest.mark.parametrize("a,c,z,want", KUMMER_CASES)
def test_kummer_1f1_against_oracle(a, c, z, want):
    r = kummer_1f1(a, c, z)
    assert r.converged
    assert rel_err(r.value, want) <= ENGINE_TOL


def test_kummer_1f1_rejects_c_pole():
    with pytest.raises(DomainError):
        kummer_1f1(1.3, 0.0, 2.0)
    with pytest.raises(DomainError):
        kummer_1f1(1.3, -3.0, 2.0)


@pytest.mark.parametrize("a,b,c,cp,x,y,want", PSI1_CASES)
def test_humbert_psi1_against_oracle(a, b, c, cp, x, y, want):
    r = humbert_psi1(a, b, c, cp, x, y)
    assert r.converged
    assert rel_err(r.value, want) <= ENGINE_TOL


def test_humbert_psi1_reduces_to_gauss_at_y_zero():
    a, b, c, cp = 1.1, 0.8, 2.4, 1.6
    for x in (-0.7, 0.0, 0.55):
        lhs = humbert_psi1(a, b, c, cp, x, 0.0, TIGHT).value
        rhs = gauss_2f1(a, b, c, x, TIGHT).value
        assert rel_err(lhs, rhs) <= 1e-12


def test_humbert_psi1_reduces_to_kummer_at_x_zero():
    a, b, c, cp = 1.1, 0.8, 2.4, 1.6
    for y in (-3.0, 0.0, 4.5):
        lhs = humbert_psi1(a, b, c, cp, 0.0, y, TIGHT).value
        rhs = kummer_1f1(a, cp, y, TIGHT).value
        assert rel_err(lhs, rhs) <= 1e-12


def test_humbert_psi1_rejects_x_outside_unit_disk():
    with pytest.raises(ConvergenceError):
        humbert_psi1(1.3, 0.7, 2.1, 1.9, 1.0, 2.5)
    with pytest.raises(DomainError):
        humbert_psi1(1.3, 0.7, 2.1, -1.0, 0.5, 2.5)


def test_humbert_psi1_terminating_b_allows_large_x():
    # b a non-positive integer truncates the x-series, so |x| >= 1 is fine.
    r = humbert_psi1(1.3, -2.0, 2.1, 1.9, 1.5, 2.5)
    assert r.converged
    assert math.isfinite(r.value)


@pytest.mark.parametrize("a1,a2,b1,c1,x,y,want", KDF_CASES)
def test_kdf_2_1_against_oracle(a1, a2, b1, c1, x, y, want):
    r = kdf_2_1(a1, a2, b1, c1, x, y)
    assert r.converged
    assert rel_err(r.value, want) <= ENGINE_TOL


def test_kdf_2_1_reduces_to_gauss_at_x_zero():
    a1, a2, b1, c1 = 1.5, 2.5, 3.5, 2.0
    lhs = kdf_2_1(a1, a2, b1, c1, 0.0, 0.5, TIGHT).value
    rhs = gauss_2f1(a1, a2, b1, 0.5, TIGHT).value
    assert rel_err(lhs, rhs) <= 1e-12


def test_kdf_2_1_reduces_to_2f2_at_y_zero():
    # At y = 0 the double series collapses to 2F2(a1, a2; b1, c1; x);
    # the reference value is mpmath hyper([1.5, 2.5], [3.5, 2.0], 0.6).
    lhs = kdf_2_1(1.5, 2.5, 3.5, 2.0, 0.6, 0.0, TIGHT).value
    assert rel_err(lhs, 1.3940057214892975) <= 1e-12


def test_kdf_2_1_rejects_y_outside_unit_disk():
    with pytest.raises(ConvergenceError):
        kdf_2_1(1.5, 2.5, 3.5, 2.0, 0.6, 1.0)
    with pytest.raises(DomainError):
        kdf_2_1(1.5, 2.5, -1.0, 2.0, 0.6, 0.5)


def test_series_control_rejects_bad_settings():
    with pytest.raises(DomainError):
        SeriesControl(rel_tol=0.0)
    with pytest.raises(DomainError):
        SeriesControl(max_terms=0)


@pytest.mark.parametrize("a,b,x", [
    (0.7, 3.0, 1e-12),
    (2.5, 4.0, 0.49),
    (2.5, 4.0, 0.51),
    (200.0, 3.0, 0.97),  # above x = 1/2: the complement route
])
def test_reg_inc_beta_matches_mpmath(a, b, x):
    with mpmath.workdps(40):
        want = mpmath.betainc(a, b, 0, x, regularized=True)
    got = _k.reg_inc_beta(a, b, x, 1.0 - x)
    assert rel_err(got, float(want)) <= 1e-14


@pytest.mark.parametrize("args", [
    # I_w(5 + m, 15) underflows from m ~ 100, long before the sum is done
    (20.0, 5.0, 6.0, 2.0, 140.0, -6e-4),
    # w^(a2 + m) nears the subnormal range from m ~ 253 on, where betainc
    # loses its digits
    (33.5, 4.0, 5.0, 6.0, 170.0, -0.07),
])
def test_kdf_2_1_beta_rows_past_the_underflow_of_the_incomplete_beta(args):
    r = kdf_2_1(*args)
    assert r.converged
    assert rel_err(r.value, float(oracles.mp_kdf_2_1(*args))) <= ENGINE_TOL


@pytest.mark.parametrize("args", [
    (100005.0, 5.0, 6.0, 5.0, 1e-6, -1e-150),
    (3e5, 2.0, 3.0, 2.0, 1e-5, -1e-300),
])
def test_kdf_2_1_beta_rows_where_scipy_gives_nan(args):
    # w^(a2 + m) is subnormal from the first row, and scipy's hyp2f1 gives
    # NaN for the Pfaff rows at these a1: a NaN row never passed the stop
    # test, so the sum ran 100k terms and raised; the rows' power series
    # takes over there
    r = kdf_2_1(*args)
    assert r.converged and r.terms_used <= 20
    assert rel_err(r.value, float(oracles.mp_kdf_2_1(*args))) <= ENGINE_TOL


def test_kdf_2_1_beta_rows_where_scipy_hyp2f1_is_wrong():
    # from row 280 on, w^(a2 + m) is below e^-700 and the rows take Pfaff's
    # form; scipy's hyp2f1 gave some of them as large positive numbers, and
    # the sum came out 1.27 relative off with converged=True
    args = (297.0, 1.5, 2.5, 3.5, 123.0, -0.09)
    r = kdf_2_1(*args)
    assert r.converged
    assert rel_err(r.value, float(oracles.mp_kdf_2_1(*args))) <= ENGINE_TOL


@pytest.mark.parametrize("call", [
    lambda: kummer_1f1(1.0, 1.0, 800.0),
    lambda: humbert_psi1(2.0, 1.0, 3.0, 1.5, 0.5, 900.0),
    lambda: pochhammer(2.0, 1000),
    lambda: pochhammer(-0.5, 200),
    lambda: beta(1e-320, 1.0),
])
def test_value_beyond_the_double_range_raises_convergence_error(call):
    with pytest.raises(ConvergenceError, match="leaves the double range"):
        call()


FINITE_CALLS = (
    (gauss_2f1, (0.3, 1.7, 2.2, -3.5)),
    (kummer_1f1, (1.0, 2.0, -3.0)),
    (humbert_psi1, (1.3, 0.7, 2.1, 1.9, 0.3, 0.5)),
    (kdf_2_1, (1.0, 1.5, 2.5, 3.5, 0.5, -0.5)),
    (pochhammer, (2.0, 3)),
    (beta, (2.0, 3.0)),
    (ln_gamma, (2.5,)),
)


@pytest.mark.parametrize("fn, args, pos, bad", [
    pytest.param(fn, args, pos, bad, id=f"{fn.__name__}-{pos}-{bad}")
    for fn, args in FINITE_CALLS for pos in range(len(args))
    for bad in (math.nan, math.inf, -math.inf)])
def test_non_finite_argument_raises_domain_error_at_once(fn, args, pos, bad):
    # a NaN ran the full 100k-row budget (0.56-2.9 s) into a ConvergenceError,
    # and pochhammer's n = inf or NaN raised a bare OverflowError or ValueError
    args = args[:pos] + (bad,) + args[pos + 1:]
    start = time.perf_counter()
    with pytest.raises(DomainError, match="requires finite arguments"):
        fn(*args)
    assert time.perf_counter() - start < 0.05


@pytest.mark.parametrize("call", [
    lambda: pochhammer(2.0, 10**400),
    lambda: pochhammer(10**400, 2),
    lambda: beta(10**400, 1.0),
    lambda: ln_gamma(-10**400),
    lambda: gauss_2f1(0.3, 1.7, 2.2, -10**400),
])
def test_an_integer_past_the_double_range_raises_domain_error(call):
    # math.isfinite raised a bare OverflowError on it
    with pytest.raises(DomainError, match="requires arguments in the double range"):
        call()


@pytest.mark.parametrize("args", [
    (1.3, 2.2, 3.1, 0.8, 1.5, -0.3),     # below y = 1/2 the recurrence is unstable:
    (12.0, 2.0, 3.0, 1.5, 14.0, -0.05),  # 110 rows, 12 of them direct
    (0.7, 4.1, 2.5, 1.9, 1.9, 0.75),     # above, 82 rows from the first two
])
def test_kdf_oracle_rows_by_recurrence_match_direct_rows(args):
    # the reference sums mpmath 2F1 rows, one per row, with the same
    # exact shifts a1 + m etc.
    from itertools import count

    from compfade import _oracles

    a1, a2, b1, c1, x, y = args
    with mpmath.workdps(_oracles._KDF_DPS):
        want = _oracles._rows(
            (mpmath.hyp2f1(mpmath.mpf(a1) + m, mpmath.mpf(a2) + m, mpmath.mpf(b1) + m, y)
             for m in count()),
            lambda m: ((mpmath.mpf(a1) + m) * (mpmath.mpf(a2) + m)
                       / ((mpmath.mpf(b1) + m) * (mpmath.mpf(c1) + m) * (m + 1)) * x),
            100000)
        got = oracles.mp_kdf_2_1(*args)
        assert abs(got - want) <= mpmath.mpf(10) ** -30 * abs(want)
