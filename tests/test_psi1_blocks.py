"""The Humbert Psi1 kernel, summed as rows, at the edges of its domain.

humbert_psi1_ln sums 2F1 rows over n for y >= 0 (at x >= 0 only up to
c = _SCIPY_2F1_C_MAX) and 1F1 rows over m otherwise, so terms_used counts
rows. The GOLDEN inputs are sums that stop near diagonals 64 and 128, term
budgets around those stops, sums past 1e290, terminating b, b = 0 and
negative x. On each the kernel keeps the sign and the convergence flag
recorded from the diagonal-by-diagonal sum, uses at most its budget of
rows, and, where converged, matches the mpmath oracle. A seeded sweep
covers the four sign quadrants of (x, y). The regression points are calls
that the sum over diagonals got wrong, and calls where scipy's rows, taken
in the other orientation or form, would be wrong.
"""

import math

import mpmath
import numpy as np
import pytest

from compfade import specfun
from compfade import ConvergenceError, humbert_psi1
from compfade.series import DEFAULT_REL_TOL
from conftest import rel_err
import oracles

ENGINE_TOL = 1e-10

# (a, b, c, c', x, y, max_terms, sign, converged)
GOLDEN = [
    # stopped on diagonals 62..65 and 127..129
    (1.3, 0.7, 2.1, 1.9, 0.3, 6.05, 100000, 1.0, True),
    (1.3, 0.7, 2.1, 1.9, 0.3, 6.25, 100000, 1.0, True),
    (1.3, 0.7, 2.1, 1.9, 0.3, 6.45, 100000, 1.0, True),
    (1.3, 0.7, 2.1, 1.9, 0.3, 6.7, 100000, 1.0, True),
    (1.3, 0.7, 2.1, 1.9, 0.3, 22.65, 100000, 1.0, True),
    (1.3, 0.7, 2.1, 1.9, 0.3, 22.95, 100000, 1.0, True),
    (1.3, 0.7, 2.1, 1.9, 0.3, 23.25, 100000, 1.0, True),
    # term budgets, converged or not
    (1.3, 0.7, 2.1, 1.9, 0.3, 6.25, 1, 1.0, False),
    (1.3, 0.7, 2.1, 1.9, 0.3, 22.95, 1, 1.0, False),
    (1.3, 0.7, 2.1, 1.9, 0.3, 6.25, 2, 1.0, False),
    (1.3, 0.7, 2.1, 1.9, 0.3, 22.95, 2, 1.0, False),
    (1.3, 0.7, 2.1, 1.9, 0.3, 6.25, 3, 1.0, False),
    (1.3, 0.7, 2.1, 1.9, 0.3, 22.95, 3, 1.0, False),
    (1.3, 0.7, 2.1, 1.9, 0.3, 6.25, 64, 1.0, True),
    (1.3, 0.7, 2.1, 1.9, 0.3, 22.95, 64, 1.0, False),
    (1.3, 0.7, 2.1, 1.9, 0.3, 6.25, 65, 1.0, True),
    (1.3, 0.7, 2.1, 1.9, 0.3, 22.95, 65, 1.0, False),
    (1.3, 0.7, 2.1, 1.9, 0.3, 6.45, 64, 1.0, True),
    (1.3, 0.7, 2.1, 1.9, 0.3, 6.45, 65, 1.0, True),
    # past 1e290: grown along y, and along x by terminating b
    (1.3, 0.7, 2.1, 1.9, 0.01, 700.0, 100000, 1.0, True),
    (1.3, -100.0, 2.1, 1.9, -100000.0, 2.5, 100000, 1.0, True),
    # terminating b
    (1.3, -5.0, 2.1, 1.9, 1.5, 2.5, 100000, -1.0, True),
    (1.3, -63.0, 2.1, 1.9, -0.8, 5.0, 100000, 1.0, True),
    (1.3, -64.0, 2.1, 1.9, -0.8, 5.0, 100000, 1.0, True),
    (1.3, -100.0, 2.1, 1.9, -0.8, 5.0, 100000, 1.0, True),
    # b = 0: Psi1 = 1F1(a; c'; y)
    (1.3, 0.0, 2.1, 1.9, 0.3, 40.0, 100000, 1.0, True),
    # negative x
    (4.6, 2.1, 3.1, 2.5, -0.9, 12.5, 100000, 1.0, True),
    (1.3, 0.7, 2.1, 1.9, -0.6, 30.0, 100000, 1.0, True),
]


def _kernel(args, max_terms=100000):
    return specfun.humbert_psi1_ln(*args, DEFAULT_REL_TOL, max_terms)


def _ln_err(ln_abs, sign, want):
    """|d ln|, the relative error of the value, once the signs agree."""
    assert sign == float(mpmath.sign(want))
    return abs(ln_abs - float(mpmath.log(abs(want))))


@pytest.mark.parametrize("row", GOLDEN)
def test_psi1_rows_keep_sign_convergence_and_budget(row):
    args, max_terms, sign_want, converged_want = row[:6], row[6], row[7], row[8]
    _, sign, terms, _, status = _kernel(args, max_terms)
    assert sign == sign_want
    assert (status == 0) == converged_want
    assert 1 <= terms <= max_terms


@pytest.mark.parametrize("row", [r for r in GOLDEN if r[8]])
def test_psi1_rows_against_oracle(row):
    ln_abs, sign, _, _, _ = _kernel(row[:6], row[6])
    assert _ln_err(ln_abs, sign, oracles.mp_humbert_psi1(*row[:6])) <= ENGINE_TOL


def test_psi1_rows_against_oracle_in_every_sign_quadrant():
    # check_engines' ranges, each draw's signs of x and y set by its quadrant
    rng = np.random.default_rng(20261019)
    for i in range(48):
        a, b, c, cp = (float(rng.uniform(lo, hi))
                       for lo, hi in ((0.3, 5.0), (0.1, 4.0), (0.5, 6.0), (0.5, 6.0)))
        x = math.copysign(float(rng.uniform(0.0, 0.9)), 1.0 if i % 2 else -1.0)
        y = float(rng.uniform(0.0, 8.0)) if i % 4 < 2 else -float(rng.uniform(0.0, 4.0))
        ln_abs, sign, _, _, status = _kernel((a, b, c, cp, x, y))
        assert status == 0
        want = oracles.mp_humbert_psi1(a, b, c, cp, x, y)
        assert _ln_err(ln_abs, sign, want) <= ENGINE_TOL, (a, b, c, cp, x, y)


def test_psi1_terminating_b_equal_to_c():
    # b = c = -3: the m-sum ends at m = 3, where (b + m)/(c + m) is 0/0
    r = humbert_psi1(1.3, -3.0, -3.0, 1.9, 0.5, -2.5)
    assert r.converged
    assert rel_err(r.value, 0.22696005459047786) <= 4e-15
    assert rel_err(r.value, float(oracles.mp_humbert_psi1(1.3, -3.0, -3.0, 1.9, 0.5, -2.5))
                   ) <= ENGINE_TOL


def test_psi1_past_the_double_range_takes_no_series_rows(monkeypatch):
    # scipy's hyp2f1 overflows on the rows past n = 1040; Euler's form from
    # scipy gives them, where the power series would take thousands of terms each
    def refuse(*args):
        raise AssertionError(f"series row {args}")

    monkeypatch.setattr(specfun, "gauss_2f1_ln", refuse)
    with pytest.raises(ConvergenceError, match="leaves the double range"):
        humbert_psi1(2.0, 1.0, 3.0, 1.5, 0.5, 900.0)


@pytest.mark.parametrize("args, ln_want, sign_want", [
    # terms of both signs: y < 0, and terminating b with x > 0
    ((1.3, 0.7, 2.1, 1.9, 0.5, -30.0), math.log(0.00787766229209207), 1.0),
    ((1.3, -63.0, 2.1, 1.9, 0.8, 30.0), -5.2881101126302, 1.0),
    # large y, where columns rescaled by 1e-290 underflowed
    ((1.3, 0.7, 2.1, 1.9, 0.3, 600.0), 845.1430293569375, 1.0),
    ((2.0, 1.0, 3.0, 1.5, 0.5, 900.0), 1790.7161805332194, 1.0),
    # c past _SCIPY_2F1_C_MAX at x > 0, where scipy's 2F1 rows are up to 30% off
    ((3.2159670982779227, 0.8178768974188777, 30.780387997638304, 2.4307073232689107,
      0.6549852912815282, 31.40961610794848), 34.808162401312501, 1.0),
    ((1.281846606589022, 1.6154460375383966, 46.81595003324965, 1.589103617065558,
      0.7573127597818925, 27.218487204262768), 27.253961129715602, 1.0),
    # y < 0 with rows up to a = 190, where scipy's direct 1F1 is far off
    ((4.553435850620201, 1.6332620327507836, 5.272845605252885, 2.3865240387759084,
      0.8762630700470792, -0.8973615195423896), math.log(0.1104871161138879), -1.0),
    # the composite CDF's Psi1 at ms = 30, X1 = 1.06: scipy's 2F1 rows are
    # 4e-5 off, the incomplete-beta rows are not
    ((32.5, 30.0, 31.0, 2.5, -1.0 / 1.06, 12.5), math.log(200.23257153433159), 1.0),
])
def test_psi1_regressions_against_mpmath(args, ln_want, sign_want):
    ln_abs, sign, _, _, status = _kernel(args)
    assert status == 0 and sign == sign_want
    assert abs(ln_abs - ln_want) <= ENGINE_TOL
