"""The Humbert Psi1 kernel where its blocks of diagonals meet.

humbert_psi1_ln sums _PSI1_BLOCK = 64 diagonals per block, so its block
logic shows at sums that stop just before, on and just after the block
edges, at term budgets around them, at a rescale, and where terminating b
stops opening columns. Each GOLDEN row was recorded from the kernel that
summed one diagonal at a time; the block kernel must reproduce its
diagonal count, convergence flag and sign exactly and its value to 1e-13.
Converged rows are also checked against the mpmath oracle, and seeded
random calls against _psi1_by_diagonal, that sum written as a loop.
"""

import math

import mpmath
import numpy as np
import pytest

from compfade import _kernels as _k
from compfade.series import DEFAULT_REL_TOL
import oracles

ENGINE_TOL = 1e-10
GOLDEN_TOL = 1e-13

# (a, b, c, c', x, y, max_terms, ln|Psi1|, sign, terms_used, converged)
GOLDEN = [
    # stops on diagonals 62..65 and 127..129 (terms_used is one more):
    # diagonal 64 ends the first block, 128 the second
    (1.3, 0.7, 2.1, 1.9, 0.3, 6.05, 100000, 6.114669658343975, 1.0, 63, True),
    (1.3, 0.7, 2.1, 1.9, 0.3, 6.25, 100000, 6.339443736321088, 1.0, 64, True),
    (1.3, 0.7, 2.1, 1.9, 0.3, 6.45, 100000, 6.565356970169023, 1.0, 65, True),
    (1.3, 0.7, 2.1, 1.9, 0.3, 6.7, 100000, 6.849303679498328, 1.0, 66, True),
    (1.3, 0.7, 2.1, 1.9, 0.3, 22.65, 100000, 27.02093849934514, 1.0, 128, True),
    (1.3, 0.7, 2.1, 1.9, 0.3, 22.95, 100000, 27.421435108626692, 1.0, 129, True),
    (1.3, 0.7, 2.1, 1.9, 0.3, 23.25, 100000, 27.822326144579026, 1.0, 130, True),
    # term budgets inside and around the first block, converged or not
    (1.3, 0.7, 2.1, 1.9, 0.3, 6.25, 1, 1.6875678607752105, 1.0, 1, False),
    (1.3, 0.7, 2.1, 1.9, 0.3, 22.95, 1, 2.8233193583648557, 1.0, 1, False),
    (1.3, 0.7, 2.1, 1.9, 0.3, 6.25, 2, 2.8339831111098612, 1.0, 2, False),
    (1.3, 0.7, 2.1, 1.9, 0.3, 22.95, 2, 5.096056227753883, 1.0, 2, False),
    (1.3, 0.7, 2.1, 1.9, 0.3, 6.25, 3, 3.675450893345929, 1.0, 3, False),
    (1.3, 0.7, 2.1, 1.9, 0.3, 22.95, 3, 7.035772560735774, 1.0, 3, False),
    (1.3, 0.7, 2.1, 1.9, 0.3, 6.25, 64, 6.339443736321088, 1.0, 64, True),
    (1.3, 0.7, 2.1, 1.9, 0.3, 22.95, 64, 27.408160813631508, 1.0, 64, False),
    (1.3, 0.7, 2.1, 1.9, 0.3, 6.25, 65, 6.339443736321088, 1.0, 64, True),
    (1.3, 0.7, 2.1, 1.9, 0.3, 22.95, 65, 27.410944869401124, 1.0, 65, False),
    # the sum stops on the budget's last diagonal
    (1.3, 0.7, 2.1, 1.9, 0.3, 6.45, 64, 6.565356970169023, 1.0, 64, True),
    (1.3, 0.7, 2.1, 1.9, 0.3, 6.45, 65, 6.565356970169023, 1.0, 65, True),
    # past 1e290 and rescaled: grown along y, and along x by terminating b
    (1.3, 0.7, 2.1, 1.9, 0.01, 700.0, 100000, 700.3279727341102, 1.0, 905, True),
    (1.3, -100.0, 2.1, 1.9, -100000.0, 2.5, 100000, 1175.5317872778435, 1.0, 145, True),
    # terminating b: the last column opens inside the first block, on its
    # last diagonal, and in the second block
    (1.3, -5.0, 2.1, 1.9, 1.5, 2.5, 100000, 3.2728032012300576, -1.0, 32, True),
    (1.3, -63.0, 2.1, 1.9, -0.8, 5.0, 100000, 57.11184448918224, 1.0, 91, True),
    (1.3, -64.0, 2.1, 1.9, -0.8, 5.0, 100000, 57.864384473361646, 1.0, 92, True),
    (1.3, -100.0, 2.1, 1.9, -0.8, 5.0, 100000, 84.35198001366875, 1.0, 119, True),
    # b = 0: a single column, Psi1 = 1F1(a; c'; y)
    (1.3, 0.0, 2.1, 1.9, 0.3, 40.0, 100000, 37.85128693251197, 1.0, 94, True),
    # negative x through the (1-x)^(-a) transform
    (4.6, 2.1, 3.1, 2.5, -0.9, 12.5, 100000, 11.196198592938671, 1.0, 115, True),
    (1.3, 0.7, 2.1, 1.9, -0.6, 30.0, 100000, 26.170449226925783, 1.0, 143, True),
]


def _kernel(args, max_terms):
    return _k.humbert_psi1_ln(*args, DEFAULT_REL_TOL, max_terms)


@pytest.mark.parametrize("row", GOLDEN)
def test_psi1_blocks_reproduce_the_diagonal_by_diagonal_sum(row):
    args, max_terms, ln_want, sign_want, terms_want, converged_want = (
        row[:6], row[6], row[7], row[8], row[9], row[10])
    ln_abs, sign, terms, _, status = _kernel(args, max_terms)
    assert terms == terms_want
    assert (status == 0) == converged_want
    assert sign == sign_want
    assert abs(ln_abs - ln_want) <= GOLDEN_TOL + 4.0 * math.ulp(ln_want)


@pytest.mark.parametrize("row", [r for r in GOLDEN if r[10]])
def test_psi1_blocks_against_oracle(row):
    ln_abs, sign, _, _, _ = _kernel(row[:6], row[6])
    want = oracles.mp_humbert_psi1(*row[:6])
    assert sign == float(mpmath.sign(want))
    # |d ln| is the relative error of the value
    assert abs(ln_abs - float(mpmath.log(abs(want)))) <= ENGINE_TOL


def _psi1_by_diagonal(a, b, c, cp, x, y, rel_tol, abs_tol, max_terms):
    """humbert_psi1_ln one diagonal at a time: the reference the blocks
    must reproduce. Returns (ln_abs, sign, terms_used, status)."""
    b_term = b <= 0.0 and b == math.floor(b)
    ln_pref = 0.0
    if x < 0.0 and not b_term:
        ln_pref, b, y, x = -a * math.log1p(-x), c - b, y / (1.0 - x), x / (x - 1.0)
    m_cap = int(-b) + 1 if b_term else max_terms + 1
    col = np.ones(1)
    row_base = s = 1.0
    ln_scale, small, diag, status = 0.0, 0, 0, 1
    while diag < max_terms:
        diag += 1
        n = diag - np.arange(len(col))
        col = col * ((a + diag - 1.0) * y / ((n + (cp - 1.0)) * n))
        d_sum = float(col.sum())
        if diag < m_cap:
            row_base *= (a + diag - 1.0) * (b + diag - 1.0) * x / ((c + diag - 1.0) * diag)
            col = np.append(col, row_base)
            d_sum += row_base
        s += d_sum
        if abs(d_sum) <= max(rel_tol * abs(s), abs_tol):
            small += 1
            if small == 2:
                status = 0
                break
        else:
            small = 0
        if max(abs(s), float(np.abs(col).max())) > 1e290:
            s, row_base, col = s * 1e-290, row_base * 1e-290, col * 1e-290
            ln_scale += math.log(1e290)
    ln_abs = ln_pref + math.log(abs(s)) + ln_scale
    return ln_abs, math.copysign(1.0, s), min(diag + 1, max_terms), status


def _random_calls(n):
    """Series whose terms share one sign once the kernel has transformed a
    negative x: y >= 0, and x in [0, 1) or terminating b with x <= 0.
    Where terms change sign the sum cancels, and a change in the order of
    additions moves the result by more than 1e-13 in either kernel."""
    rng = np.random.default_rng(20261018)
    for i in range(n):
        a, c, cp = (float(v) for v in rng.uniform(0.1, 8.0, 3))
        b, x = float(rng.uniform(0.05, 6.0)), float(rng.uniform(0.0, 0.95))
        y = float(10.0 ** rng.uniform(-3.0, 2.0))
        if i % 4 == 1:  # terminating b
            b, x = -float(rng.integers(0, 140)), -float(10.0 ** rng.uniform(-3.0, 5.0))
        elif i % 4 == 2:  # past 1e290
            y, x = float(rng.uniform(650.0, 800.0)), float(rng.uniform(0.0, 0.02))
        elif i % 4 == 3:  # the negative-x transform
            x = -float(rng.uniform(0.01, 0.99))
        max_terms = 1 + i // 3 % 6 if i % 3 == 0 else 100000
        yield a, b, c, cp, x, y, max_terms


def test_psi1_blocks_match_the_diagonal_loop_on_random_calls():
    rescaled = 0
    for args in _random_calls(120):
        ln_abs, sign, terms, _, status = _kernel(args[:6], args[6])
        ln_ref, sign_ref, terms_ref, status_ref = _psi1_by_diagonal(
            *args[:6], DEFAULT_REL_TOL, _k._ABS_TOL, args[6])
        assert (terms, status, sign) == (terms_ref, status_ref, sign_ref), args
        assert abs(ln_abs - ln_ref) <= GOLDEN_TOL + 4.0 * math.ulp(ln_ref), args
        rescaled += ln_ref > math.log(1e290)
    assert rescaled >= 10
