"""Extended-precision oracles in mpmath, for the validation battery
(validation.check_engines) and the test suite (tests/oracles.py).

The Humbert Psi1 and Kampe de Feriet double series, which mpmath does not
provide, are summed row by row to 60 digits, sharing no code with the
production kernels: the Psi1 rows are mpmath 2F1 values, and the Kampe de
Feriet rows come from the hypergeometric equation's recurrence in the row
index, stepped at 90 digits and re-anchored on mpmath 2F1 rows. Importing this module imports
mpmath, so compfade imports it only where a check needs it.
"""
from itertools import count

import mpmath as mp

DPS = 60
_TINY = mp.mpf(10) ** -290
_STOP = mp.mpf(10) ** -50
# the Kampe de Feriet rows are stepped at _KDF_DPS digits and re-anchored
# on a directly computed row once their error bound passes 10^-DPS
_KDF_DPS = 90


def mp_setup():
    """mpmath, set to DPS digits."""
    mp.mp.dps = DPS
    return mp


def _rows(rows, ratio, max_rows):
    """Sum of coef_n row_n over the iterable rows, coef_0 = 1 and
    coef_(n+1) = coef_n ratio(n), until three successive terms fall below
    1e-50 of the partial sum (or of 1e-290) or a coefficient vanishes."""
    s = mp.mpf(0)
    coef = mp.mpf(1)
    small = 0
    for n, row in zip(range(max_rows), rows):
        term = coef * row
        s += term
        if abs(term) <= _STOP * max(abs(s), _TINY):
            small += 1
            if small >= 3:
                break
        else:
            small = 0
        coef *= ratio(n)
        if coef == 0:
            break
    return s


def mp_humbert_psi1(a, b, c, cp, x, y, max_rows=100000):
    """Humbert Psi1 summed over the y-index: rows 2F1(a+n, b; c; x) with
    coef_(n+1) = coef_n (a+n) y / ((cp+n)(n+1)), with the shifts n added
    exactly. For x < 0 < y the rows share one sign, so this orientation
    stays well conditioned exactly where the row-over-x orientation loses
    all precision."""
    mp_setup()
    a, cp = mp.mpf(a), mp.mpf(cp)
    return _rows(
        (mp.hyp2f1(a + n, b, c, x) for n in count()),
        lambda n: (a + n) / ((cp + n) * (n + 1)) * y,
        max_rows,
    )


def _gauss_shift_rows(a, b, c, y):
    """The rows F_m = 2F1(a+m, b+m; c+m; y), m = 0, 1, ..., at the working
    precision.

    With A = a+m, B = b+m, C = c+m, F_(m+1) and F_(m+2) are F_m's first and
    second derivatives over (A)_k (B)_k/(C)_k (DLMF 15.5.1), so the
    hypergeometric equation gives F_(m+2) = C(C+1)/(y(1-y)(A+1)(B+1))
    (F_m - (C - (A+B+1)y)/C F_(m+1)). Below y = 1/2 the rows are its
    minimal solution, and each step multiplies the relative error of the
    rows by up to (|F_m| + |second term|)/|their difference|. That bound is
    carried along, and once it passes 10^-DPS the next two rows are taken
    from mpmath's 2F1 instead (as are the first two, and every row at
    y = 0 or 1 or a vanishing difference)."""
    a, b, c, y = mp.mpf(a), mp.mpf(b), mp.mpf(c), mp.mpf(y)
    unit = mp.mpf(10) ** -mp.mp.dps
    keep = mp.mpf(10) ** -DPS
    can_step = y not in (0, 1)
    m = 0
    while True:
        f0 = mp.hyp2f1(a + m, b + m, c + m, y)
        f1 = mp.hyp2f1(a + m + 1, b + m + 1, c + m + 1, y)
        yield f0
        yield f1
        e0 = e1 = unit
        while can_step:
            A, B, C = a + m, b + m, c + m
            t2 = (C - (A + B + 1) * y) / C * f1
            d = f0 - t2
            if d == 0:
                break
            e2 = max(e0, e1) * (abs(f0) + abs(t2)) / abs(d) + unit
            if e2 > keep:
                break
            f0, f1 = f1, C * (C + 1) / (y * (1 - y) * (A + 1) * (B + 1)) * d
            e0, e1 = e1, e2
            m += 1
            yield f1
        m += 2


def mp_kdf_2_1(a1, a2, b1, c1, x, y, max_rows=100000):
    """Kampe de Feriet F(2:0;0 / 1:1;0) summed over the x-index: rows 2F1(a1+m,
    a2+m; b1+m; y) from _gauss_shift_rows, coef_(m+1) = coef_m (a1+m)(a2+m)
    x / ((b1+m)(c1+m)(m+1)), with the shifts m added exactly."""
    mp_setup()
    with mp.workdps(_KDF_DPS):
        a1, a2, b1, c1 = mp.mpf(a1), mp.mpf(a2), mp.mpf(b1), mp.mpf(c1)
        return _rows(
            _gauss_shift_rows(a1, a2, b1, y),
            lambda m: (a1 + m) * (a2 + m) / ((b1 + m) * (c1 + m) * (m + 1)) * x,
            max_rows,
        )
