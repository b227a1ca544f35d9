"""Extended-precision oracles in mpmath, for the validation battery
(validation.check_engines) and the test suite (tests/oracles.py).

The Humbert Psi1 and Kampe de Feriet double series, which mpmath does not
provide, are summed row by row over mpmath's 2F1 at 60 digits, sharing no
code with the production kernels. Importing this module imports mpmath,
so compfade imports it only where a check needs it.
"""
import mpmath as mp

DPS = 60
_TINY = mp.mpf(10) ** -290
_STOP = mp.mpf(10) ** -50


def mp_setup():
    """mpmath, set to DPS digits."""
    mp.mp.dps = DPS
    return mp


def _rows(row, ratio, max_rows):
    """Sum of coef_n row(n), coef_0 = 1 and coef_(n+1) = coef_n ratio(n),
    until three successive terms fall below 1e-50 of the partial sum (or of
    1e-290) or a coefficient vanishes."""
    mp_setup()
    s = mp.mpf(0)
    coef = mp.mpf(1)
    small = 0
    for n in range(max_rows):
        term = coef * row(n)
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
    coef_(n+1) = coef_n (a+n) y / ((cp+n)(n+1)). For x < 0 < y the rows
    share one sign, so this orientation stays well conditioned exactly
    where the row-over-x orientation loses all precision."""
    return _rows(
        lambda n: mp.hyp2f1(a + n, b, c, x),
        lambda n: mp.mpf(a + n) / (mp.mpf(cp + n) * (n + 1)) * y,
        max_rows,
    )


def mp_kdf_2_1(a1, a2, b1, c1, x, y, max_rows=100000):
    """Kampe de Feriet F(2:0;0 / 1:1;0) summed over the x-index: rows 2F1(a1+m,
    a2+m; b1+m; y), coef_(m+1) = coef_m (a1+m)(a2+m) x / ((b1+m)(c1+m)(m+1))."""
    return _rows(
        lambda m: mp.hyp2f1(a1 + m, a2 + m, b1 + m, y),
        lambda m: (mp.mpf(a1 + m) * mp.mpf(a2 + m)
                   / (mp.mpf(b1 + m) * mp.mpf(c1 + m) * (m + 1)) * x),
        max_rows,
    )
