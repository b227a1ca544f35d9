"""cdf_truncation_bound on both families: the tail mass of the mixture's
weights times the first beta left out dominates the remainder, summed term
by term in mpmath, and does not grow with k0.

The draws cover alpha-eta-F Formats I and II and alpha-kappa-F up to kappa
= 40, gamma from the lower tail to where the paper's bounding series
diverges (q y^2 >= 1), and k0 up to 32.
"""

import math

import numpy as np
import pytest

from compfade import (
    AefDist,
    AefParams,
    AkfDist,
    AkfParams,
    DomainError,
    Format,
    SeriesControl,
)
from oracles import mp_kernel_mixture

K0S = (1, 2, 4, 8, 16, 32)
DRAWS = 8  # per family and format


def _draws():
    rng = np.random.default_rng(2027)
    laws = []
    for kind in ("aef-I", "aef-II", "akf"):
        for _ in range(DRAWS):
            alpha, mu = rng.uniform(1.0, 4.0), rng.uniform(0.4, 3.0)
            ms = rng.uniform(2.0 / alpha + 0.3, 25.0)
            gamma_bar = math.exp(rng.uniform(math.log(0.5), math.log(5.0)))
            gamma = gamma_bar * math.exp(rng.uniform(math.log(1e-2), math.log(1e2)))
            shape = rng.uniform(0.0, 1.0)
            if kind == "aef-I":
                eta = math.exp(math.log(0.02) + shape * math.log(2500.0))  # 0.02 to 50
                d = AefDist(AefParams(alpha=alpha, eta=eta, mu=mu, ms=ms), gamma_bar)
            elif kind == "aef-II":
                d = AefDist(AefParams(alpha=alpha, eta=1.96 * shape - 0.98, mu=mu, ms=ms,
                                      format=Format.FORMAT_II), gamma_bar)
            else:
                kappa = math.exp(math.log(0.1) + shape * math.log(400.0))  # 0.1 to 40
                d = AkfDist(AkfParams(alpha=alpha, kappa=kappa, mu=mu, ms=ms), gamma_bar)
            laws.append(pytest.param(d, gamma, id=f"{kind}-{len(laws)}"))
    # the box's edges, past the paper's divergence
    for d in (AefDist(AefParams(alpha=2.5, eta=0.02, mu=1.2, ms=4.0), 1.0),
              AefDist(AefParams(alpha=2.5, eta=0.98, mu=1.2, ms=4.0,
                                format=Format.FORMAT_II), 1.0),
              AkfDist(AkfParams(alpha=2.5, kappa=40.0, mu=3.0, ms=4.0), 1.0)):
        laws.append(pytest.param(d, 3.0, id=f"edge-{len(laws)}"))
    return laws


DRAWN = _draws()


def _ln_y(d, gamma):
    c = d._cdf_consts
    return c[0] + c[1] * (math.log(gamma) - d._ln_gb)


def _paper_diverges(d, gamma):
    """Whether the paper's bounding 2F1 argument q y^2 reaches 1."""
    if isinstance(d, AkfDist):
        return False
    c = d._cdf_consts
    return 2.0 * _ln_y(d, gamma) + c[6] >= 0.0


def test_the_sweep_reaches_past_the_paper_bounds_divergence():
    diverging = [_paper_diverges(*p.values) for p in DRAWN]
    assert sum(diverging[:-3]) > 2 and all(diverging[-3:-1])
    assert max(p.values[0].params.kappa for p in DRAWN
               if isinstance(p.values[0], AkfDist)) == 40.0


@pytest.mark.parametrize("d, gamma", DRAWN)
def test_bound_dominates_the_summed_remainder_and_falls_in_k0(d, gamma):
    bounds = [d.cdf_truncation_bound(gamma, k0) for k0 in range(1, K0S[-1] + 1)]
    assert all(math.isfinite(b) and b > 0.0 for b in bounds)
    assert all(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:]))
    args = (_ln_y(d, gamma), *d._cdf_consts[2:])
    last = K0S[-1]
    # the terms left out after k0 < last are those before last, then the
    # remainder after last, summed once
    after_last = mp_kernel_mixture(*args, None, start=last)
    for k0 in K0S:
        remainder = after_last + mp_kernel_mixture(*args, last, start=k0)
        assert bounds[k0 - 1] >= remainder, (k0, bounds[k0 - 1], float(remainder))


@pytest.mark.parametrize("d, gamma", DRAWN[::4])
def test_bound_dominates_the_difference_of_two_cdfs(d, gamma):
    # the rounding term 2 eps I_x(a, b) covers full - part, rounded
    full = d.snr_cdf(gamma).value
    for k0 in K0S:
        part = d.snr_cdf(gamma, SeriesControl(max_terms=k0)).value
        assert d.cdf_truncation_bound(gamma, k0) >= max(full - part, 0.0)


@pytest.mark.parametrize("d", [AefDist(AefParams(alpha=2.5, eta=0.5, mu=1.2, ms=4.0), 2.0),
                               AkfDist(AkfParams(alpha=2.5, kappa=1.5, mu=1.2, ms=4.0), 2.0)])
def test_bound_at_the_ends_and_refused_k0(d):
    assert d.cdf_truncation_bound(0.0, 4) == 0.0
    # at gamma = inf every beta is 1: the bound is the tail mass, plus 2 eps
    tail = d._tail_mass(4.0, d._cdf_consts[7], d._cdf_consts[6])
    assert d.cdf_truncation_bound(math.inf, 4) == tail + 2.0 * 2.0**-52
    assert d.cdf_truncation_bound(1.0, 4.0) == d.cdf_truncation_bound(1.0, np.int64(4))
    for k0 in (0, 1.5, -2, math.inf, math.nan):
        with pytest.raises(DomainError):
            d.cdf_truncation_bound(1.0, k0)
    for gamma in (-1.0, math.nan):
        with pytest.raises(DomainError):
            d.cdf_truncation_bound(gamma, 4)
