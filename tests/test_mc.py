"""Physical-model sampler: determinism, partitioning, moments, KS machinery.

The sampler builds each envelope from the powers of its cluster pairs,
each drawn exactly from a radius uniform, plus one angle uniform for the
pair that carries an alpha-kappa-F draw's whole offset, and from a common
inverse-Nakagami shadowing root. It shares no code with the analytic
densities, which is what makes the KS comparisons in the acceptance battery
meaningful.
"""

import inspect
import math
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from scipy import special as sc
from scipy import stats

from compfade import (
    AefParams,
    AkfParams,
    DomainError,
    EmpiricalDist,
    Format,
    ks_distance,
    ks_threshold,
    make_phys,
    sample_aef_envelope,
    sample_akf_envelope,
    sample_inv_nakagami_sq,
)
from compfade import mc
from compfade.mc import PhysAef, PhysAkf, envelope_alpha_mean, envelope_sq_mean
from conftest import rel_err


@pytest.fixture(autouse=True)
def _fresh_shadowing():
    # each test builds its own shadowing tables, so no test that patches scipy
    # passes only on a table an earlier test left in the memo
    mc._shadowing.cache_clear()


@pytest.fixture
def phys_aef():
    return make_phys(AefParams(alpha=2.5, eta=0.4, mu=2.0, ms=4.0))


@pytest.fixture
def phys_akf():
    return make_phys(AkfParams(alpha=2.5, kappa=1.5, mu=2.0, ms=4.0))


def test_aef_first_draws_frozen(phys_aef):
    r = sample_aef_envelope(phys_aef, 3, 123)
    want = [2.1417453568013722, 1.323457904008944, 1.4034882440123937]
    assert np.allclose(r, want, rtol=1e-12, atol=0.0)


def test_akf_first_draws_frozen(phys_akf):
    r = sample_akf_envelope(phys_akf, 3, 123)
    want = [2.7600242088516276, 2.336243802947422, 1.7452904121124926]
    assert np.allclose(r, want, rtol=1e-12, atol=0.0)


def test_runs_are_byte_identical(phys_aef):
    a = sample_aef_envelope(phys_aef, 5000, 42)
    b = sample_aef_envelope(phys_aef, 5000, 42)
    assert a.tobytes() == b.tobytes()


def test_seed_changes_stream(phys_aef):
    a = sample_aef_envelope(phys_aef, 100, 42)
    b = sample_aef_envelope(phys_aef, 100, 43)
    assert a.tobytes() != b.tobytes()


@pytest.mark.parametrize("splits", [2, 3, 7])
def test_partitioned_sampling_is_byte_identical(phys_aef, phys_akf, splits):
    n = 5000
    edges = np.linspace(0, n, splits + 1).astype(int)
    full_a = sample_aef_envelope(phys_aef, n, 99)
    parts = [sample_aef_envelope(phys_aef, int(e - s), 99, start=int(s))
             for s, e in zip(edges[:-1], edges[1:])]
    assert np.concatenate(parts).tobytes() == full_a.tobytes()
    full_k = sample_akf_envelope(phys_akf, n, 99)
    parts_k = [sample_akf_envelope(phys_akf, int(e - s), 99, start=int(s))
               for s, e in zip(edges[:-1], edges[1:])]
    assert np.concatenate(parts_k).tobytes() == full_k.tobytes()


def test_single_row_offset_matches(phys_aef):
    full = sample_aef_envelope(phys_aef, 10, 7)
    tail = sample_aef_envelope(phys_aef, 9, 7, start=1)
    assert tail.tobytes() == full[1:].tobytes()


@pytest.mark.parametrize("width", [4, 8])
def test_uniform_rows_jump_to_their_start(width):
    # a call that jumps to row 13 (not a multiple of 4 or of _CHUNK_ROWS)
    # reads what one call from row 0 reads there
    start = 13
    full = mc._uniform_rows(58, width, 0, start + 40)
    assert mc._uniform_rows(58, width, start, 40).tobytes() == full[start:].tobytes()


def test_uniform_rows_jump_far_into_the_stream():
    # offsets no test could draw through: rows 2^40 + 3 on are rows 3 on of
    # a call at 2^40
    far = mc._uniform_rows(58, 8, 2**40, 10)
    assert mc._uniform_rows(58, 8, 2**40 + 3, 7).tobytes() == far[3:].tobytes()


def test_uniform_rows_of_the_largest_seed_are_finite_and_inside_the_unit_interval():
    u = mc._uniform_rows((1 << 64) - 1, 4, 0, 1000)
    assert np.all(np.isfinite(u)) and np.all(u >= mc._U_FLOOR) and np.all(u < 1.0)


def _edge_uniforms() -> np.ndarray:
    # 2e5 uniforms of the sampler's own stream, and both tails at every
    # power of two down to the floor 2^-53
    k = np.arange(1, 54, dtype=np.float64)
    return np.concatenate([mc._uniform_rows(2024, 4, 0, 200_000)[:, 0],
                           2.0 ** -k, 1.0 - 2.0 ** -k])


@pytest.mark.parametrize("ms", [1.0 + 1e-9, 1.0001, 1.05, 1.3, 2.6, 4.0, 11.7, 60.0,
                                1e3, 1e5, 1e6])
def test_shadowing_table_matches_gammaincinv(ms):
    # the quantile table plus one Halley step against a gammaincinv call per
    # draw, over the bulk and both tails down to the uniforms' floor
    u = _edge_uniforms()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = mc._shadowing(ms)(u)
    want = (ms - 1.0) / sc.gammaincinv(ms, u)
    assert np.max(np.abs(got / want - 1.0)) <= 1e-13
    z = sample_inv_nakagami_sq(ms, 4000, 3)
    u3 = mc._uniform_rows(3, 4, 0, 4000)[:, 0]
    assert np.max(np.abs(z / ((ms - 1.0) / sc.gammaincinv(ms, u3)) - 1.0)) <= 1e-13


_TABLE_RANGE = [1.0 + 1e-9, 1.0001, 1.05, 1.3, 2.6, 4.0, 11.7, 60.0, 1e3, 1e5,
                mc._TABLE_MS_MAX]


def _no_incomplete_gamma(monkeypatch):
    # every incomplete gamma function and inverse of scipy.special refuses
    for name in ("gammainc", "gammaincc", "gammaincinv", "gammainccinv"):
        monkeypatch.setattr(sc, name, lambda *args, _name=name: pytest.fail(_name))


@pytest.mark.parametrize("ms", _TABLE_RANGE)
def test_table_draws_are_within_2_5e_14_of_gammaincinv_and_call_no_incomplete_gamma(
        ms, monkeypatch):
    u = _edge_uniforms()
    want = (ms - 1.0) / sc.gammaincinv(ms, u)
    z2 = mc._shadowing(ms)
    _no_incomplete_gamma(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = z2(u)
    assert np.max(np.abs(got / want - 1.0)) <= 2.5e-14


def _mp_quantile(ms, u):
    # x with P(ms, x) = u, or Q(ms, x) = 1 - u above the median, to 30 digits
    a = mpmath.mpf(ms)
    if u <= 0.5:
        gap = lambda x: mpmath.gammainc(a, 0, x, regularized=True) - u
    else:
        gap = lambda x: mpmath.gammainc(a, x, mpmath.inf, regularized=True) - (1.0 - u)
    return mpmath.findroot(gap, mpmath.mpf(sc.gammaincinv(ms, u)), tol=mpmath.mpf(10) ** -28)


@pytest.mark.parametrize("ms", [1.05, 4.0, 60.0, 2e5])
def test_table_draws_match_an_mpmath_quantile(ms):
    u = np.array([2.0 ** -50, 1e-3, 0.655, 1.0 - 1e-6, 1.0 - 2.0 ** -50])
    got = mc._shadowing(ms)(u)
    with mpmath.workdps(30):
        want = [(ms - 1.0) / _mp_quantile(ms, float(ui)) for ui in u]
        err = max(abs(float(g / w - 1)) for g, w in zip(got, want))
    assert err <= 2.5e-14


@pytest.mark.parametrize("ms", [1.05, 4.0, 1e5])
def test_table_draws_do_not_depend_on_the_other_uniforms(ms):
    # a slice, and each single uniform, give the full array's bytes
    u = _edge_uniforms()
    z2 = mc._shadowing(ms)
    full = z2(u)
    assert z2(u[1000:1777]).tobytes() == full[1000:1777].tobytes()
    picks = [0, 1, 4321, u.size - 60, u.size - 1]
    singles = np.concatenate([z2(u[i : i + 1]) for i in picks])
    assert singles.tobytes() == full[picks].tobytes()


def test_shadowing_switches_route_at_the_table_limit(monkeypatch):
    # up to _TABLE_MS_MAX the Taylor table, past it a gammaincinv call a draw
    top = mc._TABLE_MS_MAX
    u = _edge_uniforms()
    below = float(np.nextafter(top, 0.0))
    above = float(np.nextafter(top, math.inf))
    want = {ms: (ms - 1.0) / sc.gammaincinv(ms, u) for ms in (below, top, above)}
    assert mc._shadowing(above)(u).tobytes() == want[above].tobytes()
    tables = {ms: mc._shadowing(ms) for ms in (below, top)}
    _no_incomplete_gamma(monkeypatch)
    for ms, z2 in tables.items():
        assert np.max(np.abs(z2(u) / want[ms] - 1.0)) <= 2.5e-14
    with pytest.raises(pytest.fail.Exception, match="gammaincinv"):
        mc._shadowing(above)(u)


@pytest.mark.parametrize("sampler", ["inv_nakagami", "aef", "akf"])
def test_shadowing_table_is_built_once_per_shape(phys_aef, phys_akf, sampler, monkeypatch):
    # the first call at a shape builds its table; later calls at that shape,
    # a 13-chunk partition among them, reuse it and call no incomplete gamma,
    # while another shape builds a table of its own
    draw = {
        "inv_nakagami": lambda ms, n, start: sample_inv_nakagami_sq(ms, n, 47, start=start),
        "aef": lambda ms, n, start: sample_aef_envelope(replace(phys_aef, ms=ms), n, 47,
                                                        start=start),
        "akf": lambda ms, n, start: sample_akf_envelope(replace(phys_akf, ms=ms), n, 47,
                                                        start=start),
    }[sampler]
    n = 5000
    full = draw(4.0, n, 0)
    _no_incomplete_gamma(monkeypatch)
    assert draw(4.0, n, 0).tobytes() == full.tobytes()
    edges = np.linspace(0, n, 14).astype(int)
    parts = [draw(4.0, int(b - a), int(a)) for a, b in zip(edges[:-1], edges[1:])]
    assert np.concatenate(parts).tobytes() == full.tobytes()
    with pytest.raises(pytest.fail.Exception, match="gammaincinv"):
        draw(6.5, n, 0)
    monkeypatch.undo()
    assert draw(6.5, n, 0).tobytes() != full.tobytes()
    assert mc._shadowing.cache_info().currsize == 2
    assert mc._shadowing(6.5) is not mc._shadowing(4.0)


def test_memoized_shadowing_table_is_read_only():
    # every call at a shape shares its table, so no caller may write into it
    z2 = mc._shadowing(4.0)
    table = inspect.getclosurevars(z2).nonlocals
    for name in ("nodes", "coef"):
        with pytest.raises(ValueError, match="read-only"):
            table[name][0] = 0.0
    assert mc._shadowing(4.0) is z2


@pytest.mark.parametrize("ms", [1e6, float(np.nextafter(1e6, math.inf)), 1e7, 1e12, 1e15,
                                1e30, 1.1236060626000868e32, 6.148464249434844e32,
                                3.364489911980192e33, 1e100, 1e200, 1e300])
def test_shadowing_at_huge_ms_is_finite_and_matches_in_the_bulk(ms):
    # no NaN, overflow or RuntimeWarning at any ms; in the bulk the draws are
    # gammaincinv's, whichever route the shadowing takes. At the three shapes
    # near 1e32-1e33 a Taylor table overflows in the upper tail, as
    # _ln_x_gamma_pdf's ms ((q - 1) - ln q) loses its digits at q within a
    # few ulps of 1, so the shadowing keeps gammaincinv above _TABLE_MS_MAX
    u = _edge_uniforms()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = mc._shadowing(ms)(u)
        z = sample_inv_nakagami_sq(ms, 2000, 8)
        r = sample_akf_envelope(make_phys(AkfParams(alpha=2.5, kappa=1.5, mu=2.0, ms=ms)),
                                2000, 8)
    assert np.all(np.isfinite(got)) and np.all(got > 0.0)
    assert np.all(np.isfinite(z)) and np.all(np.isfinite(r))
    bulk = (u >= 0.01) & (u <= 0.99)
    want = (ms - 1.0) / sc.gammaincinv(ms, u[bulk])
    assert np.max(np.abs(got[bulk] / want - 1.0)) <= 1e-13


@pytest.mark.parametrize("sampler", ["inv_nakagami", "aef", "akf"])
def test_partitions_across_the_block_edge_are_byte_identical(phys_aef, phys_akf, sampler):
    # one stream past the first _CHUNK_ROWS block against a call that starts
    # 3 rows before the block edge and against single-draw calls around it:
    # each call builds its shadowing table from ms alone
    draw = {
        "inv_nakagami": lambda n, start: sample_inv_nakagami_sq(4.0, n, 61, start=start),
        "aef": lambda n, start: sample_aef_envelope(phys_aef, n, 61, start=start),
        "akf": lambda n, start: sample_akf_envelope(phys_akf, n, 61, start=start),
    }[sampler]
    edge = mc._CHUNK_ROWS
    full = draw(edge + 5, 0)
    assert draw(8, edge - 3).tobytes() == full[edge - 3 :].tobytes()
    singles = np.concatenate([draw(1, i) for i in range(edge - 3, edge + 5)])
    assert singles.tobytes() == full[edge - 3 :].tobytes()


def test_cross_family_byte_identity():
    # Balanced eta with mu cluster pairs is physically the same channel
    # as zero-offset kappa fading with 2 mu clusters; the stream layout
    # is aligned so the draws agree byte for byte.
    pa = make_phys(AefParams(alpha=2.5, eta=1.0, mu=1.0, ms=4.0))
    pk = make_phys(AkfParams(alpha=2.5, kappa=0.0, mu=2.0, ms=4.0))
    a = sample_aef_envelope(pa, 2000, 31)
    k = sample_akf_envelope(pk, 2000, 31)
    assert a.tobytes() == k.tobytes()


def test_format_byte_identity():
    # Format I at eta = 1 and Format II at eta = 0 are the same physical
    # configuration.
    p1 = make_phys(AefParams(alpha=2.2, eta=1.0, mu=2.0, ms=5.0))
    p2 = make_phys(AefParams(alpha=2.2, eta=0.0, mu=2.0, ms=5.0, format=Format.FORMAT_II))
    a = sample_aef_envelope(p1, 2000, 17)
    b = sample_aef_envelope(p2, 2000, 17)
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("d", [0.0, 0.6, 2.5])
@pytest.mark.parametrize("k", [1, 3])
def test_pair_powers_are_chi_square_with_two_degrees_of_freedom(k, d):
    # a pair's power over sigma^2 is chi-square with two degrees of freedom,
    # noncentral with d^2/sigma^2 where the cluster has an offset d; k pairs
    # with the offset on the first sum to chi-square with 2k
    sigma2 = 1.7
    u = mc._uniform_rows(404, 4, 0, 100_000)
    s = mc._power_sum(u[:, :k], -2.0 * sigma2, d, u[:, k : k + 1]) / sigma2
    law = stats.chi2(2 * k) if d == 0.0 else stats.ncx2(2 * k, d * d / sigma2)
    assert stats.kstest(s, law.cdf).statistic <= ks_threshold(s.size)


def test_pair_powers_at_the_edges_of_the_uniforms_are_positive_and_finite():
    # both radius tails by each edge of the angle, with offsets equal to each
    # radius, where (R - d)^2 is 0 and cos^2(pi v) is smallest at v = 1/2
    c = -2.0 * 1.3
    u, v = (a.reshape(-1, 1) for a in np.meshgrid([2.0 ** -53, 1.0 - 2.0 ** -53],
                                                    [0.0, 0.5, 1.0 - 2.0 ** -53]))
    radii = np.sqrt(np.log(u[:2, 0]) * c)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for d in (0.0, 1.0, *radii):
            s = mc._power_sum(u, c, d, v)
            assert np.all(np.isfinite(s)) and np.all(s > 0.0), d


def test_samplers_call_no_ndtri(phys_aef, phys_akf, monkeypatch):
    monkeypatch.setattr(sc, "ndtri", lambda *args: pytest.fail("ndtri"))
    for sample, p in (
        (sample_aef_envelope, phys_aef),
        (sample_aef_envelope, make_phys(AefParams(alpha=1.7, eta=-0.6, mu=3.0, ms=2.5,
                                                  format=Format.FORMAT_II))),
        (sample_akf_envelope, phys_akf),
        (sample_akf_envelope, make_phys(AkfParams(alpha=2.5, kappa=0.0, mu=2.0, ms=4.0))),
    ):
        r = sample(p, 1000, 9)
        assert np.all(np.isfinite(r)) and np.all(r > 0.0)


def test_make_phys_field_mapping(phys_aef, phys_akf):
    assert (phys_aef.sigma_x2, phys_aef.sigma_y2) == pytest.approx((0.4, 1.0))
    assert phys_aef.mu_int == 2
    # Format II's halves are (X +- Y)/sqrt(2), of variances sigma^2 (1 +- eta)
    p2 = make_phys(AefParams(alpha=2.5, eta=-0.6, mu=2.0, ms=4.0, format=Format.FORMAT_II))
    assert (p2.sigma_x2, p2.sigma_y2) == pytest.approx((0.4, 1.6))
    assert phys_akf.mu_int == 2 and phys_akf.sigma2 == 1.0
    # kappa = d^2 / (2 mu sigma^2)
    assert rel_err(phys_akf.d2 / (2 * 2 * phys_akf.sigma2), 1.5) <= 1e-12


@pytest.mark.parametrize("params", [
    AefParams(alpha=2.5, eta=0.4, mu=2.0, ms=4.0),
    AefParams(alpha=1.7, eta=-0.6, mu=3.0, ms=2.5, format=Format.FORMAT_II),
    AkfParams(alpha=3.0, kappa=1.5, mu=3.0, ms=5.0),
], ids=["aef-I", "aef-II", "akf"])
@pytest.mark.parametrize("power_target", [None, 2.7])
def test_make_phys_builds_each_field_from_one_scale(params, power_target):
    # every field of the physical model, built by hand from the unit-scale
    # configuration and the scale that meets power_target, and the draws
    # they give, bit for bit
    mu_int = int(params.mu)
    s2 = 1.0
    if power_target is not None:
        unit = make_phys(params)
        s2 = (power_target / envelope_sq_mean(unit)) ** (0.5 * params.alpha)
    if isinstance(params, AkfParams):
        # the dominant power split uniformly, p_i = q_i = sqrt(kappa s2)
        means = [math.sqrt(params.kappa * s2)] * mu_int
        d2 = sum(p * p for p in means) + sum(q * q for q in means)
        want = PhysAkf(alpha=params.alpha, mu_int=mu_int, ms=params.ms, sigma2=s2, d2=d2)
        sample = sample_akf_envelope
    else:
        eta = params.eta
        halves = ((eta * s2, s2) if params.format is Format.FORMAT_I
                  else (s2 * (1.0 + eta), s2 * (1.0 - eta)))
        want = PhysAef(params.alpha, mu_int, params.ms, *halves)
        sample = sample_aef_envelope
    got = make_phys(params, power_target=power_target)
    assert type(got) is type(want)
    for name in got.__dataclass_fields__:
        assert getattr(got, name) == getattr(want, name), name
    assert sample(got, 512, 5).tobytes() == sample(want, 512, 5).tobytes()
    if power_target is not None:
        assert rel_err(envelope_sq_mean(got), power_target) <= 1e-12


def test_make_phys_rejects_fractional_mu():
    with pytest.raises(DomainError, match="integer mu"):
        make_phys(AefParams(alpha=2.0, eta=1.0, mu=0.5, ms=4.0))
    with pytest.raises(DomainError, match="integer mu"):
        make_phys(AkfParams(alpha=2.0, kappa=1.0, mu=1.2, ms=4.0))


_PHYS_BASES = {
    "PhysAef": (PhysAef, dict(alpha=2.0, mu_int=1, ms=4.0, sigma_x2=0.5, sigma_y2=1.0)),
    "PhysAkf": (PhysAkf, dict(alpha=2.0, mu_int=1, ms=4.0, sigma2=1.0, d2=1.0)),
}
_OFF_RANGE = [0.0, -1.0, math.inf, math.nan]


@pytest.mark.parametrize("model,name,value", [
    *[(m, "mu_int", v) for m in _PHYS_BASES for v in (0, -1, 2.0, 1.5, "1", None)],
    *[("PhysAef", name, v) for name in ("sigma_x2", "sigma_y2") for v in _OFF_RANGE],
    *[("PhysAkf", "sigma2", v) for v in _OFF_RANGE],
    *[("PhysAkf", "d2", v) for v in (-1e-300, -1.0, math.inf, math.nan)],
])
def test_physical_model_rejects_each_field_outside_its_range(model, name, value):
    # non-finite variances and offsets drew NaN or inf envelopes, and a float
    # mu_int (2.0) passed, then raised a bare TypeError in the alpha-kappa-F
    # sampler's PCG64.advance; numpy integers pass as Python ones do
    cls, base = _PHYS_BASES[model]
    cls(**base)  # the base is valid
    cls(**{**base, "mu_int": np.int64(2)})
    with pytest.raises(DomainError):
        cls(**{**base, name: value})


_SHAPE_ENTRY_POINTS = {
    "sample_inv_nakagami_sq": lambda ms=4.0: sample_inv_nakagami_sq(ms, 3, 1),
    "PhysAef": lambda alpha=2.0, ms=4.0: PhysAef(**{**_PHYS_BASES["PhysAef"][1],
                                                  "alpha": alpha, "ms": ms}),
    "PhysAkf": lambda alpha=2.0, ms=4.0: PhysAkf(**{**_PHYS_BASES["PhysAkf"][1],
                                                  "alpha": alpha, "ms": ms}),
}


@pytest.mark.parametrize("entry,name", [
    ("sample_inv_nakagami_sq", "ms"),
    ("PhysAef", "alpha"), ("PhysAef", "ms"),
    ("PhysAkf", "alpha"), ("PhysAkf", "ms"),
])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_physical_model_rejects_non_finite_shape(entry, name, value):
    # the same finite-shape rule as the analytical parameter classes; ms = inf
    # used to give all-NaN shadowing draws
    _SHAPE_ENTRY_POINTS[entry]()  # the defaults are valid
    with pytest.raises(DomainError):
        _SHAPE_ENTRY_POINTS[entry](**{name: value})


def test_seed_range_validation(phys_aef):
    with pytest.raises(DomainError):
        sample_aef_envelope(phys_aef, 10, -1)
    with pytest.raises(DomainError):
        sample_aef_envelope(phys_aef, 10, 1 << 64)
    # largest valid seed works
    r = sample_aef_envelope(phys_aef, 2, (1 << 64) - 1)
    assert np.all(np.isfinite(r))


@pytest.mark.parametrize("sampler", ["inv_nakagami", "aef", "akf"])
@pytest.mark.parametrize("name", ["n", "seed", "start"])
@pytest.mark.parametrize("value", [1.5, 2.0])
def test_samplers_take_only_integer_counts_seeds_and_starts(phys_aef, phys_akf, sampler,
                                                           name, value):
    # a seed of 1.5 drew seed 1's stream, and a fractional n or start raised a
    # TypeError from numpy; numpy integers pass as Python ones do
    draw = {
        "inv_nakagami": lambda **kw: sample_inv_nakagami_sq(4.0, **kw),
        "aef": lambda **kw: sample_aef_envelope(phys_aef, **kw),
        "akf": lambda **kw: sample_akf_envelope(phys_akf, **kw),
    }[sampler]
    args = dict(n=3, seed=2, start=1)
    with pytest.raises(DomainError, match="must be integers"):
        draw(**{**args, name: value})
    want = draw(**args)
    assert draw(**{**args, name: np.int64(args[name])}).tobytes() == want.tobytes()


def test_inv_nakagami_sq_mean():
    # E[Z^2] = 1 by construction for any ms > 1.
    z = sample_inv_nakagami_sq(4.0, 200000, 99)
    assert abs(z.mean() - 1.0) <= 0.01
    assert np.all(z > 0.0)


def test_analytic_moments_exact_values(phys_aef, phys_akf):
    # Sum power: Format I gives 2 mu (sx^2 + sy^2); uniform offsets give
    # 2 mu sigma^2 (1 + kappa) for the kappa family.
    assert rel_err(envelope_alpha_mean(phys_aef), 2 * 2 * 1.4) <= 1e-12
    assert rel_err(envelope_alpha_mean(phys_akf), 2 * 2 * 1.0 * 2.5) <= 1e-12


def test_moments_match_simulation(phys_aef, phys_akf):
    n = 200000
    ra = sample_aef_envelope(phys_aef, n, 5)
    rk = sample_akf_envelope(phys_akf, n, 5)
    assert rel_err(np.mean(ra ** 2.5), envelope_alpha_mean(phys_aef)) <= 0.02
    assert rel_err(np.mean(ra ** 2), envelope_sq_mean(phys_aef)) <= 0.02
    assert rel_err(np.mean(rk ** 2.5), envelope_alpha_mean(phys_akf)) <= 0.02
    assert rel_err(np.mean(rk ** 2), envelope_sq_mean(phys_akf)) <= 0.02


@pytest.mark.parametrize("params", [
    AefParams(alpha=2.5, eta=0.5, mu=1.0, ms=4.0),
    AkfParams(alpha=2.5, kappa=1.5, mu=1.0, ms=4.0),
])
@pytest.mark.parametrize("power_target", [math.inf, math.nan, 0.0, -1.0])
def test_make_phys_rejects_a_power_target_that_is_not_positive_and_finite(params,
                                                                         power_target):
    with pytest.raises(DomainError, match="power_target"):
        make_phys(params, power_target=power_target)


@pytest.mark.parametrize("family", [["aef", "--eta", "0.5"], ["akf", "--kappa", "1.5"]])
def test_sample_cli_rejects_an_infinite_omega(family, cli_main):
    # it printed inf (aef) or nan with a RuntimeWarning (akf) and exited 0
    r = cli_main("sample", "--dist", *family, "--alpha", "2.5", "--mu", "1", "--ms", "4",
                "--n", "3", "--seed", "1", "--omega", "inf")
    assert r.returncode == 1
    assert r.stdout == b""
    assert b"power_target" in r.stderr


def test_power_target_rescales_exactly():
    p = make_phys(AkfParams(alpha=2.5, kappa=1.5, mu=2.0, ms=4.0), power_target=2.0)
    assert rel_err(envelope_sq_mean(p), 2.0) <= 1e-12


def test_empirical_dist_sorts():
    e = EmpiricalDist.from_samples(np.array([3.0, 1.0, 2.0]))
    assert list(e.samples) == [1.0, 2.0, 3.0]
    assert e.n == 3
    with pytest.raises(DomainError):
        EmpiricalDist.from_samples(np.array([]))


@pytest.mark.parametrize("samples, n", [
    (np.array([3.0, 1.0, 2.0]), 3),  # unsorted: its KS distance would read 0.75
    (np.array([1.0, 2.0, 3.0]), 5),
    (np.array([1.0, np.nan, 3.0]), 3),
    (np.array([1.0, 2.0, np.nan]), 3),
    (np.array([np.nan]), 1),
    (np.array([[1.0, 2.0]]), 2),
    (np.array([]), 0),
], ids=["unsorted", "n-not-size", "nan-inside", "nan-last", "nan-alone", "2-d", "empty"])
def test_empirical_dist_checks_its_fields(samples, n):
    with pytest.raises(DomainError):
        EmpiricalDist(samples=samples, n=n)


def test_ks_distance_refuses_a_cdf_of_another_shape():
    e = EmpiricalDist.from_samples(np.array([1.0, 2.0, 3.0]))
    with pytest.raises(DomainError):
        ks_distance(e, lambda x: 0.5)


def test_ks_distance_hand_computed():
    # Samples [1, 2, 3] against F(x) = x / 4: the largest deviation is
    # F(1) - 0/3 = 0.25.
    e = EmpiricalDist.from_samples(np.array([1.0, 2.0, 3.0]))
    d = ks_distance(e, lambda x: x / 4.0)
    assert abs(d - 0.25) <= 1e-15


def test_ks_distance_perfect_fit_is_small():
    n = 2000
    u = (np.arange(n) + 0.5) / n
    e = EmpiricalDist.from_samples(u)
    d = ks_distance(e, lambda x: np.clip(x, 0.0, 1.0))
    assert d <= 1.0 / n


def test_ks_threshold_values():
    assert rel_err(ks_threshold(10 ** 6), 1.2 * 1.63 / 1000.0) <= 1e-12
    assert ks_threshold(10 ** 6) < 0.002
