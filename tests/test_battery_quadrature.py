"""The battery's array quadrature (validation._integrate) on integrals with
known values, against scipy.integrate.quad on the heavy-tailed mean
integrals, and inside the checks it serves: a budget that runs out and a
density off by 1e-6 must both fail. The checks integrate all their grid
cells in one mesh: each cell as it would alone, a failing cell without
touching the others, with one density lanes call per family and round."""

import dataclasses
import json
import math

import numpy as np
import pytest
from scipy import integrate, special

from compfade import AefDist, AefParams, AkfDist, AkfParams, ConvergenceError
from compfade import AefEnvelope, AkfEnvelope
from compfade import validation as V
from compfade.series import Law, SeriesControl

EXACT_TOL = 1e-13


def _f_density(d1, d2):
    """Fisher-Snedecor F(d1, d2) density with its closed-form normalizer."""
    ln_norm = 0.5 * d1 * math.log(d1 / d2) - special.betaln(0.5 * d1, 0.5 * d2)

    def pdf(x):
        return np.exp(ln_norm + (0.5 * d1 - 1.0) * np.log(x)
                      - 0.5 * (d1 + d2) * np.log1p(d1 * x / d2))

    return pdf


@pytest.mark.parametrize("k", range(32))
def test_kronrod_rule_integrates_monomials_exactly(k):
    # the 21-point Kronrod rule is exact to degree 31, and its Gauss subset
    # (every second node, with the 10-point weights) to degree 19
    exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
    assert abs(V._K21_WEIGHTS @ V._K21_NODES**k - exact) <= 1e-15
    if k <= 19:
        assert abs(V._G10_WEIGHTS @ V._K21_NODES[1::2]**k - exact) <= 1e-15


def test_kronrod_rule_embeds_the_ten_point_gauss_rule():
    nodes, weights = special.roots_legendre(10)
    assert V._K21_NODES.size == 21 and np.all(np.diff(V._K21_NODES) > 0)
    np.testing.assert_allclose(V._K21_NODES[1::2], nodes, rtol=0, atol=1e-15)
    np.testing.assert_allclose(V._G10_WEIGHTS, weights, rtol=0, atol=1e-15)


def test_power_with_an_integrable_singularity_at_zero():
    total, at = V._integrate(lambda x: x**-0.4, 1.0, -0.4, marks=(0.01, 0.3, 1.0))
    assert total == pytest.approx(1.0 / 0.6, rel=EXACT_TOL)
    np.testing.assert_allclose(at, np.array([0.01, 0.3, 1.0]) ** 0.6 / 0.6, rtol=EXACT_TOL)


@pytest.mark.parametrize("d1,d2", [(1.0, 2.2), (0.3, 7.0), (4.0, 0.5), (10.0, 30.0)])
def test_f_density_integrates_to_one_with_its_cdf_at_the_marks(d1, d2):
    pdf = _f_density(d1, d2)
    head_exp, tail_decay = 0.5 * d1 - 1.0, 0.5 * d2 + 1.0
    total, _ = V._integrate(pdf, 1.0, head_exp, tail_decay)
    assert abs(total - 1.0) <= EXACT_TOL
    marks = np.geomspace(0.05, 8.0, 10)
    _, at = V._integrate(pdf, marks[-1], head_exp, marks=marks)
    np.testing.assert_allclose(at, special.fdtr(d1, d2, marks), rtol=0, atol=EXACT_TOL)


@pytest.mark.parametrize("d2", [2.1, 2.02])
def test_f_mean_with_its_tail_past_1e100_from_the_remainder(d2):
    # x f(x) ~ x^-(d2/2): 1.1e-5 of the mean d2/(d2 - 2) at d2 = 2.1, a
    # tenth of it at d2 = 2.02, lies beyond x = 1e100, where the mesh stops
    # and the analytic remainder takes over
    pdf = _f_density(1.0, d2)
    mean, _ = V._integrate(lambda x: x * pdf(x), 1.0, 0.5, 0.5 * d2)
    assert mean == pytest.approx(d2 / (d2 - 2.0), rel=EXACT_TOL)


def _quad_mean(p):
    """Mean integral of the density at p by adaptive scalar quadrature, with
    the substitutions of _integrate."""
    _, pdf, head_exp = V._snr_pdf_fn(p)
    tail_decay = 0.5 * p.alpha * p.ms
    pk = max(1.0, 1.6 / (2.0 + head_exp))
    q = max(1.0, 1.6 / (tail_decay - 1.0))
    head, _ = integrate.quad(lambda t: t**pk * pdf(t**pk) * pk * t ** (pk - 1.0),
                             0.0, 1.0, **V._QUAD_OPTS)
    tail, _ = integrate.quad(lambda u: u**-q * pdf(u**-q) * q * u ** (-q - 1.0),
                             0.0, 1.0, **V._QUAD_OPTS)
    return head + tail


HEAVY_TAILS = [
    family(alpha=1.0, mu=mu, ms=2.1, **{shape: value})
    for family, shape, values in ((AefParams, "eta", V.VALIDATION_ETAS),
                                  (AkfParams, "kappa", V.VALIDATION_KAPPAS))
    for value in values
    for mu in V.VALIDATION_MUS
]


@pytest.mark.parametrize("p", HEAVY_TAILS, ids=[V._tag(p) for p in HEAVY_TAILS])
def test_heavy_tailed_means_agree_with_scalar_quadrature(p):
    _, pdf, head_exp = V._snr_pdf_fn(p)
    mean, _ = V._integrate(lambda g: g * pdf(g), 1.0, head_exp + 1.0, 0.5 * p.alpha * p.ms)
    assert abs(mean - _quad_mean(p)) <= 1e-12


def _ripple(x):
    """1 + 1e-3 sin(1e5 x): its panels would have to be about 1e-5 wide."""
    return 1.0 + 1e-3 * np.sin(1e5 * x)


def test_an_unresolvable_integrand_runs_the_budget_out():
    with pytest.raises(ConvergenceError, match="panels pending"):
        V._integrate(_ripple, 1.0, 0.0)


def test_a_non_finite_integrand_is_refused():
    with pytest.raises(ConvergenceError, match="not finite"):
        V._integrate(lambda x: np.where(x < 0.5, np.nan, 1.0), 1.0, 0.0)


GRID = [AefParams(alpha=2.0, eta=0.2, mu=1.0, ms=5.0),
        AkfParams(alpha=1.0, kappa=5.0, mu=0.5, ms=2.1)]


def _patched_density(monkeypatch, change):
    """Make the checks integrate change(pdf) in place of each density."""
    fn = V._grid_pdf

    def patched(laws):
        pdf = fn(laws)

        def changed(x, cell):
            values, errors = pdf(x, cell)
            return change(lambda g: values)(x), errors

        return changed

    monkeypatch.setattr(V, "_grid_pdf", patched)


def test_budget_run_out_fails_the_check_with_a_detail(monkeypatch):
    _patched_density(monkeypatch, lambda pdf: lambda g: pdf(g) * _ripple(g))
    for check in (V.check_normalization, V.check_mean, V.check_cdf):
        results = [c for c in check(GRID) if not c.name.startswith(("cdf-closed", "cdf-ncf"))]
        assert len(results) == len(GRID)
        for c in results:
            assert not c.passed and math.isnan(c.measured)
            assert "panels pending" in c.detail


def test_normalization_catches_a_density_off_by_1e_6(monkeypatch):
    assert all(c.passed for c in V.check_normalization(GRID))
    _patched_density(monkeypatch, lambda pdf: lambda g: pdf(g) * (1.0 + 1e-6))
    results = V.check_normalization(GRID)
    assert not any(c.passed for c in results)
    assert all(c.measured == pytest.approx(1e-6, rel=1e-6) for c in results)


def test_quadrature_checks_are_json_ready():
    # the report is written with json.dumps: no numpy scalars in a Check
    checks = V.check_normalization(GRID) + V.check_mean(GRID) + V.check_cdf(GRID)
    assert any(c.name.startswith("cdf-closed") for c in checks)
    json.dumps([dataclasses.asdict(c) for c in checks])


# --- the grid mesh: all cells of a check in one _integrate call -------------

STANDARD = V._standard_grids()


def _solo(check, p):
    """The measured value of check at p from a one-cell _integrate call."""
    d, pdf, head_exp = V._snr_pdf_fn(p)
    if check is V.check_normalization:
        return abs(V._integrate(pdf, 1.0, head_exp, 1.0 + 0.5 * p.alpha * p.ms)[0] - 1.0)
    if check is V.check_mean:
        return abs(V._integrate(lambda g: g * pdf(g), 1.0, head_exp + 1.0,
                                0.5 * p.alpha * p.ms)[0] - 1.0)
    series = d.snr_cdf(V._CDF_POINTS).value
    at = V._integrate(pdf, V._CDF_POINTS[-1], head_exp, marks=V._CDF_POINTS)[1]
    return float(np.max(np.abs(series - at)))


@pytest.mark.parametrize("check", [V.check_normalization, V.check_mean, V.check_cdf])
def test_each_cell_of_the_mesh_measures_as_it_does_alone(check):
    prefix = {V.check_normalization: "norm-", V.check_mean: "mean-",
              V.check_cdf: "cdf-quad-"}[check]
    results = [c for c in check() if c.name.startswith(prefix)]
    assert len(results) == len(STANDARD) == 162
    for c, p in zip(results, STANDARD):
        assert c.passed
        assert abs(c.measured - _solo(check, p)) <= 1e-15, c.name


def _cells(f_bad, bad):
    """An integrand of three F densities (cells 0-2) in which cell bad is
    f_bad instead."""
    pdfs = [_f_density(1.0, 2.2), _f_density(0.3, 7.0), _f_density(10.0, 30.0)]

    def f(x, cell):
        values = np.empty(x.shape)
        for c, pdf in enumerate(pdfs):
            lanes = cell == c
            values[lanes] = (f_bad if c == bad else pdf)(x[lanes])
        return values, {}

    return f


HEADS = np.array([-0.5, -0.85, 4.0])
TAILS = np.array([2.1, 4.5, 16.0])


@pytest.mark.parametrize("f_bad,detail", [
    (lambda x: np.where(x < 0.5, np.nan, 1.0), "not finite"),
    (_ripple, "panels pending"),
])
def test_a_failing_cell_fails_alone(f_bad, detail):
    good, _, errors = V._integrate(_cells(None, None), 1.0, HEADS, TAILS)
    assert not errors
    np.testing.assert_allclose(good, 1.0, rtol=0, atol=EXACT_TOL)
    totals, _, errors = V._integrate(_cells(f_bad, 1), 1.0, HEADS, TAILS)
    assert list(errors) == [1] and detail in str(errors[1])
    assert math.isnan(totals[1])
    assert totals[0] == good[0] and totals[2] == good[2]


def test_an_integrand_error_fails_its_cell_with_its_message():
    f = _cells(None, None)
    marks = np.geomspace(0.05, 8.0, 10)

    def failing(x, cell):
        values, _ = f(x, cell)
        return values, {2: ConvergenceError("snr_pdf: the series did not converge")}

    _, good, _ = V._integrate(f, 8.0, HEADS, marks=marks)
    _, at, errors = V._integrate(failing, 8.0, HEADS, marks=marks)
    assert list(errors) == [2] and "did not converge" in str(errors[2])
    assert np.isnan(at[2]).all()
    np.testing.assert_array_equal(at[:2], good[:2])


def test_normalization_makes_one_lanes_call_per_family_and_round(monkeypatch):
    calls = {AefDist: 0, AkfDist: 0}
    for cls in calls:
        form = cls._pdf_form

        def counted(*args, _cls=cls, _form=form):
            calls[_cls] += 1
            return _form(*args)

        monkeypatch.setattr(cls, "_pdf_form", staticmethod(counted))
    rounds = []
    grid_pdf = V._grid_pdf

    def counted_grid(laws):
        pdf = grid_pdf(laws)

        def f(x, cell):
            rounds.append(x.size)
            return pdf(x, cell)

        return f

    monkeypatch.setattr(V, "_grid_pdf", counted_grid)
    assert all(c.passed for c in V.check_normalization())
    assert 0 < len(rounds) <= V._ROUNDS
    assert 0 < calls[AefDist] <= len(rounds) and 0 < calls[AkfDist] <= len(rounds)
    # 21 density evaluations a panel (G10 nodes shared with K21): 75,004
    # over the standard grids; 30 a panel, as two separate Gauss rules
    # take, gives 106,936
    assert sum(rounds) < 80_000


MIXED = [
    AefParams(alpha=2.0, eta=0.2, mu=1.0, ms=5.0),
    AefParams(alpha=3.5, eta=5.0, mu=2.5, ms=30.0),
    AefParams(alpha=1.0, eta=0.4, mu=0.5, ms=80.0, format=V.Format.FORMAT_II),
    AefParams(alpha=2.5, eta=1.0, mu=0.7, ms=2.1),
    AkfParams(alpha=2.0, kappa=0.1, mu=1.0, ms=5.0),
    AkfParams(alpha=1.0, kappa=5.0, mu=0.5, ms=2.1),
    AkfParams(alpha=3.5, kappa=1.0, mu=2.5, ms=120.0),
    AkfParams(alpha=2.0, kappa=0.0, mu=1.5, ms=3.0),
]


@pytest.mark.parametrize("family", [AefDist, AkfDist])
@pytest.mark.parametrize("power", [1.0, 2.0])
def test_stacked_lanes_equal_one_law_lanes_bit_for_bit(family, power):
    # one cell per family has ms > 50 and takes the scalar kernel lane by lane
    params = [p for p in MIXED if isinstance(p, AefParams) == (family is AefDist)]
    laws = [family(p, 1.0) for p in params]
    x = np.geomspace(1e-6, 1e3, 31)
    which = np.repeat(np.arange(len(laws)), x.size)
    rng = np.random.default_rng(5)
    order = rng.permutation(which.size)
    stacked, errors = Law._densities(laws, "snr_pdf", "gamma", np.tile(x, len(laws))[order],
                                     which[order], power)
    assert not errors
    for i, (p, law) in enumerate(zip(params, laws)):
        if power == 1.0:
            alone = law.snr_pdf(x)
        else:
            alone = (AefEnvelope if family is AefDist else AkfEnvelope)(p, 1.0).envelope_pdf(x)
        np.testing.assert_array_equal(stacked[np.argsort(order)][which == i], alone)
        if p.ms > 50.0 and power == 1.0:
            assert alone.tolist() == [law.snr_pdf(float(g)) for g in x]


@pytest.mark.parametrize("power", [1.0, 2.0])
def test_mixed_families_equal_one_family_calls_bit_for_bit(power):
    # aef and akf laws interleaved, one law of each family with ms > 50
    aef = [AefDist(p, 1.0) for p in MIXED if isinstance(p, AefParams)]
    akf = [AkfDist(p, 1.0) for p in MIXED if isinstance(p, AkfParams)]
    laws = [law for pair in zip(aef, akf) for law in pair]
    x = np.geomspace(1e-6, 1e3, 31)
    which = np.repeat(np.arange(len(laws)), x.size)
    order = np.random.default_rng(7).permutation(which.size)
    mixed, errors = Law._densities(laws, "snr_pdf", "gamma", np.tile(x, len(laws))[order],
                                   which[order], power)
    assert not errors
    mixed = mixed[np.argsort(order)]
    for group, first in ((aef, 0), (akf, 1)):
        alone, errors = Law._densities(group, "snr_pdf", "gamma", np.tile(x, len(group)),
                                       np.repeat(np.arange(len(group)), x.size), power)
        assert not errors
        for i in range(len(group)):
            np.testing.assert_array_equal(mixed[which == first + 2 * i],
                                          alone[i * x.size:(i + 1) * x.size])


def test_a_failing_law_of_either_family_marks_only_its_own_lanes():
    # one term is too few for either family's series route (ms = 1e5);
    # the laws at ms 3 and 5 take scipy's values
    one_term = SeriesControl(max_terms=1)
    laws = [AefDist(AefParams(alpha=2.0, eta=0.5, mu=1.0, ms=3.0), 1.0),
            AkfDist(AkfParams(alpha=2.0, kappa=1.0, mu=1.0, ms=1e5), 1.0),
            AefDist(AefParams(alpha=2.0, eta=0.5, mu=1.0, ms=1e5), 1.0),
            AkfDist(AkfParams(alpha=2.0, kappa=1.0, mu=1.0, ms=5.0), 1.0)]
    x = np.geomspace(0.01, 10.0, 5)
    values, errors = Law._densities(laws, "snr_pdf", "gamma", np.tile(x, 4),
                                    np.repeat(np.arange(4), x.size), 1.0, one_term)
    assert sorted(errors) == [1, 2]
    assert all("did not converge" in str(e) for e in errors.values())
    assert np.isnan(values[5:15]).all()
    np.testing.assert_array_equal(values[:5], laws[0].snr_pdf(x))
    np.testing.assert_array_equal(values[15:], laws[3].snr_pdf(x))
    for law in laws[1:3]:
        with pytest.raises(ConvergenceError, match="did not converge"):
            law.snr_pdf(x, one_term)


def test_a_failing_law_marks_only_its_own_lanes():
    # one term is too few for the middle law's series route (ms past the
    # scipy route's bound), while the other two take scipy's values
    one_term = SeriesControl(max_terms=1)
    laws = [AkfDist(AkfParams(alpha=2.0, kappa=1.0, mu=1.0, ms=p_ms), 1.0)
            for p_ms in (3.0, 1e5, 5.0)]
    x = np.geomspace(0.01, 10.0, 5)
    values, errors = Law._densities(laws, "snr_pdf", "gamma", np.tile(x, 3),
                                    np.repeat(np.arange(3), x.size), 1.0, one_term)
    assert list(errors) == [1] and "did not converge" in str(errors[1])
    assert np.isnan(values[5:10]).all()
    np.testing.assert_array_equal(values[:5], laws[0].snr_pdf(x))
    np.testing.assert_array_equal(values[10:], laws[2].snr_pdf(x))
    with pytest.raises(ConvergenceError, match="did not converge"):
        laws[1].snr_pdf(x, one_term)


def test_cdf_checks_the_kappa_family_against_the_noncentral_f(monkeypatch):
    ncf = [c for c in V.check_cdf(GRID) if c.name.startswith("cdf-ncf")]
    assert [c.name for c in ncf] == [f"cdf-ncf-{V._tag(GRID[1])}"]
    assert ncf[0].passed and ncf[0].measured <= 1e-12
    # a NaN from ncfdtr is measured, not skipped
    real = V.special.ncfdtr

    def nan_at_the_first_point(*args):
        out = real(*args)
        out[0] = np.nan
        return out

    monkeypatch.setattr(V.special, "ncfdtr", nan_at_the_first_point)
    nan = [c for c in V.check_cdf(GRID) if c.name.startswith("cdf-ncf")][0]
    assert not nan.passed and math.isnan(nan.measured)
