"""Self-contained validation battery behind the CLI validate command.

Every check compares the analytical code against an independent route:
adaptive quadrature of the densities, extended-precision series oracles for
the special-function engines, and the physical-model Monte-Carlo samplers
for the distributions as a whole. Checks return structured results so the
battery can be rendered as JSON and asserted in tests.

The quadrature (_integrate, for the normalization, mean and CDF checks) is
an array Gauss-Kronrod mesh, not scipy.integrate.quad, and each of those
checks integrates all its grid cells in one mesh: every panel carries its
cell, each cell accepts, bisects and deepens its panels as it would alone,
and a cell that fails drops out with its own error while the others go
on. Each refinement round evaluates the densities in one
series.Law._densities call on an array of every pending node of every
cell: one lanes call per family, with per-cell constants.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy import special

from . import _kernels as _k
from . import cases, mc, specfun
from .aef import AefDist
from .akf import CLOSED_FORM_GUARD, AkfDist
from .outage import outage as outage_probability
from .params import AefParams, AkfParams, Format
from .series import (
    STATUS_OK,
    ConvergenceError,
    Law,
    SeriesControl,
    SeriesResult,
    cdf_clamped,
    default_control,
)

__all__ = [
    "Check",
    "run_battery",
    "check_normalization",
    "check_mean",
    "check_cdf",
    "check_fisher",
    "check_mc",
    "check_bound",
    "check_asym",
    "check_lattice",
    "check_engines",
    "check_determinism",
]

NORMALIZATION_TOL = 1e-7
MEAN_TOL = 1e-6
CDF_QUAD_TOL = 1e-8
CDF_CLOSED_TOL = 1e-8
# scipy's ncfdtr drifts as its denominator degrees of freedom 2 ms grow:
# against the series (and mpmath) 6.8e-14 at ms = 50, 8e-12 at 1e4 and
# 2.9e-10 at 1e5; the standard grids' ms is at most 30
CDF_NCF_TOL = 1e-10
FISHER_TOL = 1e-10
# the envelope CDF replaces its first _HEAD_CELLS linear cells [0, r_n] by
# the CDF head up to r0 = _HEAD_R0 r1, then _HEAD_POINTS geometric grid
# points up to r_n
_HEAD_CELLS = 64
_HEAD_R0 = 1e-30
_HEAD_POINTS = 4001
ENGINE_TOL = 1e-10
REDUCTION_TOL = 1e-12
_ENGINE_POINTS = 100  # random points per engine; the beta-row case takes a quarter
_BOUND_DRAWS = 20  # random laws per family in check_bound
_DETERMINISM_SEED = 99
_DETERMINISM_DRAWS = 4096
ASYM_RATIO_TOLS = ((1e3, 0.05), (1e4, 0.01), (1e5, 0.003))
SLOPE_TOL = 0.02

_QUAD_OPTS = dict(epsabs=1e-13, epsrel=1e-11, limit=400)
# _integrate: the (G10, K21) Gauss-Kronrod pair of QUADPACK's qk21 on
# [-1, 1], from its 11 nonnegative Kronrod nodes (outermost first), their
# weights and the Gauss weights of its 5 positive Gauss nodes, mirrored
# about 0: nodes ascending, the Gauss nodes _K21_NODES[1::2]. Then the
# ratio of its geometric meshes, the share of epsabs its analytic
# remainders may take, how far in x/split its meshes may reach, and its
# round budget
_K21_X = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
          0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
          0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
          0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
          0.294392862701460198131126603103866, 0.148874338981631210884826001129720, 0.0)
_K21_W = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
          0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
          0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
          0.123491976262065851077208980114659, 0.134709217311473325928054001771707,
          0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
          0.149445554002916905664936468389821)
_G10_W = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
          0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
          0.295524224714752870173892994651338)
_K21_NODES = np.array([-x for x in _K21_X] + list(_K21_X[-2::-1]))
_K21_WEIGHTS = np.array(_K21_W + _K21_W[-2::-1])
_G10_WEIGHTS = np.array(_G10_W + _G10_W[::-1])
_MESH_RATIO = 0.2
_REMAINDER_SHARE = 0.25
_X_SPAN = 1e100
_ROUNDS = 30

# Axes of the standard 81-point parameter grids (gamma_bar = 1 throughout;
# eta is Format I).
VALIDATION_ALPHAS = (1.0, 2.0, 3.5)
VALIDATION_ETAS = (0.2, 1.0, 5.0)
VALIDATION_KAPPAS = (0.1, 1.0, 5.0)
VALIDATION_MUS = (0.5, 1.0, 2.5)
VALIDATION_MS = (2.1, 5.0, 30.0)

# Monte-Carlo configurations: both formats and alpha in {2, 3} for the
# eta family, kappa in {0.5, 3} for the kappa family; integer mu only.
MC_AEF_CONFIGS = (
    AefParams(alpha=2.0, eta=0.5, mu=2.0, ms=4.0, format=Format.FORMAT_I),
    AefParams(alpha=3.0, eta=2.5, mu=1.0, ms=3.0, format=Format.FORMAT_I),
    AefParams(alpha=2.0, eta=0.4, mu=1.0, ms=5.0, format=Format.FORMAT_II),
    AefParams(alpha=3.0, eta=-0.3, mu=2.0, ms=8.0, format=Format.FORMAT_II),
)
MC_AKF_CONFIGS = (
    AkfParams(alpha=2.0, kappa=0.5, mu=1.0, ms=3.0),
    AkfParams(alpha=2.0, kappa=3.0, mu=2.0, ms=5.5),
    AkfParams(alpha=3.0, kappa=0.5, mu=2.0, ms=12.0),
    AkfParams(alpha=3.0, kappa=3.0, mu=3.0, ms=2.5),
)

# High-SNR comparison points: three parameter bundles per family.
ASYM_AEF_SETS = (
    AefParams(alpha=2.0, eta=0.5, mu=1.0, ms=3.0),
    AefParams(alpha=1.5, eta=2.0, mu=0.8, ms=5.0),
    AefParams(alpha=3.0, eta=0.8, mu=0.6, ms=2.5),
)
ASYM_AKF_SETS = (
    AkfParams(alpha=2.0, kappa=1.0, mu=1.0, ms=3.0),
    AkfParams(alpha=2.5, kappa=3.0, mu=1.5, ms=4.0),
    AkfParams(alpha=1.8, kappa=0.5, mu=2.0, ms=8.0),
)


@dataclass(frozen=True)
class Check:
    """One validation outcome: a measured quantity against its limit."""

    name: str
    measured: float
    limit: float
    passed: bool
    detail: str = ""


def _tag(p: AefParams | AkfParams) -> str:
    """The bundle's name in check names, e.g. akf[a=2,k=1,mu=1,ms=3]."""
    return cases._FAMILIES[type(p)].tag.format_map(vars(p))


def _standard_grids() -> list:
    """The alpha-eta-F grid, then the alpha-kappa-F grid; points whose
    mean-power moment does not exist (ms <= 2/alpha) are skipped."""
    return [
        family(alpha=alpha, mu=mu, ms=ms, **{shape: value})
        for family, shape, values in (
            (AefParams, "eta", VALIDATION_ETAS),
            (AkfParams, "kappa", VALIDATION_KAPPAS),
        )
        for alpha in VALIDATION_ALPHAS
        for value in values
        for mu in VALIDATION_MUS
        for ms in VALIDATION_MS
        if ms > 2.0 / alpha
    ]


def _mesh(j, deep, shallow, extra_j=(), extra_t=()) -> tuple:
    """Panels (lo, hi, j) of the geometric meshes of the sides j: side j[i]'s
    edges are _MESH_RATIO^e for e from deep[i] down to shallow[i], with the
    extra edges extra_t of the sides extra_j added. Ordered by side, then
    by t."""
    counts = (deep - shallow + 1.0).astype(np.intp)
    first = np.repeat(np.cumsum(counts) - counts, counts)
    e = np.repeat(deep, counts) - (np.arange(first.size) - first)
    side = np.concatenate((np.repeat(j, counts), extra_j)).astype(np.intp)
    t = np.concatenate((_MESH_RATIO ** e, extra_t))
    order = np.lexsort((t, side))
    side, t = side[order], t[order]
    new = np.ones(t.size, dtype=bool)
    new[1:] = (side[1:] != side[:-1]) | (t[1:] != t[:-1])
    side, t = side[new], t[new]
    inner = side[1:] == side[:-1]
    return t[:-1][inner], t[1:][inner], side[:-1][inner]


def _integrate(f, split: float, head_exp, tail_decay=None, marks=()) -> tuple:
    """Integrals over (0, split], and over (0, inf) when tail_decay is given,
    of n integrands (cells) that go as x^head_exp at 0 and as
    x^(-tail_decay) at inf, with head_exp and tail_decay arrays of n; also
    the integrals over (0, m] for the marks m <= split.

    f(x, cell) takes arrays of points and of their cells and returns
    (values, errors): errors maps each cell whose integrand failed to its
    ConvergenceError. Returns (totals, at_marks, errors): arrays of n and of
    n x len(marks), and errors mapping each failed cell to its
    ConvergenceError, its totals NaN. A cell fails on its integrand's
    error, on a non-finite integral, or when panels are still pending after
    _ROUNDS rounds or past _QUAD_OPTS["limit"] panels; the other cells go
    on as if alone.

    With a scalar head_exp (and tail_decay) it integrates one f(x) alone:
    it returns (total, np.ndarray of the integrals at the marks) and raises
    the cell's ConvergenceError.

    The substitution x = split t^k maps each side of a cell onto t in
    (0, 1]: the head with k = p = max(1, 1.6/(1 + head_exp)), the tail with
    k = -q, q = max(1, 1.6/(tail_decay - 1)). The integrand g(t) = f(x)
    |dx/dt| then goes as t^s at t = 0, with s = p(1 + head_exp) - 1 or
    q(tail_decay - 1) - 1, both at least 0.6. Each side is a geometric mesh
    of (0, 1] with ratio _MESH_RATIO down to an edge t0, below which the
    analytic remainder t0 g(t0)/(1 + s) is added. The mesh starts where
    t^(1 + s) reaches the remainder's allowance, _REMAINDER_SHARE of
    epsabs, and grows inward while the remainder exceeds it, up to where
    x/split passes _X_SPAN^(+-1): there f is taken to be on its endpoint
    power law (the densities' next terms are smaller by a factor of about
    _X_SPAN^(-alpha/2), 1e-50 at alpha = 1), and a density has not yet
    underflowed. The marks are edges of the head mesh.

    Each panel takes the 21-point Kronrod rule for its integral, and the
    difference to the 10-point Gauss rule on every second of its nodes for
    its error estimate: 21 evaluations of f a panel. A panel whose
    estimate exceeds its share (by t-width) of its cell's tolerance
    max(epsabs, epsrel |total|) of _QUAD_OPTS is bisected.
    Every panel carries its side j = cell * sides + side, and each cell's
    sums come from np.bincount over its panels, in the order a lone cell
    has them. f is called once per round, on an array of every pending
    node of every cell.
    """
    if np.ndim(head_exp) == 0:
        totals, at_marks, errors = _integrate(
            lambda x, cell: (f(x), {}), split, np.array([head_exp]),
            None if tail_decay is None else np.array([tail_decay]), marks)
        if errors:
            raise errors[0]
        return float(totals[0]), at_marks[0]
    head_exp = np.asarray(head_exp, dtype=float)
    n = head_exp.size
    if tail_decay is None:
        sides, a = 1, head_exp
    else:
        sides = 2
        a = np.column_stack((head_exp, -np.asarray(tail_decay, dtype=float))).ravel()
    k = np.copysign(np.maximum(1.0, 1.6 / np.abs(1.0 + a)), 1.0 + a)
    s = k * (1.0 + a) - 1.0
    step = -math.log(_MESH_RATIO)
    # side j's innermost edge is t0 = _MESH_RATIO^depth[j]
    max_depth = np.ceil(math.log(_X_SPAN) / (np.abs(k) * step))
    allowance = _REMAINDER_SHARE * _QUAD_OPTS["epsabs"]
    depth = np.minimum(max_depth, np.ceil(-math.log(allowance) / ((1.0 + s) * step)))
    marks = np.asarray(marks, dtype=float)
    t_marks = (marks / split)[None, :] ** (1.0 / k[::sides, None])
    if marks.size:
        depth[::sides] = np.maximum(depth[::sides],
                                    np.ceil(-np.log(t_marks.min(axis=1)) / step))
    heads = np.arange(0, n * sides, sides)
    lo, hi, pj = _mesh(np.arange(n * sides), depth, np.zeros(n * sides),
                       np.repeat(heads, marks.size), t_marks.ravel())
    rest = np.zeros(n * sides)
    new_rest = np.ones(n * sides, dtype=bool)  # sides whose t0 is still to evaluate
    live = np.ones(n, dtype=bool)
    errors = {}
    kept_hi, kept_j, kept_val = [], [], []
    kept_sum = np.zeros(n)
    kept_count = np.zeros(n, dtype=np.intp)
    for rounds in range(1, _ROUNDS + 1):
        jr = np.flatnonzero(new_rest)
        t0 = _MESH_RATIO ** depth[jr]
        nodes = ((0.5 * (lo + hi))[:, None]
                 + (0.5 * (hi - lo))[:, None] * _K21_NODES).ravel()
        t = np.concatenate((nodes, t0))
        kt = np.concatenate((np.repeat(k[pj], _K21_NODES.size), k[jr]))
        cell = np.concatenate((np.repeat(pj // sides, _K21_NODES.size), jr // sides))
        values, failed = f(split * t**kt, cell)
        for c, exc in failed.items():
            errors.setdefault(c, exc)
            live[c] = False
        g = values * (split * np.abs(kt) * t ** (kt - 1.0))
        rest[jr] = t0 * g[nodes.size:] / (1.0 + s[jr])
        g = g[:nodes.size].reshape(lo.size, _K21_NODES.size)
        half = 0.5 * (hi - lo)
        fine = half * (g @ _K21_WEIGHTS)
        coarse = half * (g[:, 1::2] @ _G10_WEIGHTS)
        pc = pj // sides
        total = (kept_sum + np.bincount(pc, fine, minlength=n)
                 + rest.reshape(n, sides).sum(axis=1))
        for c in np.flatnonzero(live & ~np.isfinite(total)).tolist():
            errors[c] = ConvergenceError("quadrature: the integral is not finite")
            live[c] = False
        tol = np.maximum(_QUAD_OPTS["epsabs"], _QUAD_OPTS["epsrel"] * np.abs(total))
        ok = np.abs(fine - coarse) <= tol[pc] * (hi - lo) / sides
        keep, split_up = ok & live[pc], ~ok & live[pc]
        kept_hi.append(hi[keep])
        kept_j.append(pj[keep])
        kept_val.append(fine[keep])
        kept_sum += np.bincount(pc[keep], fine[keep], minlength=n)
        kept_count += np.bincount(pc[keep], minlength=n)
        mid = (0.5 * (lo + hi))[split_up]
        lo, hi = np.concatenate((lo[split_up], mid)), np.concatenate((mid, hi[split_up]))
        pj = np.tile(pj[split_up], 2)
        # deepen the mesh of a side whose remainder is above its allowance,
        # by as many panels as its power law asks for
        new_rest = ((np.abs(rest) > allowance) & (depth < max_depth)
                    & np.repeat(live, sides))
        if new_rest.any():
            jr = np.flatnonzero(new_rest)
            more = np.ceil(np.log(np.abs(rest[jr]) / allowance) / ((1.0 + s[jr]) * step))
            deeper = np.minimum(max_depth[jr], depth[jr] + more)
            new_lo, new_hi, new_j = _mesh(jr, deeper, depth[jr])
            lo, hi = np.concatenate((lo, new_lo)), np.concatenate((hi, new_hi))
            pj = np.concatenate((pj, new_j))
            depth[jr] = deeper
        pending = np.bincount(pj // sides, minlength=n)
        over = (pending > 0) & ((kept_count + pending > _QUAD_OPTS["limit"])
                                | (rounds == _ROUNDS))
        for c in np.flatnonzero(over).tolist():
            errors[c] = ConvergenceError(
                f"quadrature: {pending[c]} panels pending after {rounds} of "
                f"{_ROUNDS} rounds and {_QUAD_OPTS['limit']} panels, at tolerance "
                f"{tol[c]:.3g}")
            live[c] = False
        if over.any():
            stay = live[pj // sides]
            lo, hi, pj = lo[stay], hi[stay], pj[stay]
            new_rest &= np.repeat(live, sides)
        if not lo.size:
            break
    kept_hi, kept_j, kept_val = map(np.concatenate, (kept_hi, kept_j, kept_val))
    totals = kept_sum + rest.reshape(n, sides).sum(axis=1)
    head = kept_j % sides == 0
    hc, head_hi, head_val = kept_j[head] // sides, kept_hi[head], kept_val[head]
    at_marks = np.empty((n, marks.size))
    for m in range(marks.size):
        at_marks[:, m] = rest[::sides] + np.bincount(
            hc, head_val * (head_hi <= t_marks[hc, m]), minlength=n)
    failed = list(errors)
    totals[failed] = math.nan
    at_marks[failed] = math.nan
    return totals, at_marks, errors


def _snr_pdf_fn(p: AefParams | AkfParams, gamma_bar: float = 1.0):
    """The SNR law at p, its density, and the density's exponent at 0 (that
    of the CDF head, less one)."""
    d = cases._FAMILIES[type(p)].law(p, gamma_bar)
    return d, d.snr_pdf, d._head[1] - 1.0


def _grid_pdf(laws: list):
    """The densities of the SNR laws of a grid as one integrand of
    _integrate, f(x, cell) -> (values, errors) with the density of
    laws[cell[i]] at x[i] (series.Law._densities)."""
    return lambda x, cell: Law._densities(laws, "snr_pdf", "gamma", x, cell, 1.0, None)


def _grid_cells(grids) -> tuple:
    """The grid cells' tags, SNR laws and density exponents at 0."""
    cells = [_snr_pdf_fn(p) for p in grids]
    laws = [d for d, _, _ in cells]
    return [_tag(p) for p in grids], laws, np.array([e for _, _, e in cells])


def _quadrature_check(name: str, limit: float, deviation: float, error=None) -> Check:
    """Check of one cell's deviation; a cell whose quadrature failed fails
    the check, its ConvergenceError's message the detail."""
    if error is not None:
        return Check(name, math.nan, limit, False, detail=str(error))
    return Check(name, deviation, limit, deviation <= limit)


def _moment_check(name: str, limit: float, power: int, grids) -> list:
    """Checks that the integral of gamma^power snr_pdf over (0, inf) is 1
    (gamma_bar = 1) within limit on each cell of grids (the standard grids
    when None), named name-tag; one _integrate call over all cells."""
    grids = _standard_grids() if grids is None else list(grids)
    tags, laws, head_exp = _grid_cells(grids)
    tail_decay = np.array([1.0 - power + 0.5 * p.alpha * p.ms for p in grids])
    pdf = _grid_pdf(laws)

    def integrand(x, cell):
        values, errors = pdf(x, cell)
        return x**power * values, errors

    totals, _, errors = _integrate(integrand, 1.0, head_exp + power, tail_decay)
    return [_quadrature_check(f"{name}-{tag}", limit, abs(total - 1.0), errors.get(c))
            for c, (tag, total) in enumerate(zip(tags, totals.tolist()))]


def check_normalization(grids=None) -> list:
    """Criterion: integral of snr_pdf over (0, inf) equals 1 within 1e-7
    on the standard parameter grids."""
    return _moment_check("norm", NORMALIZATION_TOL, 0, grids)


def check_mean(grids=None) -> list:
    """Criterion: integral of gamma * snr_pdf equals gamma_bar within 1e-6,
    verifying the power normalizers end-to-end."""
    return _moment_check("mean", MEAN_TOL, 1, grids)


_CDF_POINTS = np.geomspace(0.05, 8.0, 10)


def _humbert_cdf(d: AkfDist, gamma: float) -> SeriesResult:
    """The paper's closed-form alpha-kappa-F CDF for X1 > 1 (or X1 = 1 when
    mu kappa = 0), the reference for snr_cdf above the guard band and at
    the Fisher point: 1 - e^(-mu kappa) X1^(-ms) / (ms B(mu, ms))
    Psi1(mu+ms, ms; 1+ms, mu; -1/X1, mu kappa), its Psi1 summed
    in log space by specfun.humbert_psi1_ln over n, each row 2F1(mu + ms +
    n, ms; 1 + ms; -1/X1) an incomplete beta. The form's first term,
    e^(-mu kappa) Psi1(mu; 0; 1-ms, mu; -1/X1, mu kappa) = e^(-mu kappa)
    1F1(mu; mu; mu kappa), is exactly 1 and is not summed, so terms_used
    (rows) and est_error are those of the one Psi1 sum."""
    ctrl = default_control()
    p = d.params
    ln_x1 = d._ln_x1(gamma)
    mk = p.mu * p.kappa
    ln_psi, sign, terms, est, status = specfun.humbert_psi1_ln(
        p.mu + p.ms, p.ms, 1.0 + p.ms, p.mu, -math.exp(-ln_x1), mk, ctrl.rel_tol,
        ctrl.max_terms)
    term = sign * math.exp(ln_psi - mk - math.log(p.ms) - _k._lbeta(p.mu, p.ms) - p.ms * ln_x1)
    return cdf_clamped(1.0 - term, terms, est * abs(term), status == STATUS_OK)


def check_cdf(grids=None) -> list:
    """Criterion: snr_cdf matches quadrature of snr_pdf within 1e-8 at ten
    points per grid cell; for the kappa family the series matches the
    noncentral F CDF (scipy.special.ncfdtr) within 1e-10, and the paper's
    Humbert form (_humbert_cdf) within 1e-8 above the guard band.

    The series CDF is one array call per grid cell, and the quadrature one
    _integrate call over all cells with the ten points as marks; the
    Humbert form takes one point per call. The alpha-kappa-F CDF is the
    noncentral F(2 mu, 2 ms; 2 mu kappa) CDF at ms X1/mu, and ncfdtr
    (Boost) shares no code with the series: a NaN from it fails the
    check."""
    grids = _standard_grids() if grids is None else list(grids)
    tags, laws, head_exp = _grid_cells(grids)
    _, at_marks, errors = _integrate(_grid_pdf(laws), _CDF_POINTS[-1], head_exp,
                                     marks=_CDF_POINTS)
    checks = []
    for c, (tag, d) in enumerate(zip(tags, laws)):
        series = d.snr_cdf(_CDF_POINTS).value
        checks.append(_quadrature_check(
            f"cdf-quad-{tag}", CDF_QUAD_TOL,
            float(np.max(np.abs(series - at_marks[c]))), errors.get(c)))
        if isinstance(d, AefDist):
            continue
        p = d.params
        x1 = np.array([math.exp(d._ln_x1(g)) for g in _CDF_POINTS])
        ncf = special.ncfdtr(2.0 * p.mu, 2.0 * p.ms, 2.0 * p.mu * p.kappa,
                             p.ms * x1 / p.mu)
        dev_ncf = float(np.max(np.abs(series - ncf)))
        devs = [abs(_humbert_cdf(d, g).value - value) for g, x, value
                in zip(_CDF_POINTS.tolist(), x1.tolist(), series.tolist())
                if x > 1.0 + CLOSED_FORM_GUARD]
        if devs:
            checks.append(Check(f"cdf-closed-{tag}", max(devs), CDF_CLOSED_TOL,
                                max(devs) <= CDF_CLOSED_TOL))
        checks.append(Check(f"cdf-ncf-{tag}", dev_ncf, CDF_NCF_TOL,
                            dev_ncf <= CDF_NCF_TOL))
    return checks


def check_fisher() -> list:
    """Criterion: both families at the Fisher-F point (alpha=2, balanced
    clusters, one effective cluster, ms=2, gamma_bar=1) hit the closed-form
    values pdf(1) = 1/4 and cdf(1) = 3/4, the alpha-kappa-F CDF both by its
    series and by the paper's Humbert form (_humbert_cdf)."""
    a = AefDist(AefParams(alpha=2.0, eta=1.0, mu=0.5, ms=2.0), 1.0)
    k = AkfDist(AkfParams(alpha=2.0, kappa=0.0, mu=1.0, ms=2.0), 1.0)
    spots = (
        ("fisher-aef-pdf", a.snr_pdf(1.0), 0.25),
        ("fisher-aef-cdf", a.snr_cdf(1.0).value, 0.75),
        ("fisher-akf-pdf", k.snr_pdf(1.0), 0.25),
        ("fisher-akf-cdf", k.snr_cdf_series(1.0).value, 0.75),
        ("fisher-akf-cdf-closed", _humbert_cdf(k, 1.0).value, 0.75),
    )
    return [
        Check(name, abs(got - want), FISHER_TOL, abs(got - want) <= FISHER_TOL,
              detail=f"value {got!r}, target {want}")
        for name, got, want in spots
    ]


def _flip_h_sign(d: AefDist) -> AefDist:
    """Test-harness mutation hook: inject a sign error into the squared
    cluster-imbalance term of the CDF so downstream checks must catch it."""
    p = d.params
    # the law's own tuple, at gamma_bar = 1: the params' shared one stays as it is
    object.__setattr__(d, "_cdf_consts", _k.aef_cdf_consts(
        p.alpha, p.mu, p.ms, d.geometry.h, -d.geometry.H ** 2, p._unit.ln_lam))
    return d


def _snr_cdf_interp(d, samples: np.ndarray):
    """Model SNR CDF evaluated on a dense grid and interpolated, so a
    million-sample KS pass stays cheap."""
    lo = max(samples[0] * 0.5, 1e-300)
    hi = samples[-1] * 1.001
    grid = np.concatenate(([0.0], np.geomspace(lo, hi, 4000)))
    return np.interp(samples, grid, d.snr_cdf(grid).value)


def _envelope_cdf_interp(env, samples: np.ndarray) -> np.ndarray:
    """Envelope CDF by cumulative trapezoid integration of envelope_pdf on
    a dense linear grid; independent of the SNR-domain series route.

    The density is infinite at r = 0 when 2q < 1 (F ~ A r^(2q)), and the
    first linear cells may then hold much of the mass. So the first
    _HEAD_CELLS of them are a geometric grid from r0 = _HEAD_R0 r1 on, and
    the CDF starts from the head A r0^(2q) at r0."""
    hi = samples[-1] * 1.002
    lin = np.linspace(0.0, hi, 25001)
    head = np.geomspace(_HEAD_R0 * lin[1], lin[_HEAD_CELLS], _HEAD_POINTS)
    grid = np.concatenate((head, lin[_HEAD_CELLS + 1:]))
    vals = env.envelope_pdf(grid)
    ln_a, q = env._snr._head
    cells = (vals[1:] + vals[:-1]) * 0.5 * np.diff(grid)
    cdf = np.concatenate(([0.0, math.exp(ln_a + 2.0 * q * math.log(grid[0]))], cells))
    return np.interp(samples, np.concatenate(([0.0], grid)), np.cumsum(cdf))


def check_mc(n: int = 1_000_000, seed: int = 777, flip_h_sign: bool = False,
             configs=None) -> list:
    """Criterion: Kolmogorov-Smirnov distance between physical-model samples
    and the analytical CDF below mc.ks_threshold(n) (0.00196 at n = 10^6),
    in both the SNR domain and the envelope domain, for all standard
    configurations."""
    checks = []
    limit = mc.ks_threshold(n)
    if configs is None:
        configs = list(MC_AEF_CONFIGS) + list(MC_AKF_CONFIGS)
    for i, p in enumerate(configs):
        family, tag = cases._FAMILIES[type(p)], _tag(p)
        r = family.sample(mc.make_phys(p, power_target=1.0), n, seed + i)
        d, env = family.law(p, 1.0), family.envelope(p, 1.0)
        if flip_h_sign and isinstance(d, AefDist):
            d = _flip_h_sign(d)
        r.sort()
        gamma = r * r  # gamma_bar = omega_power = 1
        for kind, x, model in (("snr", gamma, _snr_cdf_interp(d, gamma)),
                               ("env", r, _envelope_cdf_interp(env, r))):
            ks = mc.ks_distance(mc.EmpiricalDist(samples=x, n=n), lambda _, _f=model: _f)
            checks.append(Check(f"mc-ks-{kind}-{tag}", ks, limit, ks <= limit))
    return checks


def _paper_bound(d: AefDist, gamma: float, k0: int) -> float:
    """The paper's closed-form bound on the alpha-eta-F CDF series'
    remainder after k0 terms, the reference for cdf_truncation_bound: the
    CDF head A g^(alpha mu) times mu / (mu + k0), times 2F1(B + ms, B; B +
    1; -y), B = 2 mu + 2 k0, from specfun._ln_2f1_beta, times the bounding
    2F1(mu + ms/2, mu + (ms + 1)/2; mu + 1/2; q y^2), q = (H/h)^2, from
    gauss_2f1_ln. That series has no convergent real form at q y^2 >= 1,
    where it raises ConvergenceError, as where a series does not
    converge."""
    ctrl = default_control()
    ln_y0, half_alpha, a, _, ms, _, ln_q, sgn_q, mu, _, _, _ = d._cdf_consts
    gexp = half_alpha * (math.log(gamma) - d._ln_gb)
    ln_y = ln_y0 + gexp
    w = _k._signed_exp(sgn_q, 2.0 * ln_y + ln_q)
    if w >= 1.0:
        raise ConvergenceError("the paper's bound: its bounding series diverges at q y^2 >= 1")
    ln_f2, sgn_f2, _, _, st2 = specfun.gauss_2f1_ln(
        0.5 * (a + ms), 0.5 * (a + ms + 1.0), mu + 0.5, w, ctrl.rel_tol, ctrl.max_terms)
    ln_f1, st1 = specfun._ln_2f1_beta(a + 2.0 * k0, ms, ln_y, *_k._beta_argument(ln_y),
                                       ctrl.rel_tol, ctrl.max_terms)
    if st1 != STATUS_OK or st2 != STATUS_OK:
        raise ConvergenceError("the paper's bound: a series did not converge")
    return sgn_f2 * math.exp(d.params._unit.head[0] + a * gexp + math.log(mu / (mu + k0))
                             + ln_f1 + ln_f2)


def check_bound(seed: int = 424242) -> list:
    """Criterion: cdf_truncation_bound dominates the measured CDF series
    remainder for k0 in {1, 2, 4, 8, 16} at each of _BOUND_DRAWS = 20 random
    valid draws per family (the alpha-eta-F draws alternate Format I and II),
    and the paper's bound (_paper_bound) dominates it at every alpha-eta-F
    draw where it converges; zero violations allowed. The second check's
    detail counts the draws the paper's bound refuses (q y^2 >= 1)."""
    rng = np.random.default_rng(seed)
    k0s = (1, 2, 4, 8, 16)
    names = ("bound-dominates-remainder", "paper-bound-dominates-remainder")
    worst = dict.fromkeys(names, -math.inf)
    detail = dict.fromkeys(names, "")
    refused = 0
    for i in range(2 * _BOUND_DRAWS):
        alpha = rng.uniform(1.0, 4.0)
        shape = rng.uniform(0.0, 1.0)
        mu = rng.uniform(0.4, 3.0)
        ms = rng.uniform(2.0 / alpha + 0.3, 25.0)
        gamma = math.exp(rng.uniform(math.log(0.05), math.log(15.0)))
        if i % 2:
            kappa = math.exp(math.log(0.05) + shape * math.log(800.0))  # 0.05 to 40
            d = AkfDist(AkfParams(alpha=alpha, kappa=kappa, mu=mu, ms=ms), 1.0)
        elif i % 4 == 0:
            eta = math.exp(math.log(0.15) + shape * math.log(40.0))  # 0.15 to 6
            d = AefDist(AefParams(alpha=alpha, eta=eta, mu=mu, ms=ms), 1.0)
        else:
            d = AefDist(AefParams(alpha=alpha, eta=1.9 * shape - 0.95, mu=mu, ms=ms,
                                  format=Format.FORMAT_II), 1.0)
        full = d.snr_cdf(gamma).value
        remainders = [max(full - d.snr_cdf(gamma, SeriesControl(max_terms=k0)).value, 0.0)
                      for k0 in k0s]
        bounds = {names[0]: [d.cdf_truncation_bound(gamma, k0) for k0 in k0s]}
        if isinstance(d, AefDist):
            try:
                bounds[names[1]] = [_paper_bound(d, gamma, k0) for k0 in k0s]
            except ConvergenceError:
                refused += 1
        for name, values in bounds.items():
            for k0, remainder, bound in zip(k0s, remainders, values):
                if remainder - bound > worst[name]:
                    worst[name] = remainder - bound
                    detail[name] = (f"{_tag(d.params)} gamma={gamma:.4g} k0={k0} "
                                    f"remainder={remainder:.3e} bound={bound:.3e}")
    detail[names[1]] += f"; the paper's bound refused {refused} of {_BOUND_DRAWS} draws"
    return [Check(name, worst[name], 0.0, worst[name] <= 0.0, detail=detail[name])
            for name in names]


def check_asym() -> list:
    """Criterion: exact outage approaches the asymptotic law at high SNR
    (5%, 1%, 0.3% at gamma_bar/gamma_th = 1e3, 1e4, 1e5) and the fitted
    log-log slope matches the diversity gain within 2%."""
    checks = []
    gamma_th = 1.0
    for p in list(ASYM_AEF_SETS) + list(ASYM_AKF_SETS):
        family, tag = cases._FAMILIES[type(p)], _tag(p)
        exact = {}
        for ratio, tol in ASYM_RATIO_TOLS:
            d = family.law(p, ratio * gamma_th)
            asym = family.asymptote(d, gamma_th)
            op = outage_probability(d, gamma_th).value
            exact[ratio] = op
            dev = abs(op / asym - 1.0)
            checks.append(
                Check(f"asym-ratio-{tag}@{ratio:g}", dev, tol, dev <= tol)
            )
        gd = d._head[1]
        slope = (math.log(exact[1e4]) - math.log(exact[1e5])) / math.log(10.0)
        dev = abs(slope / gd - 1.0)
        checks.append(Check(f"asym-slope-{tag}", dev, SLOPE_TOL, dev <= SLOPE_TOL))
    return checks


def check_lattice() -> list:
    """Criterion: the special-case lattice equivalences of cases.check_lattice hold."""
    rep = cases.check_lattice()
    return [
        Check(f"lattice-{c.name}", c.max_dev, c.tolerance, c.passed)
        for c in rep.checks
    ]


def _rel_err(got: float, want: float) -> float:
    scale = max(abs(want), 1e-300)
    return abs(got - want) / scale


def check_engines(seed: int = 20250817) -> list:
    """Criterion: each series engine agrees with a 50+ digit oracle within
    1e-10 on _ENGINE_POINTS = 100 random in-domain points (25 for the
    incomplete-beta row case), and the two-variable engines collapse
    to their one-variable reductions within 1e-12."""
    from . import _oracles as orc  # imports mpmath, so only when this check runs

    mp = orc.mp_setup()
    rng = np.random.default_rng(seed)
    u = rng.uniform

    def beta_rows():
        a2 = u(0.3, 4.0)
        return a2 + u(0.5, 30.0), a2, a2 + 1.0, u(0.5, 6.0), u(0.0, 15.0), u(-0.95, -0.05)

    # (check name, draw count, argument draw, engine, oracle), drawn in order
    engines = (
        ("engine-gauss-2f1", _ENGINE_POINTS,
         lambda: (u(0.1, 6.0), u(0.1, 6.0), u(0.3, 8.0), u(-4.0, 0.98)),
         specfun.gauss_2f1, mp.hyp2f1),
        ("engine-kummer-1f1", _ENGINE_POINTS,
         lambda: (u(0.1, 6.0), u(0.3, 8.0), u(-25.0, 25.0)),
         specfun.kummer_1f1, mp.hyp1f1),
        ("engine-humbert-psi1", _ENGINE_POINTS,
         lambda: (u(0.3, 5.0), u(0.1, 4.0), u(0.5, 6.0), u(0.5, 6.0), u(-0.9, 0.9),
                  u(-4.0, 8.0)),
         specfun.humbert_psi1, orc.mp_humbert_psi1),
        # x >= 0 is the engine's well-conditioned domain; negative x
        # alternates and is cancellation limited by construction of the
        # double series. No law route calls this engine: the alpha-kappa-F
        # CDF sums its Kampe de Feriet form as the incomplete-beta mixture.
        ("engine-kdf-2-1", _ENGINE_POINTS,
         lambda: (u(0.3, 5.0), u(0.3, 5.0), u(0.5, 6.0), u(0.5, 6.0), u(0.0, 2.0),
                  u(-2.5, 0.9)),
         specfun.kdf_2_1, orc.mp_kdf_2_1),
        # the contiguous b1 = a2 + 1 structure with y < 0 takes the
        # incomplete-beta row route; sample it separately since random draws
        # never hit the structure exactly, and push x well past where the
        # generic power-series rows would lose precision
        ("engine-kdf-2-1-beta-rows", _ENGINE_POINTS // 4, beta_rows,
         specfun.kdf_2_1, orc.mp_kdf_2_1),
    )
    checks = []
    for name, draws, draw, engine, oracle in engines:
        worst = 0.0
        for _ in range(draws):
            args = draw()
            worst = max(worst, _rel_err(engine(*args).value, float(oracle(*args))))
        checks.append(Check(name, worst, ENGINE_TOL, worst <= ENGINE_TOL))

    # the identities hold to roundoff, so evaluate both sides at a control
    # tight enough that geometric-tail truncation sits well below 1e-12
    tight = SeriesControl(rel_tol=1e-14)
    psi1, kdf, f21, f11 = (lambda *args, fn=fn: fn(*args, ctrl=tight).value for fn in (
        specfun.humbert_psi1, specfun.kdf_2_1, specfun.gauss_2f1, specfun.kummer_1f1))
    worst = 0.0
    for _ in range(10):
        a, b, c, cp, x, y = (rng.uniform(lo, hi) for lo, hi in (
            (0.3, 4.0), (0.2, 4.0), (0.5, 5.0), (0.5, 5.0), (-0.8, 0.8), (-3.0, 6.0)))
        # (two-variable engine, its one-variable reduction), compared in order
        for value, reduced in (
                (psi1(a, b, c, cp, x, 0.0), f21(a, b, c, x)),
                (psi1(a, b, c, cp, 0.0, y), f11(a, cp, y)),
                (psi1(a, 0.0, c, cp, x, y), f11(a, cp, y)),
                (kdf(a, b, c, cp, 0.0, x), f21(a, b, c, x)),
                (kdf(a, b, c, cp, y, 0.0), float(mp.hyper([a, b], [c, cp], y)))):
            worst = max(worst, _rel_err(value, reduced))
    checks.append(
        Check("engine-reductions", worst, REDUCTION_TOL, worst <= REDUCTION_TOL)
    )
    return checks


def check_determinism() -> list:
    """Criterion: sampler output (_DETERMINISM_DRAWS draws at
    _DETERMINISM_SEED) is byte-identical across repeated runs and across
    partition layouts."""
    n, seed = _DETERMINISM_DRAWS, _DETERMINISM_SEED
    ok = True
    for p in (AefParams(alpha=2.5, eta=0.4, mu=2.0, ms=4.0),
              AkfParams(alpha=3.0, kappa=1.5, mu=3.0, ms=5.0)):
        phys, fn = mc.make_phys(p), cases._FAMILIES[type(p)].sample
        full = fn(phys, n, seed)
        ok = ok and full.tobytes() == fn(phys, n, seed).tobytes()
        for chunks in (2, 3, 7):
            edges = np.linspace(0, n, chunks + 1).astype(int)
            parts = np.concatenate([
                fn(phys, int(b - a), seed, start=int(a))
                for a, b in zip(edges[:-1], edges[1:])
            ])
            ok = ok and full.tobytes() == parts.tobytes()
    measured = 0.0 if ok else 1.0
    return [Check("determinism-partition", measured, 0.0, ok)]


def run_battery(
    level: str = "quick", seed: int = 20250817, flip_h_sign: bool = False
) -> dict:
    """Run the validation battery and return a JSON-ready report dict.

    quick: normalization grid, lattice equivalences, one Monte-Carlo pairing
    at n = 10^5. full: the entire acceptance battery at n = 10^6. The
    report's "seconds" maps each check group to its wall time.
    """
    if level not in ("quick", "full"):
        raise ValueError(f"level must be 'quick' or 'full', got {level!r}")
    if level == "quick":
        groups = (
            ("normalization", check_normalization),
            ("lattice", check_lattice),
            ("mc", lambda: check_mc(n=100_000, seed=seed, flip_h_sign=flip_h_sign,
                                    configs=[MC_AEF_CONFIGS[0]])),
        )
    else:
        groups = (
            ("normalization", check_normalization),
            ("mean", check_mean),
            ("cdf", check_cdf),
            ("fisher", check_fisher),
            ("mc", lambda: check_mc(n=1_000_000, seed=seed, flip_h_sign=flip_h_sign)),
            ("bound", lambda: check_bound(seed=seed)),
            ("asym", check_asym),
            ("lattice", check_lattice),
            ("engines", lambda: check_engines(seed=seed)),
            ("determinism", check_determinism),
        )
    checks = []
    seconds = {}
    for group, run in groups:
        start = time.perf_counter()
        checks += run()
        seconds[group] = time.perf_counter() - start
    return {
        "level": level,
        "seed": seed,
        "passed": all(c.passed for c in checks),
        "checks": [dict(vars(c)) for c in checks],
        "seconds": seconds,
    }
