"""Seeded inputs and operations of the four benchmark workloads.

A workload is a list of operations (`Op`). The benchmark runs complete
passes over the list in a closed loop, one caller on one thread, so the
mix of operations in every run is the same whatever its length. Each
operation returns one outcome per library call (the returned object, or
the exception it raised); `checks.py` judges the outcomes afterwards,
outside the timed region.

Every library call goes through the module attribute or the bound method
at call time, so the wrappers of a traced run see it.
"""
from __future__ import annotations

import importlib
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from compfade import aef, akf, mc, params, specfun, validation
from compfade.params import AefParams, AkfParams, Format

outage_mod = importlib.import_module("compfade.outage")  # `compfade.outage` is the function

WORKLOADS = ("curve-grid", "series-tail", "mc-sample", "validate-quick")
_SALT = {name: i + 1 for i, name in enumerate(WORKLOADS)}

# Relative grids shared by every parameter set of a workload. A curve has
# as many points as `compfade curve` gives by default (its --points).
CURVE_POINTS = 50
CURVE_SNR = np.geomspace(0.02, 10.0, CURVE_POINTS)  # gamma / gamma_bar
CURVE_ENV = np.geomspace(0.1, 3.0, CURVE_POINTS)  # r / sqrt(Omega)
ASYM_GAMMA_BAR = np.geomspace(10.0, 1e4, CURVE_POINTS)  # gamma_bar / gamma_th
# Draws per sampler config: the quick battery's Monte Carlo sample size
# (`run_battery("quick")` samples n = 10^5 per config).
MC_DRAWS = 100_000
TAIL_SNR = np.array([1e-4, 1e-3, 1e3, 1e4])  # gamma / gamma_bar, both tails
TAIL_AEF_SNR = np.array([1e-3, 1e-2, 10.0, 100.0, 1e3])
GUARD_STEPS = np.array([-0.02, -0.005, 0.005, 0.02])  # X1 offsets outside the guard band
BOUND_SNR = np.array([0.1, 0.5, 1.0, 2.0, 4.0, 8.0])  # gamma / gamma_bar
BOUND_K0 = tuple(range(1, 17))
JITTER = 0.25  # share of its stratum over which the seed moves a draw


@dataclass
class Op:
    """One closed-loop call: a curve, a sampler chunk or a battery.

    run() returns one outcome per library call. items counts the work
    credited to items_per_s (None: one item per outcome). spec holds what
    the checks need to build references.
    """

    kind: str
    quantity: str
    run: Callable[[], list]
    spec: dict = field(default_factory=dict)
    items: int | None = None


@dataclass
class Workload:
    name: str
    op_kind: str
    item_unit: str
    ops: list
    warm: Callable[[], object]
    configs: list = field(default_factory=list)  # mc-sample: one entry per sampler config


def _lhs(rng: np.random.Generator, n: int, ranges: dict) -> list[dict]:
    """Latin-hypercube draws: each axis splits into n strata used once.
    Which strata go together is fixed, and the seed only places each draw
    within the middle JITTER of its strata. Every seed thus gets its own
    inputs, spread evenly over the ranges, with the same mix of cheap and
    costly points. A range (lo, hi, True) is sampled on a log scale."""
    pairing = np.random.default_rng(n)
    cols = {}
    for key, (lo, hi, log) in ranges.items():
        u = (pairing.permutation(n) + 0.5 + JITTER * (rng.random(n) - 0.5)) / n
        if log:
            cols[key] = np.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))
        else:
            cols[key] = lo + u * (hi - lo)
    return [{k: float(v[i]) for k, v in cols.items()} for i in range(n)]


def _points(fn, xs) -> list:
    out = []
    for x in xs:
        try:
            out.append(fn(float(x)))
        except Exception as exc:  # judged by the checks: refused or failed
            out.append(exc)
    return out


def _dist_curve(family, kw, gamma_bar, quantity, xs) -> Callable[[], list]:
    """A `compfade curve` run: build the parameters and the distribution,
    then evaluate one quantity over the grid."""

    def run():
        if family == "aef":
            d = aef.AefDist(params.AefParams(**kw), gamma_bar)
        else:
            d = akf.AkfDist(params.AkfParams(**kw), gamma_bar)
        if quantity == "outage":
            return _points(lambda x: outage_mod.outage(d, x), xs)
        return _points(getattr(d, quantity), xs)

    return run


def _envelope_curve(family, kw, omega_power, rs) -> Callable[[], list]:
    def run():
        if family == "aef":
            env = aef.AefEnvelope(params.AefParams(**kw), omega_power)
        else:
            env = akf.AkfEnvelope(params.AkfParams(**kw), omega_power)
        return _points(env.envelope_pdf, rs)

    return run


def _asym_curve(family, kw, gamma_th, gamma_bars) -> Callable[[], list]:
    """Outage asymptote on a gamma_bar grid, as `compfade curve --quantity
    op-asym`: one distribution per grid point, its gains and asymptote."""

    def run():
        if family == "aef":
            p = params.AefParams(**kw)
            dist, asym = aef.AefDist, outage_mod.asymptotic_outage_aef
        else:
            p = params.AkfParams(**kw)
            dist, asym = akf.AkfDist, outage_mod.asymptotic_outage_akf

        def point(gb):
            d = dist(p, gb)
            g = outage_mod.gains(d, gamma_th)
            return (asym(d, gamma_th), g.gc, g.gd)

        return _points(point, gamma_bars)

    return run


def _family_kw(family: str, draw: dict, fmt: Format | None = None) -> dict:
    kw = {"alpha": draw["alpha"], "mu": draw["mu"], "ms": draw["ms"]}
    if family == "aef":
        kw["eta"] = draw["eta"]
        kw["format"] = fmt
    else:
        kw["kappa"] = draw["kappa"]
    return kw


def _curve_ops(family, kw, gamma_bar, quantities, xs) -> list[Op]:
    spec = {"family": family, "kw": kw, "gamma_bar": gamma_bar, "xs": xs}
    return [
        Op("curve", q, _dist_curve(family, kw, gamma_bar, q, xs), spec)
        for q in quantities
    ]


def build_curve_grid(rng: np.random.Generator, sets: int) -> Workload:
    """Interior parameter sets of both families and both formats, each
    evaluated as every curve `compfade curve` offers."""
    base = {
        "alpha": (1.5, 4.0, False),
        "mu": (0.5, 3.0, False),
        "ms": (2.5, 20.0, True),
        "gamma_bar": (0.5, 5.0, True),
    }
    variants = (
        ("aef", Format.FORMAT_I, {"eta": (0.2, 5.0, True)}),
        ("aef", Format.FORMAT_II, {"eta": (-0.6, 0.6, False)}),
        ("akf", None, {"kappa": (0.1, 5.0, True)}),
    )
    ops = []
    for family, fmt, extra in variants:
        for draw in _lhs(rng, sets, {**base, **extra}):
            kw = _family_kw(family, draw, fmt)
            gb = draw["gamma_bar"]
            cdfs = ("snr_cdf",) if family == "aef" else ("snr_cdf_series", "snr_cdf_closed")
            ops += _curve_ops(family, kw, gb, ("snr_pdf",) + cdfs + ("outage",), gb * CURVE_SNR)
            rs = math.sqrt(gb) * CURVE_ENV
            ops.append(Op("curve", "envelope_pdf", _envelope_curve(family, kw, gb, rs),
                          {"family": family, "kw": kw, "gamma_bar": gb, "xs": rs}))
            gbs = ASYM_GAMMA_BAR.copy()
            ops.append(Op("curve", "asymptote", _asym_curve(family, kw, 1.0, gbs),
                          {"family": family, "kw": kw, "gamma_th": 1.0, "xs": gbs}))
    return Workload("curve-grid", "curve", "points", ops, warm=ops[0].run)


def _specfun_op(name: str, args: list) -> Op:
    def run():
        fn = getattr(specfun, name)
        out = []
        for a in args:
            try:
                out.append(fn(*a))
            except Exception as exc:
                out.append(exc)
        return out

    return Op("curve", f"specfun.{name}", run, {"args": args})


def _specfun_args(rng: np.random.Generator, n: int) -> dict:
    """Direct special-function calls near the edges of the domains the
    validation battery samples, where the series converge slowest: 2F1
    near z = 1 and deep in the Pfaff range, 1F1 at large |z|, Psi1 at
    large |x| and y, the KdF series at large x and y near 1. Odd draws take
    the positive edge, even draws the negative one."""

    def lhs(**ranges):
        return _lhs(rng, n, {k: (lo, hi, False) for k, (lo, hi) in ranges.items()})

    def edge(i, u, pos, neg):
        lo, hi = pos if i % 2 else neg
        return lo + u * (hi - lo)

    return {
        "gauss_2f1": [(d["a"], d["b"], d["c"], edge(i, d["u"], (0.93, 0.98), (-4.0, -3.0)))
                      for i, d in enumerate(lhs(a=(0.1, 6.0), b=(0.1, 6.0), c=(0.3, 8.0),
                                                u=(0.0, 1.0)))],
        "kummer_1f1": [(d["a"], d["b"], edge(i, d["u"], (15.0, 25.0), (-25.0, -15.0)))
                       for i, d in enumerate(lhs(a=(0.1, 6.0), b=(0.3, 8.0), u=(0.0, 1.0)))],
        "humbert_psi1": [(d["a"], d["b"], d["c"], d["cp"],
                          edge(i, d["u"], (0.6, 0.7), (-0.9, -0.8)), d["y"])
                         for i, d in enumerate(lhs(a=(0.3, 5.0), b=(0.1, 4.0), c=(0.5, 6.0),
                                                   cp=(0.5, 6.0), u=(0.0, 1.0),
                                                   y=(2.0, 4.0)))],
        "kdf_2_1": [(d["a1"], d["a2"], d["b1"], d["c1"], d["x"], d["y"])
                    for d in lhs(a1=(0.3, 5.0), a2=(0.3, 5.0), b1=(0.5, 6.0), c1=(0.5, 6.0),
                                 x=(1.5, 2.0), y=(0.75, 0.9))],
        "beta": [(d["a"], d["b"]) for d in lhs(a=(0.1, 30.0), b=(0.1, 30.0))],
    }


def _bound_curve(kw, gamma_bar, gamma) -> Callable[[], list]:
    def run():
        d = aef.AefDist(params.AefParams(**kw), gamma_bar)
        return _points(lambda k0: d.cdf_truncation_bound(gamma, int(k0)), BOUND_K0)

    return run


def build_series_tail(rng: np.random.Generator, sets: int, specfun_ops: int) -> Workload:
    """Few points, each needing many terms: strong line of sight, ms just
    above 2/alpha, strong cluster imbalance, gamma deep in both tails and
    just outside the closed-form guard band, the truncation bound past its
    divergence point, and special functions near their radius of
    convergence."""
    ops = []
    akf_draws = _lhs(rng, sets, {
        "alpha": (0.8, 1.6, False),
        "ms_gap": (0.05, 0.4, False),
        "kappa": (10.0, 40.0, True),
        "mu": (0.5, 2.5, False),
        "gamma_bar": (0.5, 5.0, True),
    })
    for draw in akf_draws:
        draw["ms"] = 2.0 / draw["alpha"] + draw["ms_gap"]
        kw = _family_kw("akf", draw)
        gb = draw["gamma_bar"]
        # gamma at X1 = 1 +- (guard + step): X1 scales as gamma^(alpha/2)
        om = params.omega(AkfParams(**kw))
        lam = (kw["ms"] - 1.0) * om * gb ** (0.5 * kw["alpha"]) / (kw["mu"] * (1.0 + kw["kappa"]))
        x1 = 1.0 + np.sign(GUARD_STEPS) * akf.CLOSED_FORM_GUARD + GUARD_STEPS
        guard = (x1 * lam) ** (2.0 / kw["alpha"])
        xs = np.sort(np.concatenate((gb * TAIL_SNR, guard)))
        ops += _curve_ops("akf", kw, gb, ("snr_pdf", "snr_cdf_series", "snr_cdf_closed"), xs)

    for i, draw in enumerate(_lhs(rng, sets, {
        "alpha": (1.0, 3.0, False),
        "ms_gap": (0.1, 0.5, False),
        "edge": (0.0, 1.0, False),
        "mu": (0.5, 2.5, False),
        "gamma_bar": (0.5, 5.0, True),
    })):
        draw["ms"] = max(2.0 / draw["alpha"], 1.0) + draw["ms_gap"]
        # alternate the four edges of the eta box: Format I small and large,
        # Format II near -1 and near +1
        side, e = i % 4, draw["edge"]
        if side < 2:
            fmt = Format.FORMAT_I
            draw["eta"] = math.exp(math.log(0.01) + e * math.log(5.0))
            if side == 1:
                draw["eta"] = 1.0 / draw["eta"]
        else:
            fmt = Format.FORMAT_II
            draw["eta"] = (0.9 + 0.07 * e) * (1.0 if side == 3 else -1.0)
        kw = _family_kw("aef", draw, fmt)
        gb = draw["gamma_bar"]
        ops += _curve_ops("aef", kw, gb, ("snr_pdf", "snr_cdf"), gb * TAIL_AEF_SNR)

    for draw in _lhs(rng, max(sets // 3, 1), {
        "alpha": (2.0, 4.0, False),
        "eta": (0.3, 3.0, True),
        "mu": (0.8, 2.5, False),
        "ms": (2.5, 8.0, False),
        "gamma_bar": (0.5, 5.0, True),
    }):
        kw = _family_kw("aef", draw, Format.FORMAT_I)
        gb = draw["gamma_bar"]
        for g in gb * BOUND_SNR:
            ops.append(Op("curve", "cdf_truncation_bound", _bound_curve(kw, gb, g),
                          {"family": "aef", "kw": kw, "gamma_bar": gb, "gamma": g,
                           "xs": BOUND_K0}))

    points = 4
    for name, args in _specfun_args(rng, specfun_ops * points).items():
        for k in range(specfun_ops):
            ops.append(_specfun_op(name, args[k * points:(k + 1) * points]))
    return Workload("series-tail", "curve", "points", ops, warm=ops[0].run)


def _chunk_op(sampler_name: str, phys, start: int, stop: int, seed: int, cfg: int) -> Op:
    n = stop - start

    def run():
        return [getattr(mc, sampler_name)(phys, n, seed, start=start)]

    return Op("chunk", sampler_name, run, {"config": cfg, "start": start}, items=n)


def build_mc_sample(rng: np.random.Generator, n: int, chunks: int) -> Workload:
    """Physical-model envelope draws of both families in partitioned
    chunks, as `compfade sample --n n --chunks chunks` makes them: the
    same np.linspace partition, so a chunk count that does not divide n
    gives chunks of unequal size."""
    slots = (
        ("aef", Format.FORMAT_I, 1, {"eta": (0.3, 3.0, True)}),
        ("aef", Format.FORMAT_I, 2, {"eta": (0.3, 3.0, True)}),
        ("aef", Format.FORMAT_II, 1, {"eta": (-0.5, 0.5, False)}),
        ("aef", Format.FORMAT_II, 2, {"eta": (-0.5, 0.5, False)}),
        ("akf", None, 1, {"kappa": (0.3, 4.0, True)}),
        ("akf", None, 2, {"kappa": (0.3, 4.0, True)}),
        ("akf", None, 2, {"kappa": (0.3, 4.0, True)}),
        ("akf", None, 3, {"kappa": (0.3, 4.0, True)}),
    )
    configs, ops = [], []
    draws = _lhs(rng, len(slots), {"alpha": (1.5, 4.0, False), "ms": (2.5, 12.0, True),
                                   "u": (0.0, 1.0, False)})
    for cfg, ((family, fmt, mu, extra), draw) in enumerate(zip(slots, draws)):
        (key, (lo, hi, log)), = extra.items()
        draw[key] = math.exp(math.log(lo) + draw["u"] * math.log(hi / lo)) if log \
            else lo + draw["u"] * (hi - lo)
        draw["mu"] = float(mu)
        p = (AefParams if family == "aef" else AkfParams)(**_family_kw(family, draw, fmt))
        phys = mc.make_phys(p, power_target=1.0)
        seed = int(rng.integers(0, 2**63))
        sampler = "sample_aef_envelope" if family == "aef" else "sample_akf_envelope"
        configs.append({"params": p, "phys": phys, "seed": seed, "sampler": sampler,
                        "n": n})
        edges = np.linspace(0, n, chunks + 1).astype(int)
        for a, b in zip(edges[:-1], edges[1:]):
            ops.append(_chunk_op(sampler, phys, int(a), int(b), seed, cfg))
    return Workload("mc-sample", "chunk", "draws", ops, warm=ops[0].run, configs=configs)


def build_validate_quick(rng: np.random.Generator) -> Workload:
    """`compfade validate --level quick`: the quick battery, repeated."""
    seed = int(rng.integers(1, 2**31))

    def run():
        return validation.run_battery("quick", seed=seed)["checks"]

    op = Op("battery", "run_battery", run, {"seed": seed})
    # warm-up: the cheapest check of the battery, through the same layers
    return Workload("validate-quick", "battery", "checks", [op],
                    warm=lambda: validation.check_lattice())


def build(name: str, seed: int, smoke: bool = False) -> Workload:
    """Inputs of one workload from its own generator."""
    rng = np.random.default_rng([_SALT[name], seed])
    if name == "curve-grid":
        # 14 sets per variant: 224 curves, so that p90 rests on 22 of them
        return build_curve_grid(rng, sets=2 if smoke else 14)
    if name == "series-tail":
        return build_series_tail(rng, sets=4 if smoke else 12, specfun_ops=1 if smoke else 4)
    if name == "mc-sample":
        # 8 configs x 13 chunks: at least 100 chunks, as for curves, so
        # that p90 rests on ten of them
        return build_mc_sample(rng, n=4_000 if smoke else MC_DRAWS,
                               chunks=2 if smoke else 13)
    if name == "validate-quick":
        return build_validate_quick(rng)
    raise ValueError(f"unknown workload {name!r}")

