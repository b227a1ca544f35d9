"""Correctness gate and failure probes, run outside the timed region.

Every outcome of an operation gets a verdict: "ok", "refused" (a
documented DomainError or ConvergenceError) or "failed: <reason>". An
outcome fails if it raises anything else, returns converged=False or a
non-finite value, or misses its reference. The references share no code
with the library's series:

- alpha-kappa-F: the noncentral F law, F = ms X1 / mu ~ F(2mu, 2ms, 2mu
  kappa), through scipy's Boost-based `ncfdtr` and `ncf.pdf`;
- alpha-eta-F densities: the closed form with scipy's `hyp2f1`, and with
  mpmath where scipy's hyp2f1 loses digits near z = 1;
- alpha-eta-F CDFs: adaptive quadrature of the density on a seeded
  subsample of points;
- closed form against series, monotonicity and the [0, 1] range;
- the truncation bound against the measured series remainder;
- direct special-function calls: mpmath at MP_DPS digits;
- the sampler: KS distance to the analytic CDF and byte-identical
  chunked against single-stream draws.

The KS limit, mc.ks_threshold(n), is crossed by chance by about one fair
sample in a thousand, and every run draws fresh samples, so over the
hundreds of runs a benchmark check makes some fair sample crosses it. A
KS miss therefore fails only if an independent sample of the same law,
drawn once outside the timed region, misses the same limit too: a fair
sampler then fails about once in a million, while a sampler whose law is
off misses on both samples. The battery's Monte Carlo checks are
confirmed the same way, by a second battery on an independent seed.
Unconfirmed misses are reported as notes, with both distances.

Tolerances are imported from compfade.validation, never copied.
"""
from __future__ import annotations

import math
import warnings

import mpmath
import numpy as np
from scipy import integrate, special, stats

from compfade import aef, akf, mc
from compfade.params import AefParams, AkfParams, Format
from compfade.series import ConvergenceError, DomainError, SeriesControl, SeriesResult
from compfade.validation import CDF_CLOSED_TOL, CDF_QUAD_TOL, ENGINE_TOL, REDUCTION_TOL

OK = "ok"
REFUSED = "refused"
DOCUMENTED = (DomainError, ConvergenceError)

# pointwise densities and asymptotes against their references (relative)
DENSITY_REL_TOL = ENGINE_TOL
# a CDF may step back by roundoff only
MONOTONE_SLACK = REDUCTION_TOL
QUAD_PER_CURVE = 3  # quadrature references per alpha-eta-F CDF curve
MP_PER_OP = 1  # mpmath references per two-variable special-function curve
_QUAD_OPTS = dict(epsabs=1e-13, epsrel=1e-11, limit=400)
MP_DPS = 40  # working precision of every mpmath reference


def _value(outcome):
    return outcome.value if type(outcome) is SeriesResult else outcome


def basic_verdict(outcome) -> str:
    """Verdict from the outcome alone; OK means 'now compare to a reference'."""
    if isinstance(outcome, BaseException):
        if isinstance(outcome, DOCUMENTED):
            return REFUSED
        return f"failed: raised {type(outcome).__name__}"
    if type(outcome) is SeriesResult and not outcome.converged:
        return "failed: converged=False"
    vals = outcome if isinstance(outcome, tuple) else (_value(outcome),)
    if not all(math.isfinite(v) for v in vals):
        return "failed: non-finite value"
    return OK


# ---------------------------------------------------------------- references


def _geometry(p: AefParams) -> tuple[float, float]:
    if p.format is Format.FORMAT_I:
        return (2.0 + 1.0 / p.eta + p.eta) / 4.0, (1.0 / p.eta - p.eta) / 4.0
    c = 1.0 - p.eta * p.eta
    return 1.0 / c, p.eta / c


def _ln_upsilon(p: AefParams) -> float:
    h, H = _geometry(p)
    q = 2.0 / p.alpha
    f = mpmath.hyp2f1(p.mu + q / 2, p.mu + q / 2 + 0.5, p.mu + 0.5, (H / h) ** 2)
    ln_bracket = (special.betaln(2 * p.mu, p.ms) + p.mu * math.log(h)
                  - special.betaln(2 * p.mu + q, p.ms - q) - float(mpmath.log(f)))
    return math.log(2 * p.mu * h / (p.ms - 1)) + 0.5 * p.alpha * ln_bracket


def _ln_omega(p: AkfParams) -> float:
    q = 2.0 / p.alpha
    mk = p.mu * p.kappa
    ln_f = float(mpmath.log(mpmath.hyp1f1(p.mu + q, p.mu, mk)))
    ln_bracket = (special.betaln(p.mu, p.ms) - special.betaln(p.mu + q, p.ms - q)
                  + mk - ln_f)
    return math.log(p.mu * (1 + p.kappa) / (p.ms - 1)) + 0.5 * p.alpha * ln_bracket


def _aef_ln_lam(p: AefParams, gamma_bar: float) -> float:
    return math.log(p.ms - 1) + _ln_upsilon(p) + 0.5 * p.alpha * math.log(gamma_bar)


def aef_pdf_ref(p: AefParams, gamma_bar: float, g, precise: bool = False) -> np.ndarray:
    """alpha-eta-F SNR density in closed form; precise uses mpmath's 2F1."""
    h, H = _geometry(p)
    a, mu, ms = p.alpha, p.mu, p.ms
    ln_lam = _aef_ln_lam(p, gamma_bar)
    g = np.asarray(g, dtype=np.float64)
    ge = g ** (0.5 * a)
    den = 2 * mu * h * ge + math.exp(ln_lam)
    z = H * H * (2 * mu * ge) ** 2 / den ** 2
    args = (mu + ms / 2, mu + (ms + 1) / 2, mu + 0.5)
    if precise:
        f = np.array([float(mpmath.hyp2f1(*args, zi)) for zi in z])
    else:
        f = special.hyp2f1(*args, z)
    ln_pdf = (math.log(a) + (2 * mu - 1) * math.log(2) + 2 * mu * math.log(mu)
              + mu * math.log(h) + ms * ln_lam + (a * mu - 1) * np.log(g)
              - special.betaln(2 * mu, ms) - (2 * mu + ms) * np.log(den))
    return np.exp(ln_pdf) * f


def _akf_f_scale(p: AkfParams, gamma_bar: float) -> float:
    """F = scale * gamma^(alpha/2) with F ~ noncentral F(2mu, 2ms, 2mu kappa)."""
    ln_c = (math.log(p.mu * (1 + p.kappa)) - math.log(p.ms - 1) - _ln_omega(p)
            - 0.5 * p.alpha * math.log(gamma_bar))
    return p.ms / p.mu * math.exp(ln_c)


def akf_cdf_ref(p: AkfParams, gamma_bar: float, g) -> np.ndarray:
    f = _akf_f_scale(p, gamma_bar) * np.asarray(g, dtype=np.float64) ** (0.5 * p.alpha)
    return special.ncfdtr(2 * p.mu, 2 * p.ms, 2 * p.mu * p.kappa, f)


def akf_pdf_ref(p: AkfParams, gamma_bar: float, g) -> np.ndarray:
    g = np.asarray(g, dtype=np.float64)
    s = _akf_f_scale(p, gamma_bar)
    f = s * g ** (0.5 * p.alpha)
    dens = stats.ncf.pdf(f, 2 * p.mu, 2 * p.ms, 2 * p.mu * p.kappa)
    return dens * s * 0.5 * p.alpha * g ** (0.5 * p.alpha - 1)


def aef_asym_ref(p: AefParams, gamma_bar: float, gamma_th: float) -> float:
    h, _ = _geometry(p)
    ln_lam = _aef_ln_lam(p, gamma_bar)
    return math.exp((2 * p.mu - 1) * math.log(2 * p.mu) + p.mu * math.log(h)
                    - special.betaln(2 * p.mu, p.ms)
                    + 2 * p.mu * (0.5 * p.alpha * math.log(gamma_th) - ln_lam))


def akf_asym_ref(p: AkfParams, gamma_bar: float, gamma_th: float) -> float:
    ln_lam = math.log(p.ms - 1) + _ln_omega(p) + 0.5 * p.alpha * math.log(gamma_bar)
    return math.exp((p.mu - 1) * math.log(p.mu) - p.mu * p.kappa
                    - special.betaln(p.mu, p.ms)
                    + p.mu * (math.log1p(p.kappa) + 0.5 * p.alpha * math.log(gamma_th)
                              - ln_lam))


def quad_cdf(pdf, gamma: float, head_exp: float) -> float:
    """Integral of pdf over (0, gamma), with t -> gamma t^k regularizing a
    gamma^head_exp endpoint."""
    k = max(1.0, 1.6 / (1.0 + head_exp))
    with warnings.catch_warnings():
        # a roundoff warning at 1e-13 absolute is no miss; the comparison decides
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, _ = integrate.quad(
            lambda t: pdf(gamma * t ** k) * gamma * k * t ** (k - 1.0), 0.0, 1.0, **_QUAD_OPTS
        )
    return val


def _rel(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), 1e-300)


# ------------------------------------------------------------------ verdicts


def _params(spec):
    kw = spec["kw"]
    return AefParams(**kw) if spec["family"] == "aef" else AkfParams(**kw)


def _density_refs(spec, quantity, xs):
    """Reference densities, and for alpha-eta-F a function giving a precise
    (mpmath) reference at one point."""
    p, gb = _params(spec), spec["gamma_bar"]
    if quantity == "envelope_pdf":
        # f_R(r) = 2 r f_gamma(r^2) at gamma_bar = Omega
        base = xs * xs
        jac = 2.0 * xs
    else:
        base, jac = xs, np.ones_like(xs)
    if spec["family"] == "akf":
        return akf_pdf_ref(p, gb, base) * jac, None
    ref = aef_pdf_ref(p, gb, base) * jac
    return ref, lambda i: aef_pdf_ref(p, gb, [base[i]], precise=True)[0] * jac[i]


def judge_curve(op, outcomes, rng) -> list[str]:
    """Verdict per outcome of a curve operation."""
    with mpmath.workdps(MP_DPS):
        return _judge_curve(op, outcomes, rng)


def _judge_curve(op, outcomes, rng) -> list[str]:
    verdicts = [basic_verdict(o) for o in outcomes]
    q, spec = op.quantity, op.spec
    if q.startswith("specfun."):
        return _judge_specfun(q.split(".", 1)[1], spec["args"], outcomes, verdicts, rng)
    xs = np.asarray(spec["xs"], dtype=np.float64)
    ok = [i for i, v in enumerate(verdicts) if v == OK]
    vals = np.array([_value(outcomes[i]) if i in ok else math.nan
                     for i in range(len(outcomes))])

    def miss(i, what, dev, tol):
        if dev > tol:
            verdicts[i] = f"failed: {what} off by {dev:.3g} > {tol:g} at x={xs[i]:.6g}"

    if q in ("snr_pdf", "envelope_pdf"):
        ref, precise = _density_refs(spec, q, xs)
        for i in ok:
            dev = _rel(vals[i], ref[i])
            if dev > DENSITY_REL_TOL and precise is not None:
                dev = _rel(vals[i], precise(i))
            if vals[i] < 0.0:
                verdicts[i] = "failed: negative density"
            miss(i, "density", dev, DENSITY_REL_TOL)
        return verdicts

    if q in ("snr_cdf", "snr_cdf_series", "snr_cdf_closed", "outage"):
        p, gb = _params(spec), spec["gamma_bar"]
        prev = -math.inf
        for i in ok:
            if not 0.0 <= vals[i] <= 1.0:
                verdicts[i] = "failed: CDF outside [0, 1]"
            if vals[i] < prev - MONOTONE_SLACK:
                verdicts[i] = "failed: CDF decreases"
            prev = max(prev, vals[i])
        if spec["family"] == "akf":
            ref = akf_cdf_ref(p, gb, xs)
            for i in ok:
                miss(i, "CDF vs ncfdtr", abs(vals[i] - ref[i]), CDF_QUAD_TOL)
            if q == "snr_cdf_closed":
                d = akf.AkfDist(p, gb)
                for i in ok:
                    series = d.snr_cdf_series(float(xs[i])).value
                    miss(i, "closed vs series", abs(vals[i] - series), CDF_CLOSED_TOL)
        else:
            d = aef.AefDist(p, gb)
            head = p.alpha * p.mu - 1.0
            for i in rng.permutation(ok)[:QUAD_PER_CURVE]:
                ref = quad_cdf(d.snr_pdf, float(xs[i]), head)
                miss(i, "CDF vs quadrature", abs(vals[i] - ref), CDF_QUAD_TOL)
        return verdicts

    if q == "asymptote":
        p, g_th = _params(spec), spec["gamma_th"]
        gd_want = p.alpha * p.mu if spec["family"] == "aef" else 0.5 * p.alpha * p.mu
        asym_ref = aef_asym_ref if spec["family"] == "aef" else akf_asym_ref
        prev = math.inf
        for i in ok:
            a, gc, gd = outcomes[i]
            miss(i, "asymptote", _rel(a, asym_ref(p, float(xs[i]), g_th)), DENSITY_REL_TOL)
            miss(i, "(gc gamma_bar)^-gd", _rel(a, (gc * xs[i]) ** -gd), DENSITY_REL_TOL)
            miss(i, "diversity gain", _rel(gd, gd_want), REDUCTION_TOL)
            if not a < prev:
                verdicts[i] = "failed: asymptote not decreasing in gamma_bar"
            prev = a
        return verdicts

    if q == "cdf_truncation_bound":
        p, gb, gamma = _params(spec), spec["gamma_bar"], spec["gamma"]
        d = aef.AefDist(p, gb)
        full = d.snr_cdf(gamma).value
        for i in ok:
            k0 = int(xs[i])
            part = d.snr_cdf(gamma, SeriesControl(max_terms=k0)).value
            excess = max(full - part, 0.0) - vals[i]
            if vals[i] < 0.0 or excess > 0.0:
                verdicts[i] = (f"failed: bound {vals[i]:.3g} below remainder at "
                               f"k0={k0}, gamma={gamma:.4g}")
        return verdicts

    raise ValueError(f"no reference for quantity {q!r}")


def _mp_psi1(a, b, c, cp, x, y):
    """Humbert Psi1 summed by rows in y, each row a 2F1 in x."""
    s, coef, n = mpmath.mpf(0), mpmath.mpf(1), 0
    while True:
        row = coef * mpmath.hyp2f1(a + n, b, c, x)
        s += row
        if n > 10 and abs(row) < mpmath.mpf(10) ** -30 * abs(s):
            return s
        coef *= mpmath.mpf(a + n) / ((cp + n) * (n + 1)) * y
        n += 1


def _mp_kdf(a1, a2, b1, c1, x, y):
    """Kampe de Feriet F 2:0;0 / 1:1;0 summed by rows in x, each a 2F1 in y."""
    s, coef, m = mpmath.mpf(0), mpmath.mpf(1), 0
    while True:
        row = coef * mpmath.hyp2f1(a1 + m, a2 + m, b1 + m, y)
        s += row
        if m > 10 and abs(row) < mpmath.mpf(10) ** -30 * abs(s):
            return s
        coef *= mpmath.mpf(a1 + m) * (a2 + m) / ((b1 + m) * (c1 + m) * (m + 1)) * x
        m += 1


_MP_REF = {
    "gauss_2f1": mpmath.hyp2f1,
    "kummer_1f1": mpmath.hyp1f1,
    "humbert_psi1": _mp_psi1,
    "kdf_2_1": _mp_kdf,
    "beta": mpmath.beta,
}
_MP_SUBSAMPLED = ("humbert_psi1", "kdf_2_1")


def _judge_specfun(name, args, outcomes, verdicts, rng):
    ok = [i for i, v in enumerate(verdicts) if v == OK]
    if name in _MP_SUBSAMPLED:
        ok = list(rng.permutation(ok)[:MP_PER_OP])
    for i in ok:
        want = float(_MP_REF[name](*args[i]))
        dev = _rel(_value(outcomes[i]), want)
        if dev > ENGINE_TOL:
            verdicts[i] = f"failed: {name}{args[i]} off by {dev:.3g} > {ENGINE_TOL:g}"
    return verdicts


def judge_chunk(op, outcomes, rng) -> list[str]:
    (draws,) = outcomes
    if isinstance(draws, BaseException):
        return [basic_verdict(draws)]
    if draws.shape != (op.items,) or not np.all(np.isfinite(draws)) or np.any(draws <= 0):
        return ["failed: draws not positive and finite"]
    return [OK]


# offset of the independent stream that confirms a KS miss; first-stage
# sampler keys are below 2**63 and battery seeds below 2**31
CONFIRM_KEY_BIT = 2**63
CONFIRM_BATTERY_OFFSET = 2**31


def _is_mc_check(name: str) -> bool:
    return name.startswith("mc-ks-")


def judge_battery(op, outcomes, rng) -> list[str]:
    """The battery's own verdicts. A Monte Carlo KS miss is confirmed on a
    second quick battery with an independent seed; the other checks are
    deterministic and are taken as they are."""
    verdicts = [OK if c["passed"] else f"failed: {c['name']} measured {c['measured']:.3g}"
                for c in outcomes]
    misses = [i for i, c in enumerate(outcomes) if not c["passed"] and _is_mc_check(c["name"])]
    if misses:
        from compfade import validation

        seed = op.spec["seed"] + CONFIRM_BATTERY_OFFSET
        again = {c["name"]: c for c in validation.run_battery("quick", seed=seed)["checks"]}
        for i in misses:
            c, c2 = outcomes[i], again.get(outcomes[i]["name"])
            if c2 is not None and c2["passed"]:
                verdicts[i] = (f"ok: {c['name']} KS miss {c['measured']:.3g} > "
                               f"{c['limit']:.3g} not confirmed (seed {seed}: "
                               f"{c2['measured']:.3g})")
    return verdicts


def _ks_to_law(c, draws) -> float:
    """KS distance of draws to the config's analytic envelope CDF,
    interpolated from a small fixed grid."""
    r = np.sort(draws)
    grid = np.geomspace(r[0], r[-1], 128)
    p = c["params"]
    # envelope CDF at Omega = 1 is the SNR CDF at gamma = r^2, gamma_bar = 1
    if isinstance(p, AkfParams):
        d = akf.AkfDist(p, 1.0)
        cdf = np.array([d.snr_cdf_series(float(x * x)).value for x in grid])
    else:
        d = aef.AefDist(p, 1.0)
        cdf = np.array([d.snr_cdf(float(x * x)).value for x in grid])
    f = np.interp(np.log(r), np.log(grid), cdf)
    return mc.ks_distance(mc.EmpiricalDist(samples=r, n=r.size), lambda x, _f=f: _f)


def judge_mc_configs(configs, chunks_by_config) -> dict[int, str]:
    """Per sampler configuration: byte-identical chunked vs single-stream
    draws, then the KS distance of the draws to the analytic envelope CDF,
    with a KS miss confirmed on an independent stream of the same law."""
    out = {}
    for cfg, c in enumerate(configs):
        parts = np.concatenate(chunks_by_config[cfg])
        single = getattr(mc, c["sampler"])(c["phys"], c["n"], c["seed"])
        if parts.tobytes() != single.tobytes():
            out[cfg] = "failed: chunked draws differ from the single stream"
            continue
        limit = mc.ks_threshold(parts.size)
        ks = _ks_to_law(c, parts)
        if ks <= limit:
            out[cfg] = OK
            continue
        key = c["seed"] | CONFIRM_KEY_BIT
        ks2 = _ks_to_law(c, getattr(mc, c["sampler"])(c["phys"], c["n"], key))
        out[cfg] = (f"failed: KS {ks:.3g} and {ks2:.3g} (key {key}) > {limit:.3g}"
                    if ks2 > limit else
                    f"ok: KS miss {ks:.3g} > {limit:.3g} not confirmed (key {key}: {ks2:.3g})")
    return out


JUDGES = {"curve": judge_curve, "chunk": judge_chunk, "battery": judge_battery}


# -------------------------------------------------------------------- probes
#
# One probe per known failure mode. A probe passes on a correct finite value,
# or on a DomainError where rejecting the input is allowed (kappa = inf,
# ms = inf). Probes are not timed and do not count as workload operations.

_DEMO_AKF = dict(alpha=2.5, kappa=1.5, mu=1.2, ms=4.0)
_DEMO_AEF = dict(alpha=2.5, eta=0.5, mu=1.2, ms=4.0)


def _probe_large_kappa():
    p = AkfParams(**{**_DEMO_AKF, "kappa": 1e3})
    d = akf.AkfDist(p, 1.0)
    g = 1.0
    cdf = akf_cdf_ref(p, 1.0, [g])[0]
    pdf = akf_pdf_ref(p, 1.0, [g])[0]
    devs = (abs(d.snr_cdf_series(g).value - cdf), abs(d.snr_cdf_closed(g).value - cdf))
    if max(devs) > CDF_QUAD_TOL:
        return f"CDF off by {max(devs):.3g}"
    if _rel(d.snr_pdf(g), pdf) > DENSITY_REL_TOL:
        return "pdf off"
    return None


def _probe_kappa_inf():
    try:
        p = AkfParams(**{**_DEMO_AKF, "kappa": math.inf})
        r = akf.AkfDist(p, 1.0).snr_cdf_series(1.0)
    except DomainError:
        return None
    # limit law: gamma = gamma_bar W^(2/alpha) / E[W^(2/alpha)], W the
    # inverse-gamma(ms, ms - 1) shadowing power
    q = 2.0 / p.alpha
    ew = math.exp(q * math.log(p.ms - 1) + math.lgamma(p.ms - q) - math.lgamma(p.ms))
    want = special.gammaincc(p.ms, (p.ms - 1) / (1.0 * ew) ** (0.5 * p.alpha))
    if not (r.converged and abs(r.value - want) <= CDF_QUAD_TOL):
        return f"CDF {r.value!r} (converged={r.converged}), limit law {want!r}"
    return None


def _probe_ms_inf():
    try:
        p = AefParams(**{**_DEMO_AEF, "ms": math.inf})
        d = aef.AefDist(p, 1.0)
        pdf, cdf = d.snr_pdf(1.0), d.snr_cdf(1.0)
    except DomainError:
        return None
    # limit law (no shadowing): gamma = S^q / E[S^q] with S the sum of
    # gamma(mu, 2 eta) and gamma(mu, 2) variates (Format I, sigma_y^2 = 1)
    q = 2.0 / p.alpha
    ax, ay = p.mu, p.mu
    sx, sy = 2.0 * p.eta, 2.0
    esq = (sy ** q * math.exp(math.lgamma(2 * p.mu + q) - math.lgamma(2 * p.mu))
           * float(mpmath.hyp2f1(-q, p.mu, 2 * p.mu, 1 - p.eta)))
    s_star = esq ** (1 / q)  # S at gamma = gamma_bar = 1
    want_cdf, _ = integrate.quad(
        lambda u: stats.gamma.pdf(u, ax, scale=sx) * stats.gamma.cdf(s_star - u, ay, scale=sy),
        0.0, s_star, **_QUAD_OPTS)
    f_s, _ = integrate.quad(
        lambda u: stats.gamma.pdf(u, ax, scale=sx) * stats.gamma.pdf(s_star - u, ay, scale=sy),
        0.0, s_star, **_QUAD_OPTS)
    want_pdf = f_s * s_star / q  # dS/dgamma at gamma = 1
    if not (cdf.converged and abs(cdf.value - want_cdf) <= CDF_QUAD_TOL):
        return f"CDF {cdf.value!r}, limit law {want_cdf!r}"
    if _rel(pdf, want_pdf) > DENSITY_REL_TOL:
        return f"pdf {pdf!r}, limit law {want_pdf!r}"
    return None


def _probe_closed_huge():
    p = AkfParams(**_DEMO_AKF)
    r = akf.AkfDist(p, 1.0).snr_cdf_closed(1e300)
    want = akf_cdf_ref(p, 1.0, [1e300])[0]
    if not (r.converged and abs(r.value - want) <= CDF_CLOSED_TOL):
        return f"CDF {r.value!r}, want {want!r}"
    return None


def _probe_pdf_inf():
    v = akf.AkfDist(AkfParams(**_DEMO_AKF), 1.0).snr_pdf(math.inf)
    return None if v == 0.0 else f"pdf(inf) = {v!r}"


def _probe_imbalance():
    p = AefParams(**{**_DEMO_AEF, "eta": 1e-9})
    d = aef.AefDist(p, 1.0)
    r = d.snr_cdf(1.0)
    want = quad_cdf(d.snr_pdf, 1.0, p.alpha * p.mu - 1.0)
    if not (r.converged and abs(r.value - want) <= CDF_QUAD_TOL):
        return f"CDF {r.value!r} (converged={r.converged}, {r.terms_used} terms), quadrature {want!r}"
    return None


PROBES = (
    ("kappa=1e3", _probe_large_kappa),
    ("kappa=inf", _probe_kappa_inf),
    ("ms=inf", _probe_ms_inf),
    ("snr_cdf_closed(1e300)", _probe_closed_huge),
    ("snr_pdf(inf)", _probe_pdf_inf),
    ("Format I eta=1e-9", _probe_imbalance),
)


def run_probes() -> list[tuple[str, str]]:
    """(probe, 'passed' or 'failed: ...') for every known failure mode."""
    out = []
    for name, probe in PROBES:
        try:
            with mpmath.workdps(MP_DPS):
                why = probe()
        except Exception as exc:  # any raise other than an allowed rejection
            why = f"raised {type(exc).__name__}: {exc}"
        out.append((name, "passed" if why is None else f"failed: {why}"))
    return out
