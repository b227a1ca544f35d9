"""Physical-model Monte-Carlo samplers and goodness-of-fit machinery.

The samplers build envelopes directly from the generative model: sums of
the powers of Gaussian cluster pairs (optionally mean-shifted or
correlated), all multiplied by a single shared inverse-Nakagami-squared
shadowing variate per draw, then raised to 1/alpha. Nothing here evaluates
an analytical density, so sampler output is independent ground truth for
the formula modules; the only special functions are scipy.special's.

A pair's power is drawn exactly from its radius and angle (Box and Muller
1958). Two iid N(0, sigma^2) components have R^2 = -2 sigma^2 ln u for a
uniform u, and the pair plus an offset of length d has the power
R^2 + 2 R d cos(2 pi v) + d^2 for a second uniform v, formed as
(R - d)^2 + 4 R d cos^2(pi v), two terms that are never negative.
alpha-eta-F pairs its in-phase components with each other and its
quadrature components with each other (in Format II, the sums and
differences (X +- Y)/sqrt(2) of its correlated components), so every pair
is centred: a log a pair, and PhysAef holds just the two halves'
variances. alpha-kappa-F's sum depends on the means only through
d^2 = sum(p_i^2 + q_i^2), as a rotation of its 2 mu components moves every
offset onto one pair, so PhysAkf holds sigma^2 and d^2. Its first pair
takes the whole offset d: one angle, one sqrt and one cos a draw, whatever
mu is.

The shadowing variate is Z^2 = (ms - 1)/x with x the gamma(ms) quantile at
the draw's uniform u. A table holds y = ln x at 512 nodes uniform in
w = logit(u) on [-38, 38] (gammaincinv, or gammainccinv above the median),
each with its Taylor series in w to order 7. The series come from the ODE
y' = G, G' = G (-tanh(w/2) - ms (1 - x/ms) G), where G = u(1 - u)/(x f(x))
and f is the gamma density in Temme's form, by Cauchy products at all nodes
at once: the "quantile mechanics" of Steinbrecher and Shaw (Eur. J. Appl.
Math. 19, 2008). A table takes about 0.38 ms to build and is memoized per
shape (the last 16 values of ms), so a process builds it once per ms,
however many calls or chunks draw at that ms. A draw sums the series of its
nearest node at tau = logit(u) - w_k by Horner's rule: a log, a log1p, an
exp and 9 gathers (8 of them the Horner sum's), about 21 ns on a 2-vCPU
x86 host, and no incomplete gamma function. The table depends on ms only,
so every draw is still a pure function of (ms, u). For 1 < ms <= 3e5 and u
from 2^-53 to 1 - 2^-53 the draws agree with (ms - 1)/gammaincinv(ms, u)
within 2.3e-14 relative, and within 7.6e-15 from ms = 2.6 on. Near ms = 1
the two err in different places against 40-digit mpmath. In the bulk
gammaincinv is up to 2.2e-14 off and the table 4.0e-15 (ms = 1.057,
u = 0.655). In the far lower tail, where ln x is near -33, the table is up
to 1.7e-14 off (ms = 1.01, u = 2^-48) and gammaincinv up to 7.9e-15
(ms = 1 + 3e-7, u = 2^-48). Above ms = 3e5 each draw calls gammaincinv.
There scipy's incomplete gamma functions lose digits in the far tails
(gammainc(1e6, x) is 1.1e-5 off at u = 3.2e-6), and a table built on
gammaincinv's nodes is up to 6.5e-10 off gammaincinv's own draws at
ms = 1e6.

Streams are PCG64 (O'Neill 2014) with jump-ahead. A draw's row holds the
shadowing's uniform and alpha-eta-F's 2 mu radii, or alpha-kappa-F's mu
radii and angle, padded to a multiple of 4. A double takes one 64-bit
output, so row start begins start * width outputs into the seed's stream,
where advance jumps in at most 128 steps, and draws [start, start+n) are
bitwise the same however a run is partitioned. The padding gives 1 + 2 mu
and 2 + 2 mu columns one width, so alpha-eta-F at mu draws what
alpha-kappa-F at kappa = 0 with 2 mu clusters draws; exact widths also
cost a quick battery about 4,600 page faults, against 1 or 2 (see
CHANGES.md).
A uniform costs about 2.4 ns. In 7692-row calls on a 2-vCPU x86 host, the
table already built, a draw costs about 45, 103 and 117 ns at mu = 1, 2
and 3 (alpha-eta-F), and 66, 69 and 87 ns (alpha-kappa-F); alpha-eta-F at
mu = 2 and 3 takes about 70 and 78 ns where glibc does not return the heap
between calls.
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np
from scipy import special as sc

from ._kernels import _hyp1f1, _hyp2f1, _ln_gamma_star
from .params import AefParams, AkfParams, Format, _require_shape
from .series import DomainError

__all__ = [
    "PhysAef",
    "PhysAkf",
    "EmpiricalDist",
    "sample_inv_nakagami_sq",
    "sample_aef_envelope",
    "sample_akf_envelope",
    "make_phys",
    "ks_distance",
    "ks_threshold",
    "envelope_alpha_mean",
    "envelope_sq_mean",
]

_CHUNK_ROWS = 1 << 18
_U_FLOOR = 2.0 ** -53  # keep uniforms strictly inside (0, 1)
_KS_SAFETY = 1.2
_TABLE_MS_MAX = 3e5  # shadowing by Taylor table up to here, gammaincinv above
_TABLE_NODES = 512
_TABLE_W = 38.0  # nodes span logit(u) in [-38, 38]; logit(2^-53) = -36.7
_TABLE_ORDER = 7  # Taylor order of ln x at each node
_TABLE_CACHE = 16  # shapes whose shadowing a process keeps
# The table's eight series in w = logit(u): E = x/ms, F = 1 - E,
# Q = -T - ms F G, T = tanh(w/2), then G = d(ln x)/dw three times and T, so
# that the first four times the last four are the Cauchy products E G, F G,
# Q G and T T. As E' = E G, F' = -E G, G' = Q G and T' = (1 - T^2)/2, order
# n + 1 of series i is order n's product _TAYLOR_FROM[i] times
# _TAYLOR_SCALE[n, i]; that is 0 for Q, which each order sets from its F G.
# A gather, not np.matmul: the sampler's only BLAS call cost 0.25 MB of RSS.
_TAYLOR_FROM = np.array([0, 0, 0, 3, 2, 2, 2, 3])
_TAYLOR_SCALE = (np.array([1.0, -1.0, 0.0, -0.5, 1.0, 1.0, 1.0, -0.5])[:, None]
                 / np.arange(1.0, _TABLE_ORDER + 1)[:, None, None])


def _require_clusters(mu_int) -> None:
    """The physical models sum whole clusters: mu_int is an integer >= 1."""
    try:
        whole = operator.index(mu_int) >= 1
    except TypeError:
        whole = False
    if not whole:
        raise DomainError(f"mu_int must be an integer >= 1, got {mu_int!r}")


@dataclass(frozen=True)
class PhysAef:
    """Physical configuration of the alpha-eta-F generative model: 2 mu_int
    clusters whose two independent halves have the per-component variances
    sigma_x2 and sigma_y2. In Format I the halves are the in-phase and
    quadrature components; in Format II, with correlation eta and variance
    sigma^2, they are (X +- Y)/sqrt(2), of variances sigma^2 (1 +- eta)."""

    alpha: float
    mu_int: int
    ms: float
    sigma_x2: float
    sigma_y2: float

    def __post_init__(self) -> None:
        _require_shape(alpha=self.alpha, ms=self.ms)
        _require_clusters(self.mu_int)
        if not (0.0 < self.sigma_x2 < math.inf and 0.0 < self.sigma_y2 < math.inf):
            raise DomainError(f"sigma_x2 and sigma_y2 must be positive and finite, got "
                              f"{self.sigma_x2} and {self.sigma_y2}")


@dataclass(frozen=True)
class PhysAkf:
    """Physical configuration of the alpha-kappa-F generative model: mu_int
    cluster pairs of variance-sigma2 Gaussians whose means (p_i, q_i) enter
    the law only through their squared length d2 = sum(p_i^2 + q_i^2), with
    kappa = d2 / (2 mu sigma2)."""

    alpha: float
    mu_int: int
    ms: float
    sigma2: float
    d2: float

    def __post_init__(self) -> None:
        _require_shape(alpha=self.alpha, ms=self.ms)
        _require_clusters(self.mu_int)
        if not 0.0 < self.sigma2 < math.inf:
            raise DomainError(f"sigma2 must be positive and finite, got {self.sigma2}")
        if not 0.0 <= self.d2 < math.inf:
            raise DomainError(f"d2 must be non-negative and finite, got {self.d2}")


@dataclass(frozen=True, eq=False)
class EmpiricalDist:
    """Sorted sample vector with its size: samples is 1-d, non-empty,
    non-decreasing and free of NaN, and n is its size."""

    samples: np.ndarray
    n: int

    def __post_init__(self) -> None:
        x = self.samples
        if not isinstance(x, np.ndarray) or x.ndim != 1 or x.size == 0:
            raise DomainError("EmpiricalDist requires a non-empty 1-d sample vector")
        if self.n != x.size:
            raise DomainError(f"n must be the sample size {x.size}, got {self.n}")
        # a NaN fails every comparison, so the order test finds it unless alone
        if np.isnan(x[-1]) or not np.all(x[1:] >= x[:-1]):
            raise DomainError("EmpiricalDist requires sorted samples without NaN")

    @classmethod
    def from_samples(cls, samples) -> "EmpiricalDist":
        arr = np.sort(np.asarray(samples, dtype=np.float64))
        return cls(samples=arr, n=int(arr.size))


def ks_threshold(n: int) -> float:
    """KS pass threshold: the asymptotic 1% Kolmogorov quantile 1.63/sqrt(n)
    times the safety factor _KS_SAFETY = 1.2 (0.00196 at n = 10^6)."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    return _KS_SAFETY * 1.63 / math.sqrt(n)


def _uniform_rows(seed: int, width: int, start: int, rows: int) -> np.ndarray:
    """Rows [start, start+rows) of the seed's uniform stream, width doubles
    per row. A double takes one 64-bit PCG64 output, so row start begins
    start * width outputs in, where advance jumps in at most 128 steps."""
    bit = np.random.PCG64(seed)
    bit.advance(start * width)
    u = np.random.Generator(bit).random((rows, width), dtype=np.float64)
    np.maximum(u, _U_FLOOR, out=u)
    return u


def _draw(n: int, seed: int, start: int, columns: int, rows_to_draws) -> np.ndarray:
    """Draws [start, start+n) of the seed's stream, a row of its first
    `columns` uniforms each, padded to a multiple of 4 (see the module
    docstring); rows_to_draws makes them from blocks of at most _CHUNK_ROWS
    rows."""
    try:
        n, seed, start = map(operator.index, (n, seed, start))
    except TypeError:
        raise DomainError(f"n, seed and start must be integers: {n!r}, {seed!r}, "
                          f"{start!r}") from None
    if not 0 <= seed < 2**64:
        raise DomainError(f"seed must be a 64-bit unsigned integer, got {seed}")
    if n < 0 or start < 0:
        raise DomainError("n and start must be non-negative")
    width = 4 * ((columns + 3) // 4)
    out = np.empty(n, dtype=np.float64)
    done = 0
    while done < n:
        rows = min(_CHUNK_ROWS, n - done)
        out[done : done + rows] = rows_to_draws(_uniform_rows(seed, width, start + done, rows))
        done += rows
    return out


def _ln_x_gamma_pdf(ms: float, c: float, x: np.ndarray) -> np.ndarray:
    """ln(x f(x)) for the gamma(ms) density f in Temme's form
    c - ms (d - ln(1 + d)), d = x/ms - 1, c = ln(ms/(2 pi))/2 - ln Gamma*(ms):
    no term grows with ms. ln(1 + d) is taken as ln(x/ms): as accurate as
    log1p(d) where d is exact (x/ms in [1/2, 2]), and below that it keeps the
    digits log1p(d) loses."""
    q = x / ms
    return c - ms * ((q - 1.0) - np.log(q))


@functools.lru_cache(maxsize=_TABLE_CACHE)
def _shadowing(ms: float):
    """Z^2 = (ms - 1)/x, x the gamma(ms) quantile, as a function of the
    uniforms u in [2^-53, 1 - 2^-53] (see the module docstring). Memoized
    on ms, so a process builds a shape's table once; its arrays are
    read-only, as every call at that shape shares them."""
    if ms > _TABLE_MS_MAX:
        return lambda u: (ms - 1.0) / sc.gammaincinv(ms, u)
    nodes = np.linspace(-_TABLE_W, _TABLE_W, _TABLE_NODES)
    h = nodes[1] - nodes[0]
    u, v = sc.expit(nodes), sc.expit(-nodes)
    lo = nodes <= 0.0
    x = np.empty_like(nodes)
    x[lo] = sc.gammaincinv(ms, u[lo])
    x[~lo] = sc.gammainccinv(ms, v[~lo])
    c = 0.5 * math.log(ms / (2.0 * math.pi)) - _ln_gamma_star(ms)
    y = np.log(x)
    ln_e = y - math.log(ms)
    # Taylor coefficients of the eight series (see _TAYLOR_FROM) in
    # tau = w - w_k, one order a row. Q_n is still 0 in order n's Q G, and
    # takes its value from that order's F G.
    series = np.zeros((_TABLE_ORDER, 8, nodes.size))
    series[0, 0] = np.exp(ln_e)
    series[0, 1] = -np.expm1(ln_e)
    series[0, 3::4] = u - v
    series[0, 4:7] = np.exp(np.log(u) + np.log(v) - _ln_x_gamma_pdf(ms, c, x))
    for n in range(_TABLE_ORDER - 1):
        p = np.einsum("jik,jik->ik", series[: n + 1, :4], series[n::-1, 4:])
        q = series[n, 2]
        np.multiply(p[1], -ms, out=q)
        q -= series[n, 3]
        p[2] += series[0, 4] * q
        if n == 0:
            p[3] -= 1.0  # the 1 of T' = (1 - T^2)/2
        np.multiply(p.take(_TAYLOR_FROM, axis=0), _TAYLOR_SCALE[n], out=series[n + 1])
    coef = np.empty((_TABLE_ORDER + 1, nodes.size))  # of y = ln x, from y' = G
    coef[0] = y
    np.divide(series[:, 4], np.arange(1.0, _TABLE_ORDER + 1)[:, None], out=coef[1:])
    nodes.flags.writeable = coef.flags.writeable = False

    def z2(u: np.ndarray) -> np.ndarray:
        w = np.log(u) - np.log1p(-u)
        k = np.rint((w + _TABLE_W) / h).astype(np.intp)
        tau = w - nodes.take(k)
        y = coef[-1].take(k)
        for a in coef[-2::-1]:
            y *= tau
            y += a.take(k)
        return (ms - 1.0) / np.exp(y)

    return z2


def sample_inv_nakagami_sq(ms: float, n: int, seed: int, start: int = 0) -> np.ndarray:
    """n draws of the squared normalized inverse-Nakagami shadowing variate:
    inverse-gamma with shape ms and scale ms-1, so the mean is exactly 1."""
    _require_shape(ms=ms)
    z2 = _shadowing(float(ms))
    return _draw(n, seed, start, 1, lambda u: z2(u[:, 0]))


def _power_sum(u: np.ndarray, c, d=0.0, v=None) -> np.ndarray:
    """Each row's sum of k pair powers (see the module docstring), from the
    (rows, k) view u of radius uniforms; c is -2 sigma^2, scalar or (k, 1).
    The first pair has the offset d and the (rows, 1) angle uniforms v.
    Not as R^2 + 2 R d cos(2 pi v) + d^2, which cancels where R ~ d. The
    work runs along the draws on (k, rows) arrays, and the pairs are added
    in order, so a draw does not depend on how many rows come with it."""
    s = np.log(u.T, order="C")
    s *= c
    if d:
        r = np.sqrt(s[:1], out=s[:1])
        t = np.multiply(v.T, np.pi, order="C")
        np.cos(t, out=t)
        t *= t
        t *= r
        t *= 4.0 * d
        r -= d
        r *= r
        r += t
    for row in s[1:]:
        s[0] += row
    return s[0]


def sample_aef_envelope(p: PhysAef, n: int, seed: int, start: int = 0) -> np.ndarray:
    """n draws of the alpha-eta-F envelope R = (Z^2 sum(X_i^2 + Y_i^2))^(1/alpha)
    over 2 mu_int clusters, one shared Z^2 per draw. The 2 mu_int components
    of each half are paired with each other: mu_int squared radii of variance
    p.sigma_x2, then mu_int of p.sigma_y2, from row columns 1..2 mu_int."""
    inv_alpha = 1.0 / p.alpha
    c = np.repeat(-2.0 * np.array((p.sigma_x2, p.sigma_y2)), p.mu_int)[:, None]
    z2 = _shadowing(float(p.ms))

    def envelope(u: np.ndarray) -> np.ndarray:
        return (z2(u[:, 0]) * _power_sum(u[:, 1 : 1 + c.size], c)) ** inv_alpha

    return _draw(n, seed, start, 1 + c.size, envelope)


def sample_akf_envelope(p: PhysAkf, n: int, seed: int, start: int = 0) -> np.ndarray:
    """n draws of the alpha-kappa-F envelope
    R = (Z^2 sum((X_i + p_i)^2 + (Y_i + q_i)^2))^(1/alpha) over mu_int cluster
    pairs, one shared Z^2 per draw: radii from row columns 1..mu_int and the
    angle of the first pair, which takes the whole offset d = sqrt(p.d2)
    (see the module docstring), from column mu_int + 1."""
    mu = p.mu_int
    inv_alpha = 1.0 / p.alpha
    c = -2.0 * p.sigma2
    d = math.sqrt(p.d2)
    z2 = _shadowing(float(p.ms))

    def envelope(u: np.ndarray) -> np.ndarray:
        s = _power_sum(u[:, 1 : 1 + mu], c, d, u[:, 1 + mu : 2 + mu])
        return (z2(u[:, 0]) * s) ** inv_alpha

    return _draw(n, seed, start, 2 + mu, envelope)


def _gamma_ratio(ms: float, q: float) -> float:
    """E[(Z^2)^q] for the shadowing variate: (ms-1)^q Gamma(ms-q)/Gamma(ms)."""
    if not ms > q:
        raise DomainError(
            f"ms = {ms} must exceed {q} for the requested power moment to exist"
        )
    return math.exp(
        q * math.log(ms - 1.0) + math.lgamma(ms - q) - math.lgamma(ms)
    )


def _aef_sum_moment(p: PhysAef, q: float) -> float:
    """E[S^q] for S = sum of the 4 mu_int squared Gaussians, the sum of
    gamma(mu, 2a)- and gamma(mu, 2b)-distributed halves, a = sigma_x2 and
    b = sigma_y2:
    (2b)^q Gamma(2mu + q)/Gamma(2mu) 2F1(-q, mu; 2mu; 1 - a/b), one
    scipy.special.hyp2f1 call."""
    a, b = p.sigma_x2, p.sigma_y2
    mu = float(p.mu_int)
    f = _hyp2f1(-q, mu, 2.0 * mu, 1.0 - a / b)
    return (
        (2.0 * b) ** q
        * math.exp(math.lgamma(2.0 * mu + q) - math.lgamma(2.0 * mu))
        * f
    )


def _akf_sum_moment(p: PhysAkf, q: float) -> float:
    """E[S^q] for S = sum of mu_int mean-shifted squared Gaussian pairs:
    (2 sigma2)^q Gamma(mu + q)/Gamma(mu) 1F1(-q; mu; -mu kappa), Kummer's
    form of e^(-mu kappa) 1F1(mu + q; mu; mu kappa), mu kappa = d2/(2 sigma2):
    one scipy.special.hyp1f1 call with no e^(mu kappa) to overflow."""
    mu = float(p.mu_int)
    mk = 0.5 * p.d2 / p.sigma2
    f = _hyp1f1(-q, mu, -mk)
    return (
        (2.0 * p.sigma2) ** q
        * math.exp(math.lgamma(mu + q) - math.lgamma(mu))
        * f
    )


def envelope_alpha_mean(p: PhysAef | PhysAkf) -> float:
    """E[R^alpha] of the physical model (the pre-nonlinearity mean power)."""
    if isinstance(p, PhysAef):
        return _aef_sum_moment(p, 1.0)
    if isinstance(p, PhysAkf):
        return _akf_sum_moment(p, 1.0)
    raise DomainError(f"unsupported physical model {type(p).__name__}")


def envelope_sq_mean(p: PhysAef | PhysAkf) -> float:
    """Omega = E[R^2] of the physical model."""
    q = 2.0 / p.alpha
    zq = _gamma_ratio(p.ms, q)
    if isinstance(p, PhysAef):
        return zq * _aef_sum_moment(p, q)
    if isinstance(p, PhysAkf):
        return zq * _akf_sum_moment(p, q)
    raise DomainError(f"unsupported physical model {type(p).__name__}")


def make_phys(
    params: AefParams | AkfParams, power_target: float | None = None
) -> PhysAef | PhysAkf:
    """Physical configuration matching an analytical parameter bundle.

    mu must be a positive integer (the generative model sums over whole
    clusters). At scale s2: Format I has the half-variances (eta s2, s2),
    Format II (s2 (1 + eta), s2 (1 - eta)) with sigma^2 = s2; alpha-kappa-F
    has sigma2 = s2 and the dominant power split uniformly, p_i = q_i =
    sqrt(kappa s2), so d2 is the sum of those 2 mu squared means. The scale
    is 1, or, if power_target is given, the one that makes E[R^2] equal it.
    """
    mu = params.mu
    if abs(mu - round(mu)) > 1e-9 or round(mu) < 1:
        raise DomainError(
            f"physical sampler requires integer mu (whole clusters), got {mu}"
        )
    mu_int = int(round(mu))
    if isinstance(params, AefParams):
        def build(s2: float) -> PhysAef:
            eta = params.eta
            if params.format is Format.FORMAT_I:
                return PhysAef(params.alpha, mu_int, params.ms, eta * s2, s2)
            return PhysAef(params.alpha, mu_int, params.ms, s2 * (1.0 + eta), s2 * (1.0 - eta))
    elif isinstance(params, AkfParams):
        def build(s2: float) -> PhysAkf:
            m = math.sqrt(params.kappa * s2)
            h = sum([m * m] * mu_int)  # sum(p_i^2), equal to sum(q_i^2)
            return PhysAkf(params.alpha, mu_int, params.ms, s2, h + h)
    else:
        raise DomainError(f"unsupported parameter type {type(params).__name__}")
    base = build(1.0)
    if power_target is None:
        return base
    if not 0.0 < power_target < math.inf:
        raise DomainError(f"power_target must be positive and finite, got {power_target}")
    return build((power_target / envelope_sq_mean(base)) ** (0.5 * params.alpha))


def ks_distance(emp: EmpiricalDist, cdf) -> float:
    """Two-sided Kolmogorov-Smirnov distance between an empirical sample and
    a model CDF: sup over samples of the gap against both step edges. cdf
    takes the sample array and returns an array of its shape."""
    x = emp.samples
    f = np.asarray(cdf(x), dtype=np.float64)
    if f.shape != x.shape:
        raise DomainError(f"cdf returned shape {f.shape} for samples of shape {x.shape}")
    i = np.arange(1, emp.n + 1, dtype=np.float64)
    d_plus = np.max(i / emp.n - f)
    d_minus = np.max(f - (i - 1.0) / emp.n)
    return float(max(d_plus, d_minus))
