"""Command-line interface: curve generation, sampling, validation.

Exit codes: 0 success, 1 usage or parameter error, 2 numerical
non-convergence (curve rows are still emitted with converged=false),
3 validation failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import cases, mc
from .outage import outage as outage_probability
from .params import AefParams, AkfParams, Format
from .series import ConvergenceError, DomainError

__all__ = ["main"]

QUANTITIES = ("envelope-pdf", "snr-pdf", "snr-cdf", "op", "op-asym")


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; this tool reserves 2
    for numerical non-convergence, so usage errors exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="compfade",
        description=(
            "Composite fading distributions (alpha-eta-F and alpha-kappa-F): "
            "curves, physical-model sampling, and the validation battery."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    curve = sub.add_parser("curve", help="evaluate a quantity on a grid")
    _add_dist_args(curve)
    curve.add_argument(
        "--quantity", required=True, choices=QUANTITIES,
        help="what to evaluate at each grid point",
    )
    curve.add_argument("--gamma-bar", type=float, default=None,
                       help="mean SNR (snr-*/op quantities)")
    curve.add_argument("--omega", type=float, default=None,
                       help="mean envelope power E[R^2] (envelope-pdf)")
    curve.add_argument("--from", dest="start", type=float, required=True,
                       help="grid start")
    curve.add_argument("--to", dest="stop", type=float, required=True,
                       help="grid stop")
    curve.add_argument("--points", type=int, default=50, help="grid size")
    curve.add_argument("--log", action="store_true",
                       help="log-spaced grid (default linear)")
    curve.add_argument("--db", action="store_true",
                       help="render x as 10*log10(x) in the output only")
    curve.add_argument("--out", choices=("csv", "json"), default="csv")

    sample = sub.add_parser("sample", help="draw envelope samples from the "
                                           "physical generative model")
    _add_dist_args(sample)
    sample.add_argument("--omega", type=float, default=None,
                        help="scale the model so E[R^2] equals this")
    sample.add_argument("--n", type=int, required=True, help="sample count")
    sample.add_argument("--seed", type=int, required=True,
                        help="64-bit unsigned stream seed")
    sample.add_argument("--chunks", type=int, default=1,
                        help="partition count (output is identical for any value)")
    sample.add_argument("--out", choices=("csv", "json"), default="csv")

    val = sub.add_parser("validate", help="run the validation battery")
    val.add_argument("--level", choices=("quick", "full"), default="quick")
    val.add_argument("--seed", type=int, default=20250817)
    val.add_argument("--flip-h-sign", action="store_true",
                     help=argparse.SUPPRESS)
    return parser


def _add_dist_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dist", required=True, choices=("aef", "akf"),
                   help="fading family")
    p.add_argument("--alpha", type=float, required=True,
                   help="nonlinearity parameter")
    p.add_argument("--eta", type=float, default=None,
                   help="cluster power ratio / correlation (aef only)")
    p.add_argument("--kappa", type=float, default=None,
                   help="dominant-to-scattered power ratio (akf only)")
    p.add_argument("--mu", type=float, required=True, help="cluster count")
    p.add_argument("--ms", type=float, required=True,
                   help="shadowing severity shape")
    p.add_argument("--fmt", type=int, choices=(1, 2), default=None,
                   help="eta format, 1 or 2 (aef only; default 1)")


def _build_params(args) -> AefParams | AkfParams:
    """Family parameters from flags; flags for the other family are
    rejected rather than ignored."""
    if args.dist == "aef":
        if args.kappa is not None:
            raise DomainError(
                "--kappa is not a parameter of the alpha-eta-F family; use --eta"
            )
        if args.eta is None:
            raise DomainError("--eta is required for the alpha-eta-F family")
        fmt = Format.FORMAT_II if args.fmt == 2 else Format.FORMAT_I
        return AefParams(
            alpha=args.alpha, eta=args.eta, mu=args.mu, ms=args.ms, format=fmt
        )
    if args.eta is not None:
        raise DomainError(
            "--eta is not a parameter of the alpha-kappa-F family; use --kappa"
        )
    if args.fmt is not None:
        raise DomainError("--fmt applies only to the alpha-eta-F family")
    if args.kappa is None:
        raise DomainError("--kappa is required for the alpha-kappa-F family")
    return AkfParams(alpha=args.alpha, kappa=args.kappa, mu=args.mu, ms=args.ms)


def _build_grid(args) -> np.ndarray:
    if args.points < 1:
        raise DomainError(f"--points must be >= 1, got {args.points}")
    if args.points == 1:
        if args.start != args.stop:
            raise DomainError("--points 1 requires --from equal to --to")
        grid = np.array([args.start], dtype=np.float64)
    elif not args.start < args.stop:
        raise DomainError(
            f"grid requires start < stop, got [{args.start}, {args.stop}]"
        )
    elif args.log:
        if args.start <= 0.0:
            raise DomainError("--log requires a positive --from")
        grid = np.geomspace(args.start, args.stop, args.points)
    else:
        grid = np.linspace(args.start, args.stop, args.points)
    if args.db and not grid[0] > 0.0:
        raise DomainError(f"--db renders 10*log10(x) and needs positive points, got {grid[0]}")
    return grid


def _params_dict(p: AefParams | AkfParams) -> dict:
    d = dataclasses.asdict(p)
    if isinstance(p, AefParams):
        d["format"] = p.format.value
    return d


def _json_num(v: float):
    return v if math.isfinite(v) else None


def _make_evaluator(args, params):
    """(callable x -> (value, est_error, converged), spec dict) for the
    requested quantity."""
    q = args.quantity
    spec = {
        "dist": args.dist,
        "quantity": q,
        "params": _params_dict(params),
        "grid": {
            "start": args.start,
            "stop": args.stop,
            "points": args.points,
            "scale": "log" if args.log else "linear",
        },
        "db": bool(args.db),
    }
    family = cases._FAMILIES[type(params)]
    if q == "envelope-pdf":
        if args.gamma_bar is not None:
            raise DomainError("--gamma-bar does not apply to envelope-pdf; "
                              "use --omega")
        omega = 1.0 if args.omega is None else args.omega
        spec["omega_power"] = omega
        env = family.envelope(params, omega)
        return (lambda x: (env.envelope_pdf(x), 0.0, True)), spec
    if args.omega is not None:
        raise DomainError(f"--omega does not apply to {q}; use --gamma-bar")
    gamma_bar = 1.0 if args.gamma_bar is None else args.gamma_bar
    spec["gamma_bar"] = gamma_bar
    dist = family.law(params, gamma_bar)
    if q == "snr-pdf":
        return (lambda x: (dist.snr_pdf(x), 0.0, True)), spec
    if q == "op-asym":
        return (lambda x: (family.asymptote(dist, x), 0.0, True)), spec
    series = dist.snr_cdf if q == "snr-cdf" else (lambda x: outage_probability(dist, x))

    def evaluate(x):
        r = series(x)
        return r.value, r.est_error, r.converged

    return evaluate, spec


def cmd_curve(args, stream) -> int:
    params = _build_params(args)
    grid = _build_grid(args)
    evaluate, spec = _make_evaluator(args, params)
    rows = []
    all_converged = True
    for x in grid:
        try:
            value, est, conv = evaluate(float(x))
        except ConvergenceError:
            value, est, conv = float("nan"), float("inf"), False
        all_converged = all_converged and conv
        x_out = 10.0 * math.log10(x) if args.db else float(x)
        rows.append((x_out, value, est, conv))
    if args.out == "csv":
        stream.write("x,value,est_error,converged\n")
        for x_out, value, est, conv in rows:
            stream.write(f"{x_out!r},{value!r},{est!r},{str(conv).lower()}\n")
    else:
        payload = {
            "spec": spec,
            "rows": [
                {
                    "x": _json_num(x_out),
                    "value": _json_num(value),
                    "est_error": _json_num(est),
                    "converged": conv,
                }
                for x_out, value, est, conv in rows
            ],
        }
        stream.write(json.dumps(payload, indent=2) + "\n")
    return 0 if all_converged else 2


def cmd_sample(args, stream) -> int:
    params = _build_params(args)
    if args.n < 0:
        raise DomainError(f"--n must be >= 0, got {args.n}")
    if args.chunks < 1:
        raise DomainError(f"--chunks must be >= 1, got {args.chunks}")
    phys = mc.make_phys(params, power_target=args.omega)
    sampler = cases._FAMILIES[type(params)].sample
    edges = np.linspace(0, args.n, args.chunks + 1).astype(int)
    parts = [
        sampler(phys, int(b - a), args.seed, start=int(a))
        for a, b in zip(edges[:-1], edges[1:])
    ]
    samples = np.concatenate(parts) if parts else np.empty(0)
    if args.out == "csv":
        stream.write("sample\n")
        for v in samples:
            stream.write(f"{float(v)!r}\n")
    else:
        payload = {
            "spec": {
                "dist": args.dist,
                "params": _params_dict(params),
                "omega_power": args.omega,
                "n": args.n,
                "seed": args.seed,
            },
            "samples": [float(v) for v in samples],
        }
        stream.write(json.dumps(payload, indent=2) + "\n")
    return 0


def cmd_validate(args, stream) -> int:
    # imported here, so the other commands do not load the battery
    from . import validation

    report = validation.run_battery(
        level=args.level, seed=args.seed, flip_h_sign=args.flip_h_sign
    )
    stream.write(json.dumps(report, indent=2) + "\n")
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    summary = (
        f"{len(report['checks'])} checks, {len(failed)} failed"
        + (f" ({', '.join(failed[:6])})" if failed else "")
    )
    print(f"validate {args.level}: {summary}", file=sys.stderr)
    timing = ", ".join(f"{group} {s:.3f}" for group, s in report["seconds"].items())
    print(f"validate {args.level} seconds: {timing}", file=sys.stderr)
    return 0 if report["passed"] else 3


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "curve":
            return cmd_curve(args, sys.stdout)
        if args.command == "sample":
            return cmd_sample(args, sys.stdout)
        return cmd_validate(args, sys.stdout)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConvergenceError as exc:
        print(f"error: failed to converge: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
