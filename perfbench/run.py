#!/usr/bin/env python3
"""Layered benchmark of compfade.

    python3 perfbench/run.py --workload curve-grid --seed 1 --seconds 18 --trace 0

Run from anywhere inside a source checkout; the library is imported from the
checkout's `src/`, never from an installed copy. One process, one thread,
one closed-loop caller: each operation starts when the previous one returns.
The run:

1. measures set-up: it starts fresh interpreters that import the library
   and its CLI, build the workload's inputs and make one warm-up call,
   and reports the median time until each is ready;
2. runs complete passes over the workload's operations for --seconds;
   with --trace 1 every second pass runs with spans around every public
   library call, and the traced pass over the plain one before it gives
   the tracing overhead;
3. reads the peak resident memory, then loads the checker and judges
   every outcome against independent references (checks.py), and on
   series-tail runs one probe per known failure mode;
4. prints a report, writes the full result, unscaled times included (and
   with --trace 1 the spans), to .perfbench/ in the checkout, and prints
   as its last line a JSON object with the metrics that BENCHMARK.json
   names for this mode.

An operation is a curve on curve-grid and series-tail (one quantity of one
parameter set over its grid), a sampler chunk on mc-sample and one quick
battery on validate-quick. Items are the points, draws or battery checks
those operations produce.

End-to-end metrics (--trace 0), times in reference-host time (HostSpeed):
  setup_s      median over fresh interpreters of the time to ready
  op_ms_p50    median over the operations of each one's median time per
               execution: time per curve, per chunk, or of the battery
  op_ms_p90    90th percentile of the same (with one battery, equal to p50)
  items_per_s  items of one pass over the sum of those times: points,
               draws or battery checks per second
  peak_rss_mb  peak resident memory of the benchmark process at the end
               of the timed passes, before the checker loads
Calls that fail count in the result line's `failed`; calls refused with a
documented DomainError or ConvergenceError count in `attempted` only.

Per-layer metrics (--trace 1): <module>.<function>.<stat> with calls,
busy_s, self_s, terms_p50/p99/max and us_per_term (from
SeriesResult.terms_used), unconverged and raised.<Exception>; setup.import_s
(cold import of the library and its CLI), setup.build_s, setup.warm_s;
trace.overhead_frac (median over pairs of passes of the traced pass's
time over the plain one's, minus one); trace.wall_s (time of the traced
passes); failed_ops_frac and refused_ops_frac; and probes.passed and
probes.failed, the known failure modes probed after series-tail runs.
"""
from __future__ import annotations

import os

# Pin native thread pools before numpy loads; child processes inherit this.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
SETUP_PROBES = 5
SMOKE_SETUP_PROBES = 1
# HostSpeed kernel time on the reference host at full speed (2-core VM,
# Python 3.11, numpy 2.4, scipy 1.17).
CAL_REF_S = 27e-3
FORBIDDEN_ENV = ("COMPFADE_BACKEND", "COMPFADE_MAX_TERMS")
WORKLOADS = ("curve-grid", "series-tail", "mc-sample", "validate-quick")


class BenchError(RuntimeError):
    """The benchmark cannot run or cannot report; exits non-zero."""


def _parse(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=18.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs and one set-up probe, for the harness test")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _use_checkout_source() -> None:
    for var in FORBIDDEN_ENV:
        if var in os.environ:
            raise BenchError(f"{var} is set; it changes the work done, unset it")
    src = ROOT / "src"
    if not (src / "compfade" / "__init__.py").is_file():
        raise BenchError(f"no library source at {src / 'compfade'}")
    sys.path.insert(0, str(src))


class HostSpeed:
    """Speed of the host right now, from a fixed kernel.

    The hosts this runs on are shared: other tenants slow every process by
    up to a half for seconds to tens of seconds at a time, so raw timings
    move by that much from run to run whatever statistic is taken. The
    kernel therefore runs before the first pass and after every pass, and
    the times of a pass are scaled by CAL_REF_S over the mean time of the
    kernels on either side of it: they read as times on the reference host
    at full speed. Each set-up probe runs the kernel itself as soon as it
    is ready, and its times are scaled by its own factor. Interpreted and
    native code slow down by different amounts, so the kernel does both,
    as compfade does: it updates a numpy array one element at a time in an
    interpreted loop, as the series kernels of the numpy backend do, and
    inverts the incomplete gamma function over an array, as the sampler
    does. (On a loaded host, this tracked the time of series-tail and
    curve-grid operations better than a walk over scattered Python floats.)
    """

    def __init__(self) -> None:
        import numpy as np
        from scipy import special

        rng = np.random.default_rng(0)
        self._col = np.zeros(2_000)
        self._u = rng.random(30_000)
        self._out = np.empty_like(self._u)
        self._gammaincinv = special.gammaincinv

    def kernel_s(self) -> float:
        """Time of the kernel now."""
        t0 = time.perf_counter()
        col = self._col
        for _ in range(24):
            for m in range(len(col)):
                col[m] *= 0.5
                col[m] += 1.0
        self._gammaincinv(3.7, self._u, out=self._out)
        return time.perf_counter() - t0

    def factor(self) -> float:
        """Multiplier from a time measured now to reference time."""
        return CAL_REF_S / self.kernel_s()


def setup_probe(args) -> None:
    """Child process: import, build, warm up, then report readiness."""
    t0 = time.perf_counter()
    import compfade.cli  # noqa: F401  the CLI's cold start imports the library

    t1 = time.perf_counter()
    import workloads

    wl = workloads.build(args.workload, args.seed, smoke=args.smoke)
    t2 = time.perf_counter()
    wl.warm()
    t3 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "build_s": t2 - t1, "warm_s": t3 - t2}),
          flush=True)
    # the speed of the host while this process set up, read right after it
    host = HostSpeed()
    print(json.dumps({"factor": statistics.median(host.factor() for _ in range(3))}),
          flush=True)


def measure_setup(args, probes: int) -> list[dict]:
    """Raw times of each probe, and its host factor."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    out = []
    for _ in range(probes):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter() - t0
            rest, err = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or not line:
            raise BenchError(f"set-up probe failed:\n{err}")
        out.append({"ready_s": ready, **json.loads(line), **json.loads(rest)})
    return out


def _same(a, b) -> bool:
    """Outcome equality across passes; exceptions compare by type and text."""
    if isinstance(a, BaseException) or isinstance(b, BaseException):
        return type(a) is type(b) and str(a) == str(b)
    if hasattr(a, "tobytes"):
        return hasattr(b, "tobytes") and a.tobytes() == b.tobytes()
    return a == b


class Loop:
    """Closed-loop passes over a workload, with per-operation bookkeeping."""

    def __init__(self, wl) -> None:
        self.wl = wl
        self.host = HostSpeed()
        self.first: list = [None] * len(wl.ops)
        self.executions = [0] * len(wl.ops)
        self.mismatched = [0] * len(wl.ops)

    def run(self, seconds: float, tracer=None) -> dict:
        """Complete passes until `seconds` have elapsed. An operation's
        time is the median over plain passes of its time in reference
        time. With a tracer, every second pass runs traced, so that each
        traced pass has a plain neighbour that ran under the same host
        state, and the passes come in such pairs."""
        if tracer is not None:
            import spans

        times = [[] for _ in self.wl.ops]
        kernels, traced = [self.host.kernel_s()], []
        t_start = time.perf_counter()
        while True:
            on = tracer is not None and len(traced) % 2 == 1
            traced.append(on)
            restore = spans.install(tracer) if on else None
            try:
                self._pass(times, tracer if on else None)
            finally:
                if restore:
                    restore()
            kernels.append(self.host.kernel_s())
            if time.perf_counter() - t_start >= seconds and not (tracer and not on):
                break
        factors = [2.0 * CAL_REF_S / (a + b) for a, b in zip(kernels, kernels[1:])]
        plain = [k for k, on in enumerate(traced) if not on]
        out = {"op_s": [statistics.median(ts[k] * factors[k] for k in plain) for ts in times],
               "op_raw_s": [statistics.median(ts[k] for k in plain) for ts in times],
               "factors": factors, "passes": len(factors)}
        if tracer:
            pass_s = [sum(ts[k] for ts in times) * factors[k] for k in range(len(factors))]
            out["overhead_frac"] = statistics.median(
                pass_s[k + 1] / pass_s[k] for k in range(0, len(pass_s), 2)) - 1.0
            out["traced_s"] = sum(ts[k] for ts in times for k, on in enumerate(traced) if on)
        return out

    def _pass(self, times: list, tracer) -> None:
        for i, op in enumerate(self.wl.ops):
            idx = tracer.open(op.kind) if tracer else None
            t0 = time.perf_counter()
            out = op.run()
            dt = time.perf_counter() - t0
            if tracer:
                tracer.close(idx)
            times[i].append(dt)
            self.executions[i] += 1
            if self.first[i] is None:
                self.first[i] = out
            elif not (len(out) == len(self.first[i])
                      and all(map(_same, out, self.first[i]))):
                self.mismatched[i] += 1

    def items_per_pass(self) -> int:
        return sum(op.items if op.items is not None else len(first)
                   for op, first in zip(self.wl.ops, self.first))


def judge(wl, loop: Loop, seed: int) -> dict:
    """Attempted, failed and refused library calls over every execution,
    each execution judged by the verdicts of the first one. KS misses that
    an independent sample did not confirm come back as notes."""
    import numpy as np

    import checks

    rng = np.random.default_rng([seed, 99])
    config_verdict = {}
    if wl.name == "mc-sample":
        by_cfg: dict = {}
        for op, first in zip(wl.ops, loop.first):
            by_cfg.setdefault(op.spec["config"], []).append(first[0])
        config_verdict = checks.judge_mc_configs(wl.configs, by_cfg)
    attempted = failed = refused = 0
    failures, notes = [], []
    for i, op in enumerate(wl.ops):
        verdicts = checks.JUDGES[op.kind](op, loop.first[i], rng)
        cfg_v = config_verdict.get(op.spec.get("config"), checks.OK)
        if cfg_v.startswith("failed"):
            verdicts = [cfg_v] * len(verdicts)
        elif cfg_v != checks.OK and (note := f"{op.quantity}: {cfg_v}") not in notes:
            notes.append(note)
        n_exec, n_bad_exec = loop.executions[i], loop.mismatched[i]
        n_fail = sum(v.startswith("failed") for v in verdicts)
        attempted += n_exec * len(verdicts)
        failed += (n_exec - n_bad_exec) * n_fail + n_bad_exec * len(verdicts)
        refused += n_exec * verdicts.count(checks.REFUSED)
        failures += [f"{op.quantity}: {v}" for v in verdicts if v.startswith("failed")]
        notes += [f"{op.quantity}: {v}" for v in verdicts if v.startswith("ok:")]
        if n_bad_exec:
            failures.append(f"{op.quantity}: {n_bad_exec} executions differ from the first")
    return {"attempted": attempted, "failed": failed, "refused": refused,
            "failures": failures, "notes": notes}


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def stamp(args) -> dict:
    import numpy
    import scipy

    from compfade import backend

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "backend": backend.BACKEND,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "git_commit": _git_commit(),
    }


def _quantile(values, q: int) -> float:
    """q-th percentile (q in 1..99) as statistics.quantiles gives it."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _declared() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from exc


def select(declared: list, measured: dict) -> dict:
    """The declared metrics, in order, with their declared units. A
    declared exception count that never occurred reads 0."""
    out = {}
    for m in declared:
        name = m["name"]
        if name in measured:
            value = measured[name]
        elif ".raised." in name:
            value = 0
        else:
            raise BenchError(f"metric {name} was not measured")
        out[name] = {"value": value, "unit": m["unit"]}
    return out


def main(argv=None) -> int:
    args = _parse(argv)
    _use_checkout_source()
    if args.setup_probe:
        setup_probe(args)
        return 0
    declared = _declared()
    setups = measure_setup(args, SMOKE_SETUP_PROBES if args.smoke else SETUP_PROBES)

    import spans
    import workloads

    wl = workloads.build(args.workload, args.seed, smoke=args.smoke)
    wl.warm()
    loop = Loop(wl)
    tracer = spans.Tracer() if args.trace else None
    timed = loop.run(args.seconds, tracer)
    # peak memory of the workload alone: the checker has not loaded yet
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import checks

    verdict = judge(wl, loop, args.seed)
    probes = checks.run_probes() if wl.name == "series-tail" else []

    def med(key, scaled=True):
        return statistics.median(s[key] * (s["factor"] if scaled else 1.0) for s in setups)

    def e2e_of(op_s, scaled):
        return {
            "setup_s": med("ready_s", scaled),
            "op_ms_p50": 1e3 * _quantile(op_s, 50),
            "op_ms_p90": 1e3 * _quantile(op_s, 90),
            "items_per_s": loop.items_per_pass() / sum(op_s),
            "peak_rss_mb": peak_rss_mb,
        }

    e2e = e2e_of(timed["op_s"], scaled=True)
    # unscaled times, so that any change can be checked against the raw clock
    raw = {"end_to_end": e2e_of(timed["op_raw_s"], scaled=False),
           "op_s": timed["op_raw_s"], "pass_factors": timed["factors"]}
    layers = {
        "setup.import_s": med("import_s"),
        "setup.build_s": med("build_s"),
        "setup.warm_s": med("warm_s"),
        "failed_ops_frac": verdict["failed"] / verdict["attempted"],
        "refused_ops_frac": verdict["refused"] / verdict["attempted"],
        "probes.failed": sum(s != "passed" for _, s in probes),
        "probes.passed": sum(s == "passed" for _, s in probes),
    }
    if args.trace:
        layers["trace.overhead_frac"] = timed["overhead_frac"]
        layers["trace.wall_s"] = timed["traced_s"]
        layers.update(spans.layer_metrics(tracer))
    info = stamp(args)
    info.update(
        op=wl.op_kind, item=wl.item_unit, ops=len(wl.ops), passes=timed["passes"],
        host_factor=statistics.median(timed["factors"]),
        setup_probes=len(setups), attempted=verdict["attempted"], failed=verdict["failed"],
        refused=verdict["refused"],
    )

    mode = "per_layer" if args.trace else "end_to_end"
    metrics = select(declared[mode], layers if args.trace else e2e)
    correct = verdict["failed"] == 0
    result = {"correct": correct, "attempted": verdict["attempted"],
              "failed": verdict["failed"], "metrics": metrics}

    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(
        {"stamp": info, "end_to_end": e2e, "per_layer": layers, "raw": raw, "setup": setups,
         "probes": probes, "failures": verdict["failures"], "notes": verdict["notes"],
         "result": result}, indent=1))
    if args.trace:
        tracer.write(OUT_DIR / f"{tag}-spans.npz")

    print(f"# stamp {json.dumps(info)}")
    for name, status in probes:
        print(f"# probe {name}: {status}")
    for line in verdict["notes"]:
        print(f"# note {line}")
    for line in verdict["failures"][:20]:
        print(f"# FAILED {line}")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
