"""Smoke test of the benchmark harness, at a tiny size.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload in both modes and checks that every metric that
BENCHMARK.json declares is printed with its unit; checks that wrong,
unstable or undocumented outcomes are counted as failed, and that a KS
miss fails only when an independent sample confirms it; and checks that
the benchmark refuses to run without the library source or with an
environment override that changes the work done.
"""
from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3


def _bench(*args, cwd=ROOT, env=None, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_declared_metric_is_reported(workload, trace):
    r = _bench("--workload", workload, "--seed", str(SEED), "--seconds", "0.2",
               "--trace", str(trace), "--smoke")
    assert r.returncode == 0, r.stderr
    result = json.loads(r.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


@pytest.fixture(scope="module")
def curve_run():
    wl = workloads.build("curve-grid", SEED, smoke=True)
    loop = run.Loop(wl)
    loop.run(0.0)  # one pass
    return wl, loop


def _op_index(wl, quantity):
    return next(i for i, op in enumerate(wl.ops) if op.quantity == quantity)


def test_clean_run_has_no_failures(curve_run):
    wl, loop = curve_run
    verdict = run.judge(wl, loop, SEED)
    assert verdict["failed"] == 0 and verdict["refused"] == 0
    assert verdict["attempted"] == loop.items_per_pass()


@pytest.mark.parametrize("corrupt, expect", [
    (lambda r: dataclasses.replace(r, value=r.value + 1e-6), "failed"),
    (lambda r: dataclasses.replace(r, converged=False), "failed"),
    (lambda r: OverflowError("math range error"), "failed"),
    (lambda r: float("nan"), "failed"),
    (lambda r: run_domain_error(), "refused"),
])
def test_wrong_outcome_is_counted(curve_run, corrupt, expect):
    wl, loop = curve_run
    i = _op_index(wl, "snr_cdf_series")
    saved = loop.first[i]
    loop.first[i] = saved[:5] + [corrupt(saved[5])] + saved[6:]
    try:
        verdict = run.judge(wl, loop, SEED)
    finally:
        loop.first[i] = saved
    assert verdict[expect] == loop.executions[i]
    assert verdict["failed" if expect == "refused" else "refused"] == 0


def run_domain_error():
    from compfade.series import DomainError

    return DomainError("gamma must be non-negative")


def test_execution_differing_from_the_first_fails(curve_run):
    wl, loop = curve_run
    i = _op_index(wl, "snr_pdf")
    loop.mismatched[i] += 1
    try:
        verdict = run.judge(wl, loop, SEED)
    finally:
        loop.mismatched[i] -= 1
    assert verdict["failed"] == len(loop.first[i])


def test_traced_passes_alternate_with_plain_ones():
    from compfade import aef

    wl = workloads.build("curve-grid", SEED, smoke=True)
    loop = run.Loop(wl)
    tracer = spans.Tracer()
    plain_pdf = aef.AefDist.snr_pdf
    out = loop.run(0.0, tracer)
    assert out["passes"] == 2 and len(out["factors"]) == 2
    # only the second pass was traced, and the wrappers are gone again
    assert aef.AefDist.snr_pdf is plain_pdf
    assert tracer.stats["curve"].calls == len(wl.ops)
    assert tracer.stats["aef.snr_pdf"].calls == sum(
        len(op.spec["xs"]) for op in wl.ops
        if op.quantity == "snr_pdf" and op.spec["family"] == "aef")
    assert out["overhead_frac"] > -1.0


def test_sampler_drift_fails_its_config():
    wl = workloads.build("mc-sample", SEED, smoke=True)
    loop = run.Loop(wl)
    loop.run(0.0)
    loop.first[0] = [loop.first[0][0] * (1 + 1e-15)]
    verdict = run.judge(wl, loop, SEED)
    same_config = sum(op.spec["config"] == wl.ops[0].spec["config"] for op in wl.ops)
    assert verdict["failed"] == same_config


@pytest.fixture(scope="module")
def mc_run():
    wl = workloads.build("mc-sample", SEED, smoke=True)
    loop = run.Loop(wl)
    loop.run(0.0)
    return wl, loop


def test_sampler_off_its_law_fails_its_config(mc_run):
    wl, loop = mc_run
    c = wl.configs[0]
    wl.configs[0] = dict(c, params=dataclasses.replace(c["params"], mu=c["params"].mu + 3.0))
    try:
        verdict = run.judge(wl, loop, SEED)
    finally:
        wl.configs[0] = c
    same_config = sum(op.spec["config"] == 0 for op in wl.ops)
    assert verdict["failed"] == same_config
    assert "not confirmed" not in " ".join(verdict["notes"])


@pytest.mark.parametrize("confirmed", [False, True])
def test_ks_miss_fails_only_if_confirmed(mc_run, monkeypatch, confirmed):
    wl, loop = mc_run
    calls = []

    def ks(c, draws):  # config 0 misses; its confirmation misses if confirmed
        if c is not wl.configs[0]:
            return 0.0
        calls.append(c)
        return 1.0 if len(calls) == 1 or confirmed else 0.0

    monkeypatch.setattr(checks, "_ks_to_law", ks)
    verdict = run.judge(wl, loop, SEED)
    same_config = sum(op.spec["config"] == 0 for op in wl.ops)
    assert verdict["failed"] == (same_config if confirmed else 0)
    assert len(calls) == 2
    assert len(verdict["notes"]) == (0 if confirmed else 1)


@pytest.mark.parametrize("confirmed", [False, True])
def test_battery_ks_miss_fails_only_if_confirmed(monkeypatch, confirmed):
    from compfade import validation

    def check(name, passed):
        return {"name": name, "measured": 0.1, "limit": 0.01, "passed": passed}

    outcomes = [check("normalization", True), check("mc-ks-env-x", False)]
    monkeypatch.setattr(validation, "run_battery", lambda level, seed: {
        "checks": [check("normalization", True), check("mc-ks-env-x", not confirmed)]})
    op = workloads.Op("battery", "run_battery", lambda: outcomes, {"seed": 5})
    verdicts = checks.judge_battery(op, outcomes, None)
    assert verdicts[0] == checks.OK
    assert verdicts[1].startswith("failed" if confirmed else "ok:")


def test_deterministic_battery_miss_is_not_retried(monkeypatch):
    from compfade import validation

    monkeypatch.setattr(validation, "run_battery", lambda level, seed: pytest.fail("rerun"))
    outcomes = [{"name": "lattice", "measured": 1.0, "limit": 0.1, "passed": False}]
    op = workloads.Op("battery", "run_battery", lambda: outcomes, {"seed": 5})
    assert checks.judge_battery(op, outcomes, None)[0].startswith("failed")


def test_probes_report_every_known_failure_mode():
    names = [name for name, _ in checks.run_probes()]
    assert names == [name for name, _ in checks.PROBES] and len(names) == 6


def test_refuses_without_library_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    r = _bench("--workload", "curve-grid", "--seed", "1", "--seconds", "1", "--trace", "0",
               cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert r.returncode != 0
    assert r.stdout == ""


@pytest.mark.parametrize("var", run.FORBIDDEN_ENV)
def test_refuses_work_changing_environment(var):
    env = dict(os.environ, **{var: "numpy" if var == "COMPFADE_BACKEND" else "10"})
    r = _bench("--workload", "curve-grid", "--seed", "1", "--seconds", "1", "--trace", "0",
               env=env)
    assert r.returncode != 0 and var in r.stderr
