"""Acceptance gate: one test per release criterion.

Each test drives the reusable checks in compfade.validation (plus the CLI
sampler for the determinism criterion) and fails with a per-check detail
listing if any measurement exceeds its stated limit.  Run with -v to get
one pass/fail line per criterion.
"""

import subprocess
import sys

from compfade import validation as V
from conftest import child_env


def _require(checks):
    bad = [c for c in checks if not c.passed]
    lines = [
        f"{c.name}: measured {c.measured:.6g} > limit {c.limit:.6g}"
        + (f" ({c.detail})" if c.detail else "")
        for c in bad
    ]
    assert not bad, f"{len(bad)}/{len(checks)} checks failed:\n" + "\n".join(lines)


def test_criterion_01_snr_pdf_normalization():
    # SNR density integrates to 1 within 1e-7 on the standard parameter grid
    _require(V.check_normalization())


def test_criterion_02_snr_mean_matches_gamma_bar():
    # first moment of the SNR density equals gamma_bar within 1e-6
    _require(V.check_mean())


def test_criterion_03_cdf_series_quadrature_and_closed_form():
    # series CDF vs quadrature of the density, and the closed-form CDF vs
    # the series, both within 1e-8 across the grid
    _require(V.check_cdf())


def test_criterion_04_fisher_special_case():
    # alpha = 2 balanced reductions reproduce the Fisher-Snedecor F CDF
    # within 1e-10
    _require(V.check_fisher())


def test_criterion_05_monte_carlo_ks_at_one_million():
    # physical-model samples vs analytical CDF: two-sided KS distance below
    # 0.002 at n = 10^6 in both SNR and envelope domains, all configurations
    _require(V.check_mc(n=1_000_000))


def test_criterion_06_truncation_bound_dominates_remainder():
    # the closed-form tail bound exceeds the measured series remainder for
    # every k0 in {1, 2, 4, 8, 16}; zero violations allowed
    _require(V.check_bound())


def test_criterion_07_outage_asymptotics_and_diversity_slope():
    # high-SNR outage approximation within 5% / 1% / 0.3% at gamma_bar =
    # 1e3 / 1e4 / 1e5, and the log-log outage slope within 2% of the
    # diversity gain
    _require(V.check_asym())


def test_criterion_08_special_case_lattice():
    # cross-family, ms -> inf stabilization, and format-conversion
    # equivalences hold on the reduction lattice
    _require(V.check_lattice())


def test_criterion_09_engines_match_extended_precision():
    # series engines agree with 50+ digit references within 1e-10 on random
    # argument draws; analytic reductions within 1e-12
    _require(V.check_engines())


_SAMPLE_ARGS = (
    "sample", "--dist", "akf", "--alpha", "3", "--kappa", "1.5", "--mu", "3", "--ms", "5",
    "--n", "4096", "--seed", "99",
)


def test_criterion_10_sampler_determinism(cli_main):
    # byte-identical sampler output across repeated runs and partition
    # layouts, through the library, the entry point and the CLI in process
    _require(V.check_determinism())
    r = subprocess.run([sys.executable, "-m", "compfade", *_SAMPLE_ARGS],
                       capture_output=True, env=child_env())
    assert r.returncode == 0, r.stderr
    base = r.stdout
    for extra in ((), ("--chunks", "2"), ("--chunks", "3"), ("--chunks", "7")):
        got = cli_main(*_SAMPLE_ARGS, *extra)
        assert got.returncode == 0, got.stderr
        assert got.stdout == base, f"CLI output changed with {extra or 'a repeated run'}"
