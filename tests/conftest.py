"""Shared fixtures and helpers for the compfade test suite."""

import os
from types import SimpleNamespace

import pytest

import compfade
from compfade import cli
from compfade.params import AefParams, AkfParams

SRC = os.path.dirname(os.path.dirname(os.path.abspath(compfade.__file__)))


def child_env(**extra):
    """The environment for a child interpreter, with extra set and the
    imported package's source directory first on PYTHONPATH, so the child
    runs the same copy from a checkout as from an installed package."""
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    return env


def rel_err(got: float, want: float) -> float:
    """Relative error with a floor so exact zeros compare cleanly."""
    scale = max(abs(want), 1e-290)
    return abs(got - want) / scale


@pytest.fixture
def aef_params():
    """A generic alpha-eta-F parameter point away from every special case."""
    return AefParams(alpha=3.5, eta=0.5, mu=1.5, ms=3.0)


@pytest.fixture
def akf_params():
    """A generic alpha-kappa-F parameter point away from every special case."""
    return AkfParams(alpha=2.5, kappa=1.5, mu=1.2, ms=4.0)


@pytest.fixture
def cli_main(capsys):
    """cli.main in this process; returns its exit code and its output as
    bytes, in the fields of test_cli.run_cli's CompletedProcess."""
    def run(*args):
        capsys.readouterr()
        try:
            code = cli.main(list(args))
        except SystemExit as exc:  # usage errors
            code = exc.code
        out, err = capsys.readouterr()
        return SimpleNamespace(returncode=code, stdout=out.encode(), stderr=err.encode())

    return run
