"""Packaging metadata: the distribution is named after the package it
installs, both state the same version, and every module exports only names
it defines."""

import importlib
import pkgutil
from pathlib import Path

import pytest

import noisylab

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

MODULES = sorted(
    info.name for info in pkgutil.walk_packages(noisylab.__path__, "noisylab.")
)


def test_distribution_name_and_version_match_the_package():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    assert project["name"] == "noisylab"
    assert project["version"] == noisylab.__version__


@pytest.mark.parametrize("name", ["noisylab", *MODULES])
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names undefined {missing}"
