"""Packaging metadata: the distribution is named after the package it
installs, and both state the same version."""

from pathlib import Path

import pytest

import noisylab

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_distribution_name_and_version_match_the_package():
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    assert project["name"] == "noisylab"
    assert project["version"] == noisylab.__version__
