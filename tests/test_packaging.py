"""Packaging metadata: the distribution is named after the package it
installs, both state the same version, every module exports only names it
defines, and commands that compute no statistics never load scipy."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import noisylab

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
GOLDEN = Path(__file__).resolve().parent / "golden"

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


# Each snippet runs in a fresh interpreter, then reports whether scipy was
# imported. scipy.stats is most of the package's import time; only a
# scenario's verdict statistics need it.
NO_SCIPY_SNIPPETS = {
    "import": "import noisylab.bench",
    "list-scenarios": "from noisylab.bench.cli import main; main(['list-scenarios'])",
    "codes-gen": (
        "from noisylab.bench.cli import main; "
        "main(['codes', 'gen', '--rho', '0.5', '--w', '8', '--seed', '3'])"
    ),
    "report-render": (
        "from noisylab.bench.cli import main; "
        f"main(['report', 'render', {str(GOLDEN / 'round-lemma_aggregate.json')!r}])"
    ),
}


@pytest.mark.parametrize("snippet", NO_SCIPY_SNIPPETS.values(), ids=NO_SCIPY_SNIPPETS)
def test_scipy_not_imported(snippet):
    src = str(Path(noisylab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    check = snippet + "; import sys; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", check],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.splitlines()[-1] == "False"
