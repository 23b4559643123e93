"""Packaging metadata: the distribution is named after the package it
installs, both state the same version, every module exports only names it
defines, the package reads every function, class and class field it defines,
and commands and scenarios that run no chi-square test never load scipy."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import noisylab

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
PACKAGE = Path(noisylab.__file__).resolve().parent
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


# Defined in the package and read by name nowhere in it: the paper's
# definitions that tests check and no scenario runs, then the references that
# perfbench traces by name until its targets are retargeted.
UNREAD_IN_THE_PACKAGE = {
    "bv_sample_size", "from_ratio",
    "select_best_hypothesis", "prf_truth_table", "extract",
}


def _is_scenario(node: ast.AST) -> bool:
    return any(
        isinstance(d, ast.Call) and getattr(d.func, "id", None) == "_register"
        for d in node.decorator_list
    )


def _package_nodes() -> list[ast.AST]:
    return [n for p in sorted(PACKAGE.rglob("*.py")) for n in ast.walk(ast.parse(p.read_text()))]


def _attribute_loads(nodes: list[ast.AST]) -> set[str]:
    return {n.attr for n in nodes if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}


def test_every_definition_is_read_in_the_package():
    # A function, class or method that only tests use belongs in the tests.
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    nodes = _package_nodes()
    attrs = _attribute_loads(nodes)
    read = attrs | {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    # A method or property is read as ``x.name``: a local variable of the same
    # name is not a read of it.
    methods = {
        id(m) for n in nodes if isinstance(n, ast.ClassDef) for m in n.body if isinstance(m, functions)
    }
    unread = {
        n.name
        for n in nodes
        if isinstance(n, (*functions, ast.ClassDef))
        and not (n.name.startswith("__") and n.name.endswith("__"))
        and not _is_scenario(n)
        and n.name not in (attrs if id(n) in methods else read)
    }
    assert unread == UNREAD_IN_THE_PACKAGE


def test_every_class_field_is_read_in_the_package():
    # An annotated class field is read as ``x.name`` or ``getattr(x, "name")``;
    # one that nothing reads is a setting that changes nothing.
    nodes = _package_nodes()
    read = _attribute_loads(nodes) | {
        n.args[1].value
        for n in nodes
        if isinstance(n, ast.Call)
        and getattr(n.func, "id", None) == "getattr"
        and len(n.args) > 1
        and isinstance(n.args[1], ast.Constant)
    }
    unread = {
        f"{c.name}.{f.target.id}"
        for c in nodes
        if isinstance(c, ast.ClassDef)
        for f in c.body
        if isinstance(f, ast.AnnAssign)
        and isinstance(f.target, ast.Name)
        and f.target.id not in read
    }
    assert not unread, f"class fields nothing in the package reads: {sorted(unread)}"


# Each snippet runs in a fresh interpreter, then reports whether scipy was
# imported. scipy.stats is most of the package's import time; only the
# chi-square tests of nasty-budget-law and sep-adversary need it.
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
    # Their binomial intervals are closed-form Wilson intervals.
    **{
        name: (
            "from noisylab.bench import ExperimentConfig, run_scenario; "
            f"run_scenario(ExperimentConfig({name!r}, params={params!r}, trials=3))"
        )
        for name, params in [
            ("badamplify", {}),
            ("sep-learner", {"n": 2000}),
            ("amplify-concentration", {}),
            ("round-lemma", {}),
        ]
    },
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
