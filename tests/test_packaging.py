"""Packaging metadata: the distribution is named after the package it
installs, both state the same version, every module exports only names it
defines, the scenarios and commands run every function it defines, it reads
every class and class field it defines, and commands and scenarios that run no
chi-square test never load scipy."""

import ast
import importlib
import json
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


def _package_nodes() -> list[ast.AST]:
    return [n for p in sorted(PACKAGE.rglob("*.py")) for n in ast.walk(ast.parse(p.read_text()))]


def _attribute_loads(nodes: list[ast.AST]) -> set[str]:
    return {n.attr for n in nodes if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}


def _environment() -> dict[str, str]:
    """This process's environment, with the package's source on the path."""
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_every_definition_is_read_in_the_package():
    # A class that only tests use belongs in the tests. Functions and methods
    # are checked by running them (test_every_function_is_reached); a class
    # body runs at import, and a class with no def of its own (DecodeFailure)
    # leaves no code object to see, so a class is checked by its name.
    nodes = _package_nodes()
    read = _attribute_loads(nodes) | {
        n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    unread = {n.name for n in nodes if isinstance(n, ast.ClassDef) and n.name not in read}
    assert not unread, f"classes nothing in the package reads: {sorted(unread)}"


# Run in a fresh interpreter, profiled from before ``import noisylab``, so
# that functions run only at import time and lru_cache'd functions count:
# every golden case, then one CLI command of each kind, a config file, one
# bad input and one over-long domain-limit message. Prints the (file, first
# line, name) of every code object called, then each command's exit status
# and stderr.
REACH_SCRIPT = """
import contextlib, io, json, sys
from pathlib import Path

called = set()

def profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        called.add((code.co_filename, code.co_firstlineno, code.co_name))

tests, tmp = Path(sys.argv[1]), Path(sys.argv[2])
sys.setprofile(profile)
import noisylab
sys.path.insert(0, str(tests))
from test_golden import CASES, _write
from noisylab.bench.cli import main

for case in CASES:
    _write(case, tmp / "golden")
code, config, tiny = tmp / "code.txt", tmp / "config.json", tmp / "tiny.json"
config.write_text(json.dumps({"scenario": "round-lemma", "params": {"w": 50}, "trials": 2}))
tiny.write_text(json.dumps({"scenario": "ice-learner", "params": {"eta": 5e-324}}))
commands = [
    ["list-scenarios"],
    ["codes", "gen", "--rho", "0.5", "--w", "8", "--seed", "3", "--out", str(code)],
    ["codes", "decode", "--code", str(code), "--word", "??++++++"],
    ["codes", "decode", "--code", str(code), "--word", "+-++++++", "--radius", "1"],
    ["report", "render", str(tmp / "golden" / "round-lemma_aggregate.json")],
    ["run", "round-lemma", "--config", str(config), "--out", str(tmp / "cli")],
    ["run", "round-lemma", "--trials", "0"],
    ["run", "ice-learner", "--config", str(tiny)],
]
results = []
for argv in commands:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        status = main(argv)
    results.append([status, err.getvalue()])
sys.setprofile(None)
print(json.dumps({"called": sorted(called), "results": results}))
"""

# Defined in the package and run by no golden case or command above, each
# with the reason it stays.
UNREACHED = {
    "learn.select_best_hypothesis": "perfbench/run.py traces it by name",
    "cryptoprim.prf_truth_table": "perfbench/run.py traces it by name",
    "cryptoprim.extract": "perfbench/run.py traces it by name",
    "core.Sample.__setattr__": "the immutability guard: runs only on a write",
    "core.DiscreteDistribution.__setattr__": "the immutability guard: runs only on a write",
    "core.Sample.__repr__": "how a sample prints in a failing assertion or a debugger",
}


def _definitions() -> dict[tuple[str, int, str], str]:
    """Every def in the package, keyed as its code object names itself (file,
    first line counting decorators, name), mapped to ``module.qualname``."""
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)
        module = module.removesuffix("__init__").rstrip(".")

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                    found[str(path), first, child.name] = f"{module}.{prefix}{child.name}"
                    visit(child, f"{prefix}{child.name}.<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text()), "")
    return found


def test_every_function_is_reached(tmp_path):
    # A function or method that no scenario or command runs checks nothing
    # the lab reports: it belongs in the tests, or nowhere.
    out = subprocess.run(
        [sys.executable, "-c", REACH_SCRIPT, str(Path(__file__).parent), str(tmp_path)],
        env=_environment(), cwd=tmp_path, capture_output=True, text=True, check=True,
    ).stdout
    ran = json.loads(out.splitlines()[-1])
    # Each command took the path it is there for: a bad input and the
    # domain-limit message (its numbers abbreviated) are one error line each.
    assert [status for status, _ in ran["results"]] == [0, 0, 0, 0, 0, 0, 2, 2], ran["results"]
    assert "key fraction 3/~5.000e323" in ran["results"][-1][1]
    called = {(str(Path(f).resolve()), line, name) for f, line, name in ran["called"]}
    unreached = {name for key, name in _definitions().items() if key not in called}
    assert unreached == set(UNREACHED)


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
    check = snippet + "; import sys; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", check],
        env=_environment(),
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.splitlines()[-1] == "False"
