"""The benchmark's trace targets still name code that exists.

``perfbench/run.py`` wraps named functions, methods and properties of
noisylab from outside (``--trace 1``). A rename or deletion in ``src/``
breaks that only when the benchmark runs, so this loads ``run.py`` by path,
without writing anything beside it, and resolves every target the way
``Tracer.install`` does.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import noisylab.bench  # noqa: F401  (loads every module a target names, as a benchmark round does)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# Modules run.py imports from its own directory.
LOCAL_MODULES = ("refloop", "tracing", "workloads")


@pytest.fixture(scope="module")
def perfbench():
    """``(run, tracing)``: perfbench's runner and tracer modules."""
    sys.path.insert(0, str(PERFBENCH))
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
        tracing = sys.modules["tracing"]
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.dont_write_bytecode = dont_write
    yield run, tracing
    for name in LOCAL_MODULES:
        sys.modules.pop(name, None)


def unresolved(tracing, targets) -> list[str]:
    """Targets ``Tracer.install`` could not wrap: the owner must resolve, a
    class must define ``attr`` itself, and a module must hold a callable."""
    broken = []
    for t in targets:
        try:
            owner = tracing._resolve(t.owner)
        except (LookupError, AttributeError) as exc:
            broken.append(f"{t.layer}: {exc}")
            continue
        if isinstance(owner, type):
            ok = t.attr in vars(owner)
        else:
            ok = callable(getattr(owner, t.attr, None))
        if not ok:
            broken.append(f"{t.layer}: {t.owner} has no {t.attr}")
    return broken


def test_every_trace_target_resolves(perfbench):
    run, tracing = perfbench
    assert run.TARGETS
    assert unresolved(tracing, run.TARGETS) == []


def test_guard_rejects_what_install_cannot_wrap(perfbench):
    _, tracing = perfbench
    Target = tracing.Target
    bad = [
        Target("gone", "noisylab.sep.SepParams", "key_size"),  # deleted forwarder
        Target("inherited", "noisylab.sep.KeyValueConcept", "evaluate"),
        Target("no-function", "noisylab.sep", "no_such_function"),
        Target("no-owner", "noisylab.sep.NoSuchClass", "concept"),
    ]
    assert [line.split(":")[0] for line in unresolved(tracing, bad)] == [t.layer for t in bad]
