"""The program functions the benchmark traces, replaces and calls still
exist and still take the arguments it passes.

perfbench/spans.py wraps each (module, function) pair of its TARGETS to
build the per-layer metrics, and perfbench/worker.py replaces
`compute_matrix` where odse.model, odse.datasets and odse.experiment look
it up to sample the tables the program builds.  A renamed or deleted
function would silently drop a metric or the table check.  worker.py
also calls the program as `odse.<module>.<name>(...)` after a bare
`import odse`; a changed signature, or a module that `import odse` no
longer loads, would fail the benchmark run, so each call site is bound
to its callee's signature here and each callee is reached from a fresh
`import odse`.  Everything is read from the benchmark's source; none of
its code runs here.
"""

import ast
import importlib
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

import odse.embedding

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"
WORKER = PERFBENCH / "worker.py"
WORKLOADS = PERFBENCH / "workloads.py"


def traced_targets():
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return [(entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts]
    raise AssertionError(f"no TARGETS assignment in {SPANS}")


TARGETS = traced_targets()


def test_targets_were_found():
    assert len(TARGETS) >= 10


@pytest.mark.parametrize("module, attr", TARGETS, ids=[f"{m}.{a}" for m, a in TARGETS])
def test_traced_function_resolves(module, attr):
    owner = importlib.import_module(f"odse.{module}")
    for part in attr.split("."):
        assert hasattr(owner, part), f"odse.{module}.{attr} is gone"
        owner = getattr(owner, part)
    assert callable(owner)


@pytest.mark.parametrize("module", ["model", "datasets", "experiment"])
def test_compute_matrix_looked_up_per_module(module):
    mod = importlib.import_module(f"odse.{module}")
    assert getattr(mod, "compute_matrix", None) is odse.embedding.compute_matrix


def literal_constants(path):
    """Module-level names of path bound to a Python literal."""
    constants = {}
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            try:
                constants[getattr(node.targets[0], "id", None)] = ast.literal_eval(node.value)
            except ValueError:
                pass
    return constants


def worker_calls():
    """(line, "module.name", positional count, keyword names) of every
    `odse.<module>.<name>(...)` call in worker.py; a starred argument
    counts the items of the literal it unpacks."""
    constants = literal_constants(WORKLOADS)
    calls = []
    for node in ast.walk(ast.parse(WORKER.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Call):
            continue
        parts, func = [], node.func
        while isinstance(func, ast.Attribute):
            parts.insert(0, func.attr)
            func = func.value
        if not (isinstance(func, ast.Name) and func.id == "odse" and len(parts) == 2):
            continue
        positional = 0
        for arg in node.args:
            if isinstance(arg, ast.Starred):
                name = getattr(arg.value, "id", None)
                assert name in constants, f"worker.py:{node.lineno}: cannot count *{name}"
                positional += len(constants[name])
            else:
                positional += 1
        assert all(k.arg for k in node.keywords), f"worker.py:{node.lineno}: **kwargs"
        keywords = tuple(k.arg for k in node.keywords)
        calls.append((node.lineno, ".".join(parts), positional, keywords))
    return sorted(calls)


CALLS = worker_calls()


def test_worker_calls_were_found():
    assert {"model.ga_optimize", "model.synthesize_instance", "experiment.run_experiment"} <= {
        name for _, name, _, _ in CALLS
    }


@pytest.mark.parametrize(
    "line, name, positional, keywords", CALLS, ids=[f"{c[1]}@{c[0]}" for c in CALLS]
)
def test_worker_call_binds_to_signature(line, name, positional, keywords):
    module, attr = name.split(".")
    owner = importlib.import_module(f"odse.{module}")
    assert hasattr(owner, attr), f"odse.{name} is gone (worker.py:{line})"
    signature = inspect.signature(getattr(owner, attr))
    try:
        signature.bind(*[None] * positional, **dict.fromkeys(keywords))
    except TypeError as exc:
        pytest.fail(f"worker.py:{line} calls odse.{name}{signature}: {exc}")


def test_import_odse_alone_reaches_every_benchmark_callee():
    # the worker runs `import odse` only, and spans.py finds the modules
    # in sys.modules, so each must load with the package
    names = sorted({f"{m}.{a}" for m, a in TARGETS} | {name for _, name, _, _ in CALLS})
    src = str(Path(odse.embedding.__file__).resolve().parents[1])
    code = f"import sys; sys.path.insert(0, {src!r}); import odse; " + "; ".join(
        f"odse.{name}" for name in names
    )
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)
