"""The program functions the benchmark traces and replaces still exist.

perfbench/spans.py wraps each (module, function) pair of its TARGETS to
build the per-layer metrics, and perfbench/worker.py replaces
`compute_matrix` where odse.model, odse.datasets and odse.experiment look
it up to sample the tables the program builds.  A renamed or deleted
function would silently drop a metric or the table check.  The targets
are read from the benchmark's source; none of its code runs here.
"""

import ast
import importlib
from pathlib import Path

import pytest

import odse.embedding

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
