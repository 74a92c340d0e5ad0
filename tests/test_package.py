"""Each public name has one home: the module that defines it.

The package namespace holds the modules and `__version__` only, every
import between the package's modules names the module that defines what
it imports, and README's examples import from modules that hold the
names they use.  The C calling convention of the compiled kernels has
one home too: `_dp` alone imports ctypes or reads a `.ctypes` attribute.
"""

import ast
import importlib
import inspect
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import odse

SRC = Path(odse.__file__).resolve().parent
README = SRC.parents[1] / "README.md"
MODULES = {
    "alignment", "classifiers", "datasets", "embedding", "entropy", "errors", "experiment",
    "model", "sequences",
}


def test_namespace_holds_only_modules():
    # in a fresh interpreter, so no other test's imports add a module
    code = (
        f"import sys, json, types; sys.path.insert(0, {str(SRC.parent)!r}); import odse; "
        "print(json.dumps({n: isinstance(v, types.ModuleType) for n, v in vars(odse).items() "
        "if not (n.startswith('__') and n.endswith('__'))}))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], check=True, capture_output=True, text=True, timeout=60
    ).stdout
    names = json.loads(out)
    assert [n for n, is_module in names.items() if not is_module] == []
    assert {n for n in names if not n.startswith("_")} == MODULES


def homeless(module, name):
    """Why `from odse.<module> import <name>` does not name the home of
    what it imports, or None: the name must exist there, and a class or
    function must be defined there."""
    owner = importlib.import_module(f"odse.{module}")
    if not hasattr(owner, name):
        return f"odse.{module} has no {name}"
    obj = getattr(owner, name)
    if (inspect.isclass(obj) or inspect.isfunction(obj)) and obj.__module__ != owner.__name__:
        return f"{name} is defined in {obj.__module__}, not odse.{module}"
    return None


def package_imports():
    """(file:line, module, name) of every `from .<module> import <name>`
    in the package."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                found += [(f"{path.name}:{node.lineno}", node.module, a.name) for a in node.names]
    return found


def test_package_imports_name_the_defining_module():
    imports = package_imports()
    assert len(imports) > 50
    wrong = [(where, why) for where, m, name in imports if (why := homeless(m, name))]
    assert wrong == []


def speaks_c(path):
    """Lines of path that import ctypes or read a `.ctypes` attribute."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        if any(n.split(".")[0] == "ctypes" for n in names):
            lines.append(node.lineno)
    return lines


def test_only_dp_speaks_c():
    # callers pass arrays; pointers, strides, status and out-parameters
    # are written out in `_dp` alone
    speakers = {path.name for path in SRC.glob("*.py") if speaks_c(path)}
    assert speakers == {"_dp.py"}


def readme_imports():
    found = []
    for block in re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S):
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("odse."):
                found += [(node.module.removeprefix("odse."), a.name) for a in node.names]
    return found


README_IMPORTS = readme_imports()


def test_readme_imports_were_found():
    assert len(README_IMPORTS) >= 10


@pytest.mark.parametrize(
    "module, name", README_IMPORTS, ids=[f"{m}.{n}" for m, n in README_IMPORTS]
)
def test_readme_import_resolves(module, name):
    assert homeless(module, name) is None
