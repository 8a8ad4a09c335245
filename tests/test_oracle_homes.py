"""Each oracle has one home, and tests reach culturestream only through its public names.

The shared oracles live in ``culturestream.selftest``, whose shipped battery
runs them; ``reference_report`` imports them from there, and tests take them
from the reference.  These checks read the test sources with ``ast``.
"""

from __future__ import annotations

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def _is_culturestream(module):
    return module == "culturestream" or module.startswith("culturestream.")


def _is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _culturestream_uses(path):
    """(module, name) for each culturestream import in a file and each attribute read off one.

    A plain ``import`` gives name None; ``selftest.x`` after
    ``from culturestream import selftest`` gives ("culturestream.selftest", "x").
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = {}  # local name -> the culturestream module it names
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and _is_culturestream(node.module):
            for alias in node.names:
                yield node.module, alias.name
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if _is_culturestream(alias.name):
                    yield alias.name, None
                    if alias.asname:
                        bound[alias.asname] = alias.name
                    else:  # ``import culturestream.x`` binds the package
                        bound[alias.name.split(".")[0]] = "culturestream"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in bound:
                yield bound[node.value.id], node.attr


def test_no_test_reaches_a_private_culturestream_name():
    offenders = [
        (path.name, module, name)
        for path in sorted(TESTS.glob("*.py"))
        for module, name in _culturestream_uses(path)
        if any(_is_private(part) for part in module.split(".") + [name or ""])
    ]
    assert offenders == []


def test_reference_imports_only_from_selftest():
    modules = {module for module, _ in _culturestream_uses(TESTS / "reference_report.py")}
    assert modules == {"culturestream.selftest"}
