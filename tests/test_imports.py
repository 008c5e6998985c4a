"""Every import in the package is used, or is a name the benchmark wraps there.

``perfbench/spans.py`` times layers by replacing functions where another
module looks them up (``mfcir.cli.simulate_z``, ...), so such a name stays
bound in that module even where the module itself does not call it.  The
allowed names are read from the ``_wrap(owner, name, ...)`` calls in
spans.py, so this test follows the benchmark instead of copying it.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "mfcir").glob("*.py"))


def _resolve(node, bindings) -> list[str]:
    """The strings or mfcir module names an expression of spans.py stands for."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    if isinstance(node, ast.Name):
        return bindings.get(node.id, [])
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "mfcir":
        return [node.attr]
    if isinstance(node, ast.Tuple):
        return [value for element in node.elts for value in _resolve(element, bindings)]
    return []


def wrapped_names() -> dict[str, set[str]]:
    """Module name -> the names spans.py wraps on that module."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    bindings = {}
    wrapped = {}
    # ast.walk is breadth first: each binding is met before the calls nested below it.
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and all(isinstance(x, ast.Tuple) for x in (node.targets[0], node.value)):
            for target, value in zip(node.targets[0].elts, node.value.elts):
                bindings[target.id] = _resolve(value, bindings)
        elif isinstance(node, ast.For) and isinstance(node.target, ast.Name):
            bindings[node.target.id] = _resolve(node.iter, bindings)
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "_wrap":
            for module in _resolve(node.args[0], bindings):
                wrapped.setdefault(module, set()).update(_resolve(node.args[1], bindings))
    return wrapped


def test_spans_wraps_are_read():
    wrapped = wrapped_names()
    assert "simulate_z" in wrapped["cli"]
    assert "simulate_z_batch" in wrapped["experiments"]
    assert "substream_seed" in wrapped["mixed"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    allowed = used | exported | wrapped_names().get(path.stem, set())
    unused = {name: line for name, line in imported.items() if name not in allowed}
    assert not unused, f"{path.name}: imported but not used (name: line): {unused}"
