"""Every name a polyfam module imports is used in that module, and every
private module-level function or class is used somewhere in the package.

No linter is installed, so this reads each module with the standard library's
ast: a deletion that leaves an import or a private helper behind fails here.
__init__.py is exempt from the import check, since its imports are the
package's public API, and so is ``from __future__``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "polyfam"
MODULES = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")


def _imported(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def test_modules_are_found():
    assert {path.name for path in MODULES} >= {"cli.py", "families.py", "identities.py", "series.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(_imported(tree) - used)
    assert not unused, f"{path.name} imports {unused} and never uses them"


def test_every_private_definition_is_referenced():
    # a private name is read as a bare name or as an attribute (fam._name);
    # its own def or class statement is neither
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}
    referenced = {node.id if isinstance(node, ast.Name) else node.attr
                  for tree in trees.values() for node in ast.walk(tree)
                  if isinstance(node, (ast.Name, ast.Attribute))}
    unreferenced = sorted(
        f"{name}:{node.name}" for name, tree in trees.items() for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
        and not node.name.startswith("__") and node.name not in referenced)
    assert not unreferenced, f"private definitions never referenced in src/polyfam: {unreferenced}"
