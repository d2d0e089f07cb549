"""Every name a polyfam module imports is used in that module, and every
private module-level function or class is used somewhere in the package.

No linter is installed, so this reads each module with the standard library's
ast: a deletion that leaves an import or a private helper behind fails here.
__init__.py is exempt from the import check, since its imports are the
package's public API, and so is ``from __future__``.

Every parameter of an identity half and of a ``table``/``series`` builder is
read by its code, since the parameters alone say which keys and flags it takes.
"""

import ast
import dis
from functools import partial
from pathlib import Path

import pytest

from polyfam import families as fam
from polyfam.identities import REGISTRY

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


def _unread_parameters(fn) -> list[str]:
    """The parameters fn's code never loads; a partial's bound arguments are
    left out, and a parameter held in a cell (read by an inner function) counts
    as read."""
    bound = 0
    if isinstance(fn, partial):
        fn, bound = fn.func, len(fn.args)
    code = fn.__code__
    read = set(code.co_cellvars)
    for ins in dis.get_instructions(code):
        if ins.opname.startswith("LOAD_FAST") or ins.opname == "LOAD_DEREF":
            read.update(ins.argval if isinstance(ins.argval, tuple) else (ins.argval,))
    return [p for p in code.co_varnames[bound:code.co_argcount] if p not in read]


def test_every_declared_parameter_is_read():
    # an unread parameter would be a grid axis repeating identical checks, or a flag changing nothing
    functions = {f"{identity.id}:{getattr(half, 'func', half).__name__}": half
                 for identity in REGISTRY.values() for half in identity.halves}
    functions |= {f"family:{key}": spec.build for key, spec in fam.FAMILIES.items()}
    functions |= {f"series:{key}": spec.build for key, spec in fam.SERIES.items()}
    unread = {name: params for name, fn in functions.items() if (params := _unread_parameters(fn))}
    assert not unread, f"parameters never read: {unread}"
