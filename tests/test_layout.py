"""Layout lint: every definition in the package is used by the package,
every module of the package and the tests reads what it imports, and the
package imports its own modules at module level.

A module-level function or class, or a method other than a dunder, counts
as used when its name appears in `src/` outside its own body and outside
`__init__`: as a name, an attribute or an import alias (an export alone
is not a use).  Attribute names count as references, so a list's
`out.extend(...)` would hide a function named `extend`.  For the same
reason a method counts as used when another class has a method of that
name that is called: a dead `to_json` or `component` goes unflagged while
`MorphismClass.to_json` or `MorphismClass.component` has a caller.
Helpers that only tests call belong in `tests/conftest.py`.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "thetacat"

# definitions kept without a reference in src/, each with its reason
ALLOWED = {
    "presheaves.table_to_json": "documented API: writes the table JSON that `check --input` reads",
    "presheaves.TablePresheaf.from_presheaf": "documented API: a presheaf's tables over a window",
    "presheaves.TruncatedPresheaf": "documented API: truncation along the dimension filtration",
    "presheaves.ExtendedPresheaf": "documented API: extension along the dimension filtration",
    "checkers.inner_fibration_check": "documented API: the inner-fibration lifting check",
    "presheaves.TerminalPresheaf": "the terminal presheaf, target of maps to test as fibrations",
    "theta.factor_through": "the tests' oracles factor cells through it, and the bench traces it by name",
    "subshapes.common_cells": "common_restrictions' exactness argument is stated against it",
}


def _definitions(module: str, tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not (
                    sub.name.startswith("__") and sub.name.endswith("__")
                ):
                    yield f"{module}.{node.name}.{sub.name}", sub


def _references(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node
        elif isinstance(node, ast.alias):
            yield node.name, node
            if node.asname:
                yield node.asname, node


def unreferenced() -> set[str]:
    trees = {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    refs: dict[str, list] = {}
    for module, tree in trees.items():
        if module == "__init__":
            continue
        for name, node in _references(tree):
            refs.setdefault(name, []).append(node)
    out = set()
    for module, tree in trees.items():
        for qualname, node in _definitions(module, tree):
            own = {id(n) for n in ast.walk(node)}
            if all(id(n) in own for n in refs.get(node.name, ())):
                out.add(qualname)
    return out


def test_every_src_definition_has_a_src_reference():
    flagged = unreferenced()
    assert flagged - ALLOWED.keys() == set(), "no caller in src/: move to the tests"
    assert ALLOWED.keys() - flagged == set(), "referenced in src/: drop from ALLOWED"


def unused_imports(path: Path) -> list[str]:
    """The names a module imports and never reads (`from __future__`
    imports are directives, not names)."""
    tree = ast.parse(path.read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


# functions of src/ that import from the package inside their body, each
# with its reason
LOCAL_IMPORTS = {
    "cli.cmd_selftest": "only `selftest` loads the self-test module and `random`, "
    "so the other commands do not pay for them at start-up",
}


def local_imports() -> set[str]:
    """The functions and methods of `src/` with a relative import in
    their body (a nested function counts for the one that holds it)."""
    out = set()
    for path in SRC.glob("*.py"):
        for qualname, node in _definitions(path.stem, ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and any(
                isinstance(n, ast.ImportFrom) and n.level for n in ast.walk(node)
            ):
                out.add(qualname)
    return out


def test_package_imports_at_module_level():
    found = local_imports()
    assert found - LOCAL_IMPORTS.keys() == set(), "hoist the import to the module top"
    assert LOCAL_IMPORTS.keys() - found == set(), "no local import: drop from LOCAL_IMPORTS"


def test_package_init_binds_only_the_version():
    """Names are imported from their modules, so `__init__` exports nothing."""
    tree = ast.parse((SRC / "__init__.py").read_text())
    assert not any(isinstance(n, (ast.Import, ast.ImportFrom)) for n in ast.walk(tree))
    assert not any(isinstance(n, (ast.FunctionDef, ast.ClassDef)) for n in tree.body)
    stored = [
        n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
    ]
    assert stored == ["__version__"]


def test_no_unused_imports():
    paths = [*SRC.glob("*.py"), *Path(__file__).parent.glob("*.py")]
    found = {p.name: names for p in sorted(paths) if (names := unused_imports(p))}
    assert found == {}
