"""Layout lint: every definition in the package is used by the package,
every module of the package and the tests reads what it imports, the
package imports its own modules at module level, and every recursion in
the package is listed with the bound on its depth.

A module-level function or class, or a method other than a dunder, counts
as used when its name appears in `src/` outside its own body and outside
`__init__`: as a name, an attribute or an import alias (an export alone
is not a use).  Attribute names count as references, so a list's
`out.extend(...)` would hide a function named `extend`.  For the same
reason a method counts as used when another class has a method of that
name that is called: a dead `to_json` or `component` goes unflagged while
`MorphismClass.to_json` or `MorphismClass.component` has a caller.
Helpers that only tests call belong in `tests/conftest.py`, and each
top-level definition there must be referenced by some module of the
tests outside its own body.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "thetacat"

# definitions kept without a reference in src/, each with its reason
ALLOWED = {
    "presheaves.table_to_json": "documented API: writes the table JSON that `check --input` reads",
    "presheaves.TablePresheaf.from_presheaf": "documented API: a presheaf's tables over a window",
    "presheaves.TruncatedPresheaf": "documented API: truncation along the dimension filtration",
    "presheaves.ExtendedPresheaf": "documented API: extension along the dimension filtration",
    "theta.factor_through": "the tests' oracles factor cells through it, and the bench traces it by name",
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


def _unused(definitions, trees) -> set[str]:
    """The qualnames of the definitions whose name no tree references
    outside the definition's own body."""
    refs: dict[str, list] = {}
    for tree in trees:
        for name, node in _references(tree):
            refs.setdefault(name, []).append(node)
    out = set()
    for qualname, node in definitions:
        own = {id(n) for n in ast.walk(node)}
        if all(id(n) in own for n in refs.get(node.name, ())):
            out.add(qualname)
    return out


def unreferenced() -> set[str]:
    trees = {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    definitions = [d for module, tree in trees.items() for d in _definitions(module, tree)]
    return _unused(definitions, [t for m, t in trees.items() if m != "__init__"])


def test_every_src_definition_has_a_src_reference():
    flagged = unreferenced()
    assert flagged - ALLOWED.keys() == set(), "no caller in src/: move to the tests"
    assert ALLOWED.keys() - flagged == set(), "referenced in src/: drop from ALLOWED"


def unreferenced_in_conftest() -> set[str]:
    """The top-level functions and classes of `tests/conftest.py` that no
    module of the tests references outside their own body."""
    trees = {path.name: ast.parse(path.read_text()) for path in TESTS.glob("*.py")}
    definitions = [
        (node.name, node)
        for node in trees["conftest.py"].body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    ]
    return _unused(definitions, trees.values())


def test_every_conftest_definition_has_a_test_reference():
    assert unreferenced_in_conftest() == set(), "no test uses it: delete it"


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
    paths = [*SRC.glob("*.py"), *TESTS.glob("*.py")]
    found = {p.name: names for p in sorted(paths) if (names := unused_imports(p))}
    assert found == {}


# the self-recursive functions of src/, each with the reason its depth is
# bounded: a Python frame per level, so the depth must stay well under the
# default recursion limit of 1 000
RECURSIVE = {
    "anodyne._union_steps": "each level descends to a face, so the depth is at most the entry sum",
    "csp.Network._search": "each level branches on one more variable, so the depth is at most "
    "the number of variables",
    "presheaves._freeze": "each level is one level of JSON nesting, and `cli._read_json` turns "
    "a `RecursionError` into exit 1",
}


def _callee(call: ast.Call) -> str | None:
    """`f` for a call `f(...)` or `self.f(...)`, else None."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        return func.attr if func.value.id == "self" else None
    return None


def recursive_functions() -> set[str]:
    """The functions of `src/`, nested ones and methods included, whose body
    calls the function itself: by its bare name, or as `self.<name>`."""
    out = set()

    def walk(prefix: str, body) -> None:
        for node in body:
            if isinstance(node, ast.ClassDef):
                walk(f"{prefix}.{node.name}", node.body)
            elif isinstance(node, ast.FunctionDef):
                qualname = f"{prefix}.{node.name}"
                calls = {_callee(n) for n in ast.walk(node) if isinstance(n, ast.Call)}
                if node.name in calls:
                    out.add(qualname)
                walk(qualname, node.body)

    for path in SRC.glob("*.py"):
        walk(path.stem, ast.parse(path.read_text()).body)
    return out


def test_recursion_is_listed_with_its_bound():
    found = recursive_functions()
    assert found - RECURSIVE.keys() == set(), "bound its depth, or write it as a loop"
    assert RECURSIVE.keys() - found == set(), "not recursive: drop from RECURSIVE"


# the classes that hold the two defaults, each read off the other, and the
# core memo; every other presheaf of src/ defines its action once
ACTION_BASES = {"Presheaf", "CoreNerve"}
ARRAY_BUILDERS = {"_build_action", "_build_core_action"}
CONCRETE_PRESHEAVES = {
    "Representable",
    "ProductPresheaf",
    "TablePresheaf",
    "TruncatedPresheaf",
    "ExtendedPresheaf",
    "NerveB1",
    "NerveB2Strict",
    "NerveB2EM",
}


def presheaf_classes() -> dict[str, tuple[list[str], set[str]]]:
    """The subclasses of `Presheaf` in src/, itself included, by name:
    their base names and the methods their own bodies define."""
    classes = {}
    for path in SRC.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                bases = [b.id for b in node.bases if isinstance(b, ast.Name)]
                own = {s.name for s in node.body if isinstance(s, ast.FunctionDef)}
                classes[node.name] = (bases, own)

    def descends(name):
        return name == "Presheaf" or any(
            descends(b) for b in classes[name][0] if b in classes
        )

    return {name: entry for name, entry in classes.items() if descends(name)}


def test_each_presheaf_defines_its_action_once():
    """Per element (`apply`) or as arrays (`_build_action`, or
    `_build_core_action` under `CoreNerve`), never both: the base reads
    each form off the other, so a second definition is a second action
    to keep equal to the first."""
    classes = presheaf_classes()
    twice = {
        name
        for name, (_, own) in classes.items()
        if name not in ACTION_BASES and "apply" in own and own & ARRAY_BUILDERS
    }
    assert twice == set(), "define the action once: drop `apply` or the builder"

    def defines(name):
        bases, own = classes[name]
        return bool(own & (ARRAY_BUILDERS | {"apply"})) or any(
            defines(b) for b in bases if b in classes and b not in ACTION_BASES
        )

    concrete = classes.keys() - ACTION_BASES
    assert concrete == CONCRETE_PRESHEAVES
    assert {name for name in concrete if not defines(name)} == set()
