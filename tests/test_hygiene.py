"""Checks on the source: unused imports and constants, one place that enumerates tuples, no private imports
from outside, no oracle on the analysis path, no export that only tests use, no setting read from the environment."""

import ast
import re
from pathlib import Path

import fermisep

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fermisep"
CONSTANT = re.compile(r"[A-Z][A-Z0-9_]*")
# Exports that neither the package nor perfbench/ calls, each with the reason it is exported.
UNCALLED_EXPORTS = {
    "from_coefficients": "the README quickstart builds its example state with it",
}


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def loaded_names(tree: ast.AST) -> set[str]:
    """Names read anywhere in the tree, as bare names or as attributes."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def imported_names(tree: ast.Module) -> set[str]:
    """Names bound by import statements, without `from __future__` imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def test_package_modules_use_every_name_they_import():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = parse(path)
        unused += [f"{path.name}: {name}" for name in sorted(imported_names(tree) - loaded_names(tree))]
    assert unused == []


def test_every_package_constant_is_referenced():
    referenced = set()
    for folder in ("src", "tests"):
        for path in (ROOT / folder).rglob("*.py"):
            referenced |= loaded_names(parse(path))
    unreferenced = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in parse(path).body:
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            for target in targets:
                if isinstance(target, ast.Name) and CONSTANT.fullmatch(target.id) and target.id not in referenced:
                    unreferenced.append(f"{path.name}: {target.id}")
    assert unreferenced == []


def test_only_the_basis_module_enumerates_tuples():
    """itertools.combinations appears only in basis.py, which shares one tuple array per basis."""
    users = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(parse(path)):
            from_import = isinstance(node, ast.ImportFrom) and node.module == "itertools"
            if from_import and any(a.name == "combinations" for a in node.names):
                users.append(path.name)
            elif isinstance(node, ast.Attribute) and node.attr == "combinations":
                users.append(path.name)
    assert set(users) <= {"basis.py"}


def test_only_the_basis_module_freezes_arrays():
    """Arrays are made read-only only in basis.py, whose one helper takes in every argument as a read-only copy."""
    freezers = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Attribute) and node.attr == "writeable" and isinstance(node.ctx, ast.Store):
                freezers.append(path.name)
    assert set(freezers) <= {"basis.py"}


def test_only_the_basis_module_looks_for_bools():
    """Inputs are refused for holding a bool by basis.py's one argument rule alone; reporting.py, which renders
    index tuples and reads no input, is the one other module that may tell a bool from an int."""
    lookers = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(parse(path)):
            called = isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("isinstance", "issubclass")
            compared = isinstance(node, ast.Compare)
            if (called or compared) and {"bool", "bool_"} & loaded_names(node):
                lookers.append(path.name)
    assert set(lookers) <= {"basis.py", "reporting.py"}


def private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_code_outside_the_package_and_its_tests_uses_no_private_fermisep_name():
    """Tools such as perfbench/ use only the public names, so the package may change its private ones."""
    uses = []
    for path in sorted(ROOT.rglob("*.py")):
        if path.is_relative_to(PACKAGE) or path.is_relative_to(ROOT / "tests"):
            continue
        tree = parse(path)
        bound = set()  # names bound by fermisep imports
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fermisep":
                uses += [f"{path.name}: {node.module}.{a.name}" for a in node.names if private(a.name)]
                bound.update(a.asname or a.name for a in node.names)
            elif isinstance(node, ast.Import):
                for a in node.names:
                    if a.name.split(".")[0] == "fermisep":
                        bound.add((a.asname or a.name).split(".")[0])
                        if any(map(private, a.name.split("."))):
                            uses.append(f"{path.name}: import {a.name}")
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and private(node.attr):
                root = node.value
                while isinstance(root, ast.Attribute):
                    root = root.value
                if isinstance(root, ast.Name) and root.id in bound:
                    uses.append(f"{path.name}: {ast.unparse(node)}")
    assert uses == []


def test_no_analysis_module_imports_the_oracle():
    """The naive references in oracle.py check the analysis path and are never part of it."""
    importers = []
    for name in ("basis", "states", "rdm", "spectral", "separability", "reporting"):
        for node in ast.walk(parse(PACKAGE / f"{name}.py")):
            if isinstance(node, ast.ImportFrom):
                modules = [node.module or "", *(a.name for a in node.names)]
            elif isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            else:
                continue
            if any(m.split(".")[-1] == "oracle" for m in modules):
                importers.append(name)
    assert importers == []


def test_no_package_module_reads_the_environment():
    """Every outcome depends on the arguments alone: sizes and caps are module constants, not environment settings."""
    readers = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = parse(path)
        if {"environ", "environb", "getenv", "getenvb"} & (loaded_names(tree) | imported_names(tree)):
            readers.append(path.name)
    assert readers == []


def test_every_export_is_called_by_the_program():
    """A name in fermisep.__all__ is loaded in the package outside __init__.py or in perfbench/, or is
    on UNCALLED_EXPORTS; an export that only tests call belongs in the module that tests it, not the API."""
    paths = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"] + list((ROOT / "perfbench").glob("*.py"))
    loaded = set().union(*(loaded_names(parse(path)) for path in paths))
    assert sorted(set(fermisep.__all__) - loaded - set(UNCALLED_EXPORTS)) == []
    assert sorted(set(UNCALLED_EXPORTS) - set(fermisep.__all__)) == []
