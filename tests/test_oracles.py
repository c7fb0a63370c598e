"""The reference layer stays apart from the fast path: no fast module imports
`kplab.oracles`, and none carries an oracle or a reference helper itself.
And the library's surface is what something reads: every public name of the
fast modules and the CLI has a reader in the library, the benchmark or the
tools, or is exported in `kplab.__all__`."""

import ast
import importlib
import importlib.util
from collections import Counter
from pathlib import Path

FAST_MODULES = ("field", "linalg", "flats", "config", "exponents", "incidence", "simplex", "maximal")
# The modules whose public names must be read: the fast modules and the CLI,
# which imports `kplab.oracles` for its `selftest` command.
SURFACE_MODULES = FAST_MODULES + ("cli",)
# The reference helpers and the selftest that live in `kplab.oracles`.
MOVED = {"reduce_vector", "in_span", "solve_affine_system", "affine_hull", "enumerate_coset_representatives", "selftest"}


def is_oracle_name(name):
    return name in MOVED or name.endswith("_bruteforce")


def test_fast_modules_neither_import_nor_define_oracles():
    # Found without importing kplab, so an import cycle cannot hide the cause.
    package = Path(importlib.util.find_spec("kplab").origin).parent
    oracles = ast.parse((package / "oracles.py").read_text())
    defined = {node.name for node in oracles.body if isinstance(node, ast.FunctionDef)}
    assert MOVED <= defined
    assert sum(name.endswith("_bruteforce") for name in defined) == 4
    for module in FAST_MODULES:
        tree = ast.parse((package / f"{module}.py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                named = [part for alias in node.names for part in alias.name.split(".")]
                assert "oracles" not in named, f"{module}.py line {node.lineno} imports oracles"
            elif isinstance(node, ast.ImportFrom):
                named = (node.module or "").split(".") + [alias.name for alias in node.names]
                assert "oracles" not in named, f"{module}.py line {node.lineno} imports from oracles"
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                assert not is_oracle_name(node.name), f"{module}.py defines {node.name}"
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            for target in targets:
                assert not (isinstance(target, ast.Name) and is_oracle_name(target.id)), f"{module}.py binds {target.id}"


def names_read(tree):
    """How often a tree reads each name: as an `ast.Name`, as the attribute
    of an `ast.Attribute`, or as a part of an imported name.  A name in a
    string or a docstring is not read."""
    read = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read[node.id] += 1
        elif isinstance(node, ast.Attribute):
            read[node.attr] += 1
        elif isinstance(node, ast.alias):
            read.update(node.name.split("."))
    return read


def public_definitions(tree):
    """(qualified name, node) of each public module-level function and
    class, and of each public method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                yield node.name, node
            if isinstance(node, ast.ClassDef):
                for method in node.body:
                    if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)) and not method.name.startswith("_"):
                        yield f"{node.name}.{method.name}", method


def test_every_public_name_has_a_reader():
    # A reader is a reference outside the definition's own body, in any
    # module of the library, the benchmark or the tools; tests do not count.
    package = Path(importlib.util.find_spec("kplab").origin).parent
    root = package.parent.parent
    sources = [path for where in (package, root / "bench", root / "tools") for path in sorted(where.glob("*.py"))]
    assert {path.parent.name for path in sources} == {"kplab", "bench", "tools"}
    trees = {path: ast.parse(path.read_text()) for path in sources}
    read = sum(map(names_read, trees.values()), Counter())
    exported = set(importlib.import_module("kplab").__all__)
    unread = []
    for module in SURFACE_MODULES:
        for qualname, node in public_definitions(trees[package / f"{module}.py"]):
            if qualname not in exported and read[node.name] == names_read(node)[node.name]:
                unread.append(f"{module}.{qualname}")
    assert not unread, f"public names nothing reads: {unread}"
