"""The reference layer stays apart from the fast path: no fast module imports
`kplab.oracles`, and none carries an oracle or a reference helper itself."""

import ast
import importlib.util
from pathlib import Path

FAST_MODULES = ("field", "linalg", "flats", "config", "exponents", "incidence", "simplex", "maximal")
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
