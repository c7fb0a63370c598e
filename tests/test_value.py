"""The value classes keep the contract of the dataclasses they replaced:
equality by field tuple within one class, the field tuple's hash, refused
assignment on the frozen ones, and pickles that round-trip.  And importing
the package loads neither `dataclasses` nor `inspect`, which would double
its start-up time."""

import ast
import importlib.util
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from kplab.config import Configuration, gen_degenerate
from kplab.exponents import BoundExpr
from kplab.field import Field
from kplab.incidence import JrDecomposition, build_refinement_chain, incidence_count
from kplab.linalg import rref
from kplab.maximal import GridFunction

PACKAGE = Path(importlib.util.find_spec("kplab").origin).parent


def test_import_loads_neither_dataclasses_nor_inspect():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import kplab, kplab.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-c", code, str(PACKAGE.parent)], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_no_module_imports_dataclasses():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 10
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                named = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                named = [(node.module or "").split(".")[0]]
            else:
                continue
            assert "dataclasses" not in named, f"{path.name} line {node.lineno} imports dataclasses"


# (object, an equal object built apart, its field names in order)
VALUES = {
    "RrefBasis": lambda: (
        rref([(1, 2, 0), (0, 1, 1)], Field(5)),
        rref([(1, 3, 1), (2, 2, 3)], Field(5)),
        ("rows", "pivots"),
    ),
    "Configuration": lambda: (
        gen_degenerate(3, 2, 1, Field(3)),
        gen_degenerate(3, 2, 1, Field(3)),
        ("field", "n", "k", "points", "flats"),
    ),
    "GridFunction": lambda: (
        GridFunction.from_dict(Field(3), 2, {(0, 0): Fraction(1, 2), (1, 2): 2, (2, 1): Fraction(1, 2)}),
        GridFunction.from_dict(Field(3), 2, {(2, 1): Fraction(1, 2), (1, 2): 2, (0, 0): Fraction(1, 2)}),
        ("field", "n", "classes"),
    ),
    "BoundExpr": lambda: (
        BoundExpr(Fraction(6, 13), Fraction(8, 13), Fraction(6, 13)),
        BoundExpr(Fraction(12, 26), Fraction(8, 13), Fraction(6, 13)),
        ("a", "b", "c"),
    ),
}


@pytest.mark.parametrize("name", sorted(VALUES))
def test_frozen_value_contract(name):
    obj, twin, names = VALUES[name]()
    fields = tuple(getattr(obj, field) for field in names)
    assert type(obj).__name__ == name
    assert obj == twin and obj is not twin and not obj != twin
    assert obj.__eq__(fields) is NotImplemented and obj != fields
    assert hash(obj) == hash(twin) == hash(fields)
    copy = pickle.loads(pickle.dumps(obj))
    assert copy == obj and hash(copy) == hash(obj) and copy in {twin}
    assert repr(obj).startswith(f"{name}({names[0]}=")
    for field in names:
        with pytest.raises(AttributeError):
            setattr(obj, field, None)
        with pytest.raises(AttributeError):
            delattr(obj, field)
    assert obj == twin


def test_validation_still_runs_on_construction():
    cfg = gen_degenerate(3, 2, 1, Field(3))
    with pytest.raises(ValueError):
        Configuration(cfg.field, cfg.n, cfg.k, cfg.points | {(3, 0, 0)}, cfg.flats)
    with pytest.raises(ValueError):
        GridFunction(Field(3), 2, ((Fraction(1), ((0, 3),)),))


# Every field of the two reports that the oracle comparisons compare whole.
CHAIN_FIELDS = (
    "refined", "ik_prime", "ik", "vk_prime", "vk", "vkp", "d_size", "d_bucket_level",
    "d_threshold", "holder_lower_holds", "cs_lower_holds", "shared_pairs",
)


def degenerate_chain():
    cfg = gen_degenerate(4, 2, 1, Field(3))
    return build_refinement_chain(cfg, incidence_count(cfg))


@pytest.mark.parametrize(
    "build,names",
    [(lambda: JrDecomposition(2, 9, (3, 4, 2)), ("r", "total", "strata")), (degenerate_chain, CHAIN_FIELDS)],
    ids=["JrDecomposition", "RefinementChainReport"],
)
def test_report_equality_compares_every_field(build, names):
    report = build()
    fields = {name: getattr(report, name) for name in names}
    assert report == type(report)(**fields) == build()
    for name in names:
        assert report != type(report)(**{**fields, name: object()}), name
    with pytest.raises(TypeError):
        hash(report)
    assert pickle.loads(pickle.dumps(report)) == report
