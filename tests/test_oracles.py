"""The oracles stay independent of the code paths they check."""

import ast
from pathlib import Path

ALLOWED = {"LaurentPoly", "FiniteOperator", "GeneratorsDoNotCommute", "NotPure"}


def cqcalab_imports():
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "cqcalab":
                    yield alias.name
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "cqcalab":
            for alias in node.names:
                yield alias.name


def test_oracles_import_only_value_types_and_errors():
    names = list(cqcalab_imports())
    assert names, "oracles.py imports nothing from cqcalab"
    assert set(names) <= ALLOWED
    assert not any(name.startswith("_") or name == "f2_rank" for name in names)
