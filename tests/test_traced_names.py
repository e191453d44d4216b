"""Every function the benchmark's traced replay wraps still exists in sring.

``perfbench/layers.py`` names each traced function as a (module, attribute)
pair in its ``TRACED`` table.  The table is read from the source with ``ast``
and evaluated on its own, so neither the benchmark nor its imports run here.
"""

import ast
import importlib
from functools import reduce
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def traced_table() -> dict:
    tree = ast.parse(LAYERS.read_text(encoding="utf-8"))
    (node,) = [
        n for n in tree.body
        if isinstance(n, ast.Assign) and [ast.unparse(t) for t in n.targets] == ["TRACED"]
    ]
    # the table is built from literals and comprehensions over literals only
    return eval(compile(ast.Expression(node.value), str(LAYERS), "eval"), {"__builtins__": {}})


TRACED_NAMES = sorted({pair for pairs in traced_table().values() for pair in pairs})


def test_table_is_read():
    assert ("cli", "run") in TRACED_NAMES and ("groups", "all_subgroups") in TRACED_NAMES


@pytest.mark.parametrize("module,attribute", TRACED_NAMES, ids=[".".join(p) for p in TRACED_NAMES])
def test_traced_name_resolves(module, attribute):
    target = reduce(getattr, attribute.split("."), importlib.import_module(f"sring.{module}"))
    assert callable(target)
