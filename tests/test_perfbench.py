"""The benchmark traces leelat functions by dotted name; each must still exist."""

import ast
import importlib
from pathlib import Path

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def traced_names():
    """The ``_FUNCS`` tuple of perfbench/run.py, read without running the script."""
    for node in ast.parse(RUN.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "_FUNCS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{RUN} assigns no _FUNCS")


def test_every_traced_name_resolves():
    names = traced_names()
    assert names
    for name in names:
        module, *attrs = name.split(".")
        obj = importlib.import_module(f"leelat.{module}")
        for attr in attrs:
            assert hasattr(obj, attr), f"perfbench traces {name}, which does not resolve"
            obj = getattr(obj, attr)
        assert callable(obj), f"perfbench traces {name}, which is not callable"
