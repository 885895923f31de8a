"""The functions the benchmark's traced mode wraps must exist in the package."""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced() -> tuple:
    """The TRACED tuple of perfbench/tracing.py, read without importing it."""
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED assignment in {TRACING}")


def test_every_traced_name_resolves():
    traced = _traced()
    assert traced
    for module, qualname in traced:
        obj = importlib.import_module(f"orbitron.{module}")
        for part in qualname.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"{module}.{qualname}"
