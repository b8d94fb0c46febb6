"""Every function the bench tracer wraps still exists in the package."""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _targets():
    """The (module, attr) pairs of ``TARGETS`` in bench/tracing.py, read with ast.

    Importing that module would import the bench pipeline, which sets
    environment variables for the rest of the test process.
    """
    tree = ast.parse(TRACING.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return [(call.args[0].value, call.args[1].value) for call in node.value.elts]
    raise AssertionError("bench/tracing.py defines no TARGETS")


def test_every_tracer_target_exists():
    targets = _targets()
    assert targets
    missing = [f"blocksplit.{module}.{attr}" for module, attr in targets
               if not hasattr(importlib.import_module(f"blocksplit.{module}"), attr)]
    assert missing == []
