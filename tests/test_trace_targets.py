"""The benchmark's tracer wraps package functions by name; every name it lists must exist.

``perfbench/tracer.py`` is loaded from its file, not edited or imported as a
package, so deleting or renaming a traced function fails here instead of
breaking ``perfbench/run.py --trace 1``.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("module_name, attr, span", _targets())
def test_every_traced_name_resolves(module_name, attr, span):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner), f"{module_name}.{attr} ({span}) is not callable"

