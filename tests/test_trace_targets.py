"""The benchmark's tracer wraps package functions by name; every name it lists must exist.

``perfbench/tracer.py`` is loaded from its file, not edited or imported as a
package, so deleting or renaming a traced function fails here instead of
breaking ``perfbench/run.py --trace 1``.  The traced pass also reads
``accepted`` off ``run_prep_circuit``'s return value and cross-checks the
``eigh`` counts; a traced run checks both here.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from qspec import cli

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module_name, attr, span", _load_tracer().TARGETS)
def test_every_traced_name_resolves(module_name, attr, span):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner), f"{module_name}.{attr} ({span}) is not callable"


@pytest.mark.parametrize("max_attempts, accepted", [(1000, 1), (1, 0)])
def test_traced_circuit_run_makes_one_prep_call(tmp_path, capsys, max_attempts, accepted):
    # Seed 1 rejects its first attempt and accepts a later one: with a budget of
    # one the run exhausts (exit 3), otherwise it completes (exit 0).
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "model": {"preset": "tilted_ising", "N": 2},
        "observable": "total_sz",
        "prep": {"mode": "circuit", "epsilon": 0.5, "max_attempts": max_attempts},
        "qpe": {"l": 3, "delta": 0.3},
        "seed": 1,
        "output_dir": str(tmp_path / "out"),
    }))
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        code = cli.main(["run", "--config", str(config)])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == (0 if accepted else 3)
    assert tracer.calls["stateprep.run_prep_circuit"] == 1
    assert tracer.prep_accepted == accepted
    assert tracer.calls["numpy.linalg.eigh"] == tracer.calls["simcore.eig_hermitian"] > 0
