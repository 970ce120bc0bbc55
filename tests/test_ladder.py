"""The output ladder: its invocation count is the one its docstring and the
README state, and its compare mode tells moved columns from other changes.

``tools/ladder.py`` is loaded from its file.  On import it sets the BLAS
thread variables to 1; the tests set them first through ``monkeypatch``, so
they are restored afterwards.
"""

import copy
import hashlib
import importlib.util
import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
LADDER = ROOT / "tools" / "ladder.py"


@pytest.fixture
def ladder(monkeypatch):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    spec = importlib.util.spec_from_file_location("ladder", LADDER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ladder_invocations_are_unique_and_counted_in_the_docs(ladder):
    names = [name for name, _, _ in ladder.invocations()]
    assert len(set(names)) == len(names)
    (stated,) = re.findall(r"The ladder \((\d+) invocations\)", ladder.__doc__)
    (readme,) = re.findall(r"ladder of (\d+) invocations", (ROOT / "README.md").read_text())
    assert len(names) == int(stated) == int(readme)


def _tree(root: Path, p_exact: list[str], total_variation: float, **changes) -> Path:
    """A one-invocation ladder tree whose distribution.csv carries ``p_exact``."""
    rows = "".join(f"{f},0.5,{p},0.25\n" for f, p in enumerate(p_exact))
    text = "f,omega,p_exact,p_oracle\n" + rows
    (root / "diag").mkdir(parents=True)
    (root / "diag" / "distribution.csv").write_text(text)
    sha = hashlib.sha256(text.encode()).hexdigest()
    entry = {"command": "run", "config": {"seed": 7}, "exit": 0, "stderr": "", "sha256": {"distribution.csv": sha},
             "report": {"distances": {"exact_vs_oracle": {"total_variation": total_variation}},
                        "artifacts": {"distribution.csv": sha}, "prep": {"mode": "exact"}}}
    for key, value in changes.items():
        entry[key] = value
    (root / "manifest.json").write_text(json.dumps({"diag": entry}))
    return root


def test_compare_reports_moved_columns_and_distances(ladder, tmp_path, capsys):
    before = _tree(tmp_path / "a", ["0.25", "0.75", "0"], 1e-13)
    after = _tree(tmp_path / "b", ["0.25000000000000006", "0.7499999999999999", "0"], 2e-13)
    assert ladder.main([str(after), "--compare", str(before)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "diag distribution.csv p_exact: 2 of 3 rows moved, max |diff| 1.11e-16",
        "diag report distances.exact_vs_oracle.total_variation: 1.000000e-13 -> 2.000000e-13, |diff| 1e-13",
        "1 of 1 invocations moved; 0 failures",
    ]
    assert ladder.main([str(before), "--compare", str(before)]) == 0
    assert capsys.readouterr().out == "0 of 1 invocations moved; 0 failures\n"


@pytest.mark.parametrize("change", ["exit", "stderr", "report", "rows", "missing"])
def test_compare_fails_on_any_other_change(ladder, tmp_path, capsys, change):
    before = _tree(tmp_path / "a", ["0.25", "0.75"], 1e-13)
    report = json.loads((before / "manifest.json").read_text())["diag"]["report"]
    changed = copy.deepcopy(report)
    changed["prep"]["mode"] = "circuit"
    changes = {"exit": {"exit": 1}, "stderr": {"stderr": "error: x"}, "report": {"report": changed}}
    after = _tree(tmp_path / "b", ["0.25", "0.75", "0"] if change == "rows" else ["0.25", "0.75"], 1e-13,
                  **changes.get(change, {}))
    if change == "missing":
        (after / "manifest.json").write_text("{}")
    assert ladder.main([str(after), "--compare", str(before)]) == 1
    out = capsys.readouterr().out
    assert out.splitlines()[-1].endswith("; 1 failures")
    assert {"exit": "exit changed", "stderr": "stderr changed", "report": "report prep.mode changed",
            "rows": "header or row count changed (2 -> 3 rows)", "missing": "only in"}[change] in out


def _oracle_tree(root: Path, sigma: str, gamma: float, digest: str | None = None) -> Path:
    """A one-invocation ``qspec oracle`` tree: spectrum.csv and spectrum.json, which holds its digest."""
    (root / "oracle").mkdir(parents=True)
    text = f"omega,sigma\n-1,{sigma}\n1,0.5\n"
    (root / "oracle" / "spectrum.csv").write_text(text)
    sha = hashlib.sha256(text.encode()).hexdigest()
    record = json.dumps({"gamma": gamma, "ensemble": {"kind": "gibbs", "beta": 1.0},
                         "artifacts": {"spectrum.csv": digest or sha}})
    (root / "oracle" / "spectrum.json").write_text(record)
    shas = {"spectrum.csv": sha, "spectrum.json": hashlib.sha256(record.encode()).hexdigest()}
    entry = {"command": "oracle", "config": {"seed": 7}, "exit": 0, "stderr": "", "sha256": shas}
    (root / "manifest.json").write_text(json.dumps({"oracle": entry}))
    return root


def test_compare_lets_the_spectrum_record_digest_move_with_its_csv(ladder, tmp_path, capsys):
    before = _oracle_tree(tmp_path / "a", "0.25", 0.3)
    after = _oracle_tree(tmp_path / "b", "0.25000000000000006", 0.3)
    assert ladder.main([str(after), "--compare", str(before)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "oracle spectrum.csv sigma: 1 of 2 rows moved, max |diff| 5.55e-17",
        "1 of 1 invocations moved; 0 failures",
    ]


@pytest.mark.parametrize("change", ["gamma", "digest"])
def test_compare_fails_on_any_other_spectrum_record_change(ladder, tmp_path, capsys, change):
    # A changed linewidth, or a digest that moves while spectrum.csv does not.
    before = _oracle_tree(tmp_path / "a", "0.25", 0.3)
    after = _oracle_tree(tmp_path / "b", "0.25", 0.4 if change == "gamma" else 0.3,
                         digest="0" * 64 if change == "digest" else None)
    assert ladder.main([str(after), "--compare", str(before)]) == 1
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == "1 of 1 invocations moved; 1 failures"
    assert {"gamma": "FAIL oracle: spectrum.json gamma changed",
            "digest": "FAIL oracle: spectrum.json artifacts.spectrum.csv changed"}[change] in out
