"""The output ladder's invocation count is the one its docstring and the README state.

``tools/ladder.py`` is loaded from its file.  On import it sets the BLAS
thread variables to 1; the test sets them first through ``monkeypatch``, so
they are restored afterwards.
"""

import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LADDER = ROOT / "tools" / "ladder.py"


def test_ladder_invocations_are_unique_and_counted_in_the_docs(monkeypatch):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    spec = importlib.util.spec_from_file_location("ladder", LADDER)
    ladder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ladder)
    names = [name for name, _, _ in ladder.invocations()]
    assert len(set(names)) == len(names)
    (stated,) = re.findall(r"The ladder \((\d+) invocations\)", ladder.__doc__)
    (readme,) = re.findall(r"ladder of (\d+) invocations", (ROOT / "README.md").read_text())
    assert len(names) == int(stated) == int(readme)
