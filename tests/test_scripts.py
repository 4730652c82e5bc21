"""Smoke test for the script under scripts/: it runs and its table holds.

The script is loaded from its file, since scripts/ is not a package.
"""

from __future__ import annotations

import importlib.util
import math
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_embedding_table_c1_flips_at_threshold(tmp_path, capsys):
    out = tmp_path / "table.csv"
    script = _load("embedding_table")
    assert script.main(["--K", "2", "--N", "3", "--p", "2", "--v", "0.5",
                        "--count", "5", "--out", str(out)]) == 0
    assert "wrote" in capsys.readouterr().out
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "s,t,c1,c2"
    rows = [line.split(",") for line in lines[1:]]
    crit = 3.0 / 2.0
    assert any(float(s) == crit for s, *_ in rows)
    below = [c1 for s, _t, c1, _c2 in rows if float(s) <= crit]
    above = [c1 for s, _t, c1, _c2 in rows if float(s) > crit]
    assert below and above
    assert all(c1 == "inf" for c1 in below)
    assert all(math.isfinite(float(c1)) and float(c1) > 0.0 for c1 in above)
