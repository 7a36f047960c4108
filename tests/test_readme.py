"""The README's library example runs as printed, so a stale example fails the suite."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.S | re.M)
    assert len(blocks) == 1
    monkeypatch.chdir(tmp_path)
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_example"})
    transfer, residual, identity_block, closed_form, kraus_sum = capsys.readouterr().out.split()
    assert abs(float(transfer) - 1.0) < 1e-12
    assert float(residual) < 1e-12 and identity_block == "True"
    assert abs(float(closed_form) - float(kraus_sum)) < 1e-12  # one channel value, two routes
    assert (tmp_path / "k23.csv").is_file() and (tmp_path / "k23.svg").is_file()
