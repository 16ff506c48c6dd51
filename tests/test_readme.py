"""The README's library quick start runs as written, so every name it
imports from the package stays exported."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs(capsys):
    section = README.read_text().split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README quick start", "exec"), {})
    points = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [float(db) for db, _ in points] == [4.0, 6.0]
    assert all(0.0 < float(p2) < 1.0 for _, p2 in points)
