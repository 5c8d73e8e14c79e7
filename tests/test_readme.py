"""README.md's Python examples run as written and give what their comments
state."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        flags=re.DOTALL | re.MULTILINE)
    assert len(blocks) == 3
    monkeypatch.chdir(tmp_path)
    ns = {}
    for i, code in enumerate(blocks):
        exec(compile(code, f"README.md python block {i + 1}", "exec"), ns)
    assert ns["total_effect_linear"](ns["model"], "x", "y") == 2.0
    assert ns["d_separated"](ns["g"], {"x"}, {"z"}, set()) is False
    assert ns["analysis"].minimal_sets == [("z",)]
    assert ns["analysis"].identifiable is True
    assert abs(ns["att"].efficiency_residual) < 1e-9
