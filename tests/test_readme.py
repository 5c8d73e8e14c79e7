"""README.md's Python examples run as written and give what their comments
state, and every repository path it names exists."""

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


def test_readme_paths_exist():
    # a word of an inline code span names a repository path when it holds
    # a "/", starts with BENCH_ or ends in .py or .toml; <...> marks a
    # placeholder. A path may be written from the root, from src/ or from
    # the package
    root = README.parent
    text = re.sub(r"^```.*?^```", "", README.read_text(encoding="utf-8"),
                  flags=re.DOTALL | re.MULTILINE)
    paths = {word for span in re.findall(r"`([^`]+)`", text)
             for word in span.split()
             if ("/" in word or word.startswith("BENCH_")
                 or word.endswith((".py", ".toml"))) and "<" not in word}
    assert len(paths) >= 10
    missing = [p for p in sorted(paths)
               if not any((base / p).exists()
                          for base in (root, root / "src",
                                       root / "src" / "scmlab"))]
    assert missing == []
