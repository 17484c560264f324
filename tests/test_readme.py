"""The README's library quick start runs as written against the public API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks(text):
    return re.findall(r"^```python\n(.*?)^```", text, flags=re.MULTILINE | re.DOTALL)


def test_library_quick_start_runs(capsys):
    blocks = python_blocks(README.read_text())
    assert blocks, "README has no python code block"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    assert "0.7596" in capsys.readouterr().out
