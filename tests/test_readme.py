"""The README's quick starts run as written: the library block against the public API, the CLI block through main."""

import json
import os
import re
import shlex
import sys
from pathlib import Path

from fbmspring.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def code_blocks(text, language):
    return re.findall(rf"^```{language}\n(.*?)^```", text, flags=re.MULTILINE | re.DOTALL)


def cli_commands(text):
    """The argv of each ``fbmspring`` line of the sh blocks, without the program name or a ``>`` redirect."""
    lines = (line for block in code_blocks(text, "sh") for line in block.splitlines())
    return [shlex.split(line.partition(">")[0])[1:] for line in lines if line.startswith("fbmspring ")]


def test_library_quick_start_runs(capsys):
    blocks = code_blocks(README.read_text(), "python")
    assert blocks, "README has no python code block"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    assert "0.7596" in capsys.readouterr().out


def test_cli_quick_start_runs(tmp_path, monkeypatch):
    commands = cli_commands(README.read_text())
    assert len(commands) == 10
    monkeypatch.chdir(tmp_path)
    with open(os.devnull, "w") as sink:  # the 4097-monomer chain alone writes about 160 MB of CSV
        monkeypatch.setattr(sys, "stdout", sink)
        for argv in commands:
            assert main(argv) == 0, argv
    outs = [Path(argv[argv.index("--out") + 1]) for argv in commands if "--out" in argv]
    assert len(outs) == 6
    for out in outs:
        manifest = json.loads(out.with_suffix(".manifest.json").read_text())
        assert out.name in manifest["outputs"]
        assert all(Path(name).exists() for name in manifest["outputs"]), manifest["outputs"]
