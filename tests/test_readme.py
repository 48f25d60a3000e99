"""The README's quick start, run as written through python -m macroforge.

Each `$ macroforge ...` line of the quick start runs in a fresh directory
that holds only blink.mcrl, and its stdout must be the output the README
shows.  An abridged JSON report (one that ends in `...`) must match the
fields it shows.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import macroforge

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start() -> tuple[str, list[str]]:
    """blink.mcrl and the blocks of shell sessions that follow it."""
    section = README.read_text().split("## Quick start\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    source, *sessions = re.findall(r"^```\n(.*?)^```", section, re.M | re.S)
    return source, sessions


def commands(sessions: list[str]):
    """(arguments, expected stdout lines) for each `$ macroforge` line."""
    for block in sessions:
        for chunk in block.split("$ macroforge ")[1:]:
            command, *output = chunk.rstrip("\n").split("\n")
            yield command.split(), output


def test_quick_start_runs_as_documented(tmp_path):
    source, sessions = quick_start()
    (tmp_path / "blink.mcrl").write_text(source)
    env = dict(os.environ,
               PYTHONPATH=str(Path(macroforge.__file__).resolve().parents[1]))
    ran = []
    for argv, want in commands(sessions):
        got = subprocess.run([sys.executable, "-m", "macroforge", *argv],
                             cwd=tmp_path, env=env, capture_output=True,
                             text=True, timeout=60)
        assert (got.returncode, got.stderr) == (0, ""), argv
        if want[-2:] == ["  ...", "}"]:
            report = json.loads(got.stdout)
            shown = json.loads("\n".join(want[:-2]).rstrip(",") + "}")
            assert shown == {k: report[k] for k in shown}, argv
        else:
            assert got.stdout.splitlines() == want, argv
        ran.append(argv[0])
    assert ran == ["asm", "run", "compact", "disasm", "verify"]
