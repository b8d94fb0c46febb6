"""The README's library example and command-line transcript run as written."""

import re
import shlex
from pathlib import Path

from blocksplit.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_example"})
    printed = capsys.readouterr().out.splitlines()
    assert printed[0].startswith("True ")  # the certification passes
    assert printed[1].startswith("final distance to the minimizer: ")


def test_readme_cli_transcript_prints_what_it_shows(tmp_path, monkeypatch, capsys):
    text = README.read_text()
    config = re.search(r"^```json\n(.*?)^```$", text, re.S | re.M).group(1)
    (tmp_path / "experiment.json").write_text(config)
    # each "$ blocksplit ..." line, then the lines it prints up to a blank line
    steps = [(shlex.split(cmd), out.splitlines())
             for cmd, out in re.findall(r"^\$ blocksplit (.*)\n((?:[^$`\n].*\n)*)", text, re.M)]
    assert len(steps) == 5
    monkeypatch.chdir(tmp_path)
    for argv, shown in steps:
        assert main(argv) == 0, argv
        assert capsys.readouterr().out.splitlines() == shown, argv
