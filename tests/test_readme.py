"""The README's examples run as written: its Python blocks, and every
`sacs` command in its sh blocks, whose output shown under it must be what
it prints."""

import re
import shlex
from pathlib import Path

import pytest

from sacs.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.M | re.S)


def sacs_argv(line):
    """The arguments after `sacs` on a shell line, without its comment."""
    return shlex.split(line, comments=True)[1:]


def sacs_commands():
    """(argv, shown stdout) for each line of an sh block that starts with
    `sacs `, joined across backslash continuations. The shown stdout is
    the block's lines under the command, up to the next command."""
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", TEXT, re.M | re.S):
        shown = None
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("sacs "):
                shown = []
                commands.append((sacs_argv(line), shown))
            elif shown is not None:
                shown.append(line + "\n")
    return [(argv, "".join(shown)) for argv, shown in commands]


COMMANDS = sacs_commands()


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index, capsys):
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})
    assert capsys.readouterr().out


def test_readme_runs_every_subcommand():
    assert {argv[0] for argv, _ in COMMANDS} == {"coverage", "gaussian-check", "rates", "run"}


@pytest.mark.parametrize("index", range(len(COMMANDS)))
def test_readme_sacs_command_runs(index, tmp_path, monkeypatch, capsys):
    argv, shown = COMMANDS[index]
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0, argv
    assert capsys.readouterr().out == shown


def test_readme_csv_sample_heads_its_command(tmp_path, monkeypatch):
    # the sample block follows the sh block of the command that writes it
    m = re.search(
        r"^```sh\n(sacs coverage .*?)^```\n[^`]*^```\n(t,boundary_kind,.*?)^```",
        TEXT,
        re.M | re.S,
    )
    argv = sacs_argv(m[1].replace("\\\n", " "))
    sample = m[2].splitlines()
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    out = Path(argv[argv.index("--out") + 1]).read_text().splitlines()
    assert out[: len(sample)] == sample
