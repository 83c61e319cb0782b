"""The README's examples run as written: the Python quick start, and each
command-line line on the minimal config block.

``threshold --k 3`` alone runs on a smaller problem (``--nodes 8
--steps 200``); at its defaults it takes seconds, and the golden
``threshold`` case pins that subcommand's outputs.
"""

import contextlib
import io
import pathlib
import re
import shlex

import pytest

from imexbdf.cli import main

README = (pathlib.Path(__file__).parent.parent / "README.md").read_text()


def fenced(section: str, language: str) -> str:
    """The first ``language`` code block after the heading ``section``."""
    body = README.split(f"\n## {section}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", body, re.S).group(1)


def cli_lines() -> list[list[str]]:
    lines = []
    for line in fenced("Command line", "sh").splitlines():
        argv = shlex.split(line, comments=True)
        assert argv[0] == "imexbdf"
        if argv[1:] == ["threshold", "--k", "3"]:
            argv += ["--nodes", "8", "--steps", "200"]
        lines.append(argv[1:])
    return lines


def test_quick_start_prints_what_its_comments_say():
    code = fenced("Python quick start", "python")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README quick start", "exec"), {})
    printed = out.getvalue().splitlines()
    comments = [line.partition("#")[2].strip() for line in code.splitlines() if "print(" in line]
    assert len(printed) == len(comments) == 3
    for value, comment in zip(printed, comments):
        # "73.3516... degrees": the printed value starts with those digits
        digits = re.match(r"([\d.]+)\.\.\.", comment)
        if digits:
            assert value.startswith(digits.group(1))
    assert abs(float(printed[-1]) - 4.0) < 0.1  # "close to 4"


@pytest.mark.parametrize("argv", cli_lines(), ids=" ".join)
def test_command_line_examples_exit_zero(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.ini").write_text(fenced("Command line", "ini"))
    assert main(argv) == 0, capsys.readouterr().err
