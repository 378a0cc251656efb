import re
import shlex
from pathlib import Path

from ccsecrecy.cli import run_cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _section_code(heading: str, language: str = "python") -> str:
    """The first code block in the language under a second-level heading of README.md."""
    text = README.read_text()
    section = text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    match = re.search(rf"```{language}\n(.*?)```", section, re.S)
    assert match, f"no {language} block under ## {heading}"
    return match.group(1)


def test_readme_library_example_runs(capsys):
    # A name the library no longer exports fails the import at the top.
    exec(compile(_section_code("Library"), str(README), "exec"), {})
    bits, sc, snr_db, c_max, unimodal = capsys.readouterr().out.split()
    assert 0.0 < float(sc) < float(bits) <= 4.0
    assert float(c_max) > 0.0 and unimodal == "True"


def test_readme_cli_examples_run(tmp_path, monkeypatch):
    # Each command of the sh block under ## CLI, with its \-continued lines
    # joined, runs in process from a directory that holds my_points.json.
    lines = _section_code("CLI", "sh").replace("\\\n", " ").splitlines()
    commands = [shlex.split(line) for line in lines if line.startswith("ccsecrecy ")]
    assert len(commands) == 7
    (tmp_path / "my_points.json").write_text("[[1, 0], [0, 1], [-1, 0], [0, -1]]")
    monkeypatch.chdir(tmp_path)
    for command in commands:
        assert run_cli(command[1:]) == 0, command
