import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _section_code(heading: str) -> str:
    """The first python code block under a second-level heading of README.md."""
    text = README.read_text()
    section = text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    match = re.search(r"```python\n(.*?)```", section, re.S)
    assert match, f"no python block under ## {heading}"
    return match.group(1)


def test_readme_library_example_runs(capsys):
    # A name the library no longer exports fails the import at the top.
    exec(compile(_section_code("Library"), str(README), "exec"), {})
    bits, sc, snr_db, c_max, unimodal = capsys.readouterr().out.split()
    assert 0.0 < float(sc) < float(bits) <= 4.0
    assert float(c_max) > 0.0 and unimodal == "True"
