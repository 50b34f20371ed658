"""The README's library example runs as printed."""

import contextlib
import io
import re
from pathlib import Path

ROOT = Path(__file__).parent.parent


def library_example():
    """The first fenced python block under README's "## Library use"."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_prints_one_line_per_study_approach(monkeypatch, study_approaches):
    monkeypatch.chdir(ROOT)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(library_example(), {})
    lines = out.getvalue().splitlines()
    assert [line.split()[0] for line in lines] == sorted(study_approaches)
    assert all(re.fullmatch(r"\S+ \d+\.\d{1,2} [A-F]", line) for line in lines), lines
