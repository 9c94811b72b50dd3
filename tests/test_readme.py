"""The README's library quick start runs and prints what its comments say."""
import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_blocks():
    return re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)


def test_readme_quick_start_runs_and_prints_its_comments():
    blocks = _python_blocks()
    assert len(blocks) == 1
    code = blocks[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    prints = [line for line in code.splitlines() if line.startswith("print(")]
    assert len(printed) == len(prints)
    for line, got in zip(prints, printed):
        if "#" in line:
            assert got == line.split("#", 1)[1].strip(), line
