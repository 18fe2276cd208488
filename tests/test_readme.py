"""The README's Python API example runs, and every exported name resolves."""
import contextlib
import io
import re
from pathlib import Path

import mzdephase

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_api_block() -> str:
    section = README.read_text(encoding="utf-8").split("## Python API", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_python_api_block_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_python_api_block(), "README.md", "exec"), {})
    lines = out.getvalue().splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("DensityMatrix(")


def test_every_exported_name_resolves():
    assert len(set(mzdephase.__all__)) == len(mzdephase.__all__)
    for name in mzdephase.__all__:
        assert getattr(mzdephase, name) is not None, name
