"""The README's Python API example runs, and every exported name resolves
and is documented there."""
import contextlib
import importlib
import io
import re
from pathlib import Path

import pytest

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


def _python_api_prose() -> str:
    """The README between "## Python API" and "## Performance", code blocks
    removed."""
    section = README.read_text(encoding="utf-8").split("## Python API", 1)[1]
    return re.sub(r"```.*?```", "", section.split("## Performance", 1)[0], flags=re.S)


def test_every_exported_name_is_documented_in_the_python_api_section():
    documented = {
        name for span in re.findall(r"`([^`]+)`", _python_api_prose())
        for name in re.findall(r"[A-Za-z_]\w*", span)
    }
    assert [name for name in mzdephase.__all__ if name not in documented] == []


@pytest.mark.parametrize("module, name", [
    ("channels", "single_path_state"),
    ("oracle", "oracle_state"),
    ("oracle", "oracle_port_probabilities"),
    ("maps", "propagator_from_coherence_factors"),
    ("oracle", "_amplitudes"),
    ("oracle", "_grid_phases"),
    ("oracle", "_initial_amplitudes"),
    ("oracle", "_path_blocks"),
    ("oracle", "_conditioned"),
    ("interferometer", "_closed_form_stage"),
    ("core", "PolarizationState.horizontal"),
    ("core", "PolarizationState.vertical"),
    ("core", "_port_probabilities"),
    ("core", "InterferometerConfig._probabilities"),
])
def test_names_that_only_tests_used_are_gone(module, name):
    # a dotted name is an attribute of a class of the module
    owner = importlib.import_module(f"mzdephase.{module}")
    *classes, name = name.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    assert not hasattr(mzdephase, name)
    assert not hasattr(owner, name)
