"""The package doctests, the demo scripts and the README's library
example run as documented, and the README's command lines parse."""

import contextlib
import doctest
import importlib
import io
import os
import pkgutil
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import groupoid_lab
from groupoid_lab.cli import build_parser

MODULES = ["groupoid_lab"] + [f"groupoid_lab.{m.name}"
                              for m in pkgutil.iter_modules(groupoid_lab.__path__)]
ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_doctests_pass(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0


def test_doctests_are_found():
    finder = doctest.DocTestFinder()
    examples = sum(len(test.examples) for name in MODULES
                   for test in finder.find(importlib.import_module(name)))
    assert examples >= 9


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_cleanly(demo):
    src = str(Path(groupoid_lab.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    done = subprocess.run([sys.executable, str(demo)], env=env, timeout=120,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_readme_library_example_prints_its_comments():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library example\n\n```python\n(.*?)```", readme,
                      re.S).group(1)
    expected = re.findall(r"^print\(.*#\s*(\S+)$", block, re.M)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    assert expected == ["True", "False"]
    assert out.getvalue().split() == expected


def _readme_cli_lines():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = re.search(r"^## CLI\n(.*?)^## ", readme, re.S | re.M).group(1)
    blocks = re.findall(r"```sh\n(.*?)```", section, re.S)
    return [line for block in blocks for line in block.splitlines()
            if line.startswith("groupoid-lab ")]


@pytest.mark.parametrize("line", _readme_cli_lines())
def test_readme_cli_line_parses(line):
    """Each documented command names only options the parser knows; the
    file paths in it are placeholders and are not read."""
    build_parser().parse_args(shlex.split(line, comments=True)[1:])


def test_readme_cli_lines_are_found():
    assert len(_readme_cli_lines()) >= 6
