"""The package doctests, the demo scripts and the README's library
example run as documented."""

import contextlib
import doctest
import importlib
import io
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import groupoid_lab

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
