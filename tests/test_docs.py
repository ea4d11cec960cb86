"""The package doctests and the demo scripts run as documented."""

import doctest
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import groupoid_lab

MODULES = ["groupoid_lab"] + [f"groupoid_lab.{m.name}"
                              for m in pkgutil.iter_modules(groupoid_lab.__path__)]
DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


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
