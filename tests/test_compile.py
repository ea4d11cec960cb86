"""No library module needs a larger compile than ``base``, the largest layer.

Importing the library from source compiles every module, and the
largest parser transient among them sets the peak memory of a fresh
process.  A module that grows past ``base`` is split along its own
sections.  The bound is relative, so it holds on every Python.

Run as a script, this file prints each module's lines and compile peak
as a Markdown table.
"""

import sys
import tracemalloc
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "groupoid_lab"


def compile_peak(path):
    """Bytes that compiling ``path`` holds at its peak, beyond the source."""
    source = path.read_text(encoding="utf-8")
    tracemalloc.start()
    try:
        compile(source, str(path), "exec")
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def compile_peaks():
    return {path.stem: compile_peak(path)
            for path in sorted(SOURCE.glob("*.py"))}


def test_no_module_compiles_with_a_larger_peak_than_base():
    peaks = compile_peaks()
    bound = peaks.pop("base")
    assert {name: peak for name, peak in peaks.items() if peak > bound} == {}


if __name__ == "__main__":
    print(f"| module, Python {sys.version.split()[0]} | lines "
          "| compile peak |")
    print("|---|---:|---:|")
    for name, peak in compile_peaks().items():
        lines = len((SOURCE / f"{name}.py").read_text(
            encoding="utf-8").splitlines())
        print(f"| `{name}.py` | {lines} | {peak / 2**20:.2f} MB |")
