import os
import subprocess
import sys
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "uncovered.py"

_PACKAGE = '''"""A throwaway package."""
import math
from os import path

STATE = 0


def used(x):
    """Docstring."""
    global STATE
    STATE = (
        x
        + 1
    )
    if x > 0:
        return math.sqrt(x)
    return STATE


def unused():
    return 1


def in_thread(results):
    results.append(3)


class Thing:
    def method(self):
        count = 1

        def inner():
            nonlocal count
            count = 2

        inner()
        try:
            return count
        except ValueError:
            raise RuntimeError(
                "never"
            )


if __name__ == "__main__":
    raise SystemExit(used(1))
'''

_TESTS = '''import threading

from pkg import Thing, in_thread, used


def test_used():
    assert used(4) == 2.0
    assert Thing().method() == 2
    results = []
    worker = threading.Thread(target=in_thread, args=(results,))
    worker.start()
    worker.join()
    assert results == [3]
'''


def test_lists_the_statements_without_a_line_event(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "__init__.py").write_text(_PACKAGE, encoding="utf-8")
    (tmp_path / "test_pkg.py").write_text(_TESTS, encoding="utf-8")
    child = subprocess.run(
        [sys.executable, str(_TOOL), "pkg", "-q", "-p", "no:cacheprovider", "test_pkg.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(tmp_path)},
    )
    assert child.returncode == 0, child.stdout + child.stderr
    listed = [line for line in child.stdout.splitlines() if line.startswith("pkg")]
    assert listed == [
        f"pkg{os.sep}__init__.py:17: return STATE",
        f"pkg{os.sep}__init__.py:21: return 1",
        f"pkg{os.sep}__init__.py:40: raise RuntimeError(",
        f"pkg{os.sep}__init__.py:46: raise SystemExit(used(1))",
    ]


def test_usage_without_a_package(tmp_path):
    child = subprocess.run([sys.executable, str(_TOOL)], capture_output=True, text=True, timeout=60)
    assert (child.returncode, child.stderr) == (2, "usage: python3 tools/uncovered.py PACKAGE [PYTEST_ARGS ...]\n")
