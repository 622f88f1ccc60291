"""Every narrative demo, and README's Quick start, runs to completion
against the current API."""

from __future__ import annotations

import glob
import os
import re

import pytest

from conftest import run_python

ROOT = os.path.join(os.path.dirname(__file__), "..")
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs(path, tmp_path):
    proc = run_python([os.path.abspath(path)], timeout=60, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_start_runs(tmp_path):
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as f:
        block = re.search(r"^## Quick start\n.*?^```python\n(.*?)^```", f.read(),
                          re.DOTALL | re.MULTILINE)
    assert block, "README has no python block under Quick start"
    proc = run_python(["-c", block[1]], timeout=60, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "colors per size bucket:" in proc.stdout
