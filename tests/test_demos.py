"""Every narrative demo runs to completion against the current API."""

from __future__ import annotations

import glob
import os

import pytest

from conftest import run_python

DEMOS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..", "demos", "*.py")))


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs(path, tmp_path):
    proc = run_python([os.path.abspath(path)], timeout=60, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
