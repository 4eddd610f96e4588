"""Smoke test: every demo script runs to the end in-process.

The demos hold their own asserts against brute force, so a run that
finishes is a check, not only a print.
"""

import runpy

import pytest

from conftest import REPO_ROOT

DEMOS = sorted((REPO_ROOT / "demos").glob("*.py"))


def test_all_demos_are_collected():
    assert [d.name for d in DEMOS] == [
        "complexity_report.py", "psp_sweep.py", "successive_omniscience.py",
        "truncation_breakpoints.py",
    ]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path))["main"]()
    assert capsys.readouterr().out
