"""Acceptance gate: every shipped criterion runs as its own test case.

The census depth is the full ten vertices, so this module carries the
bulk of the suite's runtime. Results are computed once and shared.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from flagmaps import acceptance

MAX_K = 10


@pytest.fixture(scope="module")
def results():
    by_ident = {r.ident: r for r in acceptance.run_all(max_k=MAX_K)}
    assert len(by_ident) == len(acceptance._CRITERIA)
    return by_ident


def _cases():
    return [
        pytest.param(
            ident,
            id=f"{ident:02d}-" + title.replace(" ", "-").replace(",", ""))
        for ident, title, _ in acceptance._CRITERIA]


@pytest.mark.parametrize("ident", _cases())
def test_criterion(results, ident):
    result = results[ident]
    print(result.line())
    assert result.passed, result.detail


def test_line_format():
    ok = acceptance.CriterionResult(3, "sample title", True, "fine")
    assert ok.line() == "PASS  3 sample title: fine"
    bad = acceptance.CriterionResult(11, "other", False, "broken")
    assert bad.line() == "FAIL 11 other: broken"


def test_row_mismatch_message_shows_the_rows():
    with pytest.raises(AssertionError) as err:
        acceptance._expect_rows("totals", (n for n in (1, 8)), (1, 7, 3), 2)
    assert str(err.value) == "totals: got (1, 8), expected (1, 7)"


def test_gates_hold_under_optimize():
    # python -O strips assert statements; a wrong reference table must
    # still fail its criterion and the selftest exit code
    script = (
        "from flagmaps import acceptance, cli\n"
        "acceptance.EXPECTED_TOTAL = (1, 8) + acceptance.EXPECTED_TOTAL[2:]\n"
        "raise SystemExit(cli.main(['selftest', '--max-k', '3']))\n")
    env = dict(os.environ,
               PYTHONPATH=str(Path(acceptance.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    lines = proc.stdout.splitlines()
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert lines[0] == ("FAIL  1 census type totals within the time budget: "
                        "AssertionError: type totals: got (1, 7, 3), "
                        "expected (1, 8, 3)")
    assert lines[-1] == "11/12 criteria passed"
