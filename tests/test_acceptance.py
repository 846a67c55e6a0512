"""Acceptance gate: every shipped criterion runs as its own test case.

The census depth is the full ten vertices, so this module carries the
bulk of the suite's runtime. Results are computed once and shared.
"""

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
