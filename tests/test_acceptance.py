"""The ten acceptance criteria, one test (and one printed line) each."""

import pytest

from wzw.acceptance import CRITERIA, run_all

IDS = [fn.__name__.split("_", 2)[-1] for fn in CRITERIA]


@pytest.mark.parametrize("criterion", CRITERIA, ids=IDS)
def test_criterion(criterion):
    result = criterion()
    line = f"criterion {result.number:2d} {'PASS' if result.passed else 'FAIL'}  {result.title}: {result.detail}"
    print(line)
    assert result.passed, line


def test_run_all_is_complete_and_ordered():
    results = run_all()
    assert [r.number for r in results] == list(range(1, 11))
    assert all(r.passed for r in results)
    assert all(type(r.passed) is bool for r in results)  # no wrapper coerces a criterion's verdict
