"""The pool-input corpus of `pool_corpus.py` in tier-1: its named cases and 40
generated ones, each one `fsp personalize --pool-csv` run in-process."""

import pytest

from pool_corpus import NAMED, generated, run_case


@pytest.mark.parametrize("case", NAMED + generated(0, 40), ids=lambda case: case.name)
def test_a_pool_case_finishes_or_exits_with_one_error_line(case):
    assert run_case(case) == []
