"""The predict and eval corpus of `predict_corpus.py` in tier-1: its named cases and 40
generated ones, each one `fsp predict` or `fsp eval` run in-process."""

import pytest

from predict_corpus import NAMED, generated, run_case


@pytest.mark.parametrize("case", NAMED + generated(0, 40), ids=lambda case: case.name)
def test_a_predict_or_eval_case_finishes_or_exits_with_one_error_line(case):
    assert run_case(case) == []
