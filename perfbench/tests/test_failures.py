"""Failure counting: wrong, refused and missing outputs all count."""

import asyncio

import numpy as np

from perfbench import figures, inputs, serve, train


def test_table_failures():
    expected = {"sddmm/a/G3/6": 1.5, "sddmm/b/G3/6": None, "spmm/a/G3/6": 2.0}
    assert figures.table_failures(dict(expected), expected) == 0
    assert figures.table_failures({**expected, "sddmm/a/G3/6": 1.5000001}, expected) == 1
    assert figures.table_failures({**expected, "sddmm/b/G3/6": 3.0}, expected) == 1  # expected OOM
    assert figures.table_failures({**expected, "spmm/a/G3/6": None}, expected) == 1  # OOM
    assert figures.table_failures({**expected, "spmm/z/G3/6": 1.0}, expected) == 1   # not recorded
    missing = {k: v for k, v in expected.items() if k != "spmm/a/G3/6"}
    assert figures.table_failures(missing, expected) == 1                            # not run
    assert figures.table_failures({}, expected) == len(expected)


def test_loss_failures():
    assert train.loss_failures([3.0, 2.0, 1.0]) == 0
    assert train.loss_failures([3.0, float("nan"), 1.0]) == 1
    assert train.loss_failures([3.0, 2.0, 3.5]) == 1                # no progress
    assert train.loss_failures([3.0, float("inf")]) == 2            # non-finite, not below


class _Client:
    """Answers from a script: an array, or an exception to raise."""

    def __init__(self, answers):
        self.answers = list(answers)

    async def propagate(self, column, tenant=""):
        return self._next()

    async def predict(self, ids, tenant=""):
        return self._next()

    def _next(self):
        answer = self.answers.pop(0)
        if isinstance(answer, Exception):
            raise answer
        return answer


def _checker():
    checker = serve.Checker.__new__(serve.Checker)
    checker.pool = inputs.ServePool(np.zeros((1, 3)), [np.array([0, 1])])
    checker.propagate = [np.array([1.0, 2.0, 3.0])]
    checker.predict = [np.array([[0.5], [0.25]])]
    return checker


def test_send_counts_wrong_and_refused():
    checker, tally = _checker(), serve.Tally()
    client = _Client([
        np.array([1.0, 2.0, 3.0]),                 # right
        np.array([1.0, 2.0, 3.0000001]),           # wrong by one ulp-ish
        TimeoutError("deadline"),                  # refused
        np.array([[0.5], [0.25]]),                 # right predict
        np.array([[0.5]]),                         # wrong shape
    ])
    reqs = [inputs.Request("propagate", 0)] * 3 + [inputs.Request("predict", 0)] * 2

    async def go():
        return [await serve.send(client, checker, r, tally) for r in reqs]

    assert asyncio.run(go()) == [True, False, False, True, False]
    assert (tally.attempted, tally.failed) == (5, 3)
    assert tally.errors == {"wrong": 2, "TimeoutError": 1}
