"""``tools/lane_crossover.py``: one short timing of each kernel through
the calls the tool makes, so a change to the kernels' signatures breaks
tier-1 and not only ``make crossover``."""

import math
import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tools"))

import lane_crossover  # noqa: E402


@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("threshold", [None, 2.0])
@pytest.mark.parametrize("kernel", ["book", "scalar"])
def test_exchange_us_times_each_kernel(monkeypatch, kernel, threshold, masked):
    monkeypatch.setattr(lane_crossover, "ROUNDS", 1)
    monkeypatch.setattr(lane_crossover, "REPS", 3)
    # Three supplied lanes and four refusing, half of those at the cap.
    us = lane_crossover.exchange_us(kernel, 3, 4, 0.5, threshold, masked=masked)
    assert 0.0 < us < math.inf

