import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrtc import DegenerateProblemError, DimensionError, mape, rmse


class TestMape:
    def test_perfect_estimate(self):
        assert mape([10.0, 20.0], [10.0, 20.0]) == 0.0

    def test_single_entry(self):
        assert mape([10.0], [9.0]) == pytest.approx(10.0, rel=1e-12)

    def test_mean_of_percentages(self):
        # |10-9|/10 and |20-22|/20 are both 10%
        assert mape([10.0, 20.0], [9.0, 22.0]) == pytest.approx(10.0, rel=1e-12)

    def test_zero_truth_excluded(self):
        # the zero-truth entry contributes nothing, whatever the estimate
        assert mape([0.0, 10.0], [123.0, 9.0]) == pytest.approx(10.0, rel=1e-12)

    def test_all_zero_truth(self):
        with pytest.raises(DegenerateProblemError):
            mape([0.0, 0.0], [1.0, 2.0])

    def test_empty(self):
        with pytest.raises(DegenerateProblemError):
            mape([], [])

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            mape([1.0], [1.0, 2.0])


class TestRmse:
    def test_perfect_estimate(self):
        assert rmse([3.0, 4.0], [3.0, 4.0]) == 0.0

    def test_hand_computed(self):
        # sqrt((9 + 16) / 2) = sqrt(12.5)
        assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(math.sqrt(12.5), rel=1e-12)

    def test_single_difference(self):
        assert rmse([5.0], [2.0]) == pytest.approx(3.0, rel=1e-12)

    def test_empty(self):
        with pytest.raises(DegenerateProblemError):
            rmse([], [])


values = st.lists(st.floats(1.0, 1e3), min_size=1, max_size=20)


@given(truth=values, scale=st.floats(1e-12, 1e12))
@settings(max_examples=80)
def test_scale_equivariance(truth, scale):
    rng = np.random.default_rng(0)
    truth = np.array(truth)
    estimate = truth + rng.uniform(-0.5, 0.5, truth.shape)
    assert rmse(scale * truth, scale * estimate) == pytest.approx(
        scale * rmse(truth, estimate), rel=1e-9
    )
    assert mape(scale * truth, scale * estimate) == pytest.approx(
        mape(truth, estimate), rel=1e-9
    )
