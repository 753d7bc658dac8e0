import numpy as np
import pytest

from lrtc import ConfigError, synth_lowrank, unfold


class TestSynthLowrank:
    def test_ones_factors_rank_one(self):
        t = synth_lowrank((2, 2, 2), 1, value_offset=5.0, seed=0, ones_factors=True)
        assert np.array_equal(t, np.full((2, 2, 2), 6.0))

    def test_ones_factors_general_rank(self):
        t = synth_lowrank((3, 4, 5), 2, value_offset=10.0, ones_factors=True)
        assert np.allclose(t, 12.0)

    def test_deterministic_per_seed(self):
        a = synth_lowrank((6, 5, 7), 3, seed=99)
        b = synth_lowrank((6, 5, 7), 3, seed=99)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, synth_lowrank((6, 5, 7), 3, seed=100))

    def test_multilinear_rank_bound_without_offset(self):
        rank = 3
        t = synth_lowrank((8, 7, 9), rank, value_offset=0.0, seed=5)
        for mode in (0, 1, 2):
            sv = np.linalg.svd(unfold(t, mode), compute_uv=False)
            assert (sv[rank:] < 1e-8 * sv[0]).all()

    def test_offset_adds_at_most_one_rank(self):
        rank = 2
        t = synth_lowrank((8, 7, 9), rank, value_offset=10.0, seed=5)
        for mode in (0, 1, 2):
            sv = np.linalg.svd(unfold(t, mode), compute_uv=False)
            assert (sv[rank + 1 :] < 1e-8 * sv[0]).all()

    def test_rank_out_of_range(self):
        with pytest.raises(ConfigError):
            synth_lowrank((4, 5, 6), 5)
        with pytest.raises(ConfigError):
            synth_lowrank((4, 5, 6), 0)

    def test_negative_seed(self):
        with pytest.raises(ConfigError, match="got -1"):
            synth_lowrank((4, 5, 6), 2, seed=-1)

    @pytest.mark.parametrize("offset", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_offset(self, offset):
        with pytest.raises(ConfigError, match="offset must be finite"):
            synth_lowrank((4, 5, 6), 2, value_offset=offset)

    def test_bad_dims(self):
        with pytest.raises(ConfigError):
            synth_lowrank((4, 5), 2)
        with pytest.raises(ConfigError):
            synth_lowrank((4, 0, 6), 2)
