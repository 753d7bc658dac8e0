import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrtc import (
    ConfigError,
    DimensionError,
    MissingScenario,
    generate_nm_mask,
    generate_rm_mask,
    scenario_mask,
)


class TestRandomMissing:
    def test_same_seed_same_mask(self):
        a = generate_rm_mask((8, 6, 10), 0.3, seed=42)
        b = generate_rm_mask((8, 6, 10), 0.3, seed=42)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, generate_rm_mask((8, 6, 10), 0.3, seed=43))

    def test_vanishing_rate_keeps_everything(self):
        mask = generate_rm_mask((4, 4, 4), 1e-9, seed=0)
        assert mask.all()

    def test_observed_fraction_concentrates(self):
        mask = generate_rm_mask((100, 100, 100), 0.4, seed=123)
        fraction = mask.mean()
        assert 0.59 <= fraction <= 0.61

    @pytest.mark.parametrize("rate", [0.0, 1.0, -0.2, 1.7])
    def test_rate_out_of_range(self, rate):
        with pytest.raises(ConfigError):
            generate_rm_mask((3, 3, 3), rate, seed=0)


class TestNonRandomMissing:
    def test_fibers_all_or_none(self):
        mask = generate_nm_mask((6, 5, 7), 0.3, seed=11)
        for i in range(6):
            for j in range(5):
                fiber = mask[i, j, :]
                assert fiber.all() or not fiber.any()

    def test_single_fiber_case(self):
        # find a seed that drops exactly one (location, day) pair
        dims = (2, 2, 9)
        for seed in range(200):
            mask = generate_nm_mask(dims, 0.25, seed=seed)
            missing = ~mask
            if missing.sum() == dims[2]:
                pairs = np.argwhere(missing.any(axis=2))
                assert len(pairs) == 1
                i, j = pairs[0]
                assert missing[i, j, :].all()
                break
        else:
            pytest.fail("no seed in range produced a single dropped fiber")

    def test_expected_missing_fraction(self):
        rate = 0.3
        fractions = [
            (~generate_nm_mask((20, 20, 10), rate, seed=s)).mean() for s in range(30)
        ]
        assert abs(np.mean(fractions) - rate) < 0.03

    def test_same_seed_same_mask(self):
        a = generate_nm_mask((5, 7, 4), 0.5, seed=3)
        b = generate_nm_mask((5, 7, 4), 0.5, seed=3)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("rate", [0.0, 1.0])
    def test_rate_out_of_range(self, rate):
        with pytest.raises(ConfigError):
            generate_nm_mask((3, 3, 3), rate, seed=0)


class TestMissingScenario:
    def test_dispatch(self):
        sc = MissingScenario("rm", 0.4, 9)
        assert np.array_equal(scenario_mask((4, 5, 6), sc), generate_rm_mask((4, 5, 6), 0.4, 9))
        sc = MissingScenario("nm", 0.4, 9)
        assert np.array_equal(scenario_mask((4, 5, 6), sc), generate_nm_mask((4, 5, 6), 0.4, 9))

    def test_validation(self):
        with pytest.raises(ConfigError):
            MissingScenario("blockout", 0.4, 0)
        with pytest.raises(ConfigError):
            MissingScenario("rm", 1.2, 0)

    @pytest.mark.parametrize("seed", [np.int64(3), np.uint32(3)])
    def test_numpy_integer_seed_is_a_seed(self, seed):
        mask = generate_rm_mask((3, 4, 5), 0.4, seed)
        assert np.array_equal(mask, generate_rm_mask((3, 4, 5), 0.4, 3))

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", True, None, np.float64(3.0), np.True_])
    def test_seed_must_be_nonnegative_integer(self, seed):
        for make in (
            lambda: MissingScenario("rm", 0.4, seed),
            lambda: generate_rm_mask((3, 4, 5), 0.4, seed),
            lambda: generate_nm_mask((3, 4, 5), 0.4, seed),
        ):
            with pytest.raises(ConfigError, match="seed must be a nonnegative integer"):
                make()


@pytest.mark.parametrize("generate", [generate_rm_mask, generate_nm_mask])
@pytest.mark.parametrize("dims", [(-1, 2, 3), (2.5, 3, 4), (True, 2, 2), (3, 4), (2, 3, 4, 5)])
def test_dims_must_be_three_positive_integers(generate, dims):
    # the dims rule of every other entry point, not numpy's errors or a 2-D mask
    with pytest.raises(DimensionError, match="dims must be three positive integers"):
        generate(dims, 0.4, 0)


@given(
    pattern=st.sampled_from(["rm", "nm"]),
    rate=st.floats(0.01, 0.99),
    seed=st.integers(0, 2**32 - 1),
    dims=st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)),
)
@settings(max_examples=60)
def test_mask_is_pure_function(pattern, rate, seed, dims):
    sc = MissingScenario(pattern, rate, seed)
    assert np.array_equal(scenario_mask(dims, sc), scenario_mask(dims, sc))
