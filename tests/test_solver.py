import tracemalloc
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import lrtc.shrinkage
from lrtc import (
    ConfigError,
    DegenerateProblemError,
    InvalidInputError,
    SolverConfig,
    fold,
    frobenius_norm,
    generate_nm_mask,
    generate_rm_mask,
    solve,
    solve_halrtc,
    synth_lowrank,
    thin_svd,
    truncated_svt,
    truncation_for_mode,
    unfold,
)
from lrtc.solver import _start_state, update_m, update_t, update_x


def small_problem(seed=0, rate=0.4, dims=(12, 9, 15), rank=2):
    truth = synth_lowrank(dims, rank, value_offset=10.0, seed=seed)
    mask = generate_rm_mask(dims, rate, seed=500 + seed)
    return truth, mask


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig(theta=0.1)
        # the mode weights are fixed at 1/3, not a setting
        assert [f.name for f in fields(cfg)] == [
            "theta", "rho0", "rho_max", "rho_mult", "epsilon", "max_iter"
        ]
        assert cfg.rho0 == 1e-5
        assert cfg.rho_max == 1e5
        assert cfg.rho_mult == 1.05
        assert cfg.epsilon == 1e-4
        assert cfg.max_iter == 200

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"theta": -0.1},
            {"theta": 1.0},
            {"theta": float("nan")},
            {"theta": 0.1, "rho0": 0.0},
            {"theta": 0.1, "rho0": 1.0, "rho_max": 0.5},
            {"theta": 0.1, "rho_mult": 0.9},
            {"theta": 0.1, "epsilon": 0.0},
            {"theta": 0.1, "max_iter": 0},
            {"theta": 0.1, "rho_mult": float("nan")},
            {"theta": 0.1, "rho_mult": float("inf")},
            {"theta": 0.1, "rho_max": float("nan")},
            {"theta": 0.1, "rho0": float("inf"), "rho_max": float("inf")},
            {"theta": 0.1, "rho0": float("nan")},
            {"theta": 0.1, "epsilon": float("inf")},
            {"theta": 0.1, "max_iter": True},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            SolverConfig(**kwargs)

    @pytest.mark.parametrize("max_iter", [np.int64(10), np.int32(1), np.uint8(3)])
    def test_numpy_integer_max_iter_is_an_iteration_count(self, max_iter):
        config = SolverConfig(theta=0.1, max_iter=max_iter)
        assert config.max_iter == max_iter
        result = solve(np.ones((3, 3, 3)), np.ones((3, 3, 3), dtype=bool), config)
        assert result.iterations <= max_iter

    def test_infinite_rho_max_is_no_cap(self):
        assert SolverConfig(theta=0.1, rho_max=float("inf")).rho_max == float("inf")


def truncs_for(shape, theta):
    return [truncation_for_mode(shape, mode, theta) for mode in (0, 1, 2)]


def mode_step(m, t_k, rho, mode, trunc):
    """One mode's ``w_k = rho * x_k`` from the previous m and its own dual, on fresh tensors."""
    return svt_step(rho * m - t_k, mode, trunc)


def svt_step(z_k, mode, trunc):
    """One mode's SVT output ``w_k`` from its own SVT input, on a fresh tensor."""
    return fold(truncated_svt(unfold(z_k.copy(), mode), trunc, 1 / 3), mode, z_k.shape)


def start_z(m, rho):
    """The SVT inputs at zero duals, ``z[k] = rho * m``, as one plain stack."""
    return np.stack([rho * m] * 3)


class TestStartState:
    """solve starts from the observed entries with zeros elsewhere, zero duals and rho0."""

    def first_iteration(self, y, mask, cfg):
        m = np.where(mask, y, 0.0)
        z = start_z(m, cfg.rho0)
        d = update_x(z, truncs_for(y.shape, cfg.theta))
        update_m(m, d, z, ~mask, cfg.rho0)
        return m

    def test_fully_observed(self):
        y, _ = small_problem()
        mask = np.ones(y.shape, bool)
        cfg = SolverConfig(theta=0.1, max_iter=1)
        result = solve(y, mask, cfg)
        assert np.array_equal(result.recovered, self.first_iteration(y, mask, cfg))
        assert np.array_equal(result.recovered, y)
        assert result.rho_trace == [cfg.rho0 * cfg.rho_mult]

    def test_observed_entries_copied_exactly(self):
        y, mask = small_problem()
        y[mask.nonzero()[0][0], 0, 0] = -0.0  # a signed zero keeps its sign
        mask[mask.nonzero()[0][0], 0, 0] = True
        cfg = SolverConfig(theta=0.1, max_iter=1)
        result = solve(y, mask, cfg)
        assert np.array_equal(result.recovered, self.first_iteration(y, mask, cfg))
        assert result.recovered[mask].tobytes() == y[mask].tobytes()

    def test_every_unfolding_of_the_state_is_a_view(self):
        m = np.arange(24.0).reshape(2, 3, 4)
        z = _start_state(m, 0.5)
        for mode in (0, 1, 2):
            assert np.array_equal(z[mode], 0.5 * m)
            assert np.shares_memory(unfold(z[mode], mode), z[mode])


class TestUpdateX:
    """update_x leaves ``z[k] - w_k`` in each z[k], ``w_k = rho * x_k`` its SVT, and returns w_2.

    Before the step ``z[k] = rho * m - t[k]``, so after it ``rho * m - z[k]``
    is the dual plus the x half of its step, ``t[k] + rho * x_k``.
    """

    def test_zero_shrinkage_limit(self):
        y, _ = small_problem()
        rho = 1e12  # the threshold on m, (1/3) / rho, -> 0
        z = start_z(y, rho)
        w = update_x(z, truncs_for(y.shape, 0.1))
        assert np.allclose(w / rho, y, rtol=1e-6, atol=1e-6)
        for mode in (0, 1, 2):
            assert np.allclose((rho * y - z[mode]) / rho, y, rtol=1e-6, atol=1e-6)

    def test_zero_state_stays_zero(self):
        z = np.zeros((3, 4, 5, 6))
        w = update_x(z, truncs_for(z.shape[1:], 0.1))
        assert np.array_equal(w, np.zeros(z.shape[1:]))
        assert np.array_equal(z, np.zeros_like(z))

    def test_diagonal_structured_hand_case(self):
        # every unfolding of this tensor has singular values (3, 1); with
        # trunc 1 and tau 1 the small value is shrunk away on each mode
        m = np.zeros((2, 2, 2))
        m[0, 0, 0] = 3.0
        m[1, 1, 1] = 1.0
        truncs = truncs_for(m.shape, 0.5)  # ceil(0.5 * 2) = 1 kept per mode
        rho = 1 / 3  # tau = (1/3) / rho = 1
        z = start_z(m, rho)
        w = update_x(z, truncs)
        expected = np.zeros((2, 2, 2))
        expected[0, 0, 0] = 3.0
        assert np.allclose(w / rho, expected, atol=1e-10)
        for mode in (0, 1, 2):
            x_k = (rho * m - z[mode]) / rho
            assert np.allclose(x_k, expected, atol=1e-10)
            # cross-check against the shrinkage kernel applied directly
            oracle = truncated_svt(unfold(m, mode), 1, 1.0)
            assert np.allclose(unfold(x_k, mode), oracle, atol=1e-12)

    def test_reads_only_previous_m_and_own_dual(self):
        # each mode equals its own standalone step, run here in reverse
        # order, so the result does not depend on the order of the modes
        y, mask = small_problem(seed=3)
        truncs = truncs_for(y.shape, 0.1)
        m = np.where(mask, y, 0.0)
        rho = 0.01
        z = np.stack([rho * m - 0.001 * (k + 1) for k in range(3)])
        z_before = z.copy()
        w = update_x(z, truncs)
        own = [None] * 3
        for mode in (2, 1, 0):
            own[mode] = svt_step(z_before[mode], mode, truncs[mode])
            assert np.array_equal(z[mode], z_before[mode] - own[mode])
        assert np.array_equal(w, own[2])
        z_other = z_before.copy()
        z_other[1] += 5.0
        update_x(z_other, truncs)
        assert np.array_equal(z_other[0], z[0]) and np.array_equal(z_other[2], z[2])
        assert not np.array_equal(z_other[1] - 5.0, z[1])


@st.composite
def consensus_cases(draw):
    dims = draw(st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)))
    # signed zeros and extremes; three z terms of up to 1e300 sum to a finite value
    special = [0.0, -0.0, 5e-324, -1e300]
    values = st.one_of(st.floats(-1e300, 1e300), st.sampled_from(special))
    m = draw(arrays(np.float64, dims, elements=values))
    z = draw(arrays(np.float64, (3, *dims), elements=values))
    rho = draw(st.sampled_from([1e-5, 1.0, 1e5]) | st.floats(1e-5, 1e5))
    return m, z, draw(arrays(np.bool_, dims)), rho


class TestUpdateM:
    """update_m: ``d = m_new - m``, which is ``-sum_k z[k] / (3 rho)`` on missing entries
    and 0 on observed ones, then ``m += d``.

    After update_x, ``sum_k z[k] = 3 rho m - sum_k (t[k] + w_k)``, and the
    duals sum to zero on missing entries, so ``m + d`` is the consensus
    average ``sum_k w_k / (3 rho)`` there.
    """

    def test_average_of_identical_terms(self):
        y, mask = small_problem(seed=1)
        rho = 2.0
        m = np.full(y.shape, 1.5)
        common = np.full(y.shape, 2.5)
        z = np.stack([rho * m - rho * common] * 3)  # zero duals, every w_k = rho * common
        d = np.empty_like(m)
        update_m(m, d, z, ~mask, rho)
        assert np.array_equal(m[~mask], common[~mask])
        assert np.array_equal(d[~mask], (common - 1.5)[~mask])

    def test_observed_entries_pinned(self):
        y, mask = small_problem(seed=2)
        m = np.where(mask, y, 0.0)
        z = np.random.default_rng(2).standard_normal((3, *y.shape))
        d = np.empty_like(m)
        update_m(m, d, z, ~mask, 0.5)
        assert np.array_equal(m[mask], y[mask])
        assert not d[mask].any()

    @given(case=consensus_cases())
    @settings(max_examples=200, deadline=None)
    def test_matches_masked_average_bit_for_bit(self, case):
        m, z, mask, rho = case
        m_before = m.copy()
        expected = ((z[0] + z[1]) + z[2]) * (-1.0 / (3 * rho))
        d = np.full_like(m, np.nan)
        update_m(m, d, z, ~mask, rho)
        assert d[~mask].tobytes() == expected[~mask].tobytes()
        assert (m_before + expected)[~mask].tobytes() == m[~mask].tobytes()
        # zeros, of either sign: the observed entries keep their values
        assert not d[mask].any()
        assert np.array_equal(m[mask], m_before[mask])


class TestUpdateT:
    """update_t: ``z[k] += rho_next * m + rho * d``, the m half of the dual step
    ``t[k] -= rho * m`` and the next SVT input ``rho_next * m - t[k]`` in one."""

    def test_zero_residual_keeps_duals(self):
        # every x_k equals the new m: the dual step leaves each dual at 0.25
        rng = np.random.default_rng(4)
        m_old, m = rng.standard_normal((2, 3, 4, 5))
        rho, rho_next = 2.0, 2.1
        t_half = 0.25 + rho * m  # the dual plus the x half of its step
        z = np.stack([rho * m_old - t_half] * 3)
        update_t(z, m, m - m_old, rho, rho_next)
        assert np.allclose(rho_next * m - z, 0.25, rtol=0, atol=1e-12)

    def test_hand_computed_step(self):
        m = np.ones((2, 3, 4))
        z = np.full((3, *m.shape), 0.5)
        update_t(z, m, np.full(m.shape, 0.5), 2.0, 4.0)  # 0.5 + 4 * 1 + 2 * 0.5
        assert np.array_equal(z, np.full_like(z, 5.5))

    def test_stacked_update_equals_per_mode(self):
        rng = np.random.default_rng(8)
        m, d = rng.standard_normal((2, 3, 4, 2))
        z_list = [rng.standard_normal(m.shape) for _ in range(3)]
        rho, rho_next = 1.3, 1.3 * 1.05
        per_mode = [z_k + rho_next * (m + (rho / rho_next) * d) for z_k in z_list]
        z = _start_state(m, 1.0)  # solve's layout: z[1] is stored mode-1 first
        for z_k, value in zip(z, z_list):
            z_k[...] = value
        update_t(z, m, d.copy(), rho, rho_next)
        assert all(np.array_equal(z_k, expected) for z_k, expected in zip(z, per_mode))
        textbook = [z_k + rho_next * m + rho * d for z_k in z_list]
        assert np.allclose(z, textbook, rtol=1e-14, atol=1e-14)


class TestSolve:
    def test_fully_observed_converges_immediately(self):
        y, _ = small_problem(seed=8)
        result = solve(y, np.ones(y.shape, bool), SolverConfig(theta=0.1))
        assert result.converged
        assert result.iterations == 1
        assert np.array_equal(result.recovered, y)
        assert result.trace == [0.0]

    def test_observation_fidelity_exact(self):
        y, mask = small_problem(seed=9)
        result = solve(y, mask, SolverConfig(theta=0.1))
        assert np.array_equal(result.recovered[mask], y[mask])

    def test_rho_schedule(self):
        y, mask = small_problem(seed=10)
        cfg = SolverConfig(theta=0.1, max_iter=40)
        result = solve(y, mask, cfg)
        expected = [min(1e-5 * 1.05**l, 1e5) for l in range(1, result.iterations + 1)]
        assert np.allclose(result.rho_trace, expected, rtol=1e-10)

    def test_rho_capped(self):
        y, mask = small_problem(seed=10)
        cfg = SolverConfig(theta=0.1, rho0=5e4, rho_mult=3.0, rho_max=1e5, max_iter=5)
        result = solve(y, mask, cfg)
        assert result.rho_trace == [1e5] * result.iterations

    def test_terminates_within_max_iter(self):
        y, mask = small_problem(seed=11)
        cfg = SolverConfig(theta=0.1, max_iter=7)
        result = solve(y, mask, cfg)
        assert result.iterations == 7
        assert not result.converged
        assert len(result.trace) == 7

    def test_converged_implies_small_last_ratio(self):
        y, mask = small_problem(seed=12)
        result = solve(y, mask, SolverConfig(theta=0.1))
        assert result.converged
        assert result.trace[-1] < SolverConfig(theta=0.1).epsilon

    def test_synthetic_recovery(self):
        truth, mask = small_problem(seed=13, dims=(20, 14, 18))
        result = solve(truth, mask, SolverConfig(theta=0.15))
        rel = frobenius_norm(result.recovered - truth) / frobenius_norm(truth)
        assert result.converged
        assert rel < 1e-2

    def test_halrtc_is_theta_zero(self):
        y, mask = small_problem(seed=14)
        cfg = SolverConfig(theta=0.3, max_iter=30)
        a = solve_halrtc(y, mask, cfg)
        b = solve(y, mask, SolverConfig(theta=0.0, max_iter=30))
        assert np.array_equal(a.recovered, b.recovered)
        assert a.trace == b.trace
        assert a.iterations == b.iterations

    def test_empty_mask(self):
        y, _ = small_problem()
        with pytest.raises(DegenerateProblemError):
            solve(y, np.zeros(y.shape, bool), SolverConfig(theta=0.1))

    def test_non_finite_observed(self):
        y, mask = small_problem()
        y[np.argwhere(mask)[0][0], 0, 0] = np.nan
        mask[np.argwhere(mask)[0][0], 0, 0] = True
        with pytest.raises(InvalidInputError):
            solve(y, mask, SolverConfig(theta=0.1))

    @pytest.mark.parametrize("scale", [1e200, 1e300])
    def test_gram_overflow_falls_back(self, scale):
        # every Gram matrix overflows at these scales, though the data is finite
        y = synth_lowrank((30, 20, 40), 3, value_offset=10.0, seed=19) * scale
        mask = generate_rm_mask(y.shape, 0.4, seed=519)
        result = solve(y, mask, SolverConfig(theta=0.1))
        assert np.isfinite(result.recovered).all()
        assert np.array_equal(result.recovered[mask], y[mask])

    def test_data_in_small_units_is_not_floored_away(self):
        # the SVT input rho * m - t is small when the data is: at rho0 = 1e-5
        # data of order 1e-9 has singular values near 1e-12. Its noise floor
        # is relative, so scaling the data by a power of two scales the answer
        y, mask = small_problem(seed=19, dims=(30, 20, 40), rank=3)
        cfg = SolverConfig(theta=0.1)
        reference = solve(y * 2.0**-10, mask, cfg)
        for exponent in (-34, -60):
            result = solve(y * 2.0**exponent, mask, cfg)
            assert result.iterations == reference.iterations > 1
            expected = reference.recovered * 2.0 ** (exponent + 10)
            assert frobenius_norm(result.recovered - expected) <= 1e-12 * frobenius_norm(expected)

    def test_overflowing_observed_norm(self):
        # finite entries up to 2.5e307 whose norm exceeds the float range
        y = synth_lowrank((30, 20, 40), 3, value_offset=10.0, seed=19) * 1e306
        mask = generate_rm_mask(y.shape, 0.4, seed=519)
        assert np.isfinite(y).all()
        with pytest.raises(InvalidInputError, match="norm of the observed entries overflows"):
            solve(y, mask, SolverConfig(theta=0.1))

    def test_overflowing_iterates_are_refused_by_name(self):
        # finite data whose first SVT input has a norm past the float range
        # (1e303 * rho0 = 1e306), and one whose first consensus step does
        y = synth_lowrank((30, 20, 40), 3, value_offset=10.0, seed=1)
        mask = generate_rm_mask(y.shape, 0.4, seed=1)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(InvalidInputError, match="norm of the matrix overflows"):
                solve(y * 1e303, mask, SolverConfig(theta=0.1, rho0=1e3, rho_max=1e5))
            with pytest.raises(InvalidInputError, match="overflowed at iteration 1;"):
                solve(y * 3e300, mask, SolverConfig(theta=0.1, rho0=1e5, max_iter=1))

    @pytest.mark.parametrize("max_iter", [1, 2, 5])
    def test_a_solve_is_finite_or_refused(self, max_iter):
        # near the top of the float range some iterate overflows for some
        # rho0; a solve then refuses with InvalidInputError, never with a
        # numpy error or a non-finite answer
        y = synth_lowrank((30, 20, 40), 3, value_offset=10.0, seed=1)
        mask = generate_rm_mask(y.shape, 0.4, seed=1)
        outcomes = set()
        for scale in [c * 10.0**e for e in range(296, 307) for c in (1, 3)]:
            for rho0 in (1e-5, 1e-1, 1e3, 1e5):
                cfg = SolverConfig(theta=0.1, rho0=rho0, max_iter=max_iter)
                try:
                    with np.errstate(over="ignore", invalid="ignore"):  # pyproject makes them errors
                        result = solve(y * scale, mask, cfg)
                except InvalidInputError:
                    outcomes.add("refused")
                else:
                    assert np.isfinite(result.recovered).all() and np.isfinite(result.trace).all()
                    outcomes.add("finite")
        assert outcomes == {"refused", "finite"}

    def test_rho_overflow_is_config_error(self):
        # 1e-5 * 1e300 = 1e295, then inf: the second step overflows
        y, mask = small_problem(seed=10)
        cfg = SolverConfig(theta=0.1, rho_mult=1e300, rho_max=float("inf"))
        with pytest.raises(ConfigError, match="iteration 2.*finite rho_max"):
            solve(y, mask, cfg)
        # the one iteration before it agrees with the oracle
        first = solve(y, mask, replace(cfg, max_iter=1))
        m, trace, rho_trace = reference_solve(y, mask, replace(cfg, max_iter=1))
        assert first.rho_trace == rho_trace == [1e-5 * 1e300]
        assert frobenius_norm(first.recovered - m) <= 1e-11 * frobenius_norm(m)
        assert np.allclose(first.trace, trace, rtol=1e-6, atol=0)

    def test_clamp_warns_once_per_saturating_mode(self):
        y = synth_lowrank((2, 2, 3), 1, value_offset=1.0, seed=0)
        mask = np.ones(y.shape, bool)
        mask[0, 0, 0] = False
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = solve(y, mask, SolverConfig(theta=0.9, max_iter=10))
        clamped = sorted(str(w.message).split()[1] for w in caught if "clamping" in str(w.message))
        assert result.iterations > 1
        assert clamped == ["mode-0", "mode-1", "mode-2"]

    def test_zero_norm_observations(self):
        y = np.zeros((2, 2, 2))
        with pytest.raises(DegenerateProblemError):
            solve(y, np.ones(y.shape, bool), SolverConfig(theta=0.1))

    def test_shape_mismatch(self):
        from lrtc import DimensionError

        with pytest.raises(DimensionError):
            solve(np.zeros((2, 2, 2)), np.ones((2, 3, 2), bool), SolverConfig(theta=0.1))


def reference_solve(y, mask, cfg):
    """The iteration on the duals ``t[k]`` in its per-mode list form, one fresh tensor per step.

    Each mode thresholds ``rho * m - t[k]`` at 1/3, the consensus average
    has no dual term, and the dual step is split into its x half and its m
    half. solve carries ``z[k] = rho * m - t[k]`` in place of ``t[k]``.
    """
    truncs = truncs_for(y.shape, cfg.theta)
    m = np.where(mask, y, 0.0)
    t = [np.zeros_like(m) for _ in range(3)]
    rho = cfg.rho0
    obs_norm = frobenius_norm(m)
    trace, rho_trace = [], []
    for _ in range(cfg.max_iter):
        w = [mode_step(m, t[k], rho, k, truncs[k]) for k in range(3)]
        t = [t_k + w_k for w_k, t_k in zip(w, t)]
        m_old, m = m, np.where(mask, y, sum(w) / (3.0 * rho))
        t = [t_k - rho * m for t_k in t]
        rho = min(cfg.rho_mult * rho, cfg.rho_max)
        trace.append(frobenius_norm(m - m_old) / obs_norm)
        rho_trace.append(rho)
        if trace[-1] < cfg.epsilon:
            break
    return m, trace, rho_trace


def paper_reference_solve(y, mask, cfg):
    """The iteration in its per-mode list form, one fresh tensor per step."""
    truncs = truncs_for(y.shape, cfg.theta)
    m = np.where(mask, y, 0.0)
    x = [m.copy() for _ in range(3)]
    t = [np.zeros_like(m) for _ in range(3)]
    rho = cfg.rho0
    obs_norm = float(np.linalg.norm(y[mask]))
    trace, rho_trace = [], []
    for _ in range(cfg.max_iter):
        m_old = m
        x = [
            fold(truncated_svt(unfold(m - t[k] / rho, k), truncs[k], (1 / 3) / rho), k, m.shape)
            for k in range(3)
        ]
        m = np.where(mask, y, sum(x) / 3.0 + sum(t) / (3.0 * rho))
        t = [t_k + rho * (x_k - m) for x_k, t_k in zip(x, t)]
        rho = min(cfg.rho_mult * rho, cfg.rho_max)
        trace.append(frobenius_norm(m - m_old) / obs_norm)
        rho_trace.append(rho)
        if trace[-1] < cfg.epsilon:
            break
    return m, trace, rho_trace


def loop_cases():
    y, _ = small_problem(seed=15)
    for pattern in (generate_rm_mask, generate_nm_mask):
        mask = pattern(y.shape, 0.4, seed=515)
        for theta in (0.0, 0.1):
            yield y, mask, SolverConfig(theta=theta)


class TestSolveLoopInvariants:
    """Drive the iteration manually through the update steps."""

    def run_manual(self, y, mask, cfg):
        """Every recovered tensor from the start state on, the last iteration's
        x_k, the trace, and per iteration ``||sum_k t[k] on the missing
        entries|| / ||t||`` for the implicit duals ``t[k] = rho * m - z[k]``."""
        truncs = truncs_for(y.shape, cfg.theta)
        m = np.where(mask, y, 0.0)
        ms = [m.copy()]
        z = start_z(m, cfg.rho0)
        rho = cfg.rho0
        obs_norm = frobenius_norm(m)
        trace, dual_sums = [], []
        for _ in range(cfg.max_iter):
            z_prev, rho_prev = z.copy(), rho
            d = update_x(z, truncs)
            update_m(m, d, z, ~mask, rho)
            ms.append(m.copy())
            trace.append(frobenius_norm(d) / obs_norm)
            rho = min(cfg.rho_mult * rho, cfg.rho_max)
            update_t(z, m, d, rho_prev, rho)
            t = rho * m - z
            dual_sums.append(np.linalg.norm(t.sum(axis=0)[~mask]) / np.linalg.norm(t))
            if trace[-1] < cfg.epsilon:
                break
        x = [svt_step(z_prev[k], k, truncs[k]) / rho_prev for k in range(3)]
        return ms, x, trace, dual_sums

    def test_manual_loop_matches_solve(self):
        for y, mask, cfg in loop_cases():
            ms, _, trace, _ = self.run_manual(y, mask, cfg)
            result = solve(y, mask, cfg)
            assert np.array_equal(ms[-1], result.recovered)
            assert trace == result.trace
            # the oracle carries t[k], solve z[k] = rho * m - t[k]: rounding only
            m, trace, rho_trace = reference_solve(y, mask, cfg)
            assert rho_trace == result.rho_trace
            assert frobenius_norm(result.recovered - m) <= 1e-11 * frobenius_norm(m)
            assert np.allclose(result.trace, trace, rtol=1e-6, atol=0)

    def test_solve_matches_the_paper_iteration(self):
        # dropping the dual term of the consensus average and splitting the
        # dual step change the iterates by rounding only
        for y, mask, cfg in loop_cases():
            m, trace, rho_trace = paper_reference_solve(y, mask, cfg)
            result = solve(y, mask, cfg)
            assert result.iterations == len(trace)
            assert result.converged == (trace[-1] < cfg.epsilon)
            assert result.rho_trace == rho_trace
            assert frobenius_norm(result.recovered - m) <= 1e-10 * frobenius_norm(m)
            assert np.allclose(result.trace, trace, rtol=1e-6, atol=0)

    def test_duals_sum_to_zero_on_missing(self):
        # the identity that gives update_m its consensus average
        y, mask = small_problem(seed=16, dims=(20, 14, 18))
        _, _, trace, dual_sums = self.run_manual(y, mask, SolverConfig(theta=0.15))
        assert len(dual_sums) == len(trace) > 1
        assert max(dual_sums) <= 1e-12

    def test_consensus_residual_small_at_convergence(self):
        y, mask = small_problem(seed=16, dims=(20, 14, 18))
        cfg = SolverConfig(theta=0.15)
        ms, x, trace, _ = self.run_manual(y, mask, cfg)
        assert trace[-1] < cfg.epsilon
        m_norm = frobenius_norm(ms[-1])
        for x_k in x:
            assert frobenius_norm(x_k - ms[-1]) < 1e-3 * m_norm

    def test_consecutive_recovered_tensors_agree_on_observed(self):
        # the convergence ratio runs on post-constraint tensors, whose
        # observed entries all equal the input, so consecutive differences
        # are supported on the missing entries only
        y, mask = small_problem(seed=17)
        cfg = SolverConfig(theta=0.1, max_iter=5)
        ms, _, _, _ = self.run_manual(y, mask, cfg)
        assert len(ms) == 6
        for previous, current in zip(ms, ms[1:]):
            assert not (current - previous)[mask].any()


@pytest.mark.parametrize("pattern", [generate_rm_mask, generate_nm_mask], ids=["rm", "nm"])
def test_peak_memory_of_a_solve(pattern):
    # the three SVT inputs, m and one SVT output are five tensors. The
    # missing-entry mask and the SVT's finiteness check are two mask-sized
    # arrays; the Gram matrices, factors and traces fit in a third. The NM
    # mask sends mode 2 to the QR route at every iteration
    y = synth_lowrank((48, 36, 60), 3, value_offset=10.0, seed=19)
    mask = pattern(y.shape, 0.4, seed=519)
    cfg = SolverConfig(theta=0.2, max_iter=3)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        solve(y, mask, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start <= 5 * y.nbytes + 3 * mask.nbytes


def record_svd_routes(monkeypatch):
    """Record each SVT's factorisation as (shape, Gram route taken, guard passes).

    The kernel factors its unfolding, turned wide side up, once with
    ``right=False``: the Gram route makes one ``eigh`` call and no other, the
    QR route one SVD of the small ``R^T``. The last field is whether the
    unfolding's conditioning passes the Gram route's guard.
    """
    calls, linalg = [], []
    for name in ("eigh", "svd"):

        def counting(a, *args, _name=name, _real=getattr(np.linalg, name), **kwargs):
            linalg.append(_name)
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)

    def recording_thin_svd(a, right=True):
        assert not right
        linalg.clear()
        u, sigma, vt = thin_svd(a, right=right)
        assert vt is None
        gram = linalg == ["eigh"]
        sv = np.linalg.svd(a, compute_uv=False)
        calls.append((a.shape, gram, sv[-1] > lrtc.shrinkage.GRAM_RCOND * sv[0]))
        return u, sigma, vt

    monkeypatch.setattr(lrtc.shrinkage, "thin_svd", recording_thin_svd)
    return calls


def test_lapack_route_matches_the_oracle(monkeypatch):
    # whole missing fibers leave mode 2's unfolding too ill-conditioned for
    # the Gram route, so its SVTs take the QR route
    y, _ = small_problem(seed=18, dims=(30, 20, 40), rank=3)
    mask = generate_nm_mask(y.shape, 0.4, seed=518)
    cfg = SolverConfig(theta=0.1)
    calls = record_svd_routes(monkeypatch)
    result = solve(y, mask, cfg)
    gram_routes = {}
    for shape, gram, _ in calls:
        gram_routes.setdefault(shape[0], set()).add(gram)
    assert gram_routes == {30: {True}, 20: {True}, 40: {False}}
    m, trace, rho_trace = reference_solve(y, mask, cfg)
    assert (result.iterations, result.rho_trace) == (len(trace), rho_trace)
    assert frobenius_norm(result.recovered - m) <= 1e-11 * frobenius_norm(m)
    assert np.allclose(result.trace, trace, rtol=1e-6, atol=0)


def test_halrtc_at_the_defaults_stops_after_one_iteration():
    # a known defect, pinned so that it moves only on purpose: at rho0 = 1e-5
    # every singular value of rho0 * m lies below the threshold 1/3, so every
    # SVT output is zero, m does not move and the ratio reads 0
    y, mask = small_problem(seed=18, dims=(30, 20, 40), rank=3)
    result = solve_halrtc(y, mask)
    m, trace, _ = reference_solve(y, mask, SolverConfig(theta=0.0))
    assert (result.iterations, result.converged, result.trace) == (1, True, [0.0])
    assert trace == [0.0]
    assert np.array_equal(result.recovered, m)
    assert np.array_equal(result.recovered, np.where(mask, y, 0.0))


def test_answer_does_not_depend_on_svd_route(monkeypatch):
    # at the default rho0, theta 0 shrinks everything to zero and stops after
    # one iteration; rho0 = 1e-2 makes the nuclear-norm case run as well.
    # Each tensor states its own bounds on the answer (relative) and on the
    # trace (absolute), because the ADMM iteration, not the kernel, sets how
    # far rounding differences grow
    y, _ = small_problem(seed=18, dims=(30, 20, 40), rank=3)
    # mode 0 of a tall tensor unfolds to 60x12, which the kernel takes transposed
    tall, _ = small_problem(seed=18, dims=(60, 3, 4), rank=3)
    # at rank 2 the same shape's theta 0.1 trajectory amplifies rounding:
    # routes that agree per SVT to 1e-15 end 1e-8 apart in the answer
    sensitive, _ = small_problem(seed=18, dims=(60, 3, 4), rank=2)
    configs = [SolverConfig(theta=0.0), SolverConfig(theta=0.0, rho0=1e-2), SolverConfig(theta=0.1)]
    instances = [(y, configs, 1e-10, 1e-9), (tall, configs[1:], 1e-10, 1e-9), (sensitive, configs[1:], 1e-7, 1e-4)]
    cases = [
        (data, pattern(data.shape, 0.4, seed=518), cfg, answer_rtol, trace_atol)
        for data, data_configs, answer_rtol, trace_atol in instances
        for pattern in (generate_rm_mask, generate_nm_mask)
        for cfg in data_configs
    ]
    calls = record_svd_routes(monkeypatch)
    results = []
    for data, mask, cfg, _, _ in cases:
        calls.clear()
        results.append(solve(data, mask, cfg))
        iterations = results[-1].iterations
        wide = [tuple(sorted((n, data.size // n))) for n in data.shape]
        assert [sum(shape == w for shape, _, _ in calls) for w in wide] == [iterations] * 3
        # every unfolding is at least 2:1, so the Gram route runs exactly
        # where its conditioning passes the guard
        assert all(gram == passes for _, gram, passes in calls)
        if data is y:
            gram = [sum(shape == w and g for shape, g, _ in calls) for w in wide]
            if mask.any(axis=2).all():  # RM: every unfolding stays well conditioned
                assert gram == [iterations] * 3
            else:  # NM: whole missing fibers leave mode 2's unfolding low rank
                assert gram[1:] == [iterations, 0]
    # no condition number passes this guard: every SVT takes the QR route
    monkeypatch.setattr(lrtc.shrinkage, "GRAM_RCOND", 2.0)
    qr_results = []
    for data, mask, cfg, _, _ in cases:
        calls.clear()
        qr_results.append(solve(data, mask, cfg))
        assert not any(g for _, g, _ in calls)
    # the oracle: every SVT takes its left factor and values from LAPACK's
    # three-factor SVD of the unfolding
    monkeypatch.setattr(lrtc.shrinkage, "thin_svd", lambda a, right=True: thin_svd(a))
    for (data, mask, cfg, answer_rtol, trace_atol), *routes in zip(cases, results, qr_results):
        oracle = solve(data, mask, cfg)
        for result in routes:
            assert (result.iterations, result.converged) == (oracle.iterations, oracle.converged)
            error = frobenius_norm(result.recovered - oracle.recovered)
            assert error <= answer_rtol * frobenius_norm(oracle.recovered)
            assert np.allclose(result.trace, oracle.trace, rtol=0, atol=trace_atol)
