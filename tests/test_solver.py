import numpy as np
import pytest

from lrtc import (
    ConfigError,
    DegenerateProblemError,
    InvalidInputError,
    SolverConfig,
    frobenius_norm,
    generate_rm_mask,
    solve,
    solve_halrtc,
    synth_lowrank,
    truncated_svt,
    unfold,
)
from lrtc.solver import SolverState, initialize, update_m, update_t, update_x


def small_problem(seed=0, rate=0.4, dims=(12, 9, 15), rank=2):
    truth = synth_lowrank(dims, rank, value_offset=10.0, seed=seed)
    mask = generate_rm_mask(dims, rate, seed=500 + seed)
    return truth, mask


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig(theta=0.1)
        assert cfg.alphas == (1 / 3, 1 / 3, 1 / 3)
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
            {"theta": 0.1, "alphas": (0.5, 0.5, 0.5)},
            {"theta": 0.1, "rho0": 0.0},
            {"theta": 0.1, "rho0": 1.0, "rho_max": 0.5},
            {"theta": 0.1, "rho_mult": 0.9},
            {"theta": 0.1, "epsilon": 0.0},
            {"theta": 0.1, "max_iter": 0},
            {"theta": 0.1, "rho_mult": float("nan")},
            {"theta": 0.1, "rho_mult": float("inf")},
            {"theta": 0.1, "rho_max": float("nan")},
            {"theta": 0.1, "rho0": float("inf"), "rho_max": float("inf")},
            {"theta": 0.1, "alphas": (float("nan"), 0.5, 0.5)},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            SolverConfig(**kwargs)

    def test_infinite_rho_max_is_no_cap(self):
        assert SolverConfig(theta=0.1, rho_max=float("inf")).rho_max == float("inf")


class TestInitialize:
    def test_fully_observed(self):
        y, _ = small_problem()
        mask = np.ones(y.shape, bool)
        state = initialize(y, mask, SolverConfig(theta=0.1))
        assert np.array_equal(state.m, y)
        assert all(np.array_equal(x, y) for x in state.x)
        assert all(frobenius_norm(t) == 0.0 for t in state.t)
        assert state.rho == 1e-5 and state.iteration == 0

    def test_observed_entries_copied_exactly(self):
        y, mask = small_problem()
        state = initialize(y, mask, SolverConfig(theta=0.1))
        assert np.array_equal(state.m[mask], y[mask])
        assert not state.m[~mask].any()

    def test_empty_mask(self):
        y, _ = small_problem()
        with pytest.raises(DegenerateProblemError):
            initialize(y, np.zeros(y.shape, bool), SolverConfig(theta=0.1))

    def test_non_finite_observed(self):
        y, mask = small_problem()
        y[np.argwhere(mask)[0][0], 0, 0] = np.nan
        mask[np.argwhere(mask)[0][0], 0, 0] = True
        with pytest.raises(InvalidInputError):
            initialize(y, mask, SolverConfig(theta=0.1))


def make_state(m, rho, t=None):
    t = t if t is not None else [np.zeros_like(m) for _ in range(3)]
    return SolverState(m=m, x=[m.copy() for _ in range(3)], t=t, rho=rho)


class TestUpdateX:
    def test_zero_shrinkage_limit(self):
        y, _ = small_problem()
        state = make_state(y, rho=1e12)  # tau = alpha/rho -> 0
        cfg = SolverConfig(theta=0.1)
        for mode in (0, 1, 2):
            out = update_x(state, mode, cfg)
            assert np.allclose(out, y, rtol=1e-6, atol=1e-6)

    def test_zero_state_stays_zero(self):
        state = make_state(np.zeros((4, 5, 6)), rho=1.0)
        for mode in (0, 1, 2):
            assert np.array_equal(update_x(state, mode, SolverConfig(theta=0.1)), 0 * state.m)

    def test_diagonal_structured_hand_case(self):
        # every unfolding of this tensor has singular values (3, 1); with
        # trunc 1 and tau 1 the small value is shrunk away on each mode
        m = np.zeros((2, 2, 2))
        m[0, 0, 0] = 3.0
        m[1, 1, 1] = 1.0
        cfg = SolverConfig(theta=0.5)  # ceil(0.5 * 2) = 1 kept per mode
        state = make_state(m, rho=cfg.alphas[0])  # tau = alpha / rho = 1
        expected = np.zeros((2, 2, 2))
        expected[0, 0, 0] = 3.0
        for mode in (0, 1, 2):
            out = update_x(state, mode, cfg)
            assert np.allclose(out, expected, atol=1e-10)
            # cross-check against the shrinkage kernel applied directly
            oracle = truncated_svt(unfold(m, mode), 1, 1.0)
            assert np.allclose(unfold(out, mode), oracle, atol=1e-12)

    def test_reads_only_previous_m_and_own_dual(self):
        # identical results no matter in which order the three modes run
        y, mask = small_problem(seed=3)
        state = initialize(y, mask, SolverConfig(theta=0.1))
        state.rho = 0.01
        state.t = [0.001 * np.ones_like(y) * (k + 1) for k in range(3)]
        cfg = SolverConfig(theta=0.1)
        forward = [update_x(state, mode, cfg) for mode in (0, 1, 2)]
        backward = [update_x(state, mode, cfg) for mode in (2, 1, 0)][::-1]
        for a, b in zip(forward, backward):
            assert np.array_equal(a, b)


class TestUpdateM:
    def test_average_of_identical_terms(self):
        y, mask = small_problem(seed=1)
        common = np.full(y.shape, 2.5)
        state = make_state(common, rho=0.3)
        state.x = [common.copy() for _ in range(3)]
        out = update_m(state, y, mask, SolverConfig(theta=0.1))
        assert np.array_equal(out[~mask], common[~mask])

    def test_observed_entries_pinned(self):
        y, mask = small_problem(seed=2)
        state = make_state(np.zeros(y.shape), rho=1.0)
        out = update_m(state, y, mask, SolverConfig(theta=0.1))
        assert np.array_equal(out[mask], y[mask])

    def test_dual_only_candidate(self):
        # x all zero, every dual entry equal to rho -> candidate of ones
        y = np.zeros((3, 4, 5))
        mask = np.zeros(y.shape, bool)
        mask[0, 0, 0] = True
        rho = 0.7
        state = make_state(np.zeros(y.shape), rho=rho, t=[np.full(y.shape, rho)] * 3)
        state.x = [np.zeros(y.shape) for _ in range(3)]
        out = update_m(state, y, mask, SolverConfig(theta=0.1))
        assert np.allclose(out[~mask], 1.0)


class TestUpdateT:
    def test_zero_residual_keeps_duals(self):
        y, _ = small_problem(seed=4)
        state = make_state(y, rho=2.0, t=[np.full(y.shape, 0.25)] * 3)
        state.x = [y.copy() for _ in range(3)]
        for before, after in zip(state.t, update_t(state, SolverConfig(theta=0.1))):
            assert np.array_equal(before, after)

    def test_hand_computed_step(self):
        m = np.zeros((2, 3, 4))
        state = make_state(m, rho=2.0)
        state.x = [np.ones(m.shape) for _ in range(3)]  # x - m = 1 everywhere
        for t_new in update_t(state, SolverConfig(theta=0.1)):
            assert np.array_equal(t_new, np.full(m.shape, 2.0))

    def test_stacked_update_equals_per_mode(self):
        rng = np.random.default_rng(8)
        m = rng.standard_normal((3, 4, 2))
        state = make_state(m, rho=1.3, t=[rng.standard_normal(m.shape) for _ in range(3)])
        state.x = [rng.standard_normal(m.shape) for _ in range(3)]
        per_mode = update_t(state, SolverConfig(theta=0.1))
        stacked_t = np.stack(state.t, axis=-1)
        stacked_x = np.stack(state.x, axis=-1)
        stacked_m = np.stack([m] * 3, axis=-1)
        stacked = stacked_t + state.rho * (stacked_x - stacked_m)
        assert np.array_equal(np.stack(per_mode, axis=-1), stacked)


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

    def test_zero_norm_observations(self):
        y = np.zeros((2, 2, 2))
        with pytest.raises(DegenerateProblemError):
            solve(y, np.ones(y.shape, bool), SolverConfig(theta=0.1))

    def test_shape_mismatch(self):
        from lrtc import DimensionError

        with pytest.raises(DimensionError):
            solve(np.zeros((2, 2, 2)), np.ones((2, 3, 2), bool), SolverConfig(theta=0.1))


class TestSolveLoopInvariants:
    """Drive the iteration manually through the public update steps."""

    def run_manual(self, y, mask, cfg):
        state = initialize(y, mask, cfg)
        obs_norm = float(np.linalg.norm(y[mask]))
        trace = []
        for _ in range(cfg.max_iter):
            m_old = state.m
            state.x = [update_x(state, mode, cfg) for mode in (0, 1, 2)]
            state.m = update_m(state, y, mask, cfg)
            state.t = update_t(state, cfg)
            state.rho = min(cfg.rho_mult * state.rho, cfg.rho_max)
            state.iteration += 1
            trace.append(frobenius_norm(state.m - m_old) / obs_norm)
            if trace[-1] < cfg.epsilon:
                break
        return state, trace

    def test_manual_loop_matches_solve(self):
        y, mask = small_problem(seed=15)
        cfg = SolverConfig(theta=0.1)
        state, trace = self.run_manual(y, mask, cfg)
        result = solve(y, mask, cfg)
        assert np.array_equal(state.m, result.recovered)
        assert trace == result.trace

    def test_consensus_residual_small_at_convergence(self):
        y, mask = small_problem(seed=16, dims=(20, 14, 18))
        cfg = SolverConfig(theta=0.15)
        state, trace = self.run_manual(y, mask, cfg)
        assert trace[-1] < cfg.epsilon
        m_norm = frobenius_norm(state.m)
        for x in state.x:
            assert frobenius_norm(x - state.m) < 1e-3 * m_norm

    def test_consecutive_recovered_tensors_agree_on_observed(self):
        # the convergence ratio runs on post-constraint tensors, whose
        # observed entries all equal the input, so consecutive differences
        # are supported on the missing entries only
        y, mask = small_problem(seed=17)
        cfg = SolverConfig(theta=0.1, max_iter=5)
        state = initialize(y, mask, cfg)
        previous = state.m
        for _ in range(cfg.max_iter):
            state.x = [update_x(state, mode, cfg) for mode in (0, 1, 2)]
            state.m = update_m(state, y, mask, cfg)
            state.t = update_t(state, cfg)
            diff = state.m - previous
            assert not diff[mask].any()
            previous = state.m
