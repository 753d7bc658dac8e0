import tracemalloc
import warnings
from dataclasses import fields

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
    truncated_svt,
    truncation_for_mode,
    unfold,
)
from lrtc.solver import update_m, update_t, update_x


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

    def test_infinite_rho_max_is_no_cap(self):
        assert SolverConfig(theta=0.1, rho_max=float("inf")).rho_max == float("inf")


def truncs_for(shape, theta):
    return [truncation_for_mode(shape, mode, theta) for mode in (0, 1, 2)]


def mode_step(m, t_k, rho, mode, trunc):
    """One mode's x_k from the previous m and its own dual, on fresh tensors."""
    return fold(truncated_svt(unfold(m - t_k / rho, mode), trunc, (1 / 3) / rho), mode, m.shape)


def run_update_x(m, t, rho, truncs):
    """update_x on buffers it must overwrite: the x sum, with t updated in place."""
    s = np.full(m.shape, np.nan)
    update_x(s, np.full(m.size, np.nan), m, t, rho, truncs)
    return s


class TestStartState:
    """solve starts from the observed entries with zeros elsewhere, zero duals and rho0."""

    def first_iteration(self, y, mask, cfg):
        t = np.zeros((3, *y.shape))
        s = run_update_x(np.where(mask, y, 0.0), t, cfg.rho0, truncs_for(y.shape, cfg.theta))
        update_m(s, y, mask)
        return s

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
        cfg = SolverConfig(theta=0.1, max_iter=1)
        result = solve(y, mask, cfg)
        assert np.array_equal(result.recovered, self.first_iteration(y, mask, cfg))
        assert np.array_equal(result.recovered[mask], y[mask])


class TestUpdateX:
    """update_x leaves sum_k x_k in s and rho * x_k added to each dual t[k]."""

    def test_zero_shrinkage_limit(self):
        y, _ = small_problem()
        rho = 1e12  # tau -> 0
        t = np.zeros((3, *y.shape))
        s = run_update_x(y, t, rho, truncs_for(y.shape, 0.1))
        assert np.allclose(s, 3 * y, rtol=1e-6, atol=3e-6)
        for mode in (0, 1, 2):
            assert np.allclose(t[mode] / rho, y, rtol=1e-6, atol=1e-6)

    def test_zero_state_stays_zero(self):
        m = np.zeros((4, 5, 6))
        t = np.zeros((3, *m.shape))
        s = run_update_x(m, t, 1.0, truncs_for(m.shape, 0.1))
        assert np.array_equal(s, np.zeros_like(m))
        assert np.array_equal(t, np.zeros_like(t))

    def test_diagonal_structured_hand_case(self):
        # every unfolding of this tensor has singular values (3, 1); with
        # trunc 1 and tau 1 the small value is shrunk away on each mode
        m = np.zeros((2, 2, 2))
        m[0, 0, 0] = 3.0
        m[1, 1, 1] = 1.0
        truncs = truncs_for(m.shape, 0.5)  # ceil(0.5 * 2) = 1 kept per mode
        rho = 1 / 3  # tau = (1/3) / rho = 1
        t = np.zeros((3, *m.shape))
        s = run_update_x(m, t, rho, truncs)
        expected = np.zeros((2, 2, 2))
        expected[0, 0, 0] = 3.0
        assert np.allclose(s, 3 * expected, atol=1e-10)
        for mode in (0, 1, 2):
            x_k = t[mode] / rho
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
        t = np.stack([0.001 * np.ones_like(y) * (k + 1) for k in range(3)])
        m_before, t_before = m.copy(), t.copy()
        s = run_update_x(m, t, rho, truncs)
        assert np.array_equal(m, m_before)
        own = [None] * 3
        for mode in (2, 1, 0):
            own[mode] = mode_step(m, t_before[mode], rho, mode, truncs[mode])
            assert np.array_equal(t[mode], t_before[mode] + rho * own[mode])
        assert np.array_equal(s, sum(own))
        t_other = t_before.copy()
        t_other[1] += 5.0
        run_update_x(m, t_other, rho, truncs)
        assert np.array_equal(t_other[0], t[0]) and np.array_equal(t_other[2], t[2])
        assert not np.array_equal(t_other[1] - 5.0, t[1])


@st.composite
def consensus_cases(draw):
    dims = draw(st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)))
    # signed zeros and, in s, non-finite values, which only an overflow leaves
    special = [0.0, -0.0, 5e-324, -1.7976931348623157e308]
    specials = st.sampled_from(special)
    y = draw(arrays(np.float64, dims, elements=st.one_of(st.floats(-1e300, 1e300), specials)))
    s = draw(arrays(np.float64, dims, elements=st.one_of(st.floats(), specials)))
    return s, y, draw(arrays(np.bool_, dims))


class TestUpdateM:
    def test_average_of_identical_terms(self):
        y, mask = small_problem(seed=1)
        common = np.full(y.shape, 2.5)
        s = common + common + common
        update_m(s, y, mask)
        assert np.array_equal(s[~mask], common[~mask])

    def test_observed_entries_pinned(self):
        y, mask = small_problem(seed=2)
        s = np.zeros(y.shape)
        update_m(s, y, mask)
        assert np.array_equal(s[mask], y[mask])

    @given(case=consensus_cases())
    @settings(max_examples=200, deadline=None)
    def test_matches_masked_average_bit_for_bit(self, case):
        s, y, mask = case
        expected = np.where(mask, y, s / 3)
        update_m(s, y, mask)
        assert s.tobytes() == expected.tobytes()


class TestUpdateT:
    """update_t is the m half of the dual step; update_x adds the x half."""

    def test_zero_residual_keeps_duals(self):
        y, _ = small_problem(seed=4)
        rho = 2.0
        t = np.full((3, *y.shape), 0.25)
        t += rho * np.stack([y, y, y])  # the x half with every x_k equal to m
        update_t(t, y, rho, np.empty_like(y))
        assert np.allclose(t, 0.25, rtol=0, atol=1e-12)

    def test_hand_computed_step(self):
        m = np.ones((2, 3, 4))
        t = np.full((3, *m.shape), 0.5)
        update_t(t, m, 2.0, np.empty_like(m))  # 0.5 - 2 * 1
        assert np.array_equal(t, np.full_like(t, -1.5))

    def test_stacked_update_equals_per_mode(self):
        rng = np.random.default_rng(8)
        m = rng.standard_normal((3, 4, 2))
        t_list = [rng.standard_normal(m.shape) for _ in range(3)]
        rho = 1.3
        per_mode = [t_k - rho * m for t_k in t_list]
        t = np.stack(t_list)
        update_t(t, m, rho, np.empty_like(m))
        assert np.array_equal(t, np.stack(per_mode))


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

    def test_rho_overflow_is_config_error(self):
        # 1e-5 * 1e300 = 1e295, then inf: the second step overflows
        y, mask = small_problem(seed=10)
        cfg = SolverConfig(theta=0.1, rho_mult=1e300, rho_max=float("inf"))
        with pytest.raises(ConfigError, match="iteration 2.*finite rho_max"):
            solve(y, mask, cfg)

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
    """The iteration in its per-mode list form, one fresh tensor per step.

    The steps are solve's: the consensus average has no dual term, and the
    dual step is split into its x half and its m half.
    """
    truncs = truncs_for(y.shape, cfg.theta)
    m = np.where(mask, y, 0.0)
    t = [np.zeros_like(m) for _ in range(3)]
    rho = cfg.rho0
    obs_norm = float(np.linalg.norm(y[mask]))
    trace, rho_trace = [], []
    for _ in range(cfg.max_iter):
        x = [mode_step(m, t[k], rho, k, truncs[k]) for k in range(3)]
        t = [t_k + rho * x_k for x_k, t_k in zip(x, t)]
        m_old, m = m, np.where(mask, y, sum(x) / 3.0)
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
        entries|| / ||t||``."""
        truncs = truncs_for(y.shape, cfg.theta)
        ms = [np.where(mask, y, 0.0)]
        s, work, scratch = np.empty_like(y), np.empty(y.size), np.empty_like(y)
        t = np.zeros((3, *y.shape))
        rho = cfg.rho0
        obs_norm = float(np.linalg.norm(y[mask]))
        trace, dual_sums = [], []
        for _ in range(cfg.max_iter):
            t_prev, rho_prev = t.copy(), rho
            update_x(s, work, ms[-1], t, rho, truncs)
            update_m(s, y, mask)
            ms.append(s.copy())
            update_t(t, ms[-1], rho, scratch)
            rho = min(cfg.rho_mult * rho, cfg.rho_max)
            trace.append(frobenius_norm(ms[-1] - ms[-2]) / obs_norm)
            dual_sums.append(np.linalg.norm(t.sum(axis=0)[~mask]) / np.linalg.norm(t))
            if trace[-1] < cfg.epsilon:
                break
        x = [mode_step(ms[-2], t_prev[k], rho_prev, k, truncs[k]) for k in range(3)]
        return ms, x, trace, dual_sums

    def test_manual_loop_matches_solve(self):
        for y, mask, cfg in loop_cases():
            m, trace, rho_trace = reference_solve(y, mask, cfg)
            result = solve(y, mask, cfg)
            assert np.array_equal(m, result.recovered)
            assert trace == result.trace
            assert rho_trace == result.rho_trace

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
        # the identity that removes the dual term from the consensus average
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


def test_peak_memory_of_a_solve():
    # the duals, m, the x sum and the work buffer (which the SVT reads as a
    # view) are six tensors; the SVT's right factor and output add two more
    y = synth_lowrank((30, 20, 40), 3, value_offset=10.0, seed=19)
    mask = generate_rm_mask(y.shape, 0.4, seed=519)
    cfg = SolverConfig(theta=0.1, max_iter=20)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        solve(y, mask, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start <= 9 * y.nbytes


def lapack_thin_svd(matrix):
    """thin_svd through LAPACK alone: the oracle for its Gram route."""
    matrix = np.asarray(matrix, dtype=float)
    m, n = matrix.shape
    if m > n:
        u, sigma, vt = np.linalg.svd(matrix.T, full_matrices=False)
        u, vt = vt.T, u.T
    else:
        u, sigma, vt = np.linalg.svd(matrix, full_matrices=False)
    sigma = np.where(sigma < lrtc.shrinkage.SIGMA_FLOOR, 0.0, sigma)
    return u, sigma, vt


def test_answer_does_not_depend_on_svd_route(monkeypatch):
    # at the default rho0, theta 0 shrinks everything to zero and stops after
    # one iteration; rho0 = 1e-2 makes the nuclear-norm case run as well
    y, _ = small_problem(seed=18, dims=(30, 20, 40), rank=3)
    configs = [SolverConfig(theta=0.0), SolverConfig(theta=0.0, rho0=1e-2), SolverConfig(theta=0.1)]
    cases = [
        (y, pattern(y.shape, 0.4, seed=518), cfg)
        for pattern in (generate_rm_mask, generate_nm_mask)
        for cfg in configs
    ]
    # mode 0 of a tall tensor unfolds to 60x12, which thin_svd transposes
    tall, _ = small_problem(seed=18, dims=(60, 3, 4), rank=3)
    cases += [
        (tall, pattern(tall.shape, 0.4, seed=518), cfg)
        for pattern in (generate_rm_mask, generate_nm_mask)
        for cfg in configs[1:]
    ]
    results = [solve(*case) for case in cases]
    monkeypatch.setattr(lrtc.shrinkage, "thin_svd", lapack_thin_svd)
    for (y, mask, cfg), result in zip(cases, results):
        oracle = solve(y, mask, cfg)
        assert (result.iterations, result.converged) == (oracle.iterations, oracle.converged)
        error = frobenius_norm(result.recovered - oracle.recovered)
        assert error <= 1e-8 * frobenius_norm(oracle.recovered)
        assert np.allclose(result.trace, oracle.trace, rtol=0, atol=1e-9)
