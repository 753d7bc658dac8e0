"""ADMM solver for tensor completion under truncated nuclear norm minimization.

The consensus formulation carries one auxiliary tensor per mode plus a shared
tensor ``m`` that pins the observed entries. Each iteration runs, in order:

1. per-mode updates ``x_k = fold_k(truncated_svt(unfold_k(m - t_k / rho)))``,
   each reading only the previous ``m`` and its own dual ``t_k`` (so the three
   may run in any order, or concurrently);
2. the consensus update ``m = mean_k(x_k) + mean_k(t_k) / rho`` followed by an
   exact overwrite of the observed entries with the input values;
3. dual ascent ``t_k += rho * (x_k - m)``;
4. the penalty schedule ``rho = min(rho_mult * rho, rho_max)``.

Convergence is declared when the relative change of consecutive recovered
tensors, ``||m_new - m_old||_F / ||observed part of y||_F``, drops below
``epsilon``. The nuclear-norm solver (HaLRTC) is the ``theta = 0``
configuration of the same iteration; ``solver_config`` is the one place that
maps a solver name to the config it runs, and every caller goes through it.

A solve call owns its state exclusively; independent calls are thread-safe.
Given identical inputs and config the solver is deterministic (no randomness
anywhere in the iteration).
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, DegenerateProblemError, InvalidInputError
from .shrinkage import truncated_svt, truncation_for_mode
from .tensor_ops import MODES, _check_pair, fold, frobenius_norm, unfold

SOLVER_NAMES = ("tnn", "halrtc")

ALPHA_TOLERANCE = 1e-9


def _check_alphas(alphas):
    alphas = tuple(float(a) for a in alphas)
    # Written so that a NaN weight fails every test.
    if len(alphas) != 3 or not all(a >= 0 for a in alphas):
        raise ConfigError(f"need three nonnegative mode weights, got {alphas}")
    if not abs(sum(alphas) - 1.0) <= ALPHA_TOLERANCE:
        raise ConfigError(f"mode weights must sum to 1, got sum={sum(alphas)!r}")
    return alphas


@dataclass(frozen=True)
class SolverConfig:
    """Hyperparameters of the ADMM iteration.

    ``theta`` is the universal truncation rate in [0, 1); ``theta = 0`` turns
    the solver into plain nuclear-norm completion. The remaining defaults are
    the standard settings: equal mode weights, penalty growing 5% per
    iteration from 1e-5 up to 1e5, tolerance 1e-4, at most 200 iterations.
    Every check fails on NaN; ``rho_max`` alone may be infinite (no cap).
    """

    theta: float
    alphas: tuple = (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)
    rho0: float = 1e-5
    rho_max: float = 1e5
    rho_mult: float = 1.05
    epsilon: float = 1e-4
    max_iter: int = 200

    def __post_init__(self):
        if not 0.0 <= self.theta < 1.0:
            raise ConfigError(f"theta must lie in [0, 1), got {self.theta}")
        object.__setattr__(self, "alphas", _check_alphas(self.alphas))
        if not 0.0 < self.rho0 < math.inf:
            raise ConfigError(f"rho0 must be positive and finite, got {self.rho0}")
        if not self.rho_max >= self.rho0:
            raise ConfigError(f"rho_max {self.rho_max} must be >= rho0 {self.rho0}")
        if not 1.0 <= self.rho_mult < math.inf:
            raise ConfigError(f"rho_mult must be finite and >= 1, got {self.rho_mult}")
        if not self.epsilon > 0:
            raise ConfigError(f"epsilon must be positive, got {self.epsilon}")
        if not (isinstance(self.max_iter, int) and self.max_iter >= 1):
            raise ConfigError(f"max_iter must be a positive integer, got {self.max_iter}")


@dataclass
class SolverState:
    """Mutable per-solve state; not shareable while a solve is running."""

    m: np.ndarray
    x: list
    t: list
    rho: float
    iteration: int = 0


@dataclass(frozen=True)
class SolverResult:
    """Recovered tensor plus the convergence trace.

    ``trace[l]`` is the relative-change ratio after iteration ``l + 1`` and
    ``rho_trace[l]`` the penalty value at the end of that iteration (after the
    scheduled increase). ``converged`` implies the last trace entry is below
    the configured tolerance. Observed entries of ``recovered`` equal the
    input exactly.
    """

    recovered: np.ndarray
    iterations: int
    trace: list = field(default_factory=list)
    rho_trace: list = field(default_factory=list)
    converged: bool = False


def initialize(y, mask, config):
    """Start state: m is the observed projection, x copies it, duals are zero.

    ``y`` and ``mask`` are a pair already passed through ``_check_pair``.
    """
    if not mask.any():
        raise DegenerateProblemError("no observed entries; nothing to complete")
    if not np.isfinite(y[mask]).all():
        raise InvalidInputError("observed entries contain non-finite values")
    m = np.where(mask, y, 0.0)
    return SolverState(
        m=m,
        x=[m.copy() for _ in MODES],
        t=[np.zeros_like(m) for _ in MODES],
        rho=config.rho0,
    )


def update_x(state, mode, config):
    """Shrinkage step for one mode, reading only the previous m and own dual."""
    trunc = truncation_for_mode(state.m.shape, mode, config.theta, clamp=True)
    tau = config.alphas[mode] / state.rho
    z = unfold(state.m - state.t[mode] / state.rho, mode)
    return fold(truncated_svt(z, trunc, tau), mode, state.m.shape)


def update_m(state, y, mask, config):
    """Consensus average of the x and dual tensors, observed entries pinned to y."""
    candidate = sum(state.x) / 3.0 + sum(state.t) / (3.0 * state.rho)
    return np.where(mask, y, candidate)


def update_t(state, config):
    """Dual ascent against the fresh consensus tensor."""
    return [t + state.rho * (x - state.m) for x, t in zip(state.x, state.t)]


def solve(y, mask, config):
    """Complete a partially observed tensor.

    Parameters
    ----------
    y : ndarray, shape (n1, n2, n3)
        Input data; only entries where ``mask`` is True are read.
    mask : boolean ndarray, same shape
        True marks an observed entry.
    config : SolverConfig

    Returns
    -------
    SolverResult. Non-convergence within ``max_iter`` is reported via
    ``converged=False``, never raised.
    """
    y, mask = _check_pair(y, mask)
    state = initialize(y, mask, config)
    obs_norm = float(np.linalg.norm(y[mask]))
    if obs_norm == 0.0:
        raise DegenerateProblemError("observed entries have zero norm")

    trace = []
    rho_trace = []
    converged = False
    for it in range(1, config.max_iter + 1):
        m_old = state.m
        state.x = [update_x(state, mode, config) for mode in MODES]
        state.m = update_m(state, y, mask, config)
        state.t = update_t(state, config)
        state.rho = min(config.rho_mult * state.rho, config.rho_max)
        state.iteration = it

        ratio = frobenius_norm(state.m - m_old) / obs_norm
        trace.append(ratio)
        rho_trace.append(state.rho)
        if ratio < config.epsilon:
            converged = True
            break

    return SolverResult(
        recovered=state.m,
        iterations=state.iteration,
        trace=trace,
        rho_trace=rho_trace,
        converged=converged,
    )


def solver_config(solver, config):
    """The config that the named solver runs.

    tnn runs ``config`` as given; halrtc is the same iteration with theta
    forced to 0, so it ignores ``config.theta``.
    """
    if solver not in SOLVER_NAMES:
        raise ConfigError(f"solver must be one of {SOLVER_NAMES}, got {solver!r}")
    if solver == "halrtc":
        return replace(config, theta=0.0)
    return config


def solve_halrtc(y, mask, config=None):
    """Nuclear-norm completion: ``solve`` under the halrtc config."""
    if config is None:
        config = SolverConfig(theta=0.0)
    return solve(y, mask, solver_config("halrtc", config))
