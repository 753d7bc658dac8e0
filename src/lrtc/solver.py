"""ADMM solver for tensor completion under truncated nuclear norm minimization.

The consensus formulation carries one auxiliary tensor per mode plus a shared
tensor ``m`` that pins the observed entries. ``solve`` holds the per-mode
tensors ``x`` and duals ``t`` as one ``(3, n1, n2, n3)`` array each, allocated
once and updated in place, and computes the per-mode truncation levels once,
before the loop. Each iteration runs, in order:

1. ``update_x``: ``x[k] = fold_k(truncated_svt(unfold_k(m - t[k] / rho)))``,
   each mode reading only the previous ``m`` and its own dual ``t[k]`` (so
   the three may run in any order);
2. ``update_m``: ``m = mean_k(x[k]) + mean_k(t[k]) / rho``, followed by an
   exact overwrite of the observed entries with the input values;
3. ``update_t``: dual ascent ``t[k] += rho * (x[k] - m)``;
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


def update_x(x, m, t, rho, truncs, config):
    """Shrinkage step: fill each ``x[mode]`` from the previous m and its own dual."""
    for mode in MODES:
        z = unfold(m - t[mode] / rho, mode)
        x[mode] = fold(truncated_svt(z, truncs[mode], config.alphas[mode] / rho), mode, m.shape)


def update_m(x, t, rho, y, mask):
    """Consensus average of the x and dual tensors, observed entries pinned to y."""
    m = sum(x) / 3.0
    m += sum(t) / (3.0 * rho)
    np.copyto(m, y, where=mask)
    return m


def update_t(t, x, m, rho):
    """Dual ascent against the fresh consensus tensor, in place."""
    for mode in MODES:
        t[mode] += rho * (x[mode] - m)


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
    ``converged=False``, never raised. A penalty that overflows to infinity
    (possible only with ``rho_max = inf``) raises ``ConfigError``.
    """
    y, mask = _check_pair(y, mask)
    if not mask.any():
        raise DegenerateProblemError("no observed entries; nothing to complete")
    if not np.isfinite(y[mask]).all():
        raise InvalidInputError("observed entries contain non-finite values")
    obs_norm = float(np.linalg.norm(y[mask]))
    if obs_norm == 0.0:
        raise DegenerateProblemError("observed entries have zero norm")

    truncs = [truncation_for_mode(y.shape, mode, config.theta) for mode in MODES]
    m = np.where(mask, y, 0.0)
    x = np.zeros((3, *y.shape))
    t = np.zeros_like(x)
    rho = config.rho0
    trace = []
    rho_trace = []
    converged = False
    for it in range(1, config.max_iter + 1):
        m_old = m
        update_x(x, m, t, rho, truncs, config)
        m = update_m(x, t, rho, y, mask)
        update_t(t, x, m, rho)
        rho = min(config.rho_mult * rho, config.rho_max)
        if not math.isfinite(rho):
            raise ConfigError(f"rho overflowed to {rho} at iteration {it}; set a finite rho_max")

        ratio = frobenius_norm(m - m_old) / obs_norm
        trace.append(ratio)
        rho_trace.append(rho)
        if ratio < config.epsilon:
            converged = True
            break

    return SolverResult(
        recovered=m,
        iterations=it,
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
