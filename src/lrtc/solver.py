"""ADMM solver for tensor completion under truncated nuclear norm minimization.

The consensus formulation carries one tensor ``x_k`` and one dual ``t[k]`` per
mode plus a shared tensor ``m`` that pins the observed entries. ``solve``
allocates its state once: the duals as one ``(3, n1, n2, n3)`` array, ``m``, a
sum buffer ``s`` and a flat work buffer; no two ``x_k`` exist at once. Each
iteration runs, in order:

1. ``update_x``, per mode k: ``z = m - t[k] / rho`` into the work buffer laid
   out mode-k first, so its unfolding is a view; ``x_k``, the fold of
   ``truncated_svt(unfold_k(z))``, a view of the SVT output; ``s += x_k`` and
   ``t[k] += rho * x_k``. Each ``x_k`` reads only the previous m and its own dual;
2. ``update_m``: ``m_new = s / 3``, observed entries overwritten with the input;
3. the convergence ratio, with ``m_new - m_old`` in the old m buffer;
4. ``update_t``: ``t[k] -= rho * m_new`` via that buffer, which becomes ``s``;
5. the penalty schedule ``rho = min(rho_mult * rho, rho_max)``.

The textbook consensus step ``m = mean_k(x_k) + mean_k(t[k]) / rho`` has a dual
term that is zero: the duals start at zero, and on the missing entries, where
m is free, the dual step ``t[k] += rho * (x_k - m)`` returns ``sum_k t[k]`` to
zero in every iteration (observed entries are pinned anyway). Dropping the
term changes the iterates by rounding only.

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


@dataclass(frozen=True)
class SolverConfig:
    """Hyperparameters of the ADMM iteration.

    ``theta`` is the universal truncation rate in [0, 1); ``theta = 0`` turns
    the solver into plain nuclear-norm completion. The other defaults are the
    standard settings: penalty growing 5% per iteration from 1e-5 up to 1e5,
    tolerance 1e-4, at most 200 iterations. Every mode weighs 1/3, always.
    Every check fails on NaN; ``rho_max`` alone may be infinite (no cap).
    """

    theta: float
    rho0: float = 1e-5
    rho_max: float = 1e5
    rho_mult: float = 1.05
    epsilon: float = 1e-4
    max_iter: int = 200

    def __post_init__(self):
        if not 0.0 <= self.theta < 1.0:
            raise ConfigError(f"theta must lie in [0, 1), got {self.theta}")
        if not 0.0 < self.rho0 < math.inf:
            raise ConfigError(f"rho0 must be positive and finite, got {self.rho0}")
        if not self.rho_max >= self.rho0:
            raise ConfigError(f"rho_max {self.rho_max} must be >= rho0 {self.rho0}")
        if not 1.0 <= self.rho_mult < math.inf:
            raise ConfigError(f"rho_mult must be finite and >= 1, got {self.rho_mult}")
        if not 0.0 < self.epsilon < math.inf:
            raise ConfigError(f"epsilon must be positive and finite, got {self.epsilon}")
        # not isinstance: bool is an int subclass, but True is no iteration count
        if not (type(self.max_iter) is int and self.max_iter >= 1):
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


def update_x(s, work, m, t, rho, truncs):
    """``s = sum_k x_k`` and ``t[k] += rho * x_k``; ``work`` is a flat ``m.size`` buffer."""
    tau = (1.0 / len(MODES)) / rho  # every mode weighs 1/3; update_m divides by the same count
    s.fill(0.0)
    for mode in MODES:
        z = fold(work.reshape(m.shape[mode], -1), mode, m.shape)
        np.divide(t[mode], rho, out=z)
        np.subtract(m, z, out=z)
        x_k = fold(truncated_svt(unfold(z, mode), truncs[mode], tau), mode, m.shape)
        s += x_k
        np.multiply(x_k, rho, out=z)
        del x_k  # free the SVT output before the next mode's SVT: one tensor less at peak
        t[mode] += z


def update_m(s, y, mask):
    """Consensus average ``s / 3`` of the x tensors in place, observed entries pinned to y."""
    s /= len(MODES)
    np.copyto(s, y, where=mask)


def update_t(t, m, rho, scratch):
    """The m half of the dual step in place, ``t[k] -= rho * m``, via ``scratch``."""
    np.multiply(m, rho, out=scratch)
    t -= scratch


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
    observed = y[mask]
    if not np.isfinite(observed).all():
        raise InvalidInputError("observed entries contain non-finite values")
    obs_norm = float(np.linalg.norm(observed))
    del observed  # a copy of the input's size; the loop does not need it
    if obs_norm == 0.0:
        raise DegenerateProblemError("observed entries have zero norm")

    truncs = [truncation_for_mode(y.shape, mode, config.theta) for mode in MODES]
    m = np.where(mask, y, 0.0)
    s = np.empty_like(m)
    work = np.empty(m.size)
    t = np.zeros((3, *y.shape))
    rho = config.rho0
    trace = []
    rho_trace = []
    converged = False
    for it in range(1, config.max_iter + 1):
        update_x(s, work, m, t, rho, truncs)
        update_m(s, y, mask)
        np.subtract(s, m, out=m)
        ratio = frobenius_norm(m) / obs_norm
        update_t(t, s, rho, m)
        m, s = s, m
        rho = min(config.rho_mult * rho, config.rho_max)
        if not math.isfinite(rho):
            raise ConfigError(f"rho overflowed to {rho} at iteration {it}; set a finite rho_max")

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
