"""ADMM solver for tensor completion under truncated nuclear norm minimization.

The consensus formulation carries one tensor ``x_k`` and one dual ``t[k]`` per
mode plus a shared tensor ``m`` that pins the observed entries. ``solve``
allocates its state once: the duals as one ``(3, n1, n2, n3)`` array, ``m``, a
sum buffer ``s`` and a flat work buffer; no two ``x_k`` exist at once. Each
iteration runs, in order:

1. ``update_x``, per mode k: ``z = rho * m - t[k]`` into the work buffer, in
   C order for modes 0 and 2 (whose unfoldings are a C and a Fortran view)
   and mode-1 first for mode 1; ``w_k``, the fold of
   ``truncated_svt(unfold_k(z), trunc_k, 1/3)``, a view of the SVT output in
   z's layout; ``s += w_k`` (mode 0 assigns) and ``t[k] += w_k``. Each
   ``w_k`` reads only the previous m and its own dual;
2. ``update_m``: ``m_new = s / (3 rho)``, observed entries overwritten with
   the input;
3. the convergence ratio, with ``m_new - m_old`` in the old m buffer;
4. ``update_t``: ``t[k] -= rho * m_new`` via that buffer, which becomes ``s``;
5. the penalty schedule ``rho = min(rho_mult * rho, rho_max)``.

The textbook step thresholds ``m - t[k] / rho`` at ``(1/3) / rho`` to get
``x_k``. The SVT is positively homogeneous, ``rho * SVT_tau(z) =
SVT_{rho tau}(rho z)``, so ``w_k = rho * x_k`` is the SVT of ``rho * m - t[k]``
at the fixed threshold 1/3, and ``w_k`` is exactly the x half of the dual step.
This changes the iterates by rounding only; the kernel's noise floor is
relative to the largest singular value, so it holds for data in any units.

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
from .shrinkage import check_theta, truncated_svt, truncation_for_mode
from .tensor_ops import MODES, _check_pair, _is_integer, fold, frobenius_norm, unfold

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
        check_theta(self.theta)
        if not 0.0 < self.rho0 < math.inf:
            raise ConfigError(f"rho0 must be positive and finite, got {self.rho0}")
        if not self.rho_max >= self.rho0:
            raise ConfigError(f"rho_max {self.rho_max} must be >= rho0 {self.rho0}")
        if not 1.0 <= self.rho_mult < math.inf:
            raise ConfigError(f"rho_mult must be finite and >= 1, got {self.rho_mult}")
        if not 0.0 < self.epsilon < math.inf:
            raise ConfigError(f"epsilon must be positive and finite, got {self.epsilon}")
        if not (_is_integer(self.max_iter) and self.max_iter >= 1):
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
    """``s = rho * sum_k x_k`` and ``t[k] += rho * x_k``; ``work`` is a flat ``m.size`` buffer."""
    tau = 1.0 / len(MODES)  # every mode weighs 1/3; update_m divides by the same count
    for mode in MODES:
        z = fold(work.reshape(m.shape[1], -1), 1, m.shape) if mode == 1 else work.reshape(m.shape)
        np.multiply(m, rho, out=z)
        z -= t[mode]
        w = fold(truncated_svt(unfold(z, mode), truncs[mode], tau), mode, m.shape)
        if mode == 0:
            s[...] = w
        else:
            s += w
        t[mode] += w
        del w  # free the SVT output before the next mode's SVT: one tensor less at peak


def update_m(s, y, mask, rho):
    """Consensus average ``s / (3 rho)`` of the x tensors in place, observed entries pinned to y."""
    s /= len(MODES) * rho
    np.putmask(s, mask, y)


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
    (possible only with ``rho_max = inf``) raises ``ConfigError``; observed
    entries whose norm overflows raise ``InvalidInputError``.
    """
    y, mask = _check_pair(y, mask)
    if not mask.any():
        raise DegenerateProblemError("no observed entries; nothing to complete")
    m = np.where(mask, y, 0.0)
    if not np.isfinite(m).all():
        raise InvalidInputError("observed entries contain non-finite values")
    obs_norm = frobenius_norm(m)
    if obs_norm == 0.0:
        raise DegenerateProblemError("observed entries have zero norm")
    if obs_norm == math.inf:
        raise InvalidInputError("the norm of the observed entries overflows")

    truncs = [truncation_for_mode(y.shape, mode, config.theta) for mode in MODES]
    s = np.empty_like(m)
    work = np.empty(m.size)
    t = np.zeros((3, *y.shape))
    rho = config.rho0
    trace = []
    rho_trace = []
    converged = False
    for it in range(1, config.max_iter + 1):
        update_x(s, work, m, t, rho, truncs)
        update_m(s, y, mask, rho)
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
