"""ADMM solver for tensor completion under truncated nuclear norm minimization.

The consensus formulation carries one tensor ``x_k`` and one dual ``t[k]`` per
mode plus a shared tensor ``m`` that pins the observed entries. This is the
scaled-dual ADMM of Boyd et al. (2011, section 3.1.1), and ``solve`` carries
each dual in the form its SVT consumes, ``z[k] = rho * m - t[k]``. Its state is
five tensors: the three ``z[k]`` in one buffer, ``m`` and one SVT output; no
``x_k`` and no ``t[k]`` is ever stored. ``z[1]`` is stored mode-1 first, so
every unfolding the SVT reads is a view (C order for modes 0 and 1, Fortran
order for mode 2). Each iteration runs, in order:

1. ``update_x``, per mode k: ``w_k``, the fold of
   ``truncated_svt(unfold_k(z[k]), trunc_k, 1/3)``, a view of the SVT output
   in z[k]'s layout, then ``z[k] -= w_k``. Each ``w_k`` reads only its own
   ``z[k]``; the previous output is freed before the next SVT;
2. ``update_m``: ``d = m_new - m_old`` into the last SVT output, which is
   C-ordered like m; ``d = -sum_k z[k] / (3 rho)`` on missing entries and 0 on
   observed ones; then ``m += d``;
3. the convergence ratio ``||d|| / ||observed part of y||``;
4. the penalty schedule ``rho_next = min(rho_mult * rho, rho_max)``;
5. ``update_t``: ``z[k] += rho_next * m + rho * d``, the m half of the dual
   step ``t[k] -= rho * m`` and the next iteration's SVT input in one step.

The textbook step thresholds ``m - t[k] / rho`` at ``(1/3) / rho`` to get
``x_k``. The SVT is positively homogeneous, ``rho * SVT_tau(z) =
SVT_{rho tau}(rho z)``, so ``w_k = rho * x_k`` is the SVT of ``rho * m - t[k]``
at the fixed threshold 1/3, and ``w_k`` is exactly the x half of the dual step,
``t[k] += w_k``, which ``z[k] -= w_k`` applies. This changes the iterates by
rounding only; the kernel's noise floor is relative to the largest singular
value, so it holds for data in any units.

The textbook consensus step ``m = mean_k(x_k) + mean_k(t[k]) / rho`` has a dual
term that is zero: the duals start at zero, and on the missing entries, where
m is free, the dual step ``t[k] += rho * (x_k - m)`` returns ``sum_k t[k]`` to
zero in every iteration (observed entries are pinned anyway). Dropping the
term changes the iterates by rounding only. The same identity gives step 2:
after ``update_x``, ``sum_k z[k] = 3 rho m_old - sum_k w_k`` on missing
entries, so ``m_old + d`` is the consensus average ``sum_k w_k / (3 rho)``.

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


def update_x(z, truncs):
    """Per mode, ``w_k = SVT(z[k])`` at 1/3 and ``z[k] -= w_k``; returns the last ``w_k``.

    Each ``w_k`` reads only its own ``z[k]``. The returned tensor is C-ordered
    like ``m``; the loop reuses it as scratch.
    """
    tau = 1.0 / len(MODES)  # every mode weighs 1/3; update_m divides by the same count
    for mode, z_k in zip(MODES, z):
        w = None  # free the previous output before this SVT allocates its own
        w = fold(truncated_svt(unfold(z_k, mode), truncs[mode], tau), mode, z_k.shape)
        z_k -= w
    return w


def update_m(m, d, z, missing, rho):
    """``d = m_new - m`` into the scratch ``d``, then ``m += d``.

    ``d`` is ``-sum_k z[k] / (3 rho)`` on the ``missing`` entries and a zero,
    of either sign, on observed ones, whose values m keeps.
    """
    np.add(z[0], z[1], out=d)
    d += z[2]
    np.multiply(d, missing, out=d)
    d *= -1.0 / (len(MODES) * rho)
    m += d


def update_t(z, m, d, rho, rho_next):
    """The dual step and the next iteration's SVT inputs in one:
    ``z[k] += rho_next * m + rho * d``, with ``d`` overwritten.

    The sum is formed as ``rho_next * (m + (rho / rho_next) * d)`` in ``d``,
    so the step needs no tensor of its own.
    """
    d *= rho / rho_next
    d += m
    d *= rho_next
    for z_k in z:
        z_k += d


def _start_state(m, rho):
    """The three SVT inputs ``z[k] = rho * m`` (zero duals) in one buffer.

    ``z[1]`` is stored mode-1 first, so its unfolding is a view, as those of
    ``z[0]`` and ``z[2]`` are.
    """
    n1, n2, n3 = m.shape
    flat = np.empty((3, m.size))
    z = (
        flat[0].reshape(m.shape),
        flat[1].reshape(n2, n1, n3).transpose(1, 0, 2),
        flat[2].reshape(m.shape),
    )
    for z_k in z:
        np.multiply(m, rho, out=z_k)
    return z


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
    SolverResult, whose ``recovered`` and ``trace`` are finite.
    Non-convergence within ``max_iter`` is reported via ``converged=False``,
    never raised. A penalty that overflows to infinity (possible only with
    ``rho_max = inf``) raises ``ConfigError``. Observed entries whose norm
    overflows raise ``InvalidInputError``, and so do iterates that overflow
    the float range (data or ``rho0`` too large): an SVT input whose norm
    overflows, or a consensus step that is not finite, named by its iteration.
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
    missing = ~mask
    z = _start_state(m, config.rho0)
    rho = config.rho0
    trace = []
    rho_trace = []
    converged = False
    for it in range(1, config.max_iter + 1):
        d = update_x(z, truncs)
        update_m(m, d, z, missing, rho)
        ratio = frobenius_norm(d) / obs_norm
        if not math.isfinite(ratio):
            raise InvalidInputError(f"the iterates overflowed at iteration {it}; scale the data or rho0 down")
        rho_next = min(config.rho_mult * rho, config.rho_max)
        if not math.isfinite(rho_next):
            raise ConfigError(f"rho overflowed to {rho_next} at iteration {it}; set a finite rho_max")
        update_t(z, m, d, rho, rho_next)
        del d  # one tensor less at the next SVT
        rho = rho_next

        trace.append(ratio)
        rho_trace.append(rho)
        if ratio < config.epsilon:
            converged = True
            break

    # m += d keeps every observed value, but may turn an observed -0.0 into 0.0
    np.putmask(m, mask, y)
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
