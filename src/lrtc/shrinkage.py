"""Shrinkage kernels and the truncation rule that feeds them.

Implements the universal truncation-rate rule that fixes the per-mode
truncation level, and the generalized singular value thresholding operator
that solves

    min_X  alpha * ||X||_{trunc,*} + (rho / 2) * ||X - Z||_F^2

in closed form: keep the ``trunc`` largest singular values of Z untouched and
soft-threshold the rest by ``tau = alpha / rho``. ``svt`` and ``weighted_svt``
are its plain and weighted relatives. All kernels are pure functions; per-mode
shrinkages within a solver iteration may run concurrently.
"""

import math
import warnings

import numpy as np

from .errors import ConfigError, InvalidInputError
from .tensor_ops import _check_mode

# Singular values below this are treated as exact zeros before shrinkage,
# so numerical noise cannot masquerade as rank.
SIGMA_FLOOR = 1e-12

# Products of theta with an integer bound are computed in floating point;
# results within this distance of an integer are snapped to it before ceil.
_CEIL_GUARD = 1e-9


def thin_svd(matrix):
    """Thin SVD ``(u, sigma, vt)`` with descending, floor-clamped sigma.

    The decomposition always runs on the orientation with rows <= cols
    (transpose in, transpose out), which is the cheap direction for the
    unfoldings this package produces.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise InvalidInputError(f"expected a matrix, got ndim={matrix.ndim}")
    if not np.isfinite(matrix).all():
        raise InvalidInputError("matrix contains non-finite entries")
    m, n = matrix.shape
    if m > n:
        u, sigma, vt = np.linalg.svd(matrix.T, full_matrices=False)
        u, vt = vt.T, u.T
    else:
        u, sigma, vt = np.linalg.svd(matrix, full_matrices=False)
    sigma = np.where(sigma < SIGMA_FLOOR, 0.0, sigma)
    return u, sigma, vt


def _check_trunc(matrix_shape, trunc):
    bound = min(matrix_shape)
    if not 0 <= int(trunc) == trunc:
        raise ConfigError(f"truncation must be a nonnegative integer, got {trunc!r}")
    if trunc >= bound:
        raise ConfigError(
            f"truncation {trunc} too large for a {matrix_shape[0]}x{matrix_shape[1]} "
            f"matrix (must stay below {bound})"
        )
    return int(trunc)


def truncation_for_mode(dims, mode, theta, clamp=False):
    """Per-mode truncation level ``ceil(theta * min(n_mode, prod(other dims)))``.

    The result must stay strictly below that min; with ``clamp=True`` an
    overflowing value is clamped to the bound minus one (floor zero) with a
    warning instead of raising, which keeps tiny degenerate shapes legal.
    ``theta = 0`` always yields 0, the nuclear-norm special case.
    """
    _check_mode(mode)
    if not 0.0 <= theta < 1.0:
        raise ConfigError(f"theta must lie in [0, 1), got {theta}")
    dims = tuple(int(d) for d in dims)
    bound = min(dims[mode], int(np.prod([d for ax, d in enumerate(dims) if ax != mode])))
    if theta == 0.0:
        return 0
    trunc = math.ceil(theta * bound - _CEIL_GUARD)
    trunc = max(trunc, 0)
    if trunc >= bound:
        if not clamp:
            raise ConfigError(
                f"theta={theta} truncates {trunc} of {bound} singular values on "
                f"mode {mode}; the truncation must stay below {bound}"
            )
        warnings.warn(
            f"clamping mode-{mode} truncation from {trunc} to {bound - 1} "
            f"(theta={theta} saturates the {bound}-value spectrum)",
            stacklevel=2,
        )
        trunc = bound - 1
    return trunc


def truncated_svt(matrix, trunc, tau):
    """Generalized singular value thresholding.

    Keeps the ``trunc`` largest singular values of ``matrix`` unchanged and
    replaces each remaining ``s`` by ``max(s - tau, 0)``; the result minimizes
    ``tau * ||X||_{trunc,*} + 0.5 * ||X - matrix||_F^2``. With repeated
    singular values at the truncation boundary the SVD ordering is not unique;
    shrinkage is applied to the stably sorted value sequence, so the output
    spectrum is unique even though the factors may not be.
    """
    matrix = np.asarray(matrix, dtype=float)
    trunc = _check_trunc(matrix.shape, trunc)
    if tau < 0:
        raise ConfigError(f"tau must be nonnegative, got {tau}")
    u, sigma, vt = thin_svd(matrix)
    shrunk = sigma.copy()
    shrunk[trunc:] = np.maximum(sigma[trunc:] - tau, 0.0)
    return (u * shrunk) @ vt


def svt(matrix, tau):
    """Plain singular value thresholding: truncated_svt with nothing kept."""
    return truncated_svt(matrix, 0, tau)


def weighted_svt(matrix, weights, tau):
    """Weighted shrinkage: singular value ``s_i`` becomes ``max(s_i - tau*w_i, 0)``.

    ``weights`` must be nonnegative and nondecreasing (smallest weight on the
    largest singular value); the closed-form optimality of this shrinkage only
    holds under that order constraint. Zero weights on the first ``trunc``
    entries and ones elsewhere reproduce :func:`truncated_svt`.
    """
    matrix = np.asarray(matrix, dtype=float)
    weights = np.asarray(weights, dtype=float)
    bound = min(matrix.shape)
    if weights.shape != (bound,):
        raise ConfigError(
            f"need {bound} weights for a {matrix.shape[0]}x{matrix.shape[1]} matrix, "
            f"got shape {weights.shape}"
        )
    if (weights < 0).any():
        raise ConfigError("weights must be nonnegative")
    if (np.diff(weights) < 0).any():
        raise ConfigError("weights must be nondecreasing (order constraint)")
    if tau < 0:
        raise ConfigError(f"tau must be nonnegative, got {tau}")
    u, sigma, vt = thin_svd(matrix)
    shrunk = np.maximum(sigma - tau * weights, 0.0)
    return (u * shrunk) @ vt
