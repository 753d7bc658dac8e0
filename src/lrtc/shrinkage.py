"""Shrinkage kernels and the truncation rule that feeds them.

Implements the universal truncation-rate rule that fixes the per-mode
truncation level, and the generalized singular value thresholding operator
that solves

    min_X  alpha * ||X||_{trunc,*} + (rho / 2) * ||X - Z||_F^2

in closed form: keep the ``trunc`` largest singular values of Z untouched and
soft-threshold the rest by ``tau = alpha / rho``, i.e. weighted shrinkage with
step weights. It, ``svt`` (nothing kept) and ``weighted_svt`` (any weights)
share one shrink-and-rebuild body. All kernels are pure functions; per-mode
shrinkages within a solver iteration may run concurrently.

Every kernel factors its input with ``thin_svd``, which has two routes. A
matrix at least twice as wide as it is tall (after orienting it wide) is
factored through the eigendecomposition of its Gram matrix ``A A^T``, which
costs one matrix product plus a small symmetric eigenproblem instead of a
LAPACK SVD of the whole matrix; every unfolding of a location x day x
time-of-day tensor is of that kind. Forming the Gram matrix squares the
condition number, so the route is guarded: it is taken only when the Gram
spectrum shows a condition number below ``1 / GRAM_RCOND``; near-square,
rank-deficient, zero and ill-conditioned matrices go to ``np.linalg.svd``.
The kernels rebuild their output from the singular triplets whose shrunk
value is nonzero only, so the cost of the rebuild scales with the rank kept.
"""

import math
import warnings

import numpy as np

from .errors import ConfigError, InvalidInputError
from .tensor_ops import _check_dims, _check_mode

# Singular values below this are treated as exact zeros before shrinkage,
# so numerical noise cannot masquerade as rank.
SIGMA_FLOOR = 1e-12

# The Gram route of thin_svd is taken only when sigma_min / sigma_max of the
# matrix exceeds this, which caps the condition number it accepts at 1e4.
GRAM_RCOND = 1e-4

# Products of theta with an integer bound are computed in floating point;
# results within this distance of an integer are snapped to it before ceil.
_CEIL_GUARD = 1e-9


def thin_svd(matrix):
    """Thin SVD ``(u, sigma, vt)`` with descending, floor-clamped sigma.

    The decomposition always runs on the orientation with rows <= cols
    (transpose in, transpose out). When that orientation has at least twice
    as many columns as rows, the factors come from the Gram matrix:
    ``lam, u = eigh(A @ A.T)`` in descending order, ``sigma = sqrt(lam)`` and
    ``vt = (u / sigma).T @ A``. The route is taken only when
    ``lam_min > GRAM_RCOND**2 * lam_max > 0``, i.e. when the condition number
    is below 1e4; otherwise, and for every other shape, ``np.linalg.svd``
    runs. Under the guard each singular value is off by at most about
    ``eps * kappa * sigma_max`` and the rows of ``vt`` are orthonormal to
    about ``eps * kappa**2`` (2e-8 at the cap); ``u`` is orthonormal and
    ``(u * sigma) @ vt`` reproduces the matrix to ``eps`` relative either way.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise InvalidInputError(f"expected a matrix, got ndim={matrix.ndim}")
    if not np.isfinite(matrix).all():
        raise InvalidInputError("matrix contains non-finite entries")
    m, n = matrix.shape
    if m > n:
        v, sigma, ut = _wide_svd(matrix.T)
        u, vt = ut.T, v.T
    else:
        u, sigma, vt = _wide_svd(matrix)
    sigma = np.where(sigma < SIGMA_FLOOR, 0.0, sigma)
    return u, sigma, vt


def _wide_svd(matrix):
    """Thin SVD of a matrix with rows <= cols: the guarded Gram route, else LAPACK."""
    rows, cols = matrix.shape
    if 0 < 2 * rows <= cols:
        lam, u = np.linalg.eigh(matrix @ matrix.T)
        lam, u = lam[::-1], u[:, ::-1]
        if lam[-1] > GRAM_RCOND**2 * lam[0] > 0:
            sigma = np.sqrt(lam)
            return u, sigma, (u / sigma).T @ matrix
    return np.linalg.svd(matrix, full_matrices=False)


def truncation_for_mode(dims, mode, theta):
    """Per-mode truncation level ``ceil(theta * min(n_mode, prod(other dims)))``.

    ``dims`` must be three positive integers. The result must stay strictly
    below that min; an overflowing value is clamped to the bound minus one
    with a warning, which keeps tiny degenerate shapes legal. ``theta = 0``
    always yields 0, the nuclear-norm special case.
    """
    _check_mode(mode)
    if not 0.0 <= theta < 1.0:
        raise ConfigError(f"theta must lie in [0, 1), got {theta}")
    dims = _check_dims(dims)
    bound = min(dims[mode], int(np.prod([d for ax, d in enumerate(dims) if ax != mode])))
    trunc = math.ceil(theta * bound - _CEIL_GUARD)
    if trunc >= bound:
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
    bound = min(matrix.shape)
    try:
        if not 0 <= int(trunc) == trunc:
            raise ValueError
    except (TypeError, ValueError, OverflowError):  # int() of None, nan and inf too
        raise ConfigError(f"truncation must be a nonnegative integer, got {trunc!r}") from None
    if trunc >= bound:
        raise ConfigError(
            f"truncation {trunc} too large for a {matrix.shape[0]}x{matrix.shape[1]} "
            f"matrix (must stay below {bound})"
        )
    weights = np.ones(bound)
    weights[: int(trunc)] = 0.0
    return _shrink(matrix, weights, tau)


def svt(matrix, tau):
    """Plain singular value thresholding: truncated_svt with nothing kept."""
    return truncated_svt(matrix, 0, tau)


def weighted_svt(matrix, weights, tau):
    """Weighted shrinkage: singular value ``s_i`` becomes ``max(s_i - tau*w_i, 0)``.

    ``weights`` must be finite, nonnegative and nondecreasing (smallest weight
    on the largest singular value), the order under which this shrinkage is
    the closed-form minimizer. Step weights make it :func:`truncated_svt`.
    """
    matrix = np.asarray(matrix, dtype=float)
    weights = np.asarray(weights, dtype=float)
    bound = min(matrix.shape)
    if weights.shape != (bound,):
        raise ConfigError(
            f"need {bound} weights for a {matrix.shape[0]}x{matrix.shape[1]} matrix, "
            f"got shape {weights.shape}"
        )
    if not (np.isfinite(weights) & (weights >= 0)).all():
        raise ConfigError("weights must be finite and nonnegative")
    if (np.diff(weights) < 0).any():
        raise ConfigError("weights must be nondecreasing (order constraint)")
    return _shrink(matrix, weights, tau)


def _shrink(matrix, weights, tau):
    """Every kernel's body: ``s_i -> max(s_i - tau * w_i, 0)`` on checked weights."""
    if not tau >= 0:  # written so that NaN fails too
        raise ConfigError(f"tau must be nonnegative, got {tau}")
    u, sigma, vt = thin_svd(matrix)
    # a zero weight keeps its value even at tau = inf, where tau * 0 is NaN
    penalty = tau * weights if tau < math.inf else np.where(weights > 0, tau, 0.0)
    shrunk = np.maximum(sigma - penalty, 0.0)
    k = np.count_nonzero(shrunk)  # shrunk is non-increasing: rebuild from its nonzeros
    return (u[:, :k] * shrunk[:k]) @ vt[:k]
