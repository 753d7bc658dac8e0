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

The kernel turns its matrix A wide side up and takes only A's left singular
vectors ``u`` and values ``sigma``, from ``thin_svd(wide, right=False)``; it
builds no right factor and rebuilds ``X = u diag(shrunk / sigma) u^T A``. A
matrix at least twice as wide as it is tall (every unfolding of a location x
day x time-of-day tensor is) takes them from one ``eigh`` of ``G = A A^T``.
Forming ``G`` squares the condition number, so this Gram route is taken only
when ``G`` is finite and ``sigma[-1] > GRAM_RCOND * sigma[0] > 0``. Any other
matrix takes them from the QR of its transpose: ``A = R^T Q^T`` has the left
factor and values of the small ``R^T`` (the R-SVD of Chan 1982). The result
has the memory order of the input. A non-finite matrix raises
``InvalidInputError``, and so does a finite one whose ``R`` overflows the
float range, where LAPACK's SVD would fail to converge.
"""

import math
import warnings

import numpy as np

from .errors import ConfigError, InvalidInputError
from .tensor_ops import _check_dims, _check_mode, _is_integer

# Singular values below this fraction of the largest are treated as exact
# zeros before shrinkage, so numerical noise cannot masquerade as rank. The
# floor is relative because the solver's SVT input is scaled by rho: an
# absolute one would zero a whole spectrum of data in small units.
SIGMA_FLOOR = 1e-12

# The Gram route of the kernels is taken only when sigma_min / sigma_max of
# the matrix exceeds this, which caps the condition number it accepts at 1e4.
GRAM_RCOND = 1e-4

# Products of theta with an integer bound are computed in floating point;
# results within this distance of an integer are snapped to it before ceil.
_CEIL_GUARD = 1e-9


def thin_svd(matrix, right=True):
    """Thin SVD ``(u, sigma, vt)`` with descending, floor-clamped sigma.

    By default LAPACK computes all three factors; that is the kernels' oracle.
    With ``right=False`` only the left factor and the values are computed, and
    ``vt`` is None. A matrix at least twice as wide as it is tall takes them
    from one ``eigh`` of its Gram matrix, if that Gram matrix is finite and
    passes the conditioning guard; any other matrix takes them from the SVD
    of the small ``R^T`` of ``qr(matrix.T)``.

    A matrix with a NaN or infinite entry raises ``InvalidInputError``. With
    ``right=False`` so does a finite one whose ``R`` is not finite, where
    LAPACK's SVD would fail to converge; a largest singular value past the
    float range, from a finite ``R``, is returned as inf.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise InvalidInputError(f"expected a matrix, got ndim={matrix.ndim}")
    if not right and 0 < 2 * matrix.shape[0] <= matrix.shape[1]:
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow falls back below
            gram = matrix @ matrix.T
        # a NaN or infinity in a row of matrix lands on gram's diagonal, so a
        # finite gram is also the input check
        if np.isfinite(gram).all():
            lam, u = np.linalg.eigh(gram)
            lam, u = lam[::-1], u[:, ::-1]
            if lam[-1] > GRAM_RCOND**2 * lam[0] > 0:  # then no value is below the floor
                return u, np.sqrt(lam), None
    if not np.isfinite(matrix).all():
        raise InvalidInputError("matrix contains non-finite entries")
    if not right:  # matrix = R^T Q^T has the left factor and values of the small R^T
        matrix = np.linalg.qr(matrix.T, mode="r").T
        if not np.isfinite(matrix).all():
            raise InvalidInputError("the norm of the matrix overflows")
    u, sigma, vt = np.linalg.svd(matrix, full_matrices=False)
    return u, np.where(sigma < SIGMA_FLOOR * sigma[:1], 0.0, sigma), vt if right else None


def check_theta(theta):
    """A truncation rate must lie in [0, 1); NaN fails too."""
    if not 0.0 <= theta < 1.0:
        raise ConfigError(f"theta must lie in [0, 1), got {theta}")


def truncation_for_mode(dims, mode, theta):
    """Per-mode truncation level ``ceil(theta * min(n_mode, prod(other dims)))``.

    ``dims`` must be three positive integers. The result must stay strictly
    below that min; an overflowing value is clamped to the bound minus one
    with a warning, which keeps tiny degenerate shapes legal. ``theta = 0``
    always yields 0, the nuclear-norm special case.
    """
    _check_mode(mode)
    check_theta(theta)
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
    spectrum is unique even though the factors may not be. The result has
    the memory order of ``matrix`` (Fortran in, Fortran out).
    """
    matrix = np.asarray(matrix, dtype=float)
    bound = min(matrix.shape)
    if not (_is_integer(trunc) and trunc >= 0):
        raise ConfigError(f"truncation must be a nonnegative integer, got {trunc!r}")
    if trunc >= bound:
        raise ConfigError(
            f"truncation {trunc} too large for a {matrix.shape[0]}x{matrix.shape[1]} "
            f"matrix (must stay below {bound})"
        )
    weights = np.ones(bound)
    weights[:trunc] = 0.0
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
    if np.isfortran(matrix):  # the SVT of a transpose is the transpose of the SVT
        return _shrink(matrix.T, weights, tau).T
    # a zero weight keeps its value even at tau = inf, where tau * 0 is NaN
    penalty = tau * weights if tau < math.inf else np.where(weights > 0, tau, 0.0)
    tall = matrix.shape[0] > matrix.shape[1]
    u, sigma, _ = thin_svd(matrix.T if tall else matrix, right=False)
    shrunk = np.maximum(sigma - penalty, 0.0)
    k = np.count_nonzero(shrunk)  # shrunk is non-increasing: rebuild from its nonzeros
    p = (u[:, :k] * (shrunk[:k] / sigma[:k])) @ u[:, :k].T
    return matrix @ p if tall else p @ matrix
