"""Dense third-order tensor algebra: unfolding, folding, the tensor/mask pair check, norms.

Tensors are numpy float arrays of shape ``(n1, n2, n3)``. Observation masks are
boolean arrays of the same shape, ``True`` where an entry is observed. The
canonical linear order of entries is C/row-major over ``(i1, i2, i3)``.
Missing-ness never lives inside a tensor as NaN; it lives in the mask.

All functions here are pure and never mutate their inputs, so they are safe to
call concurrently.
"""

import numpy as np

from .errors import DimensionError

MODES = (0, 1, 2)


def _check_tensor3(tensor):
    tensor = np.asarray(tensor, dtype=float)
    if tensor.ndim != 3:
        raise DimensionError(f"expected a third-order tensor, got ndim={tensor.ndim}")
    return tensor


def _check_mode(mode):
    if mode not in MODES:
        raise DimensionError(f"mode must be one of {MODES}, got {mode!r}")


def unfold(tensor, mode):
    """Return the mode-`mode` unfolding of a third-order tensor.

    Entry ``(i1, i2, i3)`` lands in row ``i_mode`` and column
    ``sum(i_l * J_l for l != mode)`` with ``J_l = prod(dims[m] for m < l,
    m != mode)``, i.e. the remaining axes vary fastest in ascending axis
    order. Any fixed bijection would preserve singular values, but this one
    must round-trip exactly with :func:`fold`.

    Parameters
    ----------
    tensor : ndarray, shape (n1, n2, n3)
    mode : int
        Axis whose fibers become rows; one of ``{0, 1, 2}``.

    Returns
    -------
    ndarray of shape ``(dims[mode], prod(other dims))``.
    """
    tensor = _check_tensor3(tensor)
    _check_mode(mode)
    return np.reshape(
        np.moveaxis(tensor, mode, 0), (tensor.shape[mode], -1), order="F"
    )


def fold(matrix, mode, dims):
    """Exact inverse of :func:`unfold` for the same mode and dims.

    Parameters
    ----------
    matrix : ndarray, shape (dims[mode], prod of remaining dims)
    mode : int
    dims : tuple of three ints
        Shape of the tensor being reassembled.

    Returns
    -------
    ndarray of shape ``dims``.
    """
    _check_mode(mode)
    matrix = np.asarray(matrix, dtype=float)
    dims = tuple(int(d) for d in dims)
    if len(dims) != 3 or any(d < 1 for d in dims):
        raise DimensionError(f"dims must be three positive integers, got {dims}")
    rest = [d for axis, d in enumerate(dims) if axis != mode]
    expected = (dims[mode], int(np.prod(rest)))
    if matrix.ndim != 2 or matrix.shape != expected:
        raise DimensionError(
            f"matrix shape {matrix.shape} inconsistent with mode {mode} of dims {dims}; "
            f"expected {expected}"
        )
    return np.moveaxis(np.reshape(matrix, (dims[mode], *rest), order="F"), 0, mode)


def _check_pair(tensor, mask):
    """The tensor as floats and its mask as bools; a mask of another shape raises."""
    tensor = _check_tensor3(tensor)
    mask = np.asarray(mask)
    if mask.shape != tensor.shape:
        raise DimensionError(
            f"mask shape {mask.shape} does not match tensor shape {tensor.shape}"
        )
    return tensor, mask.astype(bool, copy=False)


def frobenius_norm(tensor):
    """sqrt of the sum of squared entries; zero iff the tensor is zero."""
    tensor = _check_tensor3(tensor)
    return float(np.linalg.norm(tensor.ravel()))
