"""Dense third-order tensor algebra: unfolding, folding, the tensor/mask pair check, norms.

Tensors are numpy float arrays of shape ``(n1, n2, n3)``. Observation masks are
boolean arrays of the same shape, ``True`` where an entry is observed. The
canonical linear order of entries is C/row-major over ``(i1, i2, i3)``, and
unfoldings keep it. Missing-ness never lives inside a tensor as NaN; it lives
in the mask.

No function here mutates its input, so they are safe to call concurrently.
``unfold`` and ``fold`` may return views that share memory with their input.
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


def _check_dims(dims):
    dims = tuple(int(d) for d in dims)
    if len(dims) != 3 or any(d < 1 for d in dims):
        raise DimensionError(f"dims must be three positive integers, got {dims}")
    return dims


def unfold(tensor, mode):
    """Return the mode-`mode` unfolding of a third-order tensor.

    Entry ``(i1, i2, i3)`` lands in row ``i_mode``; the remaining two indices,
    in ascending axis order, pick the column in C order (the last varies
    fastest), i.e. ``np.moveaxis(t, k, 0).reshape(n_k, -1)``. Any fixed column
    bijection leaves the singular values and the SVT result unchanged; this one
    round-trips exactly with :func:`fold`.

    The result is a view where numpy can reshape without a copy (mode 0 of a
    C-ordered tensor, any mode of a :func:`fold` result), else a copy. Never
    write into an unfolding you do not own.

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
    return np.moveaxis(tensor, mode, 0).reshape(tensor.shape[mode], -1)


def fold(matrix, mode, dims):
    """Exact inverse of :func:`unfold` for the same mode and dims.

    For a C-contiguous float ``matrix``, such as an SVT result, the result is
    a view of it, and so is its mode-``mode`` unfolding.

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
    dims = _check_dims(dims)
    rest = [d for axis, d in enumerate(dims) if axis != mode]
    expected = (dims[mode], int(np.prod(rest)))
    if matrix.ndim != 2 or matrix.shape != expected:
        raise DimensionError(
            f"matrix shape {matrix.shape} inconsistent with mode {mode} of dims {dims}; "
            f"expected {expected}"
        )
    return np.moveaxis(matrix.reshape(dims[mode], *rest), 0, mode)


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
