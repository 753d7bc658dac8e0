"""Dense third-order tensor algebra: unfolding, folding, the tensor/mask pair check, norms.

Tensors are numpy float arrays of shape ``(n1, n2, n3)``, no dimension zero,
as no file format holds an empty tensor. Observation masks are
boolean arrays of the same shape, ``True`` where an entry is observed. The
canonical linear order of entries is C/row-major over ``(i1, i2, i3)``, and
unfoldings keep it. Missing-ness never lives inside a tensor as NaN; it lives
in the mask.

No function here mutates its input, so they are safe to call concurrently.
``unfold`` and ``fold`` may return views that share memory with their input.
"""

from numbers import Integral

import numpy as np

from .errors import DimensionError

MODES = (0, 1, 2)

# Per mode, the axis order that puts that mode first, and the order that undoes it.
_FIRST = ((0, 1, 2), (1, 0, 2), (2, 0, 1))
_BACK = ((0, 1, 2), (1, 0, 2), (1, 2, 0))


def _check_tensor3(tensor):
    tensor = np.asarray(tensor, dtype=float)
    if tensor.ndim != 3 or 0 in tensor.shape:
        raise DimensionError(f"expected a third-order tensor of positive dims, got {tensor.shape}")
    return tensor


def _check_mode(mode):
    if mode not in MODES:
        raise DimensionError(f"mode must be one of {MODES}, got {mode!r}")


def _is_integer(value):
    """True for an integer, numpy's included, but not for a ``bool``: ``True`` counts nothing."""
    # the type test spares ``fold``, called every solver iteration, the slower ABC check
    return type(value) is int or (isinstance(value, Integral) and not isinstance(value, bool))


def _check_dims(dims, error=DimensionError):
    dims = tuple(dims)
    if len(dims) != 3 or not all(_is_integer(d) and d >= 1 for d in dims):
        raise error(f"dims must be three positive integers, got {dims}")
    return tuple(map(int, dims))


def unfold(tensor, mode):
    """Return the mode-`mode` unfolding of a third-order tensor.

    Entry ``(i1, i2, i3)`` lands in row ``i_mode``; the remaining two indices,
    in ascending axis order, pick the column in C order (the last varies
    fastest), i.e. ``np.moveaxis(t, k, 0).reshape(n_k, -1)``. Any fixed column
    bijection leaves the singular values and the SVT result unchanged; this one
    round-trips exactly with :func:`fold`.

    The result is a view where numpy can reshape without a copy (modes 0 and
    2 of a C-ordered tensor, the latter in Fortran order, and any mode of a
    :func:`fold` result), else a copy. Never write into one you do not own.

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
    return tensor.transpose(_FIRST[mode]).reshape(tensor.shape[mode], -1)


def fold(matrix, mode, dims):
    """Exact inverse of :func:`unfold` for the same mode and dims.

    For a C- or Fortran-contiguous float ``matrix``, such as an SVT result,
    the result is a view of it, and so is its mode-``mode`` unfolding.

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
    rest = (dims[_FIRST[mode][1]], dims[_FIRST[mode][2]])
    expected = (dims[mode], rest[0] * rest[1])
    if matrix.ndim != 2 or matrix.shape != expected:
        raise DimensionError(
            f"matrix shape {matrix.shape} inconsistent with mode {mode} of dims {dims}; "
            f"expected {expected}"
        )
    return matrix.reshape(dims[mode], *rest).transpose(_BACK[mode])


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
    """sqrt of the sum of squared entries: zero iff the tensor is zero, inf only if the norm is."""
    flat = _check_tensor3(tensor).ravel()
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(flat))
    if norm in (0.0, np.inf):  # the squares may all underflow, or their sum overflow
        scale = float(np.abs(flat).max(initial=0.0))
        if 0.0 < scale < np.inf:
            norm = scale * float(np.linalg.norm(flat / scale))
    return norm
