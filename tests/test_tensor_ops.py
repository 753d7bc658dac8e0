import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lrtc import (
    DimensionError,
    fold,
    frobenius_norm,
    truncation_for_mode,
    unfold,
)
from lrtc.tensor_ops import _check_dims


def column_index(indices, dims, mode):
    """Independent oracle for the unfolding bijection: the remaining axes in
    ascending axis order, the last varying fastest (C order)."""
    j = 0
    for axis in range(3):
        if axis == mode:
            continue
        j = j * dims[axis] + indices[axis]
    return j


small_dims = st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5))
finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False, width=64)


@st.composite
def tensors(draw):
    return draw(arrays(np.float64, draw(small_dims), elements=finite))


class TestUnfold:
    def test_degenerate_singleton(self):
        x = np.array([[[2.5]]])
        for mode in (0, 1, 2):
            assert unfold(x, mode).shape == (1, 1)
            assert unfold(x, mode)[0, 0] == 2.5

    def test_matches_column_index_formula(self):
        # x[i1, i2, i3] = 4*i1 + 2*i2 + i3, enumerated by hand against the
        # canonical column order
        x = np.arange(8, dtype=float).reshape(2, 2, 2)
        expected_mode0 = np.array([[0.0, 1.0, 2.0, 3.0], [4.0, 5.0, 6.0, 7.0]])
        assert np.array_equal(unfold(x, 0), expected_mode0)
        for mode in (0, 1, 2):
            mat = unfold(x, mode)
            for idx in np.ndindex(x.shape):
                j = column_index(idx, x.shape, mode)
                assert mat[idx[mode], j] == x[idx]

    def test_formula_on_rectangular_tensor(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((3, 4, 5))
        for mode in (0, 1, 2):
            mat = unfold(x, mode)
            for idx in np.ndindex(x.shape):
                assert mat[idx[mode], column_index(idx, x.shape, mode)] == x[idx]

    def test_bad_mode(self):
        x = np.zeros((2, 2, 2))
        for mode in (-1, 3, "1"):
            with pytest.raises(DimensionError):
                unfold(x, mode)

    def test_rejects_non_third_order(self):
        with pytest.raises(DimensionError):
            unfold(np.zeros((2, 2)), 0)


class TestFold:
    def test_inverse_of_unfold(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((3, 4, 5))
        for mode in (0, 1, 2):
            assert np.array_equal(fold(unfold(x, mode), mode, x.shape), x)

    def test_single_row_mode0(self):
        rng = np.random.default_rng(2)
        row = rng.standard_normal((1, 12))
        t = fold(row, 0, (1, 3, 4))
        for i2 in range(3):
            for i3 in range(4):
                assert t[0, i2, i3] == row[0, column_index((0, i2, i3), (1, 3, 4), 0)]

    def test_fold_is_a_view_that_unfolds_to_a_view(self):
        rng = np.random.default_rng(3)
        dims = (3, 4, 5)
        # a C-ordered tensor is mode-0 first, so its mode-0 unfolding is a
        # view; its mode-2 unfolding is a Fortran-ordered view
        x = rng.standard_normal(dims)
        assert np.shares_memory(unfold(x, 0), x)
        assert np.shares_memory(unfold(x, 2), x) and np.isfortran(unfold(x, 2))
        assert fold(np.asfortranarray(unfold(x, 2)), 2, dims).flags.c_contiguous
        for mode in (0, 1, 2):
            matrix = rng.standard_normal((dims[mode], 60 // dims[mode]))
            tensor = fold(matrix, mode, dims)
            assert np.shares_memory(tensor, matrix)
            back = unfold(tensor, mode)
            assert np.shares_memory(back, matrix)
            assert np.array_equal(back, matrix)

    def test_zero_matrix(self):
        assert np.array_equal(fold(np.zeros((3, 20)), 1, (4, 3, 5)), np.zeros((4, 3, 5)))

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            fold(np.zeros((3, 19)), 1, (4, 3, 5))
        with pytest.raises(DimensionError):
            fold(np.zeros((3, 20)), 5, (4, 3, 5))

    def test_bad_dims(self):
        with pytest.raises(DimensionError):
            fold(np.zeros((3, 20)), 1, (4, 3))

    @pytest.mark.parametrize(
        "dims", [(4.7, 3, 2), (4, 3.0, 2), (4, 3, True), (4, 3, "2"), (4, 3, 2, 1), (4, -3, 2)]
    )
    def test_dims_must_be_three_positive_integers(self, dims):
        # a float is not truncated to the integer below it
        for check in (
            lambda: _check_dims(dims),
            lambda: fold(np.zeros((4, 6)), 0, dims),
            lambda: truncation_for_mode(dims, 0, 0.5),
        ):
            with pytest.raises(DimensionError, match="dims must be three positive integers"):
                check()

    def test_numpy_integer_dims_are_dims(self):
        dims = _check_dims(np.array([4, 3, 2]))
        assert dims == (4, 3, 2) and all(type(d) is int for d in dims)


class TestFrobeniusNorm:
    def test_zero(self):
        assert frobenius_norm(np.zeros((3, 2, 4))) == 0.0

    def test_absolute_value(self):
        assert frobenius_norm(np.array([[[-3.0]]])) == 3.0

    def test_hand_computed(self):
        # sqrt(9 + 16) = 5
        assert frobenius_norm(np.array([3.0, 4.0]).reshape(2, 1, 1)) == 5.0

    @pytest.mark.parametrize("scale", [1e-170, 1e200, 1e306])
    def test_squares_out_of_range(self, scale):
        # the squares underflow to zero or the sum of squares overflows
        x = np.array([3.0, 4.0]).reshape(2, 1, 1) * scale
        assert frobenius_norm(x) == pytest.approx(5.0 * scale, rel=1e-15)

    def test_infinite_only_when_the_norm_is(self):
        assert frobenius_norm(np.full((2, 2, 2), 1e308)) == np.inf
        assert frobenius_norm(np.array([[[np.inf, 1.0]]])) == np.inf

    def test_matches_unfolding_norms(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((4, 5, 3))
        reference = frobenius_norm(x)
        for mode in (0, 1, 2):
            assert np.linalg.norm(unfold(x, mode)) == pytest.approx(reference, rel=1e-12)


@given(tensors())
def test_roundtrip_property(x):
    for mode in (0, 1, 2):
        assert np.array_equal(fold(unfold(x, mode), mode, x.shape), x)

