import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lrtc.shrinkage
from lrtc import (
    ConfigError,
    DimensionError,
    InvalidInputError,
    fold,
    svt,
    thin_svd,
    truncated_svt,
    truncation_for_mode,
    unfold,
    weighted_svt,
)


def tnn_objective(x, z, trunc, tau):
    """Objective whose minimizer truncated_svt claims to be (alpha=tau, rho=1)."""
    sv = np.linalg.svd(x, compute_uv=False)
    return tau * sv[trunc:].sum() + 0.5 * np.sum((x - z) ** 2)


DIAG31 = np.diag([3.0, 1.0])


def formula_svt(matrix, trunc, tau, right=False):
    """Truncated SVT as its own formula: shrink ``sigma[trunc:]`` only, then rebuild.

    The left factor and values are ``thin_svd(wide, right)`` of the matrix
    turned wide side up; ``right=True`` takes them from LAPACK's three-factor
    SVD, the oracle. The rebuild is ``u diag(shrunk / sigma) u^T`` times the
    matrix.
    """
    tall = matrix.shape[0] > matrix.shape[1]
    u, sigma, _ = thin_svd(matrix.T if tall else matrix, right)
    shrunk = sigma.copy()
    shrunk[trunc:] = np.maximum(sigma[trunc:] - tau, 0.0)
    k = np.count_nonzero(shrunk)
    p = (u[:, :k] * (shrunk[:k] / sigma[:k])) @ u[:, :k].T
    return matrix @ p if tall else p @ matrix


@contextlib.contextmanager
def counting(*names):
    """Record each call of ``np.linalg.<name>`` as ``(name, input shape)``.

    ``thin_svd(a, right=False)`` took the Gram route exactly when it made one
    ``eigh`` call and no other; the QR route makes one ``qr`` and one ``svd``.
    """
    calls = []
    with contextlib.ExitStack() as stack:
        for name in names:

            def recording(a, *args, _name=name, _real=getattr(np.linalg, name), **kwargs):
                calls.append((_name, np.shape(a)))
                return _real(a, *args, **kwargs)

            stack.enter_context(mock.patch.object(np.linalg, name, recording))
        yield calls


def with_spectrum(rows, cols, sigma, seed):
    """A rows x cols matrix with singular values ``sigma`` and random factors."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((rows, len(sigma))))
    v, _ = np.linalg.qr(rng.standard_normal((cols, len(sigma))))
    return (u * sigma) @ v.T


def spectrum(kind, p, rng):
    """Descending singular values of one kind for a matrix with p of them."""
    if kind == "random":
        return np.sort(rng.uniform(0.5, 3.0, p))[::-1]
    if kind == "rank_deficient":
        rank = int(rng.integers(0, p))
        return np.r_[np.sort(rng.uniform(0.5, 3.0, rank))[::-1], np.zeros(p - rank)]
    if kind == "repeated":
        return np.sort(rng.choice([3.0, 2.0, 1.0], size=p))[::-1]
    return np.zeros(p)


def factor_invariants(a, u, sigma, vt):
    p = min(a.shape)
    assert sigma.shape == (p,)
    assert (np.diff(sigma) <= 0).all() and (sigma >= 0).all()
    assert np.allclose(u.T @ u, np.eye(p), atol=1e-8)
    assert np.allclose(vt @ vt.T, np.eye(p), atol=1e-8)
    recon = (u * sigma) @ vt
    assert np.linalg.norm(recon - a) <= 1e-8 * max(np.linalg.norm(a), 1.0)


class TestThinSvd:
    @pytest.mark.parametrize("shape", [(4, 7), (7, 4), (5, 5), (1, 6), (6, 1), (0, 5)])
    def test_factor_invariants(self, shape):
        rng = np.random.default_rng(11)
        a = rng.standard_normal(shape)
        factor_invariants(a, *thin_svd(a))

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            thin_svd(np.array([[1.0, np.nan]]))

    @pytest.mark.parametrize("right", [True, False])
    def test_noise_floor_is_relative(self, right):
        # only a value below 1e-12 of the largest is zeroed, in any units
        a = with_spectrum(4, 12, [3.0, 2.0, 1.0, 1e-13], seed=34)
        for scale in (1.0, 2.0**-60, 2.0**60):
            _, sigma, _ = thin_svd(a * scale, right=right)
            assert sigma[-1] == 0.0
            assert np.allclose(sigma[:3], [3.0 * scale, 2.0 * scale, scale], rtol=1e-9, atol=0)

    @given(
        rows=st.integers(1, 12),
        excess=st.sampled_from([-1, 0, 1, 5, 40]),
        tall=st.booleans(),
        fortran=st.booleans(),
        kind=st.sampled_from(["random", "rank_deficient", "repeated", "zero"]),
        seed=st.integers(0, 2**32 - 1),
        trunc_frac=st.floats(0.0, 1.0, exclude_max=True),
        tau_frac=st.floats(0.0, 1.2),
    )
    @example(rows=12, excess=0, tall=False, fortran=False, kind="random", seed=0, trunc_frac=0.0, tau_frac=0.3)
    @example(rows=12, excess=-1, tall=True, fortran=False, kind="repeated", seed=1, trunc_frac=0.5, tau_frac=0.6)
    @example(rows=6, excess=0, tall=False, fortran=True, kind="rank_deficient", seed=2, trunc_frac=0.2, tau_frac=0.1)
    @example(rows=5, excess=40, tall=True, fortran=True, kind="zero", seed=3, trunc_frac=0.0, tau_frac=0.5)
    @example(rows=7, excess=5, tall=False, fortran=True, kind="random", seed=4, trunc_frac=0.3, tau_frac=0.2)
    @settings(max_examples=300, deadline=None)
    def test_matches_lapack_on_both_routes(
        self, rows, excess, tall, fortran, kind, seed, trunc_frac, tau_frac
    ):
        # cols = 2 * rows + excess puts the matrix on either side of the
        # Gram route's 2:1 boundary; tall matrices take it transposed, and a
        # Fortran-ordered input (a transposed view) is shrunk as its transpose
        shape = (rows, max(1, 2 * rows + excess))
        if tall:
            shape = shape[::-1]
        p = min(shape)
        sigma_in = spectrum(kind, p, np.random.default_rng(seed))
        a = with_spectrum(*shape, sigma_in, seed)
        if fortran:
            a = np.ascontiguousarray(a.T).T
        u_ref, sigma_ref, vt_ref = np.linalg.svd(a, full_matrices=False)

        # a truncation inside a cluster of equal singular values leaves the
        # output basis-dependent, so start it at the cluster's first value
        trunc = int(trunc_frac * p)
        while trunc > 0 and sigma_in[trunc - 1] == sigma_in[trunc]:
            trunc -= 1
        tau = tau_frac * sigma_ref[0]
        shrunk = sigma_ref.copy()
        shrunk[trunc:] = np.maximum(sigma_ref[trunc:] - tau, 0.0)
        error = truncated_svt(a, trunc, tau) - (u_ref * shrunk) @ vt_ref
        assert np.linalg.norm(error) <= 1e-9 * np.linalg.norm(a)

    def test_ill_conditioned_falls_back_to_lapack(self):
        sigma = np.logspace(0, -6, 40)
        a = with_spectrum(40, 400, sigma, seed=31)
        with counting("eigh", "qr", "svd") as calls:
            out = truncated_svt(a, 3, 1e-4)
        # the Gram matrix's eigh fails the guard; the QR of the transpose and
        # the SVD of its small R^T follow, once each, with no SVD of the matrix
        assert calls == [("eigh", (40, 40)), ("qr", (400, 40)), ("svd", (40, 40))]
        assert np.array_equal(out, formula_svt(a, 3, 1e-4))
        assert np.linalg.norm(out - formula_svt(a, 3, 1e-4, right=True)) <= 1e-9 * np.linalg.norm(a)

        sigma = np.logspace(0, -3, 40)
        a = with_spectrum(40, 400, sigma, seed=32)
        with counting("eigh", "qr", "svd") as calls:
            out = truncated_svt(a, 3, 1e-2)
        assert calls == [("eigh", (40, 40))]
        assert np.linalg.norm(out - formula_svt(a, 3, 1e-2, right=True)) <= 1e-9 * np.linalg.norm(a)

    @given(
        rows=st.integers(1, 12),
        excess=st.sampled_from([-1, 0, 1, 5, 40]),
        tall=st.booleans(),
        fortran=st.booleans(),
        cond=st.sampled_from([1.0, 10.0, 1e3, 1e5, 1e8, "rank_deficient", "zero"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(rows=12, excess=0, tall=False, fortran=False, cond=1e3, seed=0)
    @example(rows=12, excess=-1, tall=False, fortran=False, cond=1e3, seed=1)
    @example(rows=6, excess=40, tall=False, fortran=True, cond=1e5, seed=6)
    @example(rows=5, excess=5, tall=False, fortran=False, cond="rank_deficient", seed=3)
    @settings(max_examples=300, deadline=None)
    def test_left_factor_matches_lapack(self, rows, excess, tall, fortran, cond, seed):
        # cols = 2 * rows + excess puts a wide matrix on either side of the
        # Gram route's 2:1 boundary (a tall one never takes it), and cond on
        # either side of its guard, sigma_min / sigma_max > GRAM_RCOND = 1e-4
        shape = (rows, max(1, 2 * rows + excess))
        if tall:
            shape = shape[::-1]
        p = min(shape)
        rng = np.random.default_rng(seed)
        # the top k values lie in [2, 3] and the other p - k at most 1, so
        # the projector on the top k left singular vectors is well defined;
        # sigma_min / sigma_max is then at least 3.3e-4, at most 3e-5, or 0
        k = int(rng.integers(0, p))
        top = np.sort(rng.uniform(2.0, 3.0, k))[::-1]
        if cond == "zero":
            k, sigma_in = 0, np.zeros(p)
        elif cond == "rank_deficient":
            sigma_in = np.r_[top, np.geomspace(1.0, 1e-2, p - k)[:-1], 0.0]
        else:
            sigma_in = np.r_[top, np.geomspace(1.0, 3.0 / cond, p - k)]
        a = with_spectrum(*shape, sigma_in, seed)
        if fortran:
            a = np.ascontiguousarray(a.T).T
        u_ref, sigma_ref, _ = thin_svd(a)

        with counting("eigh", "svd") as calls:
            u, sigma, vt = thin_svd(a, right=False)
        assert vt is None
        gram = 0 < 2 * shape[0] <= shape[1] and sigma_in[-1] > lrtc.shrinkage.GRAM_RCOND * sigma_in[0]
        assert (calls == [("eigh", (shape[0], shape[0]))]) == gram
        # either route: one left factor and values, held to the same bounds
        assert sigma.shape == sigma_ref.shape and (np.diff(sigma) <= 0).all()
        assert np.abs(sigma - sigma_ref).max() <= 1e-9 * sigma_ref[0]
        kept = u[:, :k] @ u[:, :k].T - u_ref[:, :k] @ u_ref[:, :k].T
        assert np.abs(kept).max() <= 1e-9 * sigma_ref[0]

    def test_left_factor_route_refusals(self):
        with pytest.raises(InvalidInputError):
            thin_svd(np.array([[1.0, np.inf, 0.0]]), right=False)

        # a finite matrix whose Gram matrix overflows takes the QR route,
        # and its left factor is LAPACK's up to the signs of its columns
        a = with_spectrum(4, 12, [3.0, 2.0, 1.0, 0.5], seed=33) * 1e200
        u_ref, sigma_ref, _ = thin_svd(a)
        with counting("eigh", "qr", "svd") as calls:
            u, sigma, vt = thin_svd(a, right=False)
        assert calls == [("qr", (12, 4)), ("svd", (4, 4))]
        assert vt is None
        assert np.abs(sigma - sigma_ref).max() <= 1e-9 * sigma_ref[0]
        assert np.abs(np.abs(u.T @ u_ref) - np.eye(4)).max() <= 1e-9
        # an empty matrix is 2:1 wide, but has no Gram matrix to factor
        with counting("eigh") as calls:
            u, sigma, vt = thin_svd(np.zeros((0, 5)), right=False)
        assert calls == []
        assert (u.shape, sigma.shape, vt) == ((0, 0), (0,), None)
        # a finite matrix whose norm overflows has a non-finite R
        a = np.random.default_rng(33).choice([-1e308, 1e308], (4, 12))
        with counting("eigh", "qr", "svd") as calls:
            with pytest.raises(InvalidInputError, match="norm of the matrix overflows"):
                thin_svd(a, right=False)
        assert calls == [("qr", (12, 4))]

    def test_gram_route_scans_only_the_gram_matrix(self):
        # a NaN or infinity in a row lands on the Gram matrix's diagonal, so
        # its finiteness is the input check, and the matrix is not scanned
        real, shapes = np.isfinite, []

        def recording(x, *args, **kwargs):
            shapes.append(np.shape(x))
            return real(x, *args, **kwargs)

        a = with_spectrum(4, 12, [3.0, 2.0, 1.0, 0.5], seed=33)
        with mock.patch.object(np, "isfinite", recording):
            thin_svd(a, right=False)
            assert shapes == [(4, 4)]
            for bad in (np.nan, np.inf, -np.inf):
                a[2, 5] = bad
                with pytest.raises(InvalidInputError, match="non-finite entries"):
                    thin_svd(a, right=False)


class TestTruncationForMode:
    def test_hand_cases(self):
        assert truncation_for_mode((214, 61, 144), 0, 0.30) == 65
        assert truncation_for_mode((30, 77, 18), 2, 0.05) == 1

    def test_zero_theta(self):
        for mode in (0, 1, 2):
            assert truncation_for_mode((9, 4, 17), mode, 0.0) == 0

    def test_float_excess_on_exact_product(self):
        # 0.1 * 30 evaluates to 3.0000000000000004 in binary; ceil must give 3
        assert truncation_for_mode((30, 20, 40), 0, 0.1) == 3
        assert truncation_for_mode((30, 20, 40), 1, 0.1) == 2
        assert truncation_for_mode((30, 20, 40), 2, 0.1) == 4

    def test_saturating_theta_clamps_with_warning(self):
        with pytest.warns(UserWarning):
            assert truncation_for_mode((10, 10, 10), 0, 0.95) == 9

    def test_unit_dim_clamps_to_zero(self):
        with pytest.warns(UserWarning):
            assert truncation_for_mode((1, 4, 5), 0, 0.5) == 0

    @pytest.mark.parametrize("dims", [(0, 4, 5), (-2, 4, 5), (4, 5), (2, 3, 4, 5)])
    def test_rejects_bad_dims(self, dims):
        with pytest.raises(DimensionError, match="three positive integers"):
            truncation_for_mode(dims, 0, 0.5)

    def test_theta_out_of_range(self):
        for theta in (-0.1, 1.0, 1.5):
            with pytest.raises(ConfigError):
                truncation_for_mode((4, 4, 4), 0, theta)

    def test_spec_for_dims(self):
        dims = (214, 61, 144)
        assert [truncation_for_mode(dims, k, 0.30) for k in (0, 1, 2)] == [65, 19, 44]
        assert [truncation_for_mode(dims, k, 0.0) for k in (0, 1, 2)] == [0, 0, 0]


class TestTruncatedSvt:
    def test_diagonal_hand_case(self):
        out = truncated_svt(DIAG31, 1, 1.0)
        assert np.allclose(out, np.diag([3.0, 0.0]), atol=1e-10)

    def test_vanishing_tau_returns_input(self):
        rng = np.random.default_rng(17)
        z = rng.standard_normal((4, 6))
        assert np.allclose(truncated_svt(z, 1, 0.0), z, atol=1e-10)
        assert np.allclose(truncated_svt(z, 0, 1e-300), z, atol=1e-10)

    def test_zero_matrix(self):
        assert np.array_equal(truncated_svt(np.zeros((3, 5)), 1, 0.7), np.zeros((3, 5)))

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidInputError):
            truncated_svt(np.array([[np.inf, 0.0]]), 0, 1.0)
        with pytest.raises(ConfigError):
            truncated_svt(np.ones((3, 4)), 3, 1.0)
        with pytest.raises(ConfigError):
            truncated_svt(np.ones((3, 4)), 0, -1.0)
        with pytest.raises(ConfigError):
            truncated_svt(np.ones((3, 4)), 1, np.nan)
        with pytest.raises(ConfigError):
            svt(np.ones((3, 4)), np.nan)
        for trunc in (np.nan, np.inf, None, True, 2.0):
            with pytest.raises(ConfigError):
                truncated_svt(np.ones((3, 4)), trunc, 1.0)

    @given(
        rows=st.integers(1, 8),
        cols=st.integers(1, 20),
        kind=st.sampled_from(["random", "rank_deficient", "repeated", "zero"]),
        seed=st.integers(0, 2**32 - 1),
        trunc_frac=st.floats(0.0, 1.0, exclude_max=True),
        tau=st.sampled_from([0.0, 0.7, np.inf]) | st.floats(0.0, 4.0),
    )
    @example(rows=3, cols=8, kind="random", seed=0, trunc_frac=0.4, tau=np.inf)
    @example(rows=8, cols=3, kind="random", seed=1, trunc_frac=0.4, tau=np.inf)
    @example(rows=5, cols=5, kind="rank_deficient", seed=2, trunc_frac=0.0, tau=0.0)
    @settings(max_examples=200, deadline=None)
    def test_matches_the_formula_bit_for_bit(self, rows, cols, kind, seed, trunc_frac, tau):
        # both orientations on both routes: as thin_svd chooses, which for a
        # matrix at least 2:1 and of full rank is the Gram route, and on the
        # QR route alone, which this guard forces; tau = inf shrinks all but
        # the kept values to zero
        p = min(rows, cols)
        z = with_spectrum(rows, cols, spectrum(kind, p, np.random.default_rng(seed)), seed)
        trunc = int(trunc_frac * p)
        full_rank = kind in ("random", "repeated")
        for rcond, gram in ((lrtc.shrinkage.GRAM_RCOND, 2 * p <= max(rows, cols) and full_rank), (2.0, False)):
            with mock.patch.object(lrtc.shrinkage, "GRAM_RCOND", rcond):
                with counting("eigh", "svd") as calls:
                    out = truncated_svt(z, trunc, tau)
                assert (calls == [("eigh", (p, p))]) == gram
                assert np.array_equal(out, formula_svt(z, trunc, tau))

    @pytest.mark.parametrize("rcond", [lrtc.shrinkage.GRAM_RCOND, 2.0])
    def test_keeps_the_memory_order(self, monkeypatch, rcond):
        # on both routes; a C-ordered tensor unfolds along mode 2 to a Fortran
        # view, whose SVT then folds back to a C-ordered tensor
        monkeypatch.setattr(lrtc.shrinkage, "GRAM_RCOND", rcond)
        rng = np.random.default_rng(25)
        dims = (6, 5, 12)
        z = rng.standard_normal(dims)
        f = unfold(z, 2)
        assert np.isfortran(f)
        out = truncated_svt(f, 2, 0.5)
        assert np.isfortran(out)
        x = fold(out, 2, dims)
        assert x.flags.c_contiguous
        expected = fold(truncated_svt(np.ascontiguousarray(f), 2, 0.5), 2, dims)
        assert np.linalg.norm(x - expected) <= 1e-12 * np.linalg.norm(expected)
        for a in (z[0], z[0].T, np.ascontiguousarray(z[0].T)):
            assert np.isfortran(truncated_svt(a, 1, 0.5)) == np.isfortran(a)

    @pytest.mark.parametrize("shape", [(5, 8), (8, 5)])
    @pytest.mark.parametrize("trunc", [0, 1, 2])
    @pytest.mark.parametrize("tau", [0.1, 1.0])
    def test_singular_value_contract(self, shape, trunc, tau):
        rng = np.random.default_rng(18)
        z = rng.standard_normal(shape)
        sigma = np.linalg.svd(z, compute_uv=False)
        expected = sigma.copy()
        expected[trunc:] = np.maximum(sigma[trunc:] - tau, 0.0)
        out_sigma = np.linalg.svd(truncated_svt(z, trunc, tau), compute_uv=False)
        assert np.allclose(out_sigma, expected, atol=1e-8)

    def test_objective_local_optimality_sample(self):
        rng = np.random.default_rng(19)
        z = rng.standard_normal((4, 5))
        trunc, tau = 1, 0.5
        out = truncated_svt(z, trunc, tau)
        best = tnn_objective(out, z, trunc, tau)
        for _ in range(300):
            scale = 10.0 ** rng.uniform(-4, 0)
            candidate = out + scale * rng.standard_normal(z.shape)
            assert best <= tnn_objective(candidate, z, trunc, tau) + 1e-9
        for _ in range(100):
            candidate = rng.standard_normal(z.shape)
            assert best <= tnn_objective(candidate, z, trunc, tau) + 1e-9


class TestSvt:
    def test_diagonal_hand_case(self):
        assert np.allclose(svt(DIAG31, 1.0), np.diag([2.0, 0.0]), atol=1e-10)

    def test_zero_tau(self):
        rng = np.random.default_rng(20)
        z = rng.standard_normal((3, 7))
        assert np.allclose(svt(z, 0.0), z, atol=1e-10)

    def test_is_zero_truncation(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            z = rng.standard_normal((4, 6))
            assert np.array_equal(svt(z, 0.6), truncated_svt(z, 0, 0.6))


class TestWeightedSvt:
    def test_zero_weights_identity(self):
        rng = np.random.default_rng(22)
        z = rng.standard_normal((4, 5))
        assert np.allclose(weighted_svt(z, np.zeros(4), 1.0), z, atol=1e-10)

    def test_zero_weight_keeps_its_value_at_infinite_tau(self):
        z = np.diag([3.0, 2.0, 1.0, 0.5])
        top = np.diag([3.0, 0.0, 0.0, 0.0])
        assert np.allclose(weighted_svt(z, np.array([0.0, 1.0, 1.0, 1.0]), np.inf), top, atol=1e-12)
        assert np.allclose(truncated_svt(z, 1, np.inf), top, atol=1e-12)

    def test_diagonal_hand_case(self):
        out = weighted_svt(DIAG31, np.array([0.0, 1.0]), 1.0)
        assert np.allclose(out, np.diag([3.0, 0.0]), atol=1e-10)

    def test_order_constraint(self):
        with pytest.raises(ConfigError):
            weighted_svt(np.ones((3, 3)), np.array([1.0, 0.5, 2.0]), 1.0)
        with pytest.raises(ConfigError):
            weighted_svt(np.ones((3, 3)), np.array([-0.1, 0.5, 2.0]), 1.0)
        with pytest.raises(ConfigError):
            weighted_svt(np.ones((3, 3)), np.array([0.0, 1.0]), 1.0)
        for bad in (np.nan, np.inf):
            with pytest.raises(ConfigError):
                weighted_svt(np.ones((3, 3)), np.array([0.0, 1.0, bad]), 1.0)

    def test_special_case_coherence(self):
        rng = np.random.default_rng(24)
        for shape in ((4, 6), (6, 4)):
            z = rng.standard_normal(shape)
            tau = 0.9
            a = truncated_svt(z, 0, tau)
            b = svt(z, tau)
            c = weighted_svt(z, np.ones(min(shape)), tau)
            assert np.allclose(a, b, atol=1e-8)
            assert np.allclose(b, c, atol=1e-8)
