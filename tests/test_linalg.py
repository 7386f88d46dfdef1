import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from vertexwalk.errors import DependentNormals, ShapeMismatch, SingularMatrix
from vertexwalk.linalg import (
    factorize,
    near_singular,
    norm,
    nullspace_basis,
    project_nullspace,
    rank_extends,
    rcond,
    solve,
    solve_dense,
)
from vertexwalk.prng import SplitMix64


class TestFactorizeSolve:
    def test_identity_roundtrip(self):
        f = factorize(np.eye(3))
        b = np.array([1.0, -2.0, 0.5])
        assert_allclose(solve(f, b), b)

    def test_diagonal(self):
        f = factorize(np.array([[2.0, 0.0], [0.0, 4.0]]))
        assert_allclose(solve(f, np.array([2.0, 8.0])), [1.0, 2.0])

    def test_back_substitution(self):
        f = factorize(np.array([[1.0, 1.0], [0.0, 1.0]]))
        assert_allclose(solve(f, np.array([3.0, 1.0])), [2.0, 1.0])

    def test_random_residual(self):
        rng = SplitMix64(1)
        a = rng.uniform_block(25 * 25, -1, 1).reshape(25, 25)
        b = rng.uniform_block(25, -1, 1)
        x = solve(factorize(a), b)
        assert np.linalg.norm(a @ x - b) <= 1e-10 * (1 + np.linalg.norm(b))

    def test_transpose_solve(self):
        rng = SplitMix64(2)
        a = rng.uniform_block(16, -1, 1).reshape(4, 4)
        b = rng.uniform_block(4, -1, 1)
        x = solve(factorize(a), b, transpose=True)
        assert np.linalg.norm(a.T @ x - b) <= 1e-10 * (1 + np.linalg.norm(b))

    def test_no_rhs_gives_inverse_transpose(self):
        rng = SplitMix64(3)
        a = rng.uniform_block(25 * 25, -1, 1).reshape(25, 25)
        f = factorize(a)
        inv_t = solve(f, None, transpose=True)
        assert_allclose(inv_t, solve(f, np.eye(25), transpose=True), atol=1e-12)
        assert_allclose(a.T @ inv_t, np.eye(25), atol=1e-10)
        with pytest.raises(ValueError):
            solve(f, None)

    def test_singular_raises(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(SingularMatrix):
            factorize(a)

    def test_condition_estimate(self):
        a = np.diag([1.0, 1e-6])
        f = factorize(a)
        assert 1.0 / rcond(f, a) == pytest.approx(1e6, rel=0.1)
        assert not near_singular(f, a)
        # Unit pivots pass factorize's rule, yet the condition number of
        # this triangular matrix grows like 2^n.
        a = np.eye(60) - np.triu(np.ones((60, 60)), 1)
        f = factorize(a)
        assert near_singular(f, a)

    def test_non_square_rejected(self):
        with pytest.raises(ShapeMismatch):
            factorize(np.ones((2, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_rejected(self, bad):
        # The finiteness check is folded into the scale, the largest |a_ij|.
        for where in [(0, 0), (1, 2), (2, 1)]:
            a = np.eye(3)
            a[where] = bad
            with pytest.raises(ShapeMismatch, match="^matrix entries must be finite$"):
                factorize(a)

    def test_zero_and_tiny_pivots_raise(self):
        with pytest.raises(SingularMatrix, match=r"^numerical rank below 2 \(min pivot 0\.000e\+00\)$"):
            factorize(np.zeros((2, 2)))
        with pytest.raises(SingularMatrix, match="^numerical rank below 3 "):
            factorize(np.diag([1.0, 1e-13, 1.0]))
        factorize(np.diag([1.0, 1e-11, 1.0]))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32), n=st.integers(2, 30))
    def test_solve_residual_property(self, seed, n):
        rng = SplitMix64(seed)
        a = rng.uniform_block(n * n, -1, 1).reshape(n, n) + 2 * np.eye(n)
        b = rng.uniform_block(n, -5, 5)
        x = solve(factorize(a), b)
        assert np.linalg.norm(a @ x - b) <= 1e-10 * (1 + np.linalg.norm(b))


def _bits(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(x).view(np.uint64)


@pytest.mark.blas_bits
class TestGesvBits:
    """solve_dense calls LAPACK gesv, as np.linalg.solve does, and must give
    its bits: the walk's Woodbury solves (k = 1 to 3 near-identity systems)
    were made with np.linalg.solve."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_near_identity_systems(self, k):
        rng = SplitMix64(40 + k)
        for _ in range(500):
            a = np.eye(k) + 1e-6 * rng.uniform_block(k * k, -1, 1).reshape(k, k)
            b = rng.uniform_block(k, -3, 3)
            got = solve_dense(a, b)
            assert got.shape == (k,)
            assert np.array_equal(_bits(got), _bits(np.linalg.solve(a, b)))

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_general_systems(self, k):
        rng = SplitMix64(50 + k)
        for _ in range(100):
            a = rng.uniform_block(k * k, -1, 1).reshape(k, k)
            b = rng.uniform_block(k, -1, 1)
            assert np.array_equal(_bits(solve_dense(a, b)), _bits(np.linalg.solve(a, b)))

    def test_transposed_operand(self):
        # The walk solves with M^T B, a product; a transposed view must
        # give the same bits as its contiguous copy.
        rng = SplitMix64(60)
        a = np.eye(2) + 1e-3 * rng.uniform_block(4, -1, 1).reshape(2, 2)
        b = rng.uniform_block(2, -1, 1)
        assert np.array_equal(_bits(solve_dense(a.T, b)), _bits(np.linalg.solve(a.T, b)))

    def test_singular_system_raises_linalg_error(self):
        with pytest.raises(np.linalg.LinAlgError):
            solve_dense(np.zeros((2, 2)), np.ones(2))
        with pytest.raises(np.linalg.LinAlgError):
            solve_dense(np.array([[1.0, 2.0], [2.0, 4.0]]), np.ones(2))


@pytest.mark.blas_bits
class TestNormBits:
    """norm is np.linalg.norm's sqrt(x . x) for a contiguous vector, bit
    for bit."""

    @pytest.mark.parametrize("n", [1, 2, 7, 25, 100, 1001])
    def test_matches_numpy(self, n):
        rng = SplitMix64(70 + n)
        for scale in (1e-200, 1e-3, 1.0, 1e3, 1e150):
            for _ in range(50):
                x = scale * rng.uniform_block(n, -1, 1)
                want = np.linalg.norm(x)
                got = norm(x)
                assert type(got) is float
                assert np.array_equal(_bits(np.float64(got)), _bits(want))

    def test_zero_and_non_finite(self):
        assert norm(np.zeros(3)) == 0.0
        assert norm(np.array([np.inf, 1.0])) == np.inf
        assert np.isnan(norm(np.array([np.nan, 1.0])))


class TestRankExtends:
    def test_new_axis(self):
        e1 = np.array([1.0, 0.0])
        e2 = np.array([0.0, 1.0])
        assert rank_extends([e1], e2, 1e-10)

    def test_scaled_copy(self):
        e1 = np.array([1.0, 0.0])
        assert not rank_extends([e1], 2 * e1, 1e-10)

    def test_in_span_of_orthonormal_basis(self):
        rng = SplitMix64(3)
        m = rng.uniform_block(25 * 24, -1, 1).reshape(25, 24)
        q, _ = np.linalg.qr(m)
        basis = [q[:, j] for j in range(24)]
        coeffs = rng.uniform_block(24, -2, 2)
        candidate = sum(c * v for c, v in zip(coeffs, basis))
        assert not rank_extends(basis, candidate, 1e-10)

    def test_empty_basis(self):
        assert rank_extends([], np.array([1.0, 0.0]), 1e-10)
        assert not rank_extends([], np.zeros(2), 1e-10)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32), n=st.integers(3, 20))
    def test_explicit_combination_never_extends(self, seed, n):
        rng = SplitMix64(seed)
        k = max(1, n // 2)
        m = rng.uniform_block(n * k, -1, 1).reshape(n, k)
        q, _ = np.linalg.qr(m)
        basis = [q[:, j] for j in range(k)]
        coeffs = rng.uniform_block(k, -3, 3)
        candidate = sum(c * v for c, v in zip(coeffs, basis))
        assert not rank_extends(basis, candidate, 1e-10)


class TestProjectNullspace:
    def test_single_axis(self):
        out = project_nullspace([np.array([1.0, 0.0])], np.array([3.0, 4.0]))
        assert_allclose(out, [0.0, 4.0])

    def test_empty_normals(self):
        g = np.array([1.0, 2.0, 3.0])
        assert_allclose(project_nullspace([], g), g)

    def test_random_orthogonality(self):
        rng = SplitMix64(4)
        normals = [rng.uniform_block(10, -1, 1) for _ in range(4)]
        g = rng.uniform_block(10, -1, 1)
        out = project_nullspace(normals, g)
        for nvec in normals:
            assert abs(out @ nvec) <= 1e-10 * np.linalg.norm(g) * np.linalg.norm(nvec)

    def test_dependent_normals_raise(self):
        n1 = np.array([1.0, 1.0, 0.0])
        with pytest.raises(DependentNormals):
            project_nullspace([n1, 2 * n1], np.ones(3))


class TestNullspaceBasis:
    def test_complements_normals(self):
        rng = SplitMix64(5)
        normals = [rng.uniform_block(6, -1, 1) for _ in range(2)]
        z = nullspace_basis(normals, 6)
        assert z.shape == (6, 4)
        for j in range(z.shape[1]):
            for nvec in normals:
                assert abs(z[:, j] @ nvec) < 1e-10 * np.linalg.norm(nvec)
        assert_allclose(z.T @ z, np.eye(4), atol=1e-12)

    def test_empty_gives_identity(self):
        assert_allclose(nullspace_basis([], 3), np.eye(3))
