import numpy as np
import pytest

from entdisc import smallmat

X = np.array([[0, 1], [1, 0]], dtype=complex)


def eigenvalues(h):
    return smallmat.hermitian_eigensystem(h)[0]


def norm1(h):
    """Sum of absolute eigenvalues, as the oracle reads a trace norm off
    the eigensystem."""
    return float(np.sum(np.abs(eigenvalues(h))))


def _random_hermitian(rng, dim):
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (x + x.conj().T)


class TestEigenvalues:
    def test_diagonal(self):
        np.testing.assert_allclose(
            eigenvalues(np.diag([1.0, -1.0])), [-1, 1]
        )

    def test_pauli_x(self):
        np.testing.assert_allclose(eigenvalues(X), [-1, 1])

    def test_schmidt_block_spectrum(self):
        # 4x4 output difference block for the balanced Schmidt probe with
        # (alpha, beta, gamma1) = (0, -1, -1): nonzero spectrum (-1 +- sqrt5)/4
        m = np.zeros((4, 4), dtype=complex)
        m[0, 3] = m[3, 0] = -0.5
        m[3, 3] = -0.5
        vals = eigenvalues(m)
        expected = sorted([(-1 - 5**0.5) / 4, 0.0, 0.0, (-1 + 5**0.5) / 4])
        np.testing.assert_allclose(vals, expected, atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            eigenvalues(np.array([[0, 1], [0, 0]]))

    @pytest.mark.parametrize("dim", [2, 4])
    @pytest.mark.parametrize("entry", [(0, 0), (0, 1), (1, 1)])
    def test_rejects_nan(self, dim, entry):
        h = np.eye(dim, dtype=complex)
        h[entry] = np.nan
        with pytest.raises(ValueError, match="max deviation nan"):
            eigenvalues(h)

    @pytest.mark.parametrize("shape", [(4,), (2, 4), (3, 3), (8, 8), (2, 2, 2)])
    def test_rejects_other_shapes(self, shape):
        with pytest.raises(ValueError, match="shape|dimensions"):
            eigenvalues(np.zeros(shape))

    def test_ascending_with_multiplicity(self):
        rng = np.random.default_rng(11)
        for dim in (2, 4):
            for _ in range(200):
                vals = eigenvalues(_random_hermitian(rng, dim))
                assert np.all(np.diff(vals) >= -1e-14)

    def test_trace_equals_eigenvalue_sum(self):
        rng = np.random.default_rng(12)
        for dim in (2, 4):
            for _ in range(200):
                h = _random_hermitian(rng, dim)
                vals = eigenvalues(h)
                assert abs(np.sum(vals) - np.trace(h).real) < 1e-10

    def test_unitary_conjugation_invariance(self):
        # U = exp(iG) built from the eigensystem of a Hermitian generator
        rng = np.random.default_rng(13)
        for dim in (2, 4):
            for _ in range(60):
                h = _random_hermitian(rng, dim)
                g = _random_hermitian(rng, dim)
                gv, gw = smallmat.hermitian_eigensystem(g)
                u = gw @ np.diag(np.exp(1j * gv)) @ gw.conj().T
                conj = u @ h @ u.conj().T
                before = eigenvalues(h)
                after = eigenvalues(conj)
                assert np.max(np.abs(before - after)) < 1e-10

    def test_eigensystem_residual(self):
        rng = np.random.default_rng(14)
        for dim in (2, 4):
            for _ in range(100):
                h = _random_hermitian(rng, dim)
                vals, vecs = smallmat.hermitian_eigensystem(h)
                assert np.max(np.abs(h @ vecs - vecs * vals[None, :])) < 1e-11
                assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(dim))) < 1e-11


class TestTraceNorm:
    def test_zero(self):
        assert norm1(np.zeros((2, 2))) == 0.0

    def test_diagonal(self):
        assert norm1(np.diag([1.0, -1.0])) == pytest.approx(2.0)

    def test_schmidt_block(self):
        m = np.zeros((4, 4), dtype=complex)
        m[0, 3] = m[3, 0] = -0.5
        m[3, 3] = -0.5
        assert norm1(m) == pytest.approx(5**0.5 / 2, abs=1e-12)

    def test_dominates_trace(self):
        rng = np.random.default_rng(15)
        for dim in (2, 4):
            for _ in range(200):
                h = _random_hermitian(rng, dim)
                assert norm1(h) >= abs(np.trace(h).real) - 1e-12
