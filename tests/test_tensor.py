import numpy as np
import pytest

from sparsetn.tensor import (
    symmetric_factor,
    tensor_from_json,
    tensor_to_json,
)


class TestSymmetricFactor:
    def test_identity(self):
        a = symmetric_factor(np.eye(2))
        np.testing.assert_allclose(a @ a.T, np.eye(2), atol=1e-12)

    def test_indefinite_hadamard_like(self):
        m = np.array([[1.0, 1.0], [1.0, -1.0]])
        a = symmetric_factor(m)
        np.testing.assert_allclose(a @ a.T, m, atol=1e-10)

    def test_ising_edge_matrix(self):
        k = 0.5 * 0.8  # beta j / 2 at beta = 0.8, j = 1
        m = np.array([[np.exp(k), np.exp(-k)], [np.exp(-k), np.exp(k)]])
        a = symmetric_factor(m)
        np.testing.assert_allclose(a @ a.T, m, atol=1e-10)
        np.testing.assert_allclose((a @ a.T)[0, 0], np.exp(0.4), atol=1e-12)
        np.testing.assert_allclose((a @ a.T)[0, 1], np.exp(-0.4), atol=1e-12)

    def test_random_real_symmetric(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            m = rng.standard_normal((4, 4))
            m = m + m.T
            a = symmetric_factor(m)
            np.testing.assert_allclose(a @ a.T, m, atol=1e-10)

    def test_complex_symmetric(self):
        rng = np.random.default_rng(4)
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        m = m + m.T
        a = symmetric_factor(m)
        np.testing.assert_allclose(a @ a.T, m, atol=1e-9)

    def test_rejects_non_symmetric(self):
        with pytest.raises(ValueError):
            symmetric_factor(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestSerialization:
    def test_round_trip(self):
        rng = np.random.default_rng(5)
        t = rng.standard_normal((2, 3, 2)) + 1j * rng.standard_normal((2, 3, 2))
        back = tensor_from_json(tensor_to_json(t))
        assert back.shape == t.shape
        np.testing.assert_array_equal(back, t)

    def test_row_major_linearization(self):
        t = np.arange(6, dtype=complex).reshape(2, 3)
        data = tensor_to_json(t)
        assert data["shape"] == [2, 3]
        assert data["re"] == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]


@pytest.mark.parametrize("m", [np.ones((2, 3)), np.ones(3)], ids=["rectangular", "vector"])
def test_symmetric_factor_rejects_non_square_input(m):
    with pytest.raises(ValueError, match="^symmetric_factor expects a square matrix$"):
        symmetric_factor(m)


# Nilpotent complex symmetric matrices: no square root, but a Takagi factor. [[1, i], [i, -1]] = v v^T for v = (1, i)
# squares to zero; the 3x3 one cubes to zero, and numpy's eig returns an exactly singular eigenvector matrix for it.
DEFECTIVE = {
    "nilpotent": np.array([[1.0, 1.0j], [1.0j, -1.0]]),
    "singular-eigenvectors": np.array([[0, -1 + 1j, 1 + 1j], [-1 + 1j, -1 - 1j, -1 + 1j], [1 + 1j, -1 + 1j, 1 + 1j]]),
}


@pytest.mark.parametrize("name", DEFECTIVE)
def test_symmetric_factor_of_defective_matrices(name):
    m = DEFECTIVE[name]
    a = symmetric_factor(m)
    np.testing.assert_allclose(a @ a.T, m, atol=1e-12)
