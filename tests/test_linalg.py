import math

import numpy as np
import pytest

from becc import linalg


I4 = np.eye(4)
I8 = np.eye(8)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])


def random_hermitian(rng, dim):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (m + m.conj().T) / 2


class TestPartialTranspose:
    def test_identity_invariant(self):
        assert np.array_equal(linalg.partial_transpose(I8, 3, [2, 2, 2]), I8)

    def test_basis_element_bookkeeping(self):
        # |000><111| transposed on party 1 becomes |100><011|
        m = np.zeros((8, 8))
        m[0b000, 0b111] = 1.0
        out = linalg.partial_transpose(m, 1, [2, 2, 2])
        expected = np.zeros((8, 8))
        expected[0b100, 0b011] = 1.0
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize("party", [1, 2, 3])
    def test_involution(self, party):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        twice = linalg.partial_transpose(
            linalg.partial_transpose(m, party, [2, 2, 2]), party, [2, 2, 2])
        assert np.array_equal(twice, m)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            linalg.partial_transpose(I4, 1, [2, 2, 2])

    def test_bad_party(self):
        with pytest.raises(ValueError):
            linalg.partial_transpose(I8, 4, [2, 2, 2])


class TestHermitianEigenvalues:
    def test_pauli_x(self):
        assert np.allclose(linalg.hermitian_eigenvalues(PAULI_X), [-1.0, 1.0])

    def test_reflection_observable_is_pm_one(self):
        c, s = math.cos(2 * math.pi / 9), math.sin(2 * math.pi / 9)
        a1 = np.array([[c, s], [s, -c]])
        assert np.allclose(linalg.hermitian_eigenvalues(a1), [-1.0, 1.0], atol=1e-12)

    def test_diagonal(self):
        d = np.diag([0.1, 0.2, 0.7])
        assert np.allclose(linalg.hermitian_eigenvalues(d), [0.1, 0.2, 0.7])

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            linalg.hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_permutation_similarity_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            m = random_hermitian(rng, 8)
            perm = rng.permutation(8)
            u = np.eye(8)[perm]
            e1 = linalg.hermitian_eigenvalues(m)
            e2 = linalg.hermitian_eigenvalues(u @ m @ u.conj().T)
            assert np.abs(e1 - e2).max() < 1e-9

    def test_eigenvalue_sum_equals_trace(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            m = random_hermitian(rng, 8)
            eigs = linalg.hermitian_eigenvalues(m)
            assert abs(eigs.sum() - np.trace(m).real) < 1e-9


class TestBasics:
    def test_outer_basis_ket(self):
        ket = np.zeros(8)
        ket[0] = 1.0
        proj = linalg.outer(linalg.normalize_ket(ket))
        expected = np.zeros((8, 8))
        expected[0, 0] = 1.0
        assert np.array_equal(proj, expected)

    def test_normalize_zero_vector(self):
        with pytest.raises(ValueError):
            linalg.normalize_ket(np.zeros(4))
