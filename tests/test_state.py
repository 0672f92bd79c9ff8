import itertools
import json

import numpy as np
import pytest

from becc import state
from becc.state import (
    MIXTURE_WEIGHTS,
    PURE_STATE_AMPLITUDES,
    build_vb_state,
    validate_state,
)


@pytest.fixture(scope="module")
def rho():
    return build_vb_state()


class TestTranscription:
    def test_pure_state_norms_near_one(self):
        for amps in PURE_STATE_AMPLITUDES:
            assert abs(np.linalg.norm(amps) - 1.0) < 1e-4

    def test_weights_sum_near_one(self):
        assert abs(sum(MIXTURE_WEIGHTS) - 1.0) < 1e-5


class TestBuild:
    def test_unit_trace(self, rho):
        assert abs(np.trace(rho) - 1.0) < 1e-9

    def test_deterministic(self, rho):
        assert np.array_equal(rho, build_vb_state())

    def test_real_symmetric(self, rho):
        # real amplitudes make rho exactly equal to its adjoint
        assert np.array_equal(rho, rho.conj().T)

    def test_000_diagonal_entry(self, rho):
        # independent two-term oracle from the tabulated constants:
        # only components 1 and 4 have support on |000>
        wsum = sum(MIXTURE_WEIGHTS)
        n1 = np.linalg.norm(PURE_STATE_AMPLITUDES[0])
        n4 = np.linalg.norm(PURE_STATE_AMPLITUDES[3])
        expected = (MIXTURE_WEIGHTS[0] / wsum) * (0.183013 / n1) ** 2 \
            + (MIXTURE_WEIGHTS[3] / wsum) * (0.933013 / n4) ** 2
        assert rho[0, 0] == pytest.approx(expected, abs=1e-12)
        assert rho[0, 0] == pytest.approx(0.34070, abs=1e-4)

    def test_positive_semidefinite(self, rho):
        assert np.linalg.eigvalsh(rho).min() >= -1e-6


PERMUTATIONS = list(itertools.permutations(range(3)))


def permutation_matrix(perm):
    """Oracle: the 8x8 0/1 matrix sending |b1 b2 b3> to the basis state
    whose slot j holds bit perm[j] of b (party 1 most significant)."""
    p = np.zeros((8, 8))
    for b in range(8):
        bits = [(b >> (2 - k)) & 1 for k in range(3)]
        p[4 * bits[perm[0]] + 2 * bits[perm[1]] + bits[perm[2]], b] = 1.0
    return p


def matrix_symmetry_deviation(rho):
    return max(float(np.abs(p @ rho @ p.T - rho).max())
               for p in map(permutation_matrix, PERMUTATIONS))


class TestPermutationOperator:
    """validate_state permutes the parties by reindexing axes; these tests
    check it against permutation matrices built bit by bit."""

    def test_identity(self):
        assert np.array_equal(permutation_matrix((0, 1, 2)), np.eye(8))

    def test_swap_first_two_on_basis_state(self):
        # swap(1,2) sends |011> (index 3) to |101> (index 5)
        vec = np.zeros(8)
        vec[0b011] = 1.0
        out = permutation_matrix((1, 0, 2)) @ vec
        assert out[0b101] == 1.0 and out.sum() == 1.0

    @pytest.mark.parametrize("perm", PERMUTATIONS)
    def test_unitary(self, perm):
        p = permutation_matrix(perm)
        assert np.array_equal(p @ p.T, np.eye(8))

    @pytest.mark.parametrize("perm", PERMUTATIONS)
    def test_state_symmetric(self, rho, perm):
        # the reported deviation is the largest over all six permutations
        p = permutation_matrix(perm)
        dev = np.abs(p @ rho @ p.T - rho).max()
        assert dev <= validate_state(rho).permutation_symmetry_deviation <= 1e-5

    def test_built_in_state_matches_oracle(self, rho):
        dev = validate_state(rho).permutation_symmetry_deviation
        assert dev == matrix_symmetry_deviation(rho)

    def test_ginibre_state_matches_oracle(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        m = a @ a.conj().T
        m = m / np.trace(m).real
        dev = validate_state(m).permutation_symmetry_deviation
        assert dev == matrix_symmetry_deviation(m)
        assert dev > 1e-3  # a random state is not party-symmetric

    def test_non_symmetric_product_state(self):
        # |001><001|: swapping parties 2 and 3 moves the weight to |010>
        m = np.zeros((8, 8))
        m[0b001, 0b001] = 1.0
        assert validate_state(m).permutation_symmetry_deviation == 1.0


class TestValidate:
    def test_built_in_state_certificates(self, rho):
        report = validate_state(rho)
        assert report.trace_deviation <= 1e-9
        assert report.hermiticity_deviation == 0.0
        assert report.min_eigenvalue >= -1e-6
        assert report.permutation_symmetry_deviation <= 1e-5
        assert report.pt_invariance_deviation <= 1e-6
        assert all(e >= -1e-6 for e in report.pt_min_eigenvalues)

    def test_maximally_mixed(self):
        report = validate_state(np.eye(8) / 8)
        assert report.trace_deviation <= 1e-12
        assert report.hermiticity_deviation <= 1e-12
        assert report.permutation_symmetry_deviation <= 1e-12
        assert report.pt_invariance_deviation <= 1e-12
        assert report.min_eigenvalue == pytest.approx(0.125, abs=1e-12)

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            validate_state(np.eye(4))

    def test_report_dict_roundtrips_json(self, rho):
        d = validate_state(rho).to_dict()
        assert json.loads(json.dumps(d)) == json.loads(json.dumps(d))


class TestSerialization:
    def test_json_roundtrip(self, rho):
        # the dump is lossless: its [re, im] pairs rebuild rho exactly
        doc = json.loads(state.state_to_json(rho))
        back = np.array([complex(re, im) for re, im in doc["entries"]])
        assert np.array_equal(back.reshape(doc["dim"], doc["dim"]), rho)

    def test_row_major_pairs(self, rho):
        doc = json.loads(state.state_to_json(rho))
        assert doc["dim"] == 8
        assert len(doc["entries"]) == 64
        assert doc["entries"][0] == [pytest.approx(rho[0, 0]), 0.0]
