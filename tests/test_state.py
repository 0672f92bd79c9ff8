import json

import numpy as np
import pytest

from becc import state
from becc.state import (
    MIXTURE_WEIGHTS,
    PURE_STATE_AMPLITUDES,
    build_vb_state,
    permutation_operator,
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


class TestPermutationOperator:
    def test_identity(self):
        assert np.array_equal(permutation_operator((1, 2, 3)), np.eye(8))

    def test_swap_first_two_on_basis_state(self):
        # swap(1,2) sends |011> (index 3) to |101> (index 5)
        p = permutation_operator((2, 1, 3))
        vec = np.zeros(8)
        vec[0b011] = 1.0
        out = p @ vec
        assert out[0b101] == 1.0 and out.sum() == 1.0

    @pytest.mark.parametrize("perm", state.all_party_permutations())
    def test_unitary(self, perm):
        p = permutation_operator(perm)
        assert np.array_equal(p @ p.T, np.eye(8))

    @pytest.mark.parametrize("perm", state.all_party_permutations())
    def test_state_symmetric(self, rho, perm):
        p = permutation_operator(perm)
        assert np.abs(p @ rho @ p.T - rho).max() <= 1e-5

    def test_invalid_permutation(self):
        with pytest.raises(ValueError):
            permutation_operator((1, 1, 3))


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
        text = state.state_to_json(rho)
        back = state.state_from_json(text)
        assert np.array_equal(back, rho.astype(complex))

    @pytest.mark.parametrize("change,match", [
        (lambda doc: doc["entries"].pop(), "square"),
        (lambda doc: doc.update(dim=4), "dim"),
        (lambda doc: doc["entries"][9].__setitem__(0, float("nan")), "non-finite"),
        (lambda doc: doc["entries"][1].__setitem__(0, 0.5), "not Hermitian"),
    ], ids=["non_square", "wrong_dim", "non_finite", "non_hermitian"])
    def test_rejects_bad_document(self, rho, change, match):
        doc = json.loads(state.state_to_json(rho))
        change(doc)
        with pytest.raises(ValueError, match=match):
            state.state_from_json(json.dumps(doc))

    def test_row_major_pairs(self, rho):
        doc = json.loads(state.state_to_json(rho))
        assert doc["dim"] == 8
        assert len(doc["entries"]) == 64
        assert doc["entries"][0] == [pytest.approx(rho[0, 0]), 0.0]
