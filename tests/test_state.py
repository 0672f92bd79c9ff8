import functools
import itertools
import json
import re

import numpy as np
import pytest

from becc import state
from becc.state import (
    MIXTURE_WEIGHTS,
    PURE_STATE_AMPLITUDES,
    build_vb_state,
    validate_state,
)
from conftest import exact


class TestTranscription:
    def test_pure_state_norms_near_one(self):
        for amps in PURE_STATE_AMPLITUDES:
            assert abs(np.linalg.norm(amps) - 1.0) < 1e-5

    def test_weights_sum_near_one(self):
        assert abs(sum(MIXTURE_WEIGHTS) - 1.0) < 1e-5

    def test_mistyped_amplitude_rejected(self, monkeypatch):
        amplitudes = list(PURE_STATE_AMPLITUDES)
        amplitudes[1] = (0.5,) + amplitudes[1][1:]  # norm sqrt(1.25)
        monkeypatch.setattr(state, "PURE_STATE_AMPLITUDES", tuple(amplitudes))
        with pytest.raises(AssertionError, match="pure state 2 has norm 1.118"):
            build_vb_state()

    def test_one_digit_amplitude_slip_rejected(self, monkeypatch):
        # 0.183013 -> 0.183113 moves the norm by 1.8e-5: beyond TRANSCRIPTION,
        # while the printing alone moves a norm by at most 1.4e-6
        amplitudes = list(PURE_STATE_AMPLITUDES)
        amplitudes[0] = (0.183113,) + amplitudes[0][1:]
        monkeypatch.setattr(state, "PURE_STATE_AMPLITUDES", tuple(amplitudes))
        with pytest.raises(AssertionError, match="pure state 1 has norm 1.00001"):
            build_vb_state()

    def test_downward_amplitude_slip_rejected(self, monkeypatch):
        # the gate is two-sided: 0.183013 -> 0.182913 moves the norm down by 1.8e-5
        amplitudes = list(PURE_STATE_AMPLITUDES)
        amplitudes[0] = (0.182913,) + amplitudes[0][1:]
        monkeypatch.setattr(state, "PURE_STATE_AMPLITUDES", tuple(amplitudes))
        with pytest.raises(AssertionError, match=re.escape("pure state 1 has norm 0.99998")):
            build_vb_state()

    def test_mistyped_weight_rejected(self, monkeypatch):
        monkeypatch.setattr(state, "MIXTURE_WEIGHTS", (0.1, 0.2, 0.3, 0.5))
        with pytest.raises(AssertionError, match="mixture weights sum to 1.1"):
            build_vb_state()

    def test_weights_summing_below_one_rejected(self, monkeypatch):
        # one digit slipped down, 0.388929 -> 0.388909: the sum is 0.9999809
        monkeypatch.setattr(state, "MIXTURE_WEIGHTS", (0.0636039, 0.273734, 0.273734, 0.388909))
        with pytest.raises(AssertionError, match=re.escape("mixture weights sum to 0.99998")):
            build_vb_state()


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

    def test_smolin_state_tells_the_cut_kinds_apart(self):
        # (I + X^4 + Y^4 + Z^4) / 16 (Smolin, PRA 63, 032306 (2001)): only Y^T = -Y,
        # so a partial transpose on one party flips Y^4's sign and has eigenvalue
        # -1/8, while one on two parties keeps rho, which is separable on every 2|2 cut
        paulis = [np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1])]
        rho = (np.eye(16) + sum(functools.reduce(np.kron, [p] * 4) for p in paulis)) / 16
        report = validate_state(rho)
        # the four 1|3 cuts, then the three 2|2 cuts
        assert report.pt_min_eigenvalues == pytest.approx([-0.125] * 4 + [0.0] * 3, abs=1e-12)
        assert report.pt_invariance_deviation == pytest.approx(0.125, abs=1e-12)
        assert report.permutation_symmetry_deviation == 0.0
        assert report.min_eigenvalue == pytest.approx(0.0, abs=1e-12)
        assert not report.certified  # -1/8 on the 1|3 cuts

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_maximally_mixed_state_is_certified(self, n):
        # PPT and party-symmetric, yet separable: the verdict certifies no entanglement
        report = validate_state(np.eye(2 ** n) / 2 ** n)
        assert report.pt_min_eigenvalues == (2.0 ** -n,) * (2 ** (n - 1) - 1)
        assert report.certified

    def test_nested_list_gives_the_array_report(self, rho):
        assert validate_state(rho.tolist()) == validate_state(rho)

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            validate_state(np.eye(6))

    @pytest.mark.parametrize("m", [
        exact(np.eye(4, dtype=int)) / 4,
        np.full((4, 4), "0"),
    ], ids=["exact-I/4", "string"])
    def test_non_numeric_matrix_rejected(self, m):
        # np.isfinite raised "TypeError: ufunc 'isfinite' not supported"
        message = f"expected a numeric matrix, got dtype {m.dtype}"
        for call in (validate_state, state.hermiticity_deviation):
            with pytest.raises(ValueError, match=message):
                call(m)

    def test_deviation_is_measured_within_the_gate_and_rejected_above_it(self):
        m = np.array([[0.0, 1.0 + 1e-10], [1.0, 0.0]])
        assert state.hermiticity_deviation(m) == abs(m[0, 1] - m[1, 0])
        with pytest.raises(ValueError, match="not Hermitian"):
            state.hermiticity_deviation(np.array([[0.0, 1.0 + 1e-8], [1.0, 0.0]]))

    def test_report_dict_roundtrips_json(self, rho):
        d = validate_state(rho).to_dict()
        assert json.loads(json.dumps(d)) == {
            **d, "pt_min_eigenvalues": list(d["pt_min_eigenvalues"])}


class TestSerialization:
    def test_json_roundtrip(self, rho):
        # the dump is lossless: its [re, im] pairs rebuild rho exactly
        doc = json.loads(state.state_to_json(rho))
        back = np.array([complex(re, im) for re, im in doc["entries"]])
        assert np.array_equal(back.reshape(doc["dim"], doc["dim"]), rho)

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    def test_non_finite_entry_raises(self, rho, entry):
        # json.dumps wrote NaN and Infinity, which no JSON parser has to read
        bad = rho.astype(complex)
        bad[2, 5] = entry
        with pytest.raises(ValueError, match="not JSON compliant"):
            state.state_to_json(bad)

    def test_row_major_pairs(self, rho):
        doc = json.loads(state.state_to_json(rho))
        assert doc["dim"] == 8
        assert len(doc["entries"]) == 64
        assert doc["entries"][0] == [pytest.approx(rho[0, 0]), 0.0]
