import itertools
import json
import math

import numpy as np
import pytest

from becc import bell, simulate, state
from becc.bell import (
    Inequality,
    classical_extrema,
    correlation,
    g_coefficient,
    general_quantum_value,
    homogenize,
    measurement_observables,
    quantum_value,
    sliwa5,
)
from becc.cli import main


@pytest.fixture(scope="module")
def rho():
    return state.build_vb_state()


@pytest.fixture(scope="module")
def obs():
    return measurement_observables()


@pytest.fixture(scope="module")
def hom():
    return homogenize(sliwa5())


class TestSymmetrize:
    """sliwa5 puts each base term on every permutation of its settings."""

    def test_two_party_term(self):
        g = sliwa5().g
        for x in itertools.permutations((1, 2, 0)):
            assert g[x] == 1

    def test_fully_symmetric_term(self):
        g = sliwa5().g
        assert g[1, 1, 1] == -1 and g[2, 2, 2] == 1

    def test_single_party_term(self):
        g = sliwa5().g
        assert g[1, 0, 0] == g[0, 1, 0] == g[0, 0, 1] == 1


class TestSliwa5:
    def test_bounds(self):
        ineq = sliwa5()
        assert ineq.lower_bound == -13
        assert ineq.upper_bound == 3

    def test_term_count(self):
        # orbit sizes 3 + 6 + 3 + 1 + 3 + 1
        assert sliwa5().g.shape == (3, 3, 3)
        assert np.count_nonzero(sliwa5().g) == 17

    def test_invariant_under_party_permutations(self):
        g = sliwa5().g
        for perm in itertools.permutations(range(3)):
            assert np.array_equal(np.transpose(g, perm), g)


class TestInequality:
    @pytest.mark.parametrize("shape", [(3, 3), (3, 3, 2), (2, 2, 2, 2)])
    def test_rejects_non_cube(self, shape):
        with pytest.raises(ValueError, match="cube"):
            Inequality(np.ones(shape), -1, 1)

    def test_rejects_all_zero_table(self):
        with pytest.raises(ValueError, match="all-zero"):
            Inequality(np.zeros((2, 2, 2)), -1, 1)

    def test_rejects_crossed_bounds(self):
        with pytest.raises(ValueError, match="exceeds"):
            Inequality(np.ones((2, 2, 2)), 1, -1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_coefficient(self, bad):
        # without the check NaN gave extrema (inf, -inf), inf gave (-inf, inf)
        g = np.zeros((3, 3, 3))
        g[1, 1, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            Inequality(g, -1, 1)

    @pytest.mark.parametrize("lower,upper", [
        (math.nan, 1), (-1, math.nan), (-math.inf, 1), (-1, math.inf)])
    def test_rejects_non_finite_bound(self, lower, upper):
        with pytest.raises(ValueError, match="finite"):
            Inequality(np.ones((2, 2, 2)), lower, upper)

    def test_rejects_complex_table(self):
        # numpy dropped the imaginary part with only a ComplexWarning
        g = np.ones((2, 2, 2), dtype=complex)
        g[1, 1, 1] = 1 + 1e-3j
        with pytest.raises(ValueError, match="imaginary"):
            Inequality(g, -8, 8)

    def test_accepts_complex_table_with_zero_imaginary_part(self):
        ineq = Inequality(np.ones((2, 2, 2)) + 0j, -8, 8)
        assert ineq.g.dtype == float and np.array_equal(ineq.g, np.ones((2, 2, 2)))


class TestHomogenize:
    def test_bound(self, hom):
        assert (hom.lower_bound, hom.upper_bound) == (-8, 8)

    def test_constant_becomes_identity_coefficient(self, hom):
        assert hom.g[0, 0, 0] == 5

    def test_lower_order_term_padded_with_zero(self, hom):
        assert hom.g.shape == (4, 4, 4)
        assert hom.g[1, 0, 0] == 1
        assert not np.any(hom.g[3]) and not np.any(hom.g[:, 3]) and not np.any(hom.g[:, :, 3])

    def test_keeps_every_other_entry(self):
        original = sliwa5()
        shifted = homogenize(original).g[:3, :3, :3].copy()
        assert original.g[0, 0, 0] == 0  # the input is not modified
        shifted[0, 0, 0] = 0
        assert np.array_equal(shifted, original.g)

    def test_sum_abs(self, hom):
        assert hom.sum_abs() == 22

    def test_json_roundtrip(self, hom, capsys):
        # n and settings are read from g's shape; g and the bound rebuild
        # the inequality
        assert main(["bell", "coefficients"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["n"], doc["settings"]) == (3, 4)
        back = Inequality(np.array(doc["g"]), -doc["bound"], doc["bound"])
        assert np.array_equal(back.g, hom.g)
        assert (back.lower_bound, back.upper_bound) == (hom.lower_bound, hom.upper_bound)


class TestGCoefficient:
    def test_matches_homogenization_on_all_64_tuples(self, hom):
        for x in itertools.product(range(4), repeat=3):
            assert g_coefficient(*x) == hom.g[x]

    @pytest.mark.parametrize("x,expected", [
        ((0, 0, 0), 5), ((1, 1, 1), -1), ((0, 1, 1), 0), ((1, 2, 0), 1),
        ((2, 2, 0), -1), ((2, 2, 2), 1),
    ])
    def test_selected_values(self, x, expected):
        assert g_coefficient(*x) == expected

    def test_setting_three_annihilates(self):
        for x, y in itertools.product(range(4), repeat=2):
            assert g_coefficient(3, x, y) == 0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            g_coefficient(4, 0, 0)


class TestClassicalExtrema:
    def test_original_bounds(self):
        lo, hi, _ = classical_extrema(sliwa5())
        assert (lo, hi) == (-13, 3)

    def test_homogenized_bounds(self, hom):
        lo, hi, _ = classical_extrema(hom)
        assert (lo, hi) == (-8, 8)

    def test_sign_symmetric_for_full_correlation(self, hom):
        lo, hi, _ = classical_extrema(hom)
        assert lo == -hi

    def test_single_term_inequality(self):
        g = np.zeros((4, 4, 4))
        g[1, 1, 1] = 1.0
        lo, hi, _ = classical_extrema(Inequality(g, -1, 1))
        assert (lo, hi) == (-1, 1)

    def test_settings_come_from_g(self):
        # every non-identity setting of g is free: one term on setting 2
        # reaches both -1 and +1
        g = np.zeros((4, 4, 4))
        g[2, 2, 2] = -1.0
        lo, hi, _ = classical_extrema(Inequality(g, -1, 1))
        assert (lo, hi) == (-1, 1)

    def test_all_ones_strategy_attains_bound(self, hom):
        # sum of the 17 coefficients: 5 + 3 + 6 - 3 - 1 - 3 + 1 = 8
        _, hi, argmax = classical_extrema(hom)
        assert hi == float(hom.g.sum()) == 8
        # lexicographic tie-break picks the all-ones strategy (encoding 0)
        assert all(v == 1 for row in argmax.a for v in row)

    def test_strategy_space_guard(self):
        # 10 settings per party -> 27 free (party, setting) pairs -> 2^27 > guard
        g = np.zeros((10, 10, 10))
        g[9, 0, 0] = 1.0
        with pytest.raises(ValueError, match="too large"):
            classical_extrema(Inequality(g, -1, 1))


class TestObservables:
    def test_entries(self, obs):
        assert obs[0][1][0, 0] == pytest.approx(math.cos(2 * math.pi / 9), abs=1e-15)
        assert obs[0][1][0, 0] == pytest.approx(0.766044, abs=1e-6)
        assert obs[0][2][0, 1] == pytest.approx(-math.cos(math.pi / 18), abs=1e-15)
        assert obs[0][2][0, 1] == pytest.approx(-0.984808, abs=1e-6)

    def test_identity_setting(self, obs):
        for party in obs:
            assert np.array_equal(party[0], np.eye(2))

    @pytest.mark.parametrize("setting", [1, 2])
    def test_square_to_identity(self, obs, setting):
        for party in obs:
            o = party[setting]
            assert np.abs(o - o.conj().T).max() == 0.0
            assert np.abs(o @ o - np.eye(2)).max() < 1e-12


class TestCorrelation:
    def test_all_identity(self, rho, obs):
        assert correlation(rho, obs, (0, 0, 0)) == pytest.approx(1.0, abs=1e-9)

    def test_maximally_mixed_traceless(self, obs):
        assert correlation(np.eye(8) / 8, obs, (1, 1, 1)) == pytest.approx(0.0, abs=1e-12)

    def test_bounded_by_one(self, rho, obs):
        for x in itertools.product(range(3), repeat=3):
            assert abs(correlation(rho, obs, x)) <= 1 + 1e-9

    def test_setting_out_of_range(self, rho, obs):
        with pytest.raises(ValueError):
            correlation(rho, obs, (3, 0, 0))


class TestBornTable:
    def test_shape_and_identity_tuple(self, rho, obs):
        table = bell.born_table(rho, obs)
        assert table.shape == (3, 3, 3, 8)
        assert table[0, 0, 0, 0] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("bad_rho,match", [
        (np.diag([1.5, -0.5, 0, 0, 0, 0, 0, 0]), "negative outcome probability"),
        (np.eye(8) / 4, "sum to"),
        (np.eye(8) / 8 + 1e-3j * np.triu(np.ones((8, 8)), 1), "imaginary part"),
    ])
    def test_rejects_invalid_state(self, obs, bad_rho, match):
        with pytest.raises(ValueError, match=match):
            bell.born_table(bad_rho, obs)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("consumer", ["born_table", "quantum_value", "GameTables"])
    def test_rejects_non_finite_state(self, obs, hom, bad, consumer):
        # every other guard is a comparison, which a NaN passes: a NaN state
        # gave p_quantum_exact = nan with no error
        rho = np.eye(8) / 8
        rho[3, 3] = bad
        call = {"born_table": lambda: bell.born_table(rho, obs),
                "quantum_value": lambda: bell.quantum_value(hom, rho, obs),
                "GameTables": lambda: simulate.GameTables(rho=rho, obs=obs)}[consumer]
        with pytest.raises(ValueError, match="non-finite"):
            call()

    def test_correlations_reject_nan(self):
        with pytest.raises(ValueError, match="outside"):
            bell.correlations(np.full((3, 3, 3, 8), math.nan))


class TestQuantumValue:
    def test_homogenized_value(self, rho, obs, hom):
        assert quantum_value(hom, rho, obs) == pytest.approx(8.00685, abs=2e-4)

    def test_original_expression_value(self, rho, obs):
        assert general_quantum_value(sliwa5(), rho, obs) == pytest.approx(3.00685, abs=2e-4)

    def test_maximally_mixed_gives_shift_only(self, obs, hom):
        assert quantum_value(hom, np.eye(8) / 8, obs) == pytest.approx(5.0, abs=1e-12)

    def test_homogenization_preserves_violation_gap(self, rho, obs, hom):
        s_hom = quantum_value(hom, rho, obs)
        s_orig = general_quantum_value(sliwa5(), rho, obs)
        assert s_hom == pytest.approx(5.0 + s_orig, abs=1e-9)

    def test_bell_violation(self, rho, obs, hom):
        s = quantum_value(hom, rho, obs)
        assert s - hom.upper_bound == pytest.approx(0.00685, abs=2e-4)
        assert s > hom.upper_bound
