import itertools
import json
import math

import numpy as np
import pytest

from becc import bell, state
from becc.bell import (
    FullCorrelationInequality,
    GeneralInequality,
    Term,
    classical_extrema,
    correlation,
    g_coefficient,
    general_quantum_value,
    homogenize,
    measurement_observables,
    quantum_value,
    sliwa5,
    symmetrize,
)


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
    def test_two_party_term(self):
        orbit = symmetrize(Term((1, 2, None), 1.0))
        assert len(orbit) == 6
        settings = {t.settings for t in orbit}
        assert settings == {(1, 2, None), (1, None, 2), (2, 1, None),
                            (2, None, 1), (None, 1, 2), (None, 2, 1)}

    def test_fully_symmetric_term(self):
        assert len(symmetrize(Term((1, 1, 1), -1.0))) == 1

    def test_single_party_term(self):
        orbit = symmetrize(Term((1, None, None), 1.0))
        assert {t.settings for t in orbit} == {(1, None, None), (None, 1, None),
                                               (None, None, 1)}


class TestSliwa5:
    def test_bounds(self):
        ineq = sliwa5()
        assert ineq.lower_bound == -13
        assert ineq.upper_bound == 3

    def test_term_count(self):
        # orbit sizes 3 + 6 + 3 + 1 + 3 + 1
        assert len(sliwa5().terms) == 17


class TestHomogenize:
    def test_bound(self, hom):
        assert hom.bound == 8

    def test_constant_becomes_identity_coefficient(self, hom):
        assert hom.g[0, 0, 0] == 5

    def test_lower_order_term_padded_with_zero(self, hom):
        assert hom.g[1, 0, 0] == 1

    def test_sum_abs(self, hom):
        assert hom.sum_abs() == 22

    def test_json_roundtrip(self, hom):
        # n and settings are read from g's shape; g and the bound rebuild
        # the inequality
        doc = json.loads(hom.to_json())
        assert (doc["n"], doc["settings"]) == (3, 4)
        back = FullCorrelationInequality(g=np.array(doc["g"]), bound=doc["bound"])
        assert np.array_equal(back.g, hom.g)
        assert back.bound == hom.bound


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
        lo, hi, _ = classical_extrema(FullCorrelationInequality(g=g, bound=1.0))
        assert (lo, hi) == (-1, 1)

    def test_settings_come_from_g(self):
        # every non-identity setting of g is free: one term on setting 2
        # reaches both -1 and +1
        g = np.zeros((4, 4, 4))
        g[2, 2, 2] = -1.0
        lo, hi, _ = classical_extrema(FullCorrelationInequality(g=g, bound=1.0))
        assert (lo, hi) == (-1, 1)

    def test_all_ones_strategy_attains_bound(self, hom):
        # sum of the 17 coefficients: 5 + 3 + 6 - 3 - 1 - 3 + 1 = 8
        _, hi, argmax = classical_extrema(hom)
        assert hi == float(hom.g.sum()) == 8
        # lexicographic tie-break picks the all-ones strategy (encoding 0)
        assert all(v == 1 for row in argmax.a for v in row)

    def test_strategy_space_guard(self):
        terms = tuple(Term((s, None, None), 1.0) for s in range(1, 10)) \
            + tuple(Term((None, s, None), 1.0) for s in range(1, 10)) \
            + tuple(Term((None, None, s), 1.0) for s in range(1, 10))
        big = GeneralInequality(terms, lower_bound=-27, upper_bound=27)
        # 27 free (party, setting) pairs -> 2^27 > guard
        with pytest.raises(ValueError, match="too large"):
            classical_extrema(big)


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
        assert s - hom.bound == pytest.approx(0.00685, abs=2e-4)
        assert s > hom.bound
