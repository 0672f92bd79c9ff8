import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from becc import bell, tolerances
from becc.ccp import (
    ClassicalStrategy,
    GameInstance,
    exact_success_quantum,
    input_distribution,
    optimal_classical_strategy,
    scalar_product,
    success_by_enumeration,
    success_probability,
    target_function,
)


@pytest.fixture(scope="module")
def g(hom):
    return hom.g


@pytest.fixture(scope="module")
def q(g):
    return input_distribution(g)


def parity_target(inst):
    """Closed form of the target for the built-in game: the parity of
    x1 + x2 + x3 plus one when all three settings coincide."""
    x1, x2, x3 = inst.x
    d = 1 if x1 == x2 == x3 else 0
    return inst.y[0] * inst.y[1] * inst.y[2] * (2 * ((d + x1 + x2 + x3) % 2) - 1)


def random_strategy(rng):
    return ClassicalStrategy(tuple(
        tuple(rng.choice((-1, 1)) for _ in range(4)) for _ in range(3)))


class TestInputDistribution:
    def test_all_identity_tuple(self, q):
        assert q[0, 0, 0] == pytest.approx(5 / 22, abs=1e-15)

    def test_full_correlation_tuple(self, q):
        assert q[1, 1, 1] == pytest.approx(1 / 22, abs=1e-15)

    def test_setting_three_has_no_support(self, q):
        assert q[3, 0, 0] == 0.0

    def test_normalized(self, q):
        assert abs(q.sum() - 1.0) < 1e-12

    def test_all_zero_table_rejected(self):
        with pytest.raises(ValueError):
            input_distribution(np.zeros((4, 4, 4)))


class TestTargetFunction:
    def test_positive_coefficient_all_positive_bits(self, g):
        assert target_function(GameInstance((1, 1, 1), (0, 0, 0)), g) == 1

    def test_negative_coefficient(self, g):
        assert target_function(GameInstance((1, -1, 1), (1, 1, 1)), g) == 1

    def test_positive_coefficient_negative_bits(self, g):
        assert target_function(GameInstance((-1, -1, -1), (1, 2, 0)), g) == -1

    def test_undefined_off_support(self, g):
        with pytest.raises(ValueError, match="zero-probability"):
            target_function(GameInstance((1, 1, 1), (3, 0, 0)), g)

    def test_parity_form_agrees_everywhere(self, g):
        for x in itertools.product(range(4), repeat=3):
            if g[x] == 0:
                continue
            for y in itertools.product((-1, 1), repeat=3):
                inst = GameInstance(y, x)
                assert target_function(inst, g) == parity_target(inst)


class TestScalarProduct:
    def test_self_product(self, g, q):
        f = lambda inst: target_function(inst, g)
        assert scalar_product(f, f, q) == pytest.approx(1.0, abs=1e-12)

    def test_negated(self, g, q):
        f = lambda inst: target_function(inst, g)
        assert scalar_product(f, lambda i: -f(i), q) == pytest.approx(-1.0, abs=1e-12)


class TestSuccessProbability:
    def test_classical_exact_rational(self):
        assert success_probability(8, 22) == Fraction(15, 22)
        assert float(success_probability(8, 22)) == pytest.approx(0.681818, abs=1e-6)

    @pytest.mark.parametrize("value,total", [(8, 22.0), (8.0, 22)])
    def test_one_float_input_gives_a_float(self, value, total):
        # exact only when both inputs are integers
        p = success_probability(value, total)
        assert type(p) is float and p == pytest.approx(15 / 22, abs=1e-15)

    def test_quantum_headline(self):
        assert success_probability(8.00685, 22) == pytest.approx(0.681974, abs=1e-5)

    def test_quantum_follows_the_exactness_rule(self):
        # a float S gives a float whatever the weight's type, rational inputs a Fraction
        p = success_probability(8.00685, 22)
        assert type(p) is float and p == success_probability(8.00685, 22.0)
        p = success_probability(Fraction(88027, 11000), 22)
        assert type(p) is Fraction and p == (22 + Fraction(88027, 11000)) / 44
        # the quantum name is the same function, not a second rule
        assert exact_success_quantum is success_probability

    def test_zero_value_is_coin_flip(self):
        assert success_probability(0, 7) == Fraction(1, 2)

    @pytest.mark.parametrize("sum_abs_g", [0, -2, math.nan, math.inf])
    def test_zero_weight_rejected(self, sum_abs_g):
        # a negative sum gave the probability -3/4 at value 5, a NaN sum nan,
        # an infinite one the coin flip 1/2
        with pytest.raises(ValueError, match="positive"):
            success_probability(5, sum_abs_g)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_rejected(self, value):
        # a NaN value gave the probability nan, an infinite one inf or -inf
        with pytest.raises(ValueError, match="value finite"):
            success_probability(value, 22)

    @pytest.mark.parametrize("value", [1j, 8 + 0j, np.complex128(8)],
                             ids=["1j", "complex", "complex128"])
    def test_non_real_value_rejected(self, value):
        # 1j gave the complex probability 0.5+0.0227j
        with pytest.raises(ValueError, match="not real"):
            success_probability(value, 22)

    @pytest.mark.parametrize("value,total", [(30, 22), (-23, 22), (Fraction(45, 2), 22),
                                             (22, Fraction(43, 2))])
    def test_rational_value_beyond_weight_rejected(self, value, total):
        # 30 against 22 gave the probability 13/11
        with pytest.raises(ValueError, match="exceeds"):
            success_probability(value, total)
        assert success_probability(total, total) == 1
        assert success_probability(-total, total) == 0

    def test_float_value_beyond_slack_rejected(self):
        # a float S may exceed sum |g| by the FLOAT slack bell.correlations
        # allows on each |E|, and no further
        slack = 22 * tolerances.FLOAT
        assert success_probability(22 + slack / 2, 22) == pytest.approx(1, abs=1e-9)
        assert success_probability(-22 - slack / 2, 22) == pytest.approx(0, abs=1e-9)
        for value, total in ((22 + 2 * slack, 22), (-22 - 2 * slack, 22.0), (30.0, 22)):
            with pytest.raises(ValueError, match="exceeds"):
                success_probability(value, total)


class TestOptimalClassicalStrategy:
    def test_headline_success(self, g):
        _, success = optimal_classical_strategy(g)
        assert success == Fraction(15, 22)

    def test_matches_bell_bound_enumeration(self, g, hom):
        _, hi, _ = bell.classical_extrema(hom)
        _, success = optimal_classical_strategy(g)
        assert success == success_probability(int(hi), 22)

    def test_rejects_non_cube_table(self):
        # parties 2 and 3 use a setting 2 that party 1 lacks: not a cube
        g1 = np.zeros((2, 3, 3))
        g1[1, 2, 2] = 1.0
        with pytest.raises(ValueError, match=r"cube .* \(2, 3, 3\)"):
            optimal_classical_strategy(g1)

    def test_single_coefficient_game_always_won(self):
        g1 = np.zeros((4, 4, 4))
        g1[1, 1, 1] = 1.0
        _, success = optimal_classical_strategy(g1)
        assert success == 1

    def test_game_space_guard_counts_live_slots(self):
        # the game reads the Bell search, a nominal space of 2^27; the
        # support's one non-identity setting is 9, so 2^3 live
        g1 = np.zeros((10, 10, 10))
        g1[9, 0, 0] = g1[0, 9, 0] = g1[0, 0, 9] = 1.0
        _, success = optimal_classical_strategy(g1)
        assert success == 1

    def test_negative_constant_is_won_by_negating_party_1(self):
        # the search pins setting 0 to +1, so g = -1 on the identity tuple has
        # min = max = -1; the game negates party 1's every answer and wins
        # every round
        g1 = np.zeros((2, 2, 2))
        g1[0, 0, 0] = -1.0
        strategy, success = optimal_classical_strategy(g1)
        assert strategy == ClassicalStrategy(((-1, -1), (1, 1), (1, 1)))
        assert success == 1 and success_by_enumeration(strategy, g1) == 1

    def test_near_integral_table_stays_a_probability(self):
        # within np.allclose of integers, but not integral: truncating the
        # sums to int gave Fraction(5, 4)
        g1 = np.zeros((4, 4, 4))
        g1[1, 1, 1] = g1[2, 2, 2] = g1[1, 2, 1] = 0.9999999
        _, success = optimal_classical_strategy(g1)
        # all coefficients positive: the all-ones strategy attains sum |g|
        _, hi_value, _ = bell.classical_extrema(bell.Inequality(g1, -3, 3))
        assert 0 <= success <= 1
        assert success == pytest.approx(0.5 * (1 + hi_value / np.abs(g1).sum()), abs=1e-15)

    def test_achieved_scalar_product(self, g, q):
        strategy, _ = optimal_classical_strategy(g)
        val = scalar_product(lambda i: target_function(i, g), strategy.answer, q)
        assert val == pytest.approx(8 / 22, abs=1e-12)

    def test_paired_sign_flip_invariance(self, g):
        # only the product of the broadcasts matters, so flipping the sign
        # functions of any two parties leaves the success unchanged
        strategy, success = optimal_classical_strategy(g)
        flipped = ClassicalStrategy((
            tuple(-v for v in strategy.a[0]),
            tuple(-v for v in strategy.a[1]),
            strategy.a[2],
        ))
        assert success_by_enumeration(flipped, g) == pytest.approx(
            float(success), abs=1e-12)

    def test_all_party_sign_flip_negates_answer(self, g):
        # an odd number of flips negates the product, so success maps to
        # its complement
        strategy, success = optimal_classical_strategy(g)
        flipped = ClassicalStrategy(tuple(
            tuple(-v for v in row) for row in strategy.a))
        assert success_by_enumeration(flipped, g) == pytest.approx(
            1.0 - float(success), abs=1e-12)


class TestSuccessIdentity:
    def test_double_sum_equals_scalar_product_form(self, g, q):
        # the literal (y, x) average and (1 + (f,A))/2 must agree for
        # arbitrary strategies, not just optimal ones
        rng = random.Random(7)
        f = lambda inst: target_function(inst, g)
        for _ in range(100):
            strategy = random_strategy(rng)
            direct = success_by_enumeration(strategy, g)
            via_product = 0.5 * (1.0 + scalar_product(f, strategy.answer, q))
            assert direct == pytest.approx(via_product, abs=1e-12)

    def test_oracles_read_tuples_from_g(self):
        # the original 3x3x3 table, with no setting 3
        g3 = bell.sliwa5().g
        f = lambda inst: target_function(inst, g3)
        rng = random.Random(5)
        for _ in range(20):
            strategy = ClassicalStrategy(tuple(
                tuple(rng.choice((-1, 1)) for _ in range(3)) for _ in range(3)))
            direct = success_by_enumeration(strategy, g3)
            via_product = 0.5 * (1.0 + scalar_product(f, strategy.answer,
                                                      input_distribution(g3)))
            assert direct == pytest.approx(via_product, abs=1e-12)

