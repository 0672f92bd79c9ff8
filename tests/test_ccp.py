import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from becc import bell, ccp
from becc.ccp import (
    ClassicalStrategy,
    GameInstance,
    exact_success_quantum,
    input_distribution,
    optimal_classical_strategy,
    parity_target,
    scalar_product,
    success_by_enumeration,
    success_probability,
    target_function,
)


@pytest.fixture(scope="module")
def g():
    return bell.homogenize(bell.sliwa5()).g


@pytest.fixture(scope="module")
def q(g):
    return input_distribution(g)


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
            for y in ccp.Y_TUPLES:
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

    def test_quantum_headline(self):
        assert exact_success_quantum(8.00685, 22) == pytest.approx(0.681974, abs=1e-5)

    def test_zero_value_is_coin_flip(self):
        assert success_probability(0, 7) == Fraction(1, 2)

    def test_zero_weight_rejected(self):
        with pytest.raises(ValueError):
            success_probability(1, 0)


class TestOptimalClassicalStrategy:
    def test_headline_success(self, g):
        _, success = optimal_classical_strategy(g)
        assert success == Fraction(15, 22)

    def test_matches_bell_bound_enumeration(self, g):
        hom = bell.homogenize(bell.sliwa5())
        _, hi, _ = bell.classical_extrema(hom)
        _, success = optimal_classical_strategy(g)
        assert success == success_probability(int(hi), 22)

    def test_single_coefficient_game_always_won(self):
        g1 = np.zeros((4, 4, 4))
        g1[1, 1, 1] = 1.0
        _, success = optimal_classical_strategy(g1)
        assert success == 1

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

