"""The communication complexity game built on a full-correlation inequality.

Inputs: each party i gets a uniform bit y_i in {-1,+1} and a setting x_i,
with the setting tuple drawn from Q(x) = |g(x)| / sum|g|.  The common
target is f = y1*y2*y3*sign(g(x)).  Each party broadcasts one bit and the
guess is the product of the broadcasts.  Classical success probabilities
are exact rationals whenever the coefficient table is integral.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from numbers import Integral
from typing import NamedTuple

import numpy as np

from .bell import N_PARTIES, ClassicalStrategy, search_strategies

Y_TUPLES = list(itertools.product((-1, 1), repeat=N_PARTIES))


def input_distribution(g: np.ndarray) -> np.ndarray:
    """Q(x) = |g(x)| / sum |g| as a probability table of g's shape."""
    g = np.asarray(g, dtype=float)
    total = np.abs(g).sum()
    if total == 0:
        raise ValueError("all-zero coefficient table has no input distribution")
    return np.abs(g) / total


class GameInstance(NamedTuple):
    """One round's inputs: a bit and a setting per party."""
    y: tuple[int, int, int]
    x: tuple[int, int, int]


def target_function(inst: GameInstance, g: np.ndarray) -> int:
    """f = y1*y2*y3 * sign(g(x)); undefined (raises) off the support of Q."""
    coeff = float(np.asarray(g)[inst.x])
    if coeff == 0:
        raise ValueError(f"target undefined on zero-probability setting tuple {inst.x}")
    sign = 1 if coeff > 0 else -1
    return inst.y[0] * inst.y[1] * inst.y[2] * sign


def parity_target(inst: GameInstance) -> int:
    """Closed form of the target for the built-in game: the parity of
    x1 + x2 + x3 plus one when all three settings coincide."""
    x1, x2, x3 = inst.x
    d = 1 if x1 == x2 == x3 else 0
    return inst.y[0] * inst.y[1] * inst.y[2] * (2 * ((d + x1 + x2 + x3) % 2) - 1)


def scalar_product(f_func, a_func, q: np.ndarray) -> float:
    """Literal weighted scalar product: the double sum over all y and all
    q-supported x of (1/8) * q(x) * f(y,x) * A(y,x)."""
    q = np.asarray(q)
    total = 0.0
    for x in map(tuple, np.argwhere(q).tolist()):
        for y in Y_TUPLES:
            inst = GameInstance(y, x)
            total += q[x] * f_func(inst) * a_func(inst) / 2 ** N_PARTIES
    return total


def success_probability(value, sum_abs_g):
    """P = (1 + value/sum|g|) / 2; exact Fraction for integral inputs."""
    if sum_abs_g == 0:
        raise ValueError("sum |g| must be positive")
    if isinstance(value, Integral) and isinstance(sum_abs_g, Integral):
        return Fraction(int(sum_abs_g) + int(value), 2 * int(sum_abs_g))
    return 0.5 * (1.0 + value / sum_abs_g)


def exact_success_quantum(s_value: float, sum_abs_g) -> float:
    """Quantum success probability from the Bell expression value S."""
    return success_probability(s_value, float(sum_abs_g))


def optimal_classical_strategy(g: np.ndarray) -> tuple[ClassicalStrategy, Fraction]:
    """Exhaustive search over per-party sign functions on the q-supported
    settings (512 strategies for the built-in game).

    Returns the lexicographically smallest maximizer of P(A = f) together
    with its exact success probability.
    """
    g = np.asarray(g)
    support = np.argwhere(g != 0)
    if support.size == 0:
        raise ValueError("all-zero coefficient table")
    # exact test: a table within rounding of integers is not integral, and
    # truncating its sums could give a success probability above 1
    integral = np.array_equal(g, np.round(g))
    sum_abs = int(np.abs(g).sum()) if integral else float(np.abs(g).sum())

    # free slots: the (party, setting) pairs the support uses, in row-major order
    live = np.zeros((N_PARTIES, max(g.shape)), dtype=bool)
    live[np.arange(N_PARTIES), support] = True
    _, best, argmax, _ = search_strategies(g, list(map(tuple, np.argwhere(live).tolist())))
    return argmax, success_probability(int(round(best)) if integral else best, sum_abs)


def success_by_enumeration(strategy: ClassicalStrategy, g: np.ndarray) -> float:
    """Oracle success probability: weighted average of [A(y,x) == f(y,x)]
    over all sign bits and q-supported setting tuples.  Must match
    (1 + (f,A))/2 exactly."""
    q = input_distribution(g)
    total = 0.0
    for x in map(tuple, np.argwhere(q).tolist()):
        for y in Y_TUPLES:
            inst = GameInstance(y, x)
            if strategy.answer(inst) == target_function(inst, g):
                total += q[x] / 2 ** N_PARTIES
    return total
