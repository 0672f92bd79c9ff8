"""The communication complexity game built on a full-correlation inequality.

Inputs: each of the g.ndim parties gets a uniform bit y_i in {-1,+1} and
a setting x_i, with x drawn from Q(x) = |g(x)| / sum|g|.  The common
target is f = y_1...y_n sign(g(x)).  Each party broadcasts one bit; the
guess, their product, is right with P = (1 + S/sum|g|)/2 for a strategy
of Bell value S (Brukner et al., PRL 92, 127901 (2004)).  P_C and P_Q
are Fractions when g is integral (bell.table_weight) and S exact, else floats.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction
from numbers import Rational
from typing import NamedTuple

import numpy as np

from .bell import ClassicalStrategy, coefficient_table, search_strategies, table_weight


def input_distribution(g: np.ndarray) -> np.ndarray:
    """Q(x) = |g(x)| / sum |g| as a probability table of g's shape."""
    return np.abs(coefficient_table(g)) / table_weight(g)


class GameInstance(NamedTuple):
    """One round's inputs: a bit and a setting per party."""
    y: tuple[int, ...]
    x: tuple[int, ...]


def target_function(inst: GameInstance, g: np.ndarray) -> int:
    """f = y_1...y_n * sign(g(x)); undefined (raises) off the support of Q."""
    coeff = float(np.asarray(g)[inst.x])
    if coeff == 0:
        raise ValueError(f"target undefined on zero-probability setting tuple {inst.x}")
    sign = 1 if coeff > 0 else -1
    return math.prod(inst.y) * sign


def scalar_product(f_func, a_func, q: np.ndarray) -> float:
    """Literal weighted scalar product: the double sum over all y and all
    q-supported x of 2^-n * q(x) * f(y,x) * A(y,x)."""
    q = np.asarray(q)
    total = 0.0
    for x in map(tuple, np.argwhere(q).tolist()):
        for y in itertools.product((-1, 1), repeat=q.ndim):
            inst = GameInstance(y, x)
            total += q[x] * f_func(inst) * a_func(inst) / 2 ** q.ndim
    return total


def success_probability(value, sum_abs_g):
    """P = (1 + value/sum|g|) / 2; a Fraction for int, numpy integer or Fraction inputs."""
    if not 0 < sum_abs_g < math.inf:  # a NaN fails this too
        raise ValueError("sum |g| must be positive and finite")
    if isinstance(value, Rational) and isinstance(sum_abs_g, Rational):
        value, sum_abs_g = Fraction(value), Fraction(sum_abs_g)
        return (sum_abs_g + value) / (2 * sum_abs_g)
    return 0.5 * (1.0 + value / sum_abs_g)


def exact_success_quantum(s_value, sum_abs_g):
    """Quantum success probability from the Bell expression value S."""
    return success_probability(s_value, sum_abs_g)


def optimal_classical_strategy(g: np.ndarray) -> tuple[ClassicalStrategy, Fraction | float]:
    """Exhaustive search over per-party sign functions on the q-supported
    settings (512 strategies for the built-in game).

    Returns the lexicographically smallest maximizer of P(A = f) together
    with its success probability, a Fraction exactly when g is integral.
    """
    _, best, argmax, _ = search_strategies(g, False)
    w = table_weight(g)  # an int only when every float sum of g, best too, is exact
    return argmax, success_probability(round(best) if isinstance(w, int) else best, w)


def success_by_enumeration(strategy: ClassicalStrategy, g: np.ndarray) -> float:
    """Oracle success probability: weighted average of [A(y,x) == f(y,x)]
    over all sign bits and q-supported setting tuples.  Must match
    (1 + (f,A))/2 exactly."""
    q = input_distribution(g)
    total = 0.0
    for x in map(tuple, np.argwhere(q).tolist()):
        for y in itertools.product((-1, 1), repeat=q.ndim):
            inst = GameInstance(y, x)
            if strategy.answer(inst) == target_function(inst, g):
                total += q[x] / 2 ** q.ndim
    return total
