"""The communication complexity game built on a full-correlation inequality.

Inputs: each of the g.ndim parties gets a uniform bit y_i in {-1,+1} and
a setting x_i, with x drawn from Q(x) = |g(x)| / sum|g|.  The common
target is f = y_1...y_n sign(g(x)).  Each party broadcasts one bit; the
guess, their product, is right with P = (1 + S/sum|g|)/2 for a strategy
of Bell value S (Brukner et al., PRL 92, 127901 (2004)).  P_C, the best
such strategy's P, bounds every deterministic one-bit protocol: of any bit
e_i(x_i, y_i) only h_i(x_i) = (e_i(x_i, +1) - e_i(x_i, -1))/2 correlates with
the target, and the product guess's P is multilinear in h, so it peaks at
h = +-1, the y_i a_i(x_i) form.  Any other guess G(e_1, ..., e_n) adds only
Fourier terms that miss some party j, which average to zero over y_j.  The
sign bits cancel: the guess is right exactly when a_1...a_n = sign g(x), the
win cells of GameTables.  P_C and P_Q are Fractions when g is integral
(bell.table_weight) and S exact, else floats.
"""
from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from numbers import Rational, Real
from typing import NamedTuple

import numpy as np

from . import bell, state, tolerances
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
    """P = (1 + value/sum|g|) / 2; a Fraction for int, numpy integer or Fraction inputs.

    No strategy has |value| > sum|g|: rational inputs are held to it exactly, others
    within the FLOAT slack bell.correlations allows on each |E|; beyond it raises."""
    if not isinstance(value, Real):
        raise ValueError(f"value {value!r} is not real")
    if not (0 < sum_abs_g < math.inf and abs(value) < math.inf):  # a NaN fails this too
        raise ValueError("sum |g| must be positive and finite, and the value finite")
    exact = isinstance(value, Rational) and isinstance(sum_abs_g, Rational)
    if exact:
        value, sum_abs_g = Fraction(value), Fraction(sum_abs_g)
    if abs(value) > sum_abs_g * (1 if exact else 1 + tolerances.FLOAT):
        raise ValueError(f"|value| {value} exceeds sum |g| = {sum_abs_g}: no strategy reaches it")
    return (sum_abs_g + value) / (2 * sum_abs_g) if exact else 0.5 * (1.0 + value / sum_abs_g)


exact_success_quantum = success_probability  # perfbench/run.py calls it; ROADMAP item 3 deletes it


def optimal_classical_strategy(g: np.ndarray) -> tuple[ClassicalStrategy, Fraction | float]:
    """The best game strategy and its success probability, a Fraction exactly when g is
    integral.  bell.search_strategies answers +1 on setting 0; negating one party's every answer
    negates every term, so each game strategy is a search strategy or one with party 1 negated,
    and the optimum is max(high, -low) of one search (64 strategies for the built-in game).
    The argmax is the search's when high >= -low, else -g's with party 1's answers negated."""
    low, best, argmax, _ = search_strategies(g := coefficient_table(g))
    if -low > best:
        _, best, argmax, _ = search_strategies(-g)
        argmax = ClassicalStrategy((tuple(-v for v in argmax.a[0]), *argmax.a[1:]))
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


class GameTables:
    """Everything a run needs, computed once.

    Holds the q-supported setting tuples and, per protocol, the sampler's
    cell law cell_law[protocol][x, a] = Q(x) P(a|x) as float64 over
    (support, n-bit outcome): P(a|x) is the Born-rule pmf for "quantum"
    and a one-hot row at the optimal strategy's answer for "classical";
    an exact (Fraction) law is cast to floats here, once.  ``win[x, a]``
    marks the cells where the guess equals the target; ``correlations``
    is the table E(x) behind the quantum value S.
    """

    def __init__(self, rho=None, obs=None, ineq: bell.Inequality = None):
        self.rho = state.build_vb_state() if rho is None else rho
        self.obs = bell.measurement_observables() if obs is None else obs
        self.ineq = bell.homogenize(bell.sliwa5()) if ineq is None else ineq

        # one Born contraction gives the correlations, S and the quantum cell law
        born = bell.born_table(self.rho, self.obs)
        self.correlations, idx = bell.correlations(born), np.nonzero(g := self.ineq.g)
        # the one gate: expression_value checks g, valid as Inequality built it, against obs
        s = self.quantum_value = bell.expression_value(g, self.correlations)
        # sum |g| weighs P_Q; P_C's search reads its own, as it owns P_C's rounding
        self.p_quantum_exact = success_probability(s, self.ineq.sum_abs())
        self.support = list(zip(*np.array(idx).tolist()))
        coeffs, outcomes = g[idx][:, None], bell.outcome_signs(g.ndim)
        # the sign bits cancel: a win is a_1...a_n = sign g(x), a positive a_1...a_n g(x)
        self.win = outcomes.prod(axis=1) * coeffs > 0

        strategy, self.p_classical_exact = optimal_classical_strategy(g)
        # the strategy's answers a_i(x_i) on each supported x, as (support, party)
        answers = np.array(strategy.a)[np.arange(g.ndim)[:, None], np.array(idx)].T
        q = input_distribution(g)[idx][:, None]
        self.cell_law = {
            "quantum": np.asarray(q * born[idx], dtype=float),
            "classical": q * (answers[:, None] == outcomes).all(axis=-1),
        }


@functools.cache
def default_tables() -> GameTables:
    """The built-in game, built once and shared by every caller, so read-only."""
    t = GameTables()
    for a in (t.rho, t.ineq.g, t.win, t.correlations, *t.cell_law.values(),
              *(o for party in t.obs for o in party)):
        a.flags.writeable = False
    return t
