"""Properties of the strategy search, the Born contraction and the success
probabilities, checked on random inputs against oracles written here: a
plain itertools.product enumeration for the classical side, the
kron-and-trace formula for the quantum side."""
import itertools
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from becc import bell, ccp
from becc.bell import FullCorrelationInequality, GeneralInequality, Term

SETTINGS = st.integers(0, 3)
# sparse integer coefficient tables, so that every value is exact
G_TABLES = st.dictionaries(st.tuples(SETTINGS, SETTINGS, SETTINGS),
                           st.integers(-3, 3).filter(bool), min_size=1, max_size=10)
TERMS = st.lists(st.tuples(st.tuples(*[st.none() | st.integers(1, 3)] * 3),
                           st.integers(-3, 3).filter(bool)), min_size=1, max_size=8)
BLOCKS = st.sampled_from([1, 7, 64, bell.STRATEGY_BLOCK])


def dense(entries, n_settings=4):
    g = np.zeros((n_settings,) * 3)
    for x, c in entries.items():
        g[x] += c
    return g


def oracle(entries, free, n_settings=4):
    """(min, max, first maximizer) over all sign assignments to the free
    slots.  itertools.product varies its last position fastest, so slot j
    takes position len(free)-1-j and tuple n is the strategy whose bit j
    (1 meaning -1) sits on slot j."""
    values = []
    for signs in itertools.product((1, -1), repeat=len(free)):
        a = [[1] * n_settings for _ in range(3)]
        for (p, s), v in zip(free, reversed(signs)):
            a[p][s] = v
        value = sum(c * a[0][x[0]] * a[1][x[1]] * a[2][x[2]] for x, c in entries.items())
        values.append((value, a))
    high = max(v for v, _ in values)
    return min(v for v, _ in values), high, next(a for v, a in values if v == high)


def rows(strategy):
    return [list(row) for row in strategy.a]


@settings(max_examples=40, deadline=None)
@given(G_TABLES, BLOCKS)
def test_full_correlation_extrema_match_oracle(entries, block):
    free = [(p, s) for p in range(3) for s in range(1, 4)]
    with mock.patch.object(bell, "STRATEGY_BLOCK", block):
        lo, hi, argmax = bell.classical_extrema(FullCorrelationInequality(g=dense(entries)))
    want_lo, want_hi, want_argmax = oracle(entries, free)
    assert (lo, hi) == (want_lo, want_hi)
    assert rows(argmax) == want_argmax


@settings(max_examples=40, deadline=None)
@given(TERMS, BLOCKS)
def test_term_list_extrema_match_oracle(term_list, block):
    ineq = GeneralInequality(tuple(Term(s, float(c)) for s, c in term_list), -100, 100)
    entries = {}
    for s, c in term_list:
        x = tuple(0 if v is None else v for v in s)
        entries[x] = entries.get(x, 0) + c
    free = sorted({(p, v) for s, _ in term_list for p, v in enumerate(s) if v is not None})
    n_settings = 1 + max((v for _, v in free), default=0)
    with mock.patch.object(bell, "STRATEGY_BLOCK", block):
        lo, hi, argmax = bell.classical_extrema(ineq)
    want_lo, want_hi, want_argmax = oracle(entries, free, n_settings)
    assert (lo, hi) == (want_lo, want_hi)
    assert rows(argmax) == want_argmax


@settings(max_examples=30, deadline=None)
@given(G_TABLES)
def test_optimal_strategy_matches_oracle(entries):
    # the game's search frees every setting its support uses, identity included
    free = sorted({(p, x[p]) for x in entries for p in range(3)})
    _, want_hi, want_argmax = oracle(entries, free)
    strategy, success = ccp.optimal_classical_strategy(dense(entries))
    total = sum(abs(c) for c in entries.values())
    assert success == Fraction(total + want_hi, 2 * total)
    assert rows(strategy) == want_argmax


@settings(max_examples=30, deadline=None)
@given(G_TABLES, st.permutations(range(3)),
       st.lists(st.sets(st.integers(1, 3)), min_size=3, max_size=3))
def test_extrema_invariant_under_relabelling(entries, perm, flips):
    g = dense(entries)
    lo, hi, _ = bell.classical_extrema(FullCorrelationInequality(g=g))
    permuted = np.transpose(g, perm)
    # flipping party p's output on setting s negates every g(x) with x_p = s
    relabelled = g.copy()
    for p, settings_flipped in enumerate(flips):
        for s in settings_flipped:
            index = [slice(None)] * 3
            index[p] = s
            relabelled[tuple(index)] *= -1
    for h in (permuted, relabelled):
        assert bell.classical_extrema(FullCorrelationInequality(g=h))[:2] == (lo, hi)


def ginibre_state(rng):
    m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def reflection(rng):
    q, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    return q @ np.diag([1.0, -1.0]) @ q.conj().T


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_born_outputs_on_random_states(seed):
    rng = np.random.default_rng(seed)
    rho = ginibre_state(rng)
    obs = [[np.eye(2), reflection(rng), reflection(rng)] for _ in range(3)]
    table = bell.born_table(rho, obs)
    assert table.min() >= 0.0
    assert np.abs(table.sum(axis=-1) - 1.0).max() <= 1e-12
    for x in itertools.product(range(3), repeat=3):
        op = np.kron(np.kron(obs[0][x[0]], obs[1][x[1]]), obs[2][x[2]])
        trace = np.trace(rho @ op)
        assert abs(trace.imag) <= 1e-12
        assert float(bell.OUTCOME_PRODUCT @ table[x]) == pytest.approx(trace.real, abs=1e-12)
        assert bell.correlation(rho, obs, x) == pytest.approx(trace.real, abs=1e-12)
        assert np.array_equal(bell.born_distribution(rho, obs, x), table[x])
    hom = bell.homogenize(bell.sliwa5())
    assert abs(bell.quantum_value(hom, rho, obs)) <= hom.sum_abs()


def test_large_space_in_bounded_memory():
    # 20 free slots: single-party terms on settings 1..7, 1..7 and 1..6,
    # plus a constant, so the extrema are c0 -+ sum |c| and the argmax
    # sets every output to the sign of its coefficient
    slots = [(0, s) for s in range(1, 8)] + [(1, s) for s in range(1, 8)] \
        + [(2, s) for s in range(1, 7)]
    coefficients = [(-1) ** k * (k % 3 + 1) for k in range(len(slots))]
    terms = [Term(tuple(s if q == p else None for q in range(3)), float(c))
             for (p, s), c in zip(slots, coefficients)]
    ineq = GeneralInequality(tuple(terms) + (Term((None, None, None), 2.0),), -100, 100)
    tracemalloc.start()
    try:
        lo, hi, argmax = bell.classical_extrema(ineq)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    total = sum(abs(c) for c in coefficients)
    assert (lo, hi) == (2 - total, 2 + total)
    for (p, s), c in zip(slots, coefficients):
        assert argmax.a[p][s] == math.copysign(1, c)
    # the whole 2^20 x 3 x 8 sign tensor would take 192 MiB
    assert peak < 16 * 2 ** 20


@given(st.integers(1, 10 ** 6), st.data())
def test_success_probability_exact_for_integers(total, data):
    value = data.draw(st.integers(-total, total))
    p = ccp.success_probability(value, total)
    assert isinstance(p, Fraction)
    assert p == Fraction(total + value, 2 * total)
    assert ccp.success_probability(float(value), total) == pytest.approx(float(p), abs=1e-15)
