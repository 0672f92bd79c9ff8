"""Properties of the strategy search, the Born contraction, the state
certificates, the game tables and the success probabilities, checked on
random inputs against oracles written here: a plain itertools.product
enumeration for the classical side, the kron-and-trace formula for the
quantum side, and one-matrix and one-tuple loops for the stacked and
gathered arrays."""
import itertools
import math
import tracemalloc
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from becc import bell, ccp, linalg, simulate, state


def sparse_tables(n_settings):
    """Sparse integer coefficient tables on n settings per party, so that
    every value is exact."""
    settings = st.integers(0, n_settings - 1)
    return st.dictionaries(st.tuples(settings, settings, settings),
                           st.integers(-3, 3).filter(bool), min_size=1, max_size=10)


def sized_tables(low, high):
    """(settings per party, table) for low..high settings per party."""
    return st.integers(low, high).flatmap(lambda n: st.tuples(st.just(n), sparse_tables(n)))


G_TABLES = sparse_tables(4)
BLOCKS = st.sampled_from([1, 7, 64, bell.STRATEGY_BLOCK])


def dense(entries, n_settings=4):
    g = np.zeros((n_settings,) * 3)
    for x, c in entries.items():
        g[x] += c
    return g


def inequality(g):
    """g with bounds wide enough to be valid whatever its extrema."""
    total = np.abs(g).sum()
    return bell.Inequality(g, -total, total)


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
        lo, hi, argmax = bell.classical_extrema(inequality(dense(entries)))
    want_lo, want_hi, want_argmax = oracle(entries, free)
    assert (lo, hi) == (want_lo, want_hi)
    assert rows(argmax) == want_argmax


@settings(max_examples=40, deadline=None)
@given(sized_tables(1, 4), BLOCKS)
def test_free_slot_rule_matches_oracle(sized, block):
    # one rule at every table size: setting 0 pinned to +1, every other
    # setting of every party free
    n_settings, entries = sized
    free = [(p, s) for p in range(3) for s in range(1, n_settings)]
    with mock.patch.object(bell, "STRATEGY_BLOCK", block):
        lo, hi, argmax = bell.classical_extrema(inequality(dense(entries, n_settings)))
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
    lo, hi, _ = bell.classical_extrema(inequality(g))
    permuted = np.transpose(g, perm)
    # flipping party p's output on setting s negates every g(x) with x_p = s
    relabelled = g.copy()
    for p, settings_flipped in enumerate(flips):
        for s in settings_flipped:
            index = [slice(None)] * 3
            index[p] = s
            relabelled[tuple(index)] *= -1
    for h in (permuted, relabelled):
        assert bell.classical_extrema(inequality(h))[:2] == (lo, hi)


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


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.booleans())
def test_stacked_certificates_match_one_matrix_oracle(seed, real):
    # validate_state diagonalizes rho and its three partial transposes as
    # one stack; each must equal what that matrix alone gives, bit for bit
    rho = ginibre_state(np.random.default_rng(seed))
    if real:
        rho = rho.real
    report = state.validate_state(rho)
    pts = [linalg.partial_transpose(rho, party, [2, 2, 2]) for party in (1, 2, 3)]
    assert report.min_eigenvalue == float(np.linalg.eigvalsh(rho)[0])
    assert report.pt_min_eigenvalues == tuple(float(np.linalg.eigvalsh(m)[0]) for m in pts)
    assert report.pt_invariance_deviation == float(np.abs(pts[2] - rho).max())
    assert report.hermiticity_deviation == float(np.abs(rho - rho.conj().T).max())
    assert report.trace_deviation == abs(float(np.trace(rho).real) - 1.0)
    stacked = linalg.hermitian_eigenvalues(np.stack([rho, *pts]))
    for row, m in zip(stacked, [rho, *pts]):
        assert np.array_equal(row, np.linalg.eigvalsh(m))


@pytest.mark.parametrize("entry,match", [
    (math.nan, "non-finite"), (math.inf, "non-finite"), (-math.inf, "non-finite"),
    (1e-3, "not Hermitian"), (1e-3j, "not Hermitian")])
def test_stacked_certificates_reject_bad_state(entry, match):
    rho = np.eye(8, dtype=complex) / 8
    rho[0, 5] += entry
    with pytest.raises(ValueError, match=match):
        state.validate_state(rho)


@pytest.mark.parametrize("shape", [(4, 4), (2, 8, 8), (64,), (8, 4)])
def test_certificates_need_one_8x8_matrix(shape):
    with pytest.raises(ValueError, match="8x8"):
        state.validate_state(np.zeros(shape))


@settings(max_examples=30, deadline=None)
@given(sparse_tables(3), st.integers(0, 2 ** 32 - 1))
def test_game_tables_match_per_tuple_oracle(entries, seed):
    # the gathered arrays of GameTables against one loop over the support
    g = dense(entries, 3)
    rng = np.random.default_rng(seed)
    rho = ginibre_state(rng)
    obs = [[np.eye(2), reflection(rng), reflection(rng)] for _ in range(3)]
    tables = simulate.GameTables(rho=rho, obs=obs, ineq=inequality(g))
    born = bell.born_table(rho, obs)
    corr = bell.correlations(born)
    strategy, _ = ccp.optimal_classical_strategy(g)
    support = [x for x in itertools.product(range(3), repeat=3) if g[x] != 0]
    assert tables.support == support
    q = ccp.input_distribution(g)
    assert np.array_equal(tables.q_support, [q[x] for x in support])
    signs = [1 if g[x] > 0 else -1 for x in support]
    assert np.array_equal(tables.target_sign, signs)
    for k, (x, sign) in enumerate(zip(support, signs)):
        for a, bits in enumerate(itertools.product((0, 1), repeat=3)):
            assert tables.win[k, a] == (math.prod(1 - 2 * b for b in bits) == sign)
        assert np.array_equal(tables.outcome_pmf["quantum"][k], born[x])
        answer = tuple(int(strategy.a[p][x[p]] < 0) for p in range(3))
        one_hot = np.zeros(8)
        one_hot[list(itertools.product((0, 1), repeat=3)).index(answer)] = 1.0
        assert np.array_equal(tables.outcome_pmf["classical"][k], one_hot)
    terms = [g[x] * corr[x] for x in support]
    assert tables.quantum_value == float(sum(terms))  # left to right, as numpy scalars


def test_becc_deprecation_warning_is_an_error():
    # pyproject's filterwarnings exempts only libcst's mypy_extensions
    # warning, which hypothesis triggers while reporting a failing example
    with pytest.raises(DeprecationWarning):
        warnings.warn_explicit("old call", DeprecationWarning, bell.__file__, 1,
                               module="becc.bell")
    warnings.warn_explicit("mypy_extensions.TypedDict is deprecated, and will be removed",
                           DeprecationWarning, "type_inference_provider.py", 19,
                           module="libcst.metadata.type_inference_provider")


@settings(max_examples=30, deadline=None)
@given(sized_tables(2, 3), st.integers(0, 2 ** 32 - 1))
def test_homogenize_centres_extrema_and_shifts_quantum_value(sized, seed):
    # bounds set to the table's exact extrema (lo, hi): the homogenized
    # form's extrema are -+(hi - lo)/2, and on any state its value moves by
    # the shift -(lo + hi)/2 carried by the identity tuple, where E = 1
    n_settings, entries = sized
    assume(set(entries) != {(0, 0, 0)})  # a constant homogenizes to zero
    g = dense(entries, n_settings)
    lo, hi, _ = bell.classical_extrema(inequality(g))
    ineq = bell.Inequality(g, lo, hi)
    hom = bell.homogenize(ineq)
    assert bell.classical_extrema(hom)[:2] == ((lo - hi) / 2, (hi - lo) / 2)
    rng = np.random.default_rng(seed)
    rho = ginibre_state(rng)
    obs = [[np.eye(2), reflection(rng), reflection(rng)] for _ in range(3)]
    shift = bell.quantum_value(hom, rho, obs) - bell.quantum_value(ineq, rho, obs)
    assert shift == pytest.approx(-(lo + hi) / 2, abs=1e-12)


def test_large_space_in_bounded_memory():
    # 21 free slots: single-party entries on settings 1..7 of each party,
    # plus a constant, so the extrema are c0 -+ sum |c| and the argmax
    # sets every output to the sign of its coefficient
    slots = [(p, s) for p in range(3) for s in range(1, 8)]
    coefficients = [(-1) ** k * (k % 3 + 1) for k in range(len(slots))]
    g = np.zeros((8, 8, 8))
    g[0, 0, 0] = 2.0
    for (p, s), c in zip(slots, coefficients):
        g[tuple(s if q == p else 0 for q in range(3))] = c
    tracemalloc.start()
    try:
        lo, hi, argmax = bell.classical_extrema(inequality(g))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    total = sum(abs(c) for c in coefficients)
    assert (lo, hi) == (2 - total, 2 + total)
    for (p, s), c in zip(slots, coefficients):
        assert argmax.a[p][s] == math.copysign(1, c)
    # the whole 2^21 x 3 x 8 sign tensor would take 384 MiB
    assert peak < 16 * 2 ** 20


@given(st.integers(1, 10 ** 6), st.data())
def test_success_probability_exact_for_integers(total, data):
    value = data.draw(st.integers(-total, total))
    p = ccp.success_probability(value, total)
    assert isinstance(p, Fraction)
    assert p == Fraction(total + value, 2 * total)
    assert ccp.success_probability(float(value), total) == pytest.approx(float(p), abs=1e-15)
