"""Properties of the strategy search, the Born contraction, the state
certificates, the game tables and the success probabilities, checked on
random inputs against oracles written here: a plain itertools.product
enumeration for the classical side, the kron-and-trace formula for the
quantum side and the Bell operator, one-matrix and one-tuple loops for
the stacked and gathered arrays, and the per-ket, per-transpose and
per-outcome builds that the array forms must equal bit for bit.  The
Born contraction on Fraction arrays must equal its float table, and
the Bell operator of Fraction observables its exact kron sum and, at
two parties, its value S(|i><j|) on every matrix unit; game tables of
Fraction inputs keep S, P_C and P_Q exact on an integral table, and give
both probabilities as floats on a non-integral one.  The paper's exact inputs,
state.printed_state and bell.rational_observables, keep S > 8 and P_Q > 15/22 = P_C
with no tolerance, and leave the Born table and S equal under rational local
rotations and outcome relabelling, and P_C and P_Q equal when g is scaled by an
integer; Haar-random local unitaries move the float game's Born table, S, P_Q and
partial-transpose minima by at most FLOAT.  Relabelling the parties of rho, the
observables and g together leaves S, P_C and P_Q, as equal Fractions on exact
inputs; no one-bit protocol, enumerated in integers, beats P_C.  The search, the Born table
and the game tables are checked with 2, 3 and 4 parties, and the Born table
against its projector oracle with 1 to 5."""
import functools
import itertools
import math
import time
import tracemalloc
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, assume, given, settings, strategies as st

from becc import bell, ccp, simulate, state, tolerances
from conftest import exact


# for the examples that run bell_operator or the exact Born table: shrinking
# a failing one, whose every step runs on Fraction arrays, took minutes where
# reporting it unshrunk takes seconds
NO_SHRINK = settings(deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])


def sparse_tables(n_settings, n_parties=3):
    """Sparse integer coefficient tables on n settings per party, so that
    every value is exact; a key is a setting tuple."""
    settings = st.integers(0, n_settings - 1)
    return st.dictionaries(st.tuples(*[settings] * n_parties),
                           st.integers(-3, 3).filter(bool), min_size=1, max_size=10)


def party_tables(n_settings):
    """Sparse tables as above with 2, 3 or 4 parties."""
    return st.integers(2, 4).flatmap(lambda n: sparse_tables(n_settings, n))


def sized_tables(low, high):
    """(settings per party, table) for low..high settings per party."""
    return st.integers(low, high).flatmap(lambda n: st.tuples(st.just(n), sparse_tables(n)))


G_TABLES = sparse_tables(4)
# entry budgets of a block: 1 and 7 give one strategy per block
BLOCKS = st.sampled_from([1, 7, 64, bell.STRATEGY_BLOCK])


def parties(entries):
    return len(next(iter(entries)))


def dense(entries, n_settings=4):
    g = np.zeros((n_settings,) * parties(entries))
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
        a = [[1] * n_settings for _ in range(parties(entries))]
        for (p, s), v in zip(free, reversed(signs)):
            a[p][s] = v
        value = sum(c * math.prod(a[p][s] for p, s in enumerate(x))
                    for x, c in entries.items())
        values.append((value, a))
    high = max(v for v, _ in values)
    return min(v for v, _ in values), high, next(a for v, a in values if v == high)


def rows(strategy):
    return [list(row) for row in strategy.a]


@settings(max_examples=40, deadline=None)
@given(party_tables(4), BLOCKS)
def test_full_correlation_extrema_match_oracle(entries, block):
    free = [(p, s) for p in range(parties(entries)) for s in range(1, 4)]
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
@given(party_tables(3))
def test_optimal_strategy_matches_oracle(entries):
    # P_C against every game strategy, setting 0 included (at most 4 parties x
    # 3 settings, 2^12 strategies): an independent check of the party-flip symmetry
    n = parties(entries)
    free = sorted({(p, x[p]) for x in entries for p in range(n)})
    _, want_hi, _ = oracle(entries, free, 3)
    strategy, success = ccp.optimal_classical_strategy(dense(entries, 3))
    total = sum(abs(c) for c in entries.values())
    assert success == Fraction(total + want_hi, 2 * total)
    # the returned strategy attains it in the game
    assert sum(c * math.prod(strategy.a[p][s] for p, s in enumerate(x))
               for x, c in entries.items()) == want_hi
    # the tie-break: the pinned argmax of g, or that of -g with party 1 negated
    pinned = [(p, s) for p in range(n) for s in range(1, 3)]
    low, high, want_argmax = oracle(entries, pinned, 3)
    if -low > high:
        want_argmax = oracle({x: -c for x, c in entries.items()}, pinned, 3)[2]
        want_argmax[0] = [-v for v in want_argmax[0]]
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


def ginibre_state(rng, n_parties=3):
    dim = 2 ** n_parties
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def reflection(rng):
    q, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    return q @ np.diag([1.0, -1.0]) @ q.conj().T


def random_observables(rng, n_parties):
    return [[np.eye(2), reflection(rng), reflection(rng)] for _ in range(n_parties)]


def kron_observable(obs, x):
    """Oracle: O_{x_1} (x) ... (x) O_{x_n} by np.kron."""
    return functools.reduce(np.kron, [obs[p][s] for p, s in enumerate(x)])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), party_tables(3))
def test_born_outputs_on_random_states(seed, entries):
    n = parties(entries)
    rng = np.random.default_rng(seed)
    rho = ginibre_state(rng, n)
    obs = random_observables(rng, n)
    table = bell.born_table(rho, obs)
    assert table.shape == (3,) * n + (2 ** n,)
    assert table.min() >= 0.0
    assert np.abs(table.sum(axis=-1) - 1.0).max() <= 1e-12
    # outcome index a: party 1's bit most significant, bit 1 meaning -1
    product = np.array([math.prod(a) for a in itertools.product((1, -1), repeat=n)])
    for x in itertools.product(range(3), repeat=n):
        trace = np.trace(rho @ kron_observable(obs, x))
        assert abs(trace.imag) <= 1e-12
        assert float(product @ table[x]) == pytest.approx(trace.real, abs=1e-12)
        assert bell.correlation(rho, obs, x) == pytest.approx(trace.real, abs=1e-12)
        assert np.array_equal(bell.born_distribution(rho, obs, x), table[x])
    ineq = inequality(dense(entries, 3))
    assert abs(bell.quantum_value(ineq, rho, obs)) <= ineq.sum_abs()


@settings(NO_SHRINK, max_examples=20)
@given(st.integers(0, 2 ** 32 - 1), party_tables(3))
def test_bell_operator_matches_kron_oracle(seed, entries):
    n = parties(entries)
    rng = np.random.default_rng(seed)
    rho = ginibre_state(rng, n)
    obs = random_observables(rng, n)
    ineq = inequality(dense(entries, 3))
    b = bell.bell_operator(ineq.g, obs)
    want = sum(c * kron_observable(obs, x) for x, c in entries.items())
    assert np.abs(b - want).max() <= 1e-12
    assert np.abs(b - b.conj().T).max() <= 1e-12
    trace = np.trace(rho @ b)
    assert abs(trace.imag) <= 1e-12
    assert trace.real == pytest.approx(bell.quantum_value(ineq, rho, obs), abs=1e-12)


def exact_inputs(rng, n):
    """rho = M M^T over its trace for a small integer M, and reflections at
    rational u: every entry is a Fraction, so every output is exact."""
    m = rng.integers(-3, 4, (2 ** n, 2 ** n))
    gram = m @ m.T
    assume(np.trace(gram) > 0)
    obs = [[exact(np.eye(2))] + [bell.rational_reflection(Fraction(int(k), 7))
                                 for k in rng.integers(-20, 21, 2)] for _ in range(n)]
    return exact(gram) / int(np.trace(gram)), obs


@settings(NO_SHRINK, max_examples=20)
@given(st.integers(0, 2 ** 32 - 1), party_tables(3))
def test_exact_born_table_matches_float_table(seed, entries):
    rho, obs = exact_inputs(np.random.default_rng(seed), parties(entries))
    table = bell.born_table(rho, obs)
    assert all(type(p) is Fraction for p in table.flat)
    assert min(table.flat) >= 0
    assert all(total == 1 for total in table.sum(axis=-1).flat)
    float_rho, float_obs = rho.astype(float), [[o.astype(float) for o in row] for row in obs]
    assert np.abs(table.astype(float) - bell.born_table(float_rho, float_obs)).max() <= 1e-12
    ineq = inequality(dense(entries, 3))
    s = bell.quantum_value(ineq, rho, obs)
    assert type(s) is Fraction
    assert float(s) == pytest.approx(bell.quantum_value(ineq, float_rho, float_obs), abs=1e-12)


@pytest.fixture(scope="module")
def exact_paper_obs():
    return bell.rational_observables()


@pytest.fixture(scope="module")
def exact_paper_tables():
    """The paper's game on the printed state and the rational reflections, all exact."""
    return simulate.GameTables(rho=state.printed_state(), obs=bell.rational_observables())


def exact_rank(m):
    """The rank of a Fraction matrix by Gauss elimination, with no tolerance."""
    rows, rank = [list(r) for r in m], 0
    for col in range(len(rows[0])):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col] / rows[rank][col]
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def test_printed_state_is_an_exact_rank_four_density_matrix():
    rho = state.printed_state()
    assert rho.shape == (8, 8) and all(type(v) is Fraction for v in rho.flat)
    assert np.trace(rho) == 1
    assert (rho == rho.T).all()
    assert exact_rank(rho) == 4
    assert np.abs(rho.astype(float) - state.build_vb_state()).max() <= tolerances.FLOAT
    # a fresh array on every call: writing to one leaves the next untouched
    rho[0, 0] = 0
    assert state.printed_state()[0, 0] != 0


def test_rational_observables_are_exact_reflections(exact_paper_obs):
    floats = bell.measurement_observables()
    assert [len(row) for row in exact_paper_obs] == [len(row) for row in floats] == [3] * 3
    eye = np.eye(2, dtype=int)
    for row, float_row in zip(exact_paper_obs, floats):
        for o, f in zip(row, float_row):
            assert all(type(v) is Fraction for v in o.flat)
            assert (o == o.T).all() and (o @ o == eye).all()
            assert np.abs(o.astype(float) - f).max() <= 1e-12


def test_exact_paper_value_beats_the_classical_bound(exact_paper_tables, hom, tables):
    t = exact_paper_tables
    for value in (t.quantum_value, t.p_quantum_exact, t.p_classical_exact):
        assert type(value) is Fraction
    assert t.quantum_value > hom.upper_bound
    assert t.p_quantum_exact > Fraction(15, 22) == t.p_classical_exact
    assert abs(float(t.quantum_value) - tables.quantum_value) <= 1e-13
    assert t.p_quantum_exact == ccp.success_probability(t.quantum_value, 22)


def test_exact_paper_tables_are_sampled(exact_paper_tables, tables):
    # the exact cell law, cast to floats once, is the float game's within FLOAT
    for protocol, law in exact_paper_tables.cell_law.items():
        assert law.dtype == np.float64
        assert np.abs(law - tables.cell_law[protocol]).max() <= tolerances.FLOAT
    shots, p_q = 10 ** 6, float(exact_paper_tables.p_quantum_exact)
    report = simulate.run_protocol(simulate.SimulationConfig(shots, seed=1), exact_paper_tables)
    assert report.shots == shots
    assert abs(report.empirical_probability - p_q) <= 5 * math.sqrt(p_q * (1 - p_q) / shots)


def assert_exact_bell_operator(g, rho, obs):
    """B built from Fraction observables is exact: Fraction entries only,
    equal to the kron oracle sum_x g(x) O_x entry for entry, and
    trace(rho B) equal to quantum_value's exact S."""
    b = bell.bell_operator(g, obs)
    assert all(type(v) is Fraction for v in b.flat)
    support = map(tuple, np.argwhere(g).tolist())
    want = sum(Fraction(g[x]) * kron_observable(obs, x) for x in support)
    assert (b == want).all()
    s = bell.quantum_value(inequality(g), rho, obs)
    assert type(s) is Fraction
    assert np.trace(rho @ b) == s


@settings(NO_SHRINK, max_examples=20)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 3).flatmap(lambda n: sparse_tables(3, n)))
def test_exact_bell_operator_matches_kron_oracle(seed, entries):
    rho, obs = exact_inputs(np.random.default_rng(seed), parties(entries))
    assert_exact_bell_operator(dense(entries, 3), rho, obs)


def test_exact_bell_operator_of_the_paper_game(exact_paper_obs, hom):
    assert_exact_bell_operator(hom.g, state.printed_state(), exact_paper_obs)


def unit_path_bell_operator(g, obs):
    """Oracle: S is linear in rho, so B_ji = S(|i><j|), each read by
    correlations and expression_value from projector_contraction of the
    integer matrix unit |i><j|."""
    dim = 2 ** len(obs)
    s = [bell.expression_value(g, bell.correlations(projector_contraction(u, obs)))
         for u in np.eye(dim * dim, dtype=int).reshape(-1, dim, dim)]
    return np.reshape(s, (dim, dim)).T


@settings(NO_SHRINK, max_examples=20)
@given(st.integers(0, 2 ** 32 - 1), sparse_tables(3, 2))
def test_exact_bell_operator_matches_unit_path_oracle(seed, entries):
    _, obs = exact_inputs(np.random.default_rng(seed), 2)
    g = dense(entries, 3)
    b = bell.bell_operator(g, obs)
    want = unit_path_bell_operator(g, obs)
    assert all(type(v) is Fraction for v in want.flat)
    assert (b == want).all()


@settings(NO_SHRINK, max_examples=30)
@given(st.integers(0, 2 ** 32 - 1), party_tables(3))
def test_bell_operator_spectrum_within_sum_abs(seed, entries):
    # every O_x is a tensor product of reflections and identities, of
    # operator norm 1, so |B| <= sum_x |g(x)|
    obs = random_observables(np.random.default_rng(seed), parties(entries))
    ineq = inequality(dense(entries, 3))
    eigs = np.linalg.eigvalsh(bell.bell_operator(ineq.g, obs))
    assert np.abs(eigs).max() <= ineq.sum_abs() * (1 + 1e-12)


@settings(NO_SHRINK, max_examples=30)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 3).flatmap(
    lambda n: st.tuples(sparse_tables(3, n), st.permutations(range(n)))))
def test_bell_operator_permutes_with_the_parties(seed, case):
    # relabelling party pi(k) as party k moves B's tensor factor pi(k) to k;
    # exact observables make the two contractions equal entry for entry
    entries, perm = case
    n = len(perm)
    _, obs = exact_inputs(np.random.default_rng(seed), n)
    g = dense(entries, 3)
    b = bell.bell_operator(g, obs).reshape((2,) * 2 * n)
    moved = bell.bell_operator(g.transpose(perm), [obs[p] for p in perm])
    want = b.transpose(list(perm) + [n + p for p in perm]).reshape(2 ** n, 2 ** n)
    assert (moved == want).all()


def test_exact_born_table_rejects_invalid_state(exact_paper_obs, rho):
    # the transcribed rho, converted exactly, misses unit trace by 3 * 2^-56,
    # which is why state.printed_state builds rho from the printed digits
    exact_rho = exact(rho)
    assert np.trace(exact_rho) == Fraction(2 ** 56 - 3, 2 ** 56)
    with pytest.raises(ValueError, match="sum to 1"):
        bell.born_table(exact_rho, exact_paper_obs)
    bad = exact(np.diag([3, -1, 0, -1, 0, 0, 0, 0]))
    assert np.trace(bad) == 1  # every sum is exactly 1
    with pytest.raises(ValueError, match=">= 0"):
        bell.born_table(bad, exact_paper_obs)


def test_exact_local_rotations_leave_born_table_and_value(exact_paper_tables):
    # R on parties 1 and 3: rho -> U rho U^T with U = R (x) I (x) R, and each of their
    # observables O -> R O R^T, so every tr(rho O_x) and every projector trace stays
    r = exact([[Fraction(3, 5), Fraction(-4, 5)], [Fraction(4, 5), Fraction(3, 5)]])
    u = functools.reduce(np.kron, [r, exact(np.eye(2)), r])
    rho, obs = state.printed_state(), bell.rational_observables()
    rotated_rho = u @ rho @ u.T
    rotated_obs = [[r @ o @ r.T for o in row] if k != 1 else row for k, row in enumerate(obs)]
    assert (rotated_rho != rho).any() and (rotated_obs[0][1] != obs[0][1]).any()
    assert (bell.born_table(rotated_rho, rotated_obs) == bell.born_table(rho, obs)).all()
    s = bell.quantum_value(exact_paper_tables.ineq, rotated_rho, rotated_obs)
    assert type(s) is Fraction and s == exact_paper_tables.quantum_value


def test_exact_born_table_does_not_signal():
    # the marginal of any one or two parties' outcomes is a function of their
    # own settings only: equal, as Fractions, to its value at the others' setting 0
    p = bell.born_table(state.printed_state(), bell.rational_observables()).reshape((3,) * 3 + (2,) * 3)
    for kept in itertools.chain(*(itertools.combinations(range(3), r) for r in (1, 2))):
        marginal = p.sum(axis=tuple(3 + j for j in range(3) if j not in kept), keepdims=True)
        at_zero = marginal[tuple(slice(None) if j in kept else slice(1) for j in range(3))]
        assert (marginal == at_zero).all()


@pytest.mark.parametrize("party, setting", itertools.product(range(3), range(3)))
def test_exact_outcome_relabelling_leaves_the_game(exact_paper_tables, party, setting):
    # O_{k,x} -> -O_{k,x} swaps party k's outcomes on setting x; negating g's
    # slice (k, x) as well leaves every term g(x) E(x), and P_C's search space
    obs = bell.rational_observables()
    obs[party][setting] = -obs[party][setting]
    hom = exact_paper_tables.ineq
    g = hom.g.copy()
    g[(slice(None),) * party + (setting,)] *= -1
    assert (g != hom.g).any()
    t = simulate.GameTables(state.printed_state(), obs,
                            bell.Inequality(g, hom.lower_bound, hom.upper_bound))
    assert type(t.quantum_value) is Fraction
    want = exact_paper_tables
    assert (t.quantum_value, t.p_classical_exact, t.p_quantum_exact) == (
        want.quantum_value, want.p_classical_exact, want.p_quantum_exact)


def haar_unitary(rng):
    """A Haar-random 2x2 unitary: the Q of a complex Gaussian matrix, each
    column's phase fixed by R's diagonal."""
    q, r = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_local_unitaries_leave_the_paper_game(rho, obs, tables, seed):
    # U_1 (x) U_2 (x) U_3 on rho and U_k O U_k^+ on party k's observables leave
    # every projector trace; a partial transpose turns U_k into its conjugate,
    # another local unitary, so the cuts' spectra stay too
    rng = np.random.default_rng(seed)
    us = [haar_unitary(rng) for _ in range(3)]
    u = functools.reduce(np.kron, us)
    rotated_rho = u @ rho @ u.conj().T
    rotated_obs = [[v @ o @ v.conj().T for o in row] for v, row in zip(us, obs)]
    born = bell.born_table(rotated_rho, rotated_obs)
    assert np.abs(born - bell.born_table(rho, obs)).max() <= tolerances.FLOAT
    t = simulate.GameTables(rotated_rho, rotated_obs)
    assert abs(t.quantum_value - tables.quantum_value) <= tolerances.FLOAT
    assert abs(t.p_quantum_exact - tables.p_quantum_exact) <= tolerances.FLOAT
    pt_mins = state.validate_state(rotated_rho).pt_min_eigenvalues
    want = state.validate_state(rho).pt_min_eigenvalues
    assert np.abs(np.subtract(pt_mins, want)).max() <= tolerances.FLOAT


def permuted_values(perm, rho, obs, g):
    """(S, P_C, P_Q) of the game on (rho, obs, g), then of the same game with
    party perm[k] relabelled as party k: rho's row and column axes, the
    observable lists and g's axes move together."""
    n = len(perm)
    moved = np.reshape(rho, (2,) * 2 * n).transpose(list(perm) + [n + p for p in perm])
    values = []
    for game in ((rho, obs, g),
                 (moved.reshape(2 ** n, 2 ** n), [obs[p] for p in perm], g.transpose(perm))):
        t = simulate.GameTables(*game[:2], inequality(game[2]))
        values.append((t.quantum_value, t.p_classical_exact, t.p_quantum_exact))
    return values


@settings(NO_SHRINK, max_examples=15)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 3).flatmap(
    lambda n: st.tuples(sparse_tables(3, n), st.permutations(range(n)))))
def test_exact_party_permutation_leaves_the_game(seed, case):
    entries, perm = case
    rho, obs = exact_inputs(np.random.default_rng(seed), len(perm))
    values, moved = permuted_values(perm, rho, obs, dense(entries, 3))
    assert all(type(v) is Fraction for v in values)
    assert moved == values


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), party_tables(3).flatmap(
    lambda entries: st.tuples(st.just(entries), st.permutations(range(parties(entries))))))
def test_party_permutation_leaves_the_game(seed, case):
    entries, perm = case
    rng = np.random.default_rng(seed)
    rho, obs = ginibre_state(rng, len(perm)), random_observables(rng, len(perm))
    values, moved = permuted_values(perm, rho, obs, dense(entries, 3))
    assert max(abs(a - b) for a, b in zip(moved, values)) <= tolerances.FLOAT


@settings(max_examples=30, deadline=None)
@given(party_tables(3), st.integers(1, 7))
def test_scaling_an_integral_table_leaves_p_c(entries, m):
    g = dense(entries, 3).astype(int)
    p_c = ccp.optimal_classical_strategy(g)[1]
    assert type(p_c) is Fraction
    assert ccp.optimal_classical_strategy(m * g)[1] == p_c


@pytest.mark.parametrize("m", range(2, 8))
def test_scaling_the_paper_game_leaves_p_c_and_p_q(exact_paper_tables, hom, m):
    # m g weighs m sum |g| and reaches m S: both probabilities are ratios of the two
    t = simulate.GameTables(state.printed_state(), bell.rational_observables(),
                            bell.Inequality(m * hom.g, -8 * m, 8 * m))
    want = exact_paper_tables
    assert type(t.p_classical_exact) is Fraction and type(t.p_quantum_exact) is Fraction
    assert t.quantum_value == m * want.quantum_value
    assert (t.p_classical_exact, t.p_quantum_exact) == (want.p_classical_exact,
                                                        want.p_quantum_exact)


def one_bit_messages(s):
    """Every bit e(x, y) that a party with s settings can broadcast, as +-1 of
    shape (4^s, s, 2): y = +1, then y = -1, on the last axis."""
    bits = np.arange(4 ** s)[:, None] >> np.arange(2 * s) & 1
    return (1 - 2 * bits).reshape(-1, s, 2)


def product_guess_wins(g):
    """Twice the |g|-weighted win count, over every x and y, of each protocol in
    which party i broadcasts any bit e_i(x_i, y_i) and the guess is the product
    of the n bits, shape (4^s,) * n, in integers.  A shot wins when
    e_1...e_n = y_1...y_n sign g(x), i.e. [win] = (1 + g(x) prod_i y_i e_i / |g(x)|) / 2,
    and y_i enters only party i's factor, so the sum over y leaves
    sum_x g(x) h_1(x_1)...h_n(x_n), with h_i(x) = sum_y y e_i(x, y)."""
    h = one_bit_messages(g.shape[0]) @ np.array([1, -1])
    v = g.astype(np.int64)
    for _ in range(g.ndim):  # contract party k's setting, append its messages
        v = np.tensordot(v, h, axes=(0, 1))
    return 2 ** g.ndim * int(np.abs(g).sum()) + v


def any_guess_wins(g):
    """The |g|-weighted win count of every two-party protocol with any bits e_1, e_2 and
    any of the 16 guesses G(e_1, e_2), shape (16, 4^s, 4^s), by a literal sum over x and y."""
    bits = (1 - one_bit_messages(g.shape[0])) // 2  # 1 for -1
    guesses = (1 - 2 * (np.arange(16)[:, None] >> np.arange(4) & 1)).reshape(16, 2, 2)
    # axes (G, e_1, x_1, y_1, e_2, x_2, y_2)
    guess = guesses[:, bits[:, :, :, None, None, None], bits[None, None, None]]
    y = np.array([1, -1])
    target = y[None, :, None, None] * y[None, None, None, :] * np.sign(g)[:, None, :, None]
    weight = np.abs(g)[:, None, None, :, None]  # (x_1, y_1, e_2, x_2, y_2)
    return ((guess == target[:, :, None]) * weight).sum(axis=(2, 3, 5, 6))


def test_no_one_bit_protocol_beats_the_classical_optimum(hom):
    # all 64^3 = 262,144 choices of (e_1, e_2, e_3) on the settings 0..2 that
    # carry the built-in game (setting 3 carries none of it), in integers
    g = hom.g[:3, :3, :3].astype(int)
    assert (g == hom.g[:3, :3, :3]).all() and np.abs(g).sum() == 22
    wins = product_guess_wins(g)
    assert wins.shape == (64,) * 3
    best = Fraction(int(wins.max()), 2 ** 4 * 22)
    assert best == ccp.optimal_classical_strategy(hom.g)[1] == Fraction(15, 22)
    assert (wins == wins.max()).sum() == 2400


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 3).flatmap(lambda n: st.integers(1, 3).flatmap(
    lambda s: st.tuples(st.just(s), sparse_tables(s, n)))))
def test_one_bit_protocols_match_the_optimal_strategy(sized):
    # no deterministic one-bit protocol beats the y a(x) strategies; at two
    # parties with any of the 16 guesses, whose product guess is the one above
    s, entries = sized
    g = dense(entries, s).astype(int)
    n, weight = g.ndim, int(np.abs(g).sum())
    wins = product_guess_wins(g)
    p_c = ccp.optimal_classical_strategy(g)[1]
    assert type(p_c) is Fraction
    assert Fraction(int(wins.max()), 2 ** (n + 1) * weight) == p_c
    if n == 2:
        general = any_guess_wins(g)
        product = general[int(0b0110)]  # G(e_1, e_2) = e_1 e_2 on the bits 00, 01, 10, 11
        assert (2 * product == wins).all()
        assert Fraction(int(general.max()), 4 * weight) == p_c


def cut_sides(n):
    """Oracle: one side of each bipartition of n parties, the smaller one
    (of two equal halves, the one holding party 1), by size, then in order."""
    sides = set()
    for size in range(1, n):
        for side in itertools.combinations(range(n), size):
            rest = tuple(k for k in range(n) if k not in side)
            sides.add(min(side, rest, key=lambda s: (len(s), 0 not in s)))
    return sorted(sides, key=lambda s: (len(s), s))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.booleans(), st.integers(2, 4))
def test_stacked_certificates_match_one_matrix_oracle(seed, real, n):
    # validate_state diagonalizes rho and its partial transpose on every cut
    # as one stack; each must equal what that matrix alone gives, bit for
    # bit.  A cut's transpose here swaps the row and column axes of each
    # party on its side of rho as (2,)*2n: twice for the two-party cuts of n = 4.
    rho = ginibre_state(np.random.default_rng(seed), n)
    if real:
        rho = rho.real
    report = state.validate_state(rho)
    pts = [functools.reduce(lambda m, k: m.swapaxes(k, n + k), side, rho.reshape((2,) * 2 * n))
           .reshape(2 ** n, 2 ** n) for side in cut_sides(n)]
    assert len(pts) == 2 ** (n - 1) - 1
    assert report.min_eigenvalue == float(np.linalg.eigvalsh(rho)[0])
    assert report.pt_min_eigenvalues == tuple(float(np.linalg.eigvalsh(m)[0]) for m in pts)
    assert report.pt_invariance_deviation == max(float(np.abs(m - rho).max()) for m in pts)
    assert report.hermiticity_deviation == float(np.abs(rho - rho.conj().T).max())
    assert report.trace_deviation == abs(float(np.trace(rho).real) - 1.0)
    stacked = np.linalg.eigvalsh(np.stack([rho, *pts]))
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


# one 2^n x 2^n matrix, 2 <= n <= 5: (64, 64) is six qubits, over the cap
@pytest.mark.parametrize("shape", [(2, 2), (2, 8, 8), (64,), (8, 4), (64, 64), (6, 6)])
def test_certificates_need_one_8x8_matrix(shape):
    with pytest.raises(ValueError, match=r"2\^n x 2\^n matrix, 2 <= n <= 5"):
        state.validate_state(np.zeros(shape))


def loop_build(amplitudes, weights):
    """Oracle: each ket normalized alone and its weighted outer product
    added to rho in turn."""
    wsum = sum(weights)
    rho = np.zeros((8, 8))
    for w, amps in zip(weights, amplitudes):
        ket = np.array(amps, dtype=complex)
        ket = ket / np.linalg.norm(ket)
        rho += (w / wsum) * np.outer(ket, ket.conj()).real
    return rho


def transposed_stacks(rho, n):
    """Oracle: rho and its partial transpose on every cut, one swapaxes per
    party on the cut's side, and its n! party permutations, each made on
    rho as (2,)*2n."""
    t = np.asarray(rho).reshape((2,) * 2 * n)
    pts = [functools.reduce(lambda m, k: m.swapaxes(k, n + k), side, t)
           for side in [()] + cut_sides(n)]
    permuted = [t.transpose(p + tuple(n + i for i in p))
                for p in itertools.permutations(range(n))]
    return (np.stack(pts).reshape(-1, 2 ** n, 2 ** n),
            np.stack(permuted).reshape(-1, 2 ** n, 2 ** n))


def projector_contraction(op, obs):
    """Oracle: trace(op Pi_1 (x) ... (x) Pi_n) for every setting tuple and
    outcome, with each party's projectors (I + O)/2 and (I - O)/2 built by
    np.stack, in born_table's contraction order.  Its constants are
    integers, so Fraction op and obs stay exact."""
    n, eye = len(obs), np.eye(2, dtype=int)
    p = np.asarray(op).reshape((2,) * 2 * n)
    for k, o in enumerate(map(np.array, obs)):
        stack = np.stack([(eye + o) / 2, (eye - o) / 2], axis=1)
        measured = list(range(2 * n, 2 * n + 2 * k + 2))
        rows, cols = list(range(k, n)), list(range(n + k, 2 * n))
        out = measured + rows[1:] + cols[1:] if k < n - 1 else measured[0::2] + measured[1::2]
        p = np.einsum(p, measured[:-2] + rows + cols, stack, measured[-2:] + [n + k, k], out)
    return p.reshape(p.shape[:n] + (-1,))


def stacked_projector_born_table(rho, obs):
    """Oracle: born_table as projector_contraction, clipped at 0 and
    renormalized."""
    p = np.clip(projector_contraction(rho, obs).real, 0.0, None)
    return p / p.sum(axis=-1, keepdims=True)


def test_built_in_state_matches_loop_oracle(rho):
    assert np.array_equal(rho, loop_build(state.PURE_STATE_AMPLITUDES, state.MIXTURE_WEIGHTS))
    assert rho.tobytes() == loop_build(state.PURE_STATE_AMPLITUDES,
                                       state.MIXTURE_WEIGHTS).tobytes()


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_state_build_matches_loop_oracle(seed):
    # random kets and weights printed to 6 and 7 decimals, like the paper's
    rng = np.random.default_rng(seed)
    kets = rng.standard_normal((4, 8))
    kets = np.round(kets / np.linalg.norm(kets, axis=1)[:, None], 6)
    weights = rng.random(4) + 0.1
    weights = tuple(np.round(weights / weights.sum(), 7).tolist())
    amplitudes = tuple(map(tuple, kets.tolist()))
    with mock.patch.object(state, "PURE_STATE_AMPLITUDES", amplitudes), \
            mock.patch.object(state, "MIXTURE_WEIGHTS", weights):
        rho = state.build_vb_state()
    assert np.array_equal(rho, loop_build(amplitudes, weights))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.booleans(), st.booleans(), st.integers(2, 5))
def test_gathered_stacks_match_transpose_oracle(seed, real, built_in, n):
    if built_in:
        rho, n = state.build_vb_state(), 3
    else:
        rho = ginibre_state(np.random.default_rng(seed), n)
    if real:
        rho = rho.real
    pts, permuted = transposed_stacks(rho, n)
    report = state.validate_state(rho)
    assert report.pt_invariance_deviation == float(np.abs(pts[1:] - rho).max())
    assert report.permutation_symmetry_deviation == float(np.abs(permuted - rho).max())
    eigs = np.linalg.eigvalsh(pts)
    assert (report.min_eigenvalue, report.pt_min_eigenvalues) == (
        float(eigs[0, 0]), tuple(eigs[1:, 0].tolist()))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 5), st.booleans())
def test_born_table_matches_stacked_projector_oracle(seed, n, real):
    rng = np.random.default_rng(seed)
    rho = ginibre_state(rng, n)
    obs = random_observables(rng, n)
    if real:
        rho, obs = rho.real, [[o.real for o in row] for row in obs]
    assert np.array_equal(bell.born_table(rho, obs), stacked_projector_born_table(rho, obs))
    rho, obs = state.build_vb_state(), bell.measurement_observables()
    assert bell.born_table(rho, obs).tobytes() == stacked_projector_born_table(rho, obs).tobytes()


@settings(max_examples=30, deadline=None)
@given(party_tables(3), st.integers(0, 2 ** 32 - 1))
def test_game_tables_match_per_tuple_oracle(entries, seed):
    # the win cells and cell laws of GameTables against one loop over the support
    n = parties(entries)
    g = dense(entries, 3)
    rng = np.random.default_rng(seed)
    rho = ginibre_state(rng, n)
    obs = random_observables(rng, n)
    tables = simulate.GameTables(rho=rho, obs=obs, ineq=inequality(g))
    born = bell.born_table(rho, obs)
    corr = bell.correlations(born)
    strategy, _ = ccp.optimal_classical_strategy(g)
    support = [x for x in itertools.product(range(3), repeat=n) if g[x] != 0]
    assert tables.support == support
    q = ccp.input_distribution(g)
    outcomes = list(itertools.product((0, 1), repeat=n))
    for k, x in enumerate(support):
        sign = 1 if g[x] > 0 else -1
        for a, bits in enumerate(outcomes):
            assert tables.win[k, a] == (math.prod(1 - 2 * b for b in bits) == sign)
        # the cell law's rows are Q(x) P(a|x), bit for bit
        assert tables.cell_law["quantum"][k].tobytes() == (q[x] * born[x]).tobytes()
        answer = tuple(int(strategy.a[p][x[p]] < 0) for p in range(n))
        one_hot = np.zeros(2 ** n)
        one_hot[outcomes.index(answer)] = 1.0
        assert tables.cell_law["classical"][k].tobytes() == (q[x] * one_hot).tobytes()
    terms = [g[x] * corr[x] for x in support]
    assert tables.quantum_value == float(sum(terms))  # left to right, as numpy scalars


@settings(NO_SHRINK, max_examples=10)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 3))
def test_exact_game_tables_give_exact_success_probabilities(hom, seed, n):
    # a Fraction Gram state and rational reflections: CHSH on settings 1 and 2
    # at n = 2, the built-in game at n = 3; S, P_C and P_Q all stay exact
    rho, obs = exact_inputs(np.random.default_rng(seed), n)
    chsh = np.zeros((3, 3))
    chsh[1:, 1:] = [[1, 1], [1, -1]]
    ineq = bell.Inequality(chsh, -2, 2) if n == 2 else hom
    tables = simulate.GameTables(rho, obs, ineq)
    assert type(tables.quantum_value) is Fraction
    assert type(tables.p_classical_exact) is Fraction
    assert type(tables.p_quantum_exact) is Fraction
    sum_abs = int(np.abs(ineq.g).sum())
    assert tables.p_quantum_exact == ccp.success_probability(tables.quantum_value, sum_abs)
    float_tables = simulate.GameTables(
        rho.astype(float), [[o.astype(float) for o in row] for row in obs], ineq)
    assert float(tables.p_quantum_exact) == pytest.approx(float_tables.p_quantum_exact, abs=1e-12)
    # the same table halved is not integral: P_C and P_Q are both floats, of
    # the same values (S and sum |g| halve alike)
    half = bell.Inequality(ineq.g / 2, ineq.lower_bound / 2, ineq.upper_bound / 2)
    halved = simulate.GameTables(rho, obs, half)
    for p, p_float in ((halved.p_classical_exact, float_tables.p_classical_exact),
                       (halved.p_quantum_exact, float_tables.p_quantum_exact)):
        assert type(p) is float and p == pytest.approx(float(p_float), abs=1e-12)
    # the sampler draws from the exact cell law cast to floats: p_hat is within 5 sigma of P_Q
    shots, p_q = 10 ** 6, float(tables.p_quantum_exact)
    report = simulate.run_protocol(simulate.SimulationConfig(shots, seed=seed), tables)
    assert abs(report.empirical_probability - p_q) <= 5 * math.sqrt(p_q * (1 - p_q) / shots)
    gap = simulate.gap_experiment(shots, seed=seed, tables=tables)
    assert gap.simulation.successes == report.successes and gap.p_quantum_exact == p_q


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
    obs = random_observables(rng, 3)
    shift = bell.quantum_value(hom, rho, obs) - bell.quantum_value(ineq, rho, obs)
    assert shift == pytest.approx(-(lo + hi) / 2, abs=1e-12)


def traced_extrema(ineq):
    """classical_extrema, and the peak of memory traced while it ran."""
    tracemalloc.start()
    try:
        return bell.classical_extrema(ineq), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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
    (lo, hi, argmax), peak = traced_extrema(inequality(g))
    total = sum(abs(c) for c in coefficients)
    assert (lo, hi) == (2 - total, 2 + total)
    for (p, s), c in zip(slots, coefficients):
        assert argmax.a[p][s] == math.copysign(1, c)
    # the whole 2^21 x 3 x 8 sign tensor would take 384 MiB
    assert peak < 16 * 2 ** 20

    # 12 parties with 2 settings: g = (x) (1, c_k), so the expression is
    # prod_k (1 + c_k a_k(1)), with extrema 0 and 2^12 at a_k(1) = c_k.  A
    # strategy's first contraction has 2^11 entries, so with a fixed block
    # of 4096 strategies that contraction alone takes 64 MiB
    c = [(-1) ** k for k in range(12)]
    g = functools.reduce(np.multiply.outer, [[1.0, ck] for ck in c], np.ones(()))
    (lo, hi, argmax), peak = traced_extrema(inequality(g))
    assert (lo, hi) == (0, 2 ** 12)
    assert [row[1] for row in argmax.a] == c
    assert peak < 16 * 2 ** 20


def test_all_ones_twenty_party_table_in_time_and_memory():
    # g = (x) (1, 1) over 20 two-setting parties: the expression is
    # prod_k (1 + a_k(1)), with extrema 0 and 2^20 at the all-ones
    # strategy.  All 20 free slots are live, so 2^20 strategies are
    # contracted one party at a time, the last parties' rows enumerated
    start = time.perf_counter()
    (lo, hi, argmax), peak = traced_extrema(bell.Inequality(np.ones((2,) * 20), -1, 1))
    assert time.perf_counter() - start <= 2
    assert (lo, hi) == (0, 2 ** 20)
    assert all(v == 1 for row in argmax.a for v in row)
    assert peak < 16 * 2 ** 20


def assert_searches_live_slots_only(n_parties):
    # one term A_1(1) ... A_n(1) on two settings, homogenized: padding to
    # N_SETTINGS = 4 settings gives 3n free slots (2^3n strategies), of
    # which the n on setting 1 carry support, so 2^n are contracted; the
    # extrema are -+1 and the smallest maximizer is all ones
    g = np.zeros((2,) * n_parties)
    g[(1,) * n_parties] = 1.0
    hom = bell.homogenize(bell.Inequality(g, -1, 1))
    start = time.perf_counter()
    (lo, hi, argmax), peak = traced_extrema(hom)
    assert time.perf_counter() - start <= 1
    assert (lo, hi) == (-1, 1)
    assert all(v == 1 for row in argmax.a for v in row)
    assert peak < 16 * 2 ** 20
    assert bell.search_strategies(hom.g)[3] == 2 ** (3 * n_parties)


def test_padded_eight_party_table_searches_live_slots_only():
    assert_searches_live_slots_only(8)


def test_nine_party_table_passes_the_live_slot_guard():
    # 2^27 free-slot strategies exceed MAX_STRATEGY_SPACE; the 2^9 live do not
    assert_searches_live_slots_only(9)


@given(st.integers(1, 10 ** 6), st.data())
def test_success_probability_exact_for_integers(total, data):
    value = data.draw(st.integers(-total, total))
    p = ccp.success_probability(value, total)
    assert isinstance(p, Fraction)
    assert p == Fraction(total + value, 2 * total)
    assert ccp.success_probability(float(value), total) == pytest.approx(float(p), abs=1e-15)


@given(st.fractions(Fraction(1, 10 ** 6), 10 ** 6, max_denominator=10 ** 6), st.data())
def test_success_probability_exact_for_fractions(total, data):
    # values beyond +-total, which no strategy reaches, raise
    value = data.draw(st.fractions(-total, total, max_denominator=10 ** 6))
    with pytest.raises(ValueError, match="exceeds"):
        ccp.success_probability(total + Fraction(1, 10 ** 12), total)
    p = ccp.success_probability(value, total)
    assert type(p) is Fraction
    assert p == (1 + value / total) / 2
    p_float = ccp.success_probability(float(value), float(total))
    assert p_float == pytest.approx(float(p), rel=1e-12, abs=1e-12)
