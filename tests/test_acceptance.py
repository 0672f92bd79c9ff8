"""Acceptance suite: the headline numbers, certificates and oracle
equivalences, one test per criterion, each printing a PASS line (run with
pytest -s to see them).

Criterion 8 note: resolving the ~1.56e-4 quantum-classical gap by direct
Monte Carlo needs ~4e8 shots per seed.  The simulator draws each run's
cell counts in one multinomial step, so the full 10-seed run takes
milliseconds and always runs, next to the analytic form of the gap.
"""
import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from becc import bell, ccp, simulate, state


@pytest.fixture(scope="module")
def tables():
    return simulate.default_tables()


def report(name, detail):
    print(f"PASS {name}: {detail}")


def test_criterion_1_original_bounds():
    t0 = time.perf_counter()
    lo, hi, _ = bell.classical_extrema(bell.sliwa5())
    elapsed = time.perf_counter() - t0
    assert (lo, hi) == (-13, 3)
    assert elapsed < 1.0
    report("criterion 1", f"original bounds ({lo:g}, {hi:g}) in {elapsed:.3f}s")


def test_criterion_2_homogenized_bound():
    t0 = time.perf_counter()
    lo, hi, _ = bell.classical_extrema(bell.homogenize(bell.sliwa5()))
    elapsed = time.perf_counter() - t0
    assert hi == 8
    assert lo == -8
    assert elapsed < 1.0
    report("criterion 2", f"homogenized bound {hi:g} in {elapsed:.3f}s")


def test_criterion_3_coefficient_cross_check():
    hom = bell.homogenize(bell.sliwa5())
    for x in itertools.product(range(4), repeat=3):
        assert bell.g_coefficient(*x) == hom.g[x]
    assert hom.sum_abs() == 22
    report("criterion 3", "closed-form g matches homogenization on 64 tuples, sum|g| = 22")


def test_criterion_4_quantum_value(tables):
    t0 = time.perf_counter()
    s = bell.quantum_value(tables.ineq, tables.rho, tables.obs)
    s_orig = bell.general_quantum_value(bell.sliwa5(), tables.rho, tables.obs)
    elapsed = time.perf_counter() - t0
    assert abs(s - 8.00685) <= 2e-4
    assert abs(s_orig - 3.00685) <= 2e-4
    assert elapsed < 1.0
    report("criterion 4", f"S = {s:.6f} (original expression {s_orig:.6f}) in {elapsed:.3f}s")


def test_criterion_5_exact_success_probabilities(tables):
    p_c = tables.p_classical_exact
    p_q = tables.p_quantum_exact
    assert p_c == Fraction(15, 22)
    assert f"{float(p_c):.6f}" == "0.681818"
    assert abs(p_q - 0.681974) <= 1e-4
    assert p_q > p_c
    report("criterion 5", f"P_C = 15/22 = {float(p_c):.6f}, P_Q = {p_q:.6f}, P_Q > P_C")


def test_criterion_6_state_certificates():
    rep = state.validate_state(state.build_vb_state())
    assert rep.trace_deviation <= 1e-9
    assert rep.min_eigenvalue >= -1e-6
    assert rep.pt_invariance_deviation <= 1e-5
    assert all(e >= -1e-5 for e in rep.pt_min_eigenvalues)
    assert rep.permutation_symmetry_deviation <= 1e-5
    report("criterion 6",
           f"trace dev {rep.trace_deviation:.1e}, min eig {rep.min_eigenvalue:.1e}, "
           f"PT dev {rep.pt_invariance_deviation:.1e}, "
           f"perm dev {rep.permutation_symmetry_deviation:.1e}")


def test_criterion_7_monte_carlo_consistency(tables):
    t0 = time.perf_counter()
    details = []
    for protocol, target in (("classical", float(tables.p_classical_exact)),
                             ("quantum", tables.p_quantum_exact)):
        rep = simulate.run_protocol(
            simulate.SimulationConfig(shots=1_000_000, seed=0, protocol=protocol),
            tables)
        dev = abs(rep.empirical_probability - target)
        assert dev <= 5 * rep.standard_error
        details.append(f"{protocol} p_hat {rep.empirical_probability:.6f} "
                       f"({dev / rep.standard_error:.2f} sigma)")
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    # 1e6 shots cannot resolve the gap: stderr ~4.7e-4 >> gap ~1.56e-4
    assert math.sqrt(0.217 / 1e6) > tables.p_quantum_exact - float(tables.p_classical_exact)
    report("criterion 7", "; ".join(details) + f"; {elapsed:.1f}s")


def test_criterion_8_gap_resolution(tables):
    # analytic gate: exact gap (S - 8)/44 matches 1.56e-4
    gap = (tables.quantum_value - 8.0) / 44.0
    assert abs(gap - 1.56e-4) <= 1e-5
    assert gap == pytest.approx(
        tables.p_quantum_exact - float(tables.p_classical_exact), abs=1e-15)
    report("criterion 8", f"exact gap (S-8)/44 = {gap:.4e} (within 1e-5 of 1.56e-4)")

    hits = 0
    for seed in range(10):
        rep = simulate.gap_experiment(400_000_000, seed=seed, tables=tables)
        assert not rep.underpowered
        if rep.z_vs_classical >= 4:
            hits += 1
    assert hits >= 8
    report("criterion 8 (full)", f"z >= 4 on {hits}/10 seeds at 4e8 shots")


def test_criterion_9_oracle_equivalences(tables):
    g = tables.ineq.g
    q = ccp.input_distribution(g)
    f = lambda inst: ccp.target_function(inst, g)

    rng = random.Random(11)
    for _ in range(100):
        strategy = ccp.ClassicalStrategy(tuple(
            tuple(rng.choice((-1, 1)) for _ in range(4)) for _ in range(3)))
        direct = ccp.success_by_enumeration(strategy, g)
        via_product = 0.5 * (1.0 + ccp.scalar_product(f, strategy.answer, q))
        assert abs(direct - via_product) <= 1e-12

    # Born-distribution correlations vs trace formula on every setting
    # tuple with defined observables (settings 0..2 per party; setting 3
    # has no observable and zero coefficient)
    for x in itertools.product(range(3), repeat=3):
        probs = simulate.born_distribution(tables.rho, tables.obs, x)
        derived = float(np.dot(simulate.OUTCOME_PRODUCT, probs))
        assert abs(derived - bell.correlation(tables.rho, tables.obs, x)) <= 1e-9

    _, hi, _ = bell.classical_extrema(tables.ineq)
    _, success = ccp.optimal_classical_strategy(g)
    assert success == ccp.success_probability(int(hi), 22)
    report("criterion 9",
           "Eq-identity on 100 strategies <= 1e-12; Born vs trace <= 1e-9 "
           "on all defined tuples; search optimum == enumeration bound")
