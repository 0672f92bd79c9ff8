import hashlib
import itertools
import json
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from becc import bell, ccp, simulate, state
from becc.simulate import (
    GameTables,
    SimulationConfig,
    born_distribution,
    gap_experiment,
    run_protocol,
    sample_counts,
)
from conftest import exact


class TestBornDistribution:
    def test_all_identity_is_deterministic(self, rho, obs):
        probs = born_distribution(rho, obs, (0, 0, 0))
        assert probs[0] == pytest.approx(1.0, abs=1e-12)
        assert probs[1:].max() == 0.0

    def test_normalized_on_all_setting_tuples(self, rho, obs):
        for x in itertools.product(range(3), repeat=3):
            probs = born_distribution(rho, obs, x)
            assert probs.min() >= 0.0
            assert abs(probs.sum() - 1.0) <= 1e-9

    def test_correlation_oracle_equivalence(self, rho, obs):
        # sum_a (a1 a2 a3) P(a|x) must reproduce the trace formula
        for x in itertools.product(range(3), repeat=3):
            probs = born_distribution(rho, obs, x)
            derived = float(np.dot(simulate.OUTCOME_PRODUCT, probs))
            assert derived == pytest.approx(bell.correlation(rho, obs, x), abs=1e-9)

    def test_setting_out_of_range(self, rho, obs):
        with pytest.raises(ValueError):
            born_distribution(rho, obs, (0, 0, 5))


class TestConfig:
    def test_rejects_zero_shots(self):
        with pytest.raises(ValueError):
            SimulationConfig(shots=0)

    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError):
            SimulationConfig(shots=1, shards=0)

    def test_rejects_more_shards_than_shots(self):
        SimulationConfig(shots=5, shards=5)
        with pytest.raises(ValueError):
            SimulationConfig(shots=5, shards=6)

    def test_rejects_more_than_max_shards(self):
        SimulationConfig(shots=10**9, shards=simulate.MAX_SHARDS)
        with pytest.raises(ValueError):
            SimulationConfig(shots=10**9, shards=simulate.MAX_SHARDS + 1)

    def test_rejects_shots_beyond_int64(self):
        SimulationConfig(shots=2**63 - 1)
        with pytest.raises(ValueError):
            SimulationConfig(shots=2**63)

    @pytest.mark.parametrize("field", ["shots", "seed", "shards"])
    def test_rejects_non_integer(self, field):
        # a float shot count was truncated by the multinomial draw, so
        # shots=2.5 reported 2 successes as p_hat 0.8
        with pytest.raises(ValueError, match="integer"):
            SimulationConfig(**{"shots": 10, "seed": 0, "shards": 1, field: 2.5})

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError):
            SimulationConfig(shots=1, seed=-1)

    def test_rejects_unknown_protocol(self):
        with pytest.raises(ValueError):
            SimulationConfig(shots=1, protocol="psychic")


class TestTables:
    def test_tally_rule_exhaustive(self, tables):
        # every supported x, outcome a and sign bits y: the broadcast
        # product y_i * a_i hits the target exactly on the win cells
        g = tables.ineq.g
        for k, x in enumerate(tables.support):
            for a, bits in enumerate(itertools.product((1, -1), repeat=3)):
                for y in itertools.product((-1, 1), repeat=3):
                    guess = math.prod(yi * ai for yi, ai in zip(y, bits))
                    target = ccp.target_function(ccp.GameInstance(y, x), g)
                    assert (guess == target) == tables.win[k, a]

    def test_cell_law_reproduces_exact_success(self, tables):
        for protocol, exact in (("classical", float(tables.p_classical_exact)),
                                ("quantum", tables.p_quantum_exact)):
            pi = tables.cell_law[protocol]
            assert pi.dtype == np.float64 and pi.shape == (len(tables.support), 8)
            assert pi.sum() == pytest.approx(1.0, abs=1e-15)
            assert pi[tables.win].sum() == pytest.approx(exact, abs=1e-15)

    def test_shared_tables_are_read_only(self, tables):
        # every caller gets the one cached object; each write puts back the
        # entry's own value, so a write that went through would change nothing
        for a in (tables.rho, tables.ineq.g, tables.win, tables.correlations,
                  *tables.cell_law.values(), *itertools.chain(*tables.obs)):
            with pytest.raises(ValueError, match="read-only"):
                a[(0,) * a.ndim] = a[(0,) * a.ndim]
        config = SimulationConfig(1_000_000, seed=3, shards=3)
        assert run_protocol(config, tables).successes == 681957

    def test_one_game_behind_ccp_and_simulate(self):
        # the CLI reads ccp, the benchmark and the acceptance test read simulate
        assert simulate.GameTables is ccp.GameTables
        assert simulate.default_tables() is ccp.default_tables()

    def test_caller_arrays_stay_writeable(self, rho, obs):
        ineq = bell.homogenize(bell.sliwa5())
        own = GameTables(rho=rho, obs=obs, ineq=ineq)
        assert rho.flags.writeable and ineq.g.flags.writeable
        assert own.correlations.flags.writeable
        assert all(law.flags.writeable for law in own.cell_law.values())
        simulate.default_tables()  # freezes its own observables, not the caller's
        assert all(o.flags.writeable for o in itertools.chain(*obs))

    def test_rounded_weight_gives_float_success_probabilities(self, hom):
        # exact I/8 and [I, Z, X]: S = g(0, 0, 0) = 5 exactly.  The weight
        # 22 + 2^-60 rounds to the float 22.0, which gave P_Q the Fraction
        # 27/44, 4.5e-21 off the exact weight's value, next to a float P_C
        rho = exact(np.eye(8, dtype=int)) / 8
        obs = [[exact(np.eye(2, dtype=int)), exact(np.diag([1, -1])),
                exact(np.array([[0, 1], [1, 0]]))] for _ in range(3)]
        g = hom.g.copy()
        g[0, 0, 2] = 2.0 ** -60
        assert np.abs(g).sum() == 22
        t = GameTables(rho, obs, bell.Inequality(g, -8, 8))
        assert t.quantum_value == 5
        assert type(t.p_quantum_exact) is float and type(t.p_classical_exact) is float
        assert t.p_quantum_exact == 27 / 44

    def test_gate_runs_once(self, rho, obs):
        # expression_value gates g against the observables; GameTables ran
        # bell.support a second time on the same table
        with mock.patch.object(bell, "support", wraps=bell.support) as gate:
            GameTables(rho, obs)
        assert gate.call_count == 1

    def test_rejects_setting_without_observable(self, obs, hom):
        g = hom.g.copy()
        g[0, 3, 0] = 1
        ineq = bell.Inequality(g, -9, 9)
        with pytest.raises(ValueError, match="party 2 has no observable for setting 3"):
            GameTables(obs=obs, ineq=ineq)
        with pytest.raises(ValueError, match="party 2 has no observable for setting 3"):
            bell.bell_operator(g, obs)
        # all four consumers of bell.support name the same misfit
        corr = bell.correlations(bell.born_table(np.eye(8) / 8, obs))
        with pytest.raises(ValueError, match="party 2 has no observable for setting 3"):
            bell.expression_value(g, corr)
        with pytest.raises(ValueError, match="party 2 has no observable for setting 3"):
            bell.quantum_value(ineq, np.eye(8) / 8, obs)


class TestRunProtocol:
    def test_deterministic_reports(self, tables):
        config = SimulationConfig(shots=50_000, seed=42, protocol="quantum", shards=3)
        r1 = run_protocol(config, tables)
        r2 = run_protocol(config, tables)
        assert r1.successes == r2.successes
        assert r1.to_dict().keys() == r2.to_dict().keys()

    @pytest.mark.parametrize("protocol,target", [
        ("classical", 15 / 22),
        ("quantum", 0.681974),
    ])
    def test_million_shots_within_five_sigma(self, tables, protocol, target):
        report = run_protocol(
            SimulationConfig(shots=1_000_000, seed=0, protocol=protocol), tables)
        assert abs(report.empirical_probability - target) <= 5 * report.standard_error
        assert report.successes <= report.shots
        assert report.empirical_probability == report.successes / report.shots

    @pytest.mark.parametrize("protocol", ["classical", "quantum"])
    def test_standard_error_is_the_binomial_one(self, tables, protocol):
        # sqrt(p_hat (1 - p_hat) / n) with p_hat = k / n, as sqrt(k (n - k) / n^3)
        report = run_protocol(SimulationConfig(shots=100_000, seed=2, protocol=protocol), tables)
        k, n = report.successes, report.shots
        assert report.standard_error == pytest.approx(math.sqrt(k * (n - k) / n ** 3), rel=1e-12)

    def test_sharded_run_aggregates_all_shots(self, tables):
        report = run_protocol(
            SimulationConfig(shots=100_001, seed=1, protocol="classical", shards=7),
            tables)
        assert report.shots == 100_001

    def test_identity_observables_reduce_to_trivial_classical(self):
        # with identity measurements every outcome is +1, so the quantum
        # run must match a classical run with all sign functions fixed to +1
        eye_obs = [[np.eye(2)] * 3 for _ in range(3)]
        t = GameTables(obs=eye_obs)
        all_plus = np.zeros_like(t.cell_law["classical"])
        all_plus[:, 0] = ccp.input_distribution(t.ineq.g)[np.nonzero(t.ineq.g)]
        t.cell_law["classical"] = all_plus
        config_q = SimulationConfig(shots=20_000, seed=5, protocol="quantum")
        config_c = SimulationConfig(shots=20_000, seed=5, protocol="classical")
        assert run_protocol(config_q, t).successes == run_protocol(config_c, t).successes

    @pytest.mark.parametrize("protocol,shards", [("quantum", 1), ("classical", 3)])
    def test_cell_counts_fit_law(self, tables, rho, obs, protocol, shards):
        # reference law built independently of GameTables' cell law
        g = tables.ineq.g
        q = ccp.input_distribution(g)
        strategy, _ = ccp.optimal_classical_strategy(g)
        pi = np.zeros((len(tables.support), 8))
        for k, x in enumerate(tables.support):
            if protocol == "quantum":
                pi[k] = q[x] * born_distribution(rho, obs, x)
            else:
                bits = tuple(int(strategy.a[p][x[p]] < 0) for p in range(3))
                pi[k, list(itertools.product((0, 1), repeat=3)).index(bits)] = q[x]
        shots = 1_000_000
        counts = sample_counts(
            SimulationConfig(shots=shots, seed=9, protocol=protocol, shards=shards),
            tables)
        assert counts.sum() == shots
        assert not counts[pi == 0].any()
        live = pi > 0
        expected = shots * pi[live]
        chi2 = float(((counts[live] - expected) ** 2 / expected).sum())
        # mean df, sd sqrt(2 df); 6 sd is far in the tail for any df here
        df = int(live.sum()) - 1
        assert chi2 <= df + 6 * math.sqrt(2 * df)
        # the Q(x) marginal on its own
        marginal = counts.sum(axis=1)
        expected = shots * pi.sum(axis=1)
        chi2 = float(((marginal - expected) ** 2 / expected).sum())
        df = len(tables.support) - 1
        assert chi2 <= df + 6 * math.sqrt(2 * df)

    def test_sqrt_law_convergence(self, tables):
        # deviations stay inside 5-sigma bands as shots grow 9x, seeds 0..9
        for shots in (10_000, 90_000):
            for seed in range(10):
                report = run_protocol(
                    SimulationConfig(shots=shots, seed=seed, protocol="quantum"),
                    tables)
                p = tables.p_quantum_exact
                band = 5 * math.sqrt(p * (1 - p) / shots)
                assert abs(report.empirical_probability - p) <= band

    def test_report_json(self, tables):
        report = run_protocol(
            SimulationConfig(shots=1000, seed=0, protocol="quantum"), tables)
        doc = json.loads(json.dumps(report.to_dict()))
        for key in ("protocol", "shots", "successes", "p_hat", "stderr", "seed"):
            assert key in doc


class TestDeterminism:
    def test_success_counts_are_pinned(self, tables):
        # a report is a function of (seed, shards, shots, protocol) alone
        config = SimulationConfig(1_000_000, seed=3, shards=3)
        assert run_protocol(config, tables).successes == 681957
        assert run_protocol(config._replace(protocol="classical"), tables).successes == 680814
        counts = [gap_experiment(400_000_000, seed=seed, tables=tables).simulation.successes
                  for seed in range(3)]
        assert counts == [272799995, 272782641, 272788819]

    @pytest.mark.parametrize("protocol,shards,successes,digest", [
        ("quantum", 1, 682110, "8c103ec39c807b5d636c77e0bb07154d4e04aa55ab3105761c6959e3a6378926"),
        ("quantum", 3, 681957, "23b31d4703d2493ee5123596461a6657d19fd5d2ad989b6221f8eebc73bc1c87"),
        ("classical", 1, 681069, "2c56f51abea693685e2726095d65fff2cd52711b6d9c94a03a333f43b0c0fcc8"),
        ("classical", 3, 680814, "99eb81a88cf694f999436f58a160df53c165931c0b73cc44eb5e84af3cd4afcd"),
    ])
    def test_cell_counts_are_pinned(self, tables, protocol, shards, successes, digest):
        # every (support tuple, outcome) count, not only the success total
        counts = sample_counts(SimulationConfig(1_000_000, 3, protocol, shards), tables)
        assert counts.shape == (18, 8) and int(counts[tables.win].sum()) == successes
        assert hashlib.sha256(counts.astype("<i8").tobytes()).hexdigest() == digest

    def test_exact_table_cell_counts_are_pinned(self, hom):
        # a Fraction Gram state and rational reflections: the exact cell law,
        # cast to floats once, draws these counts
        m = np.arange(64).reshape(8, 8) * 7 % 5 - 2
        gram = exact(m @ m.T)
        rho = gram / int(np.trace(gram))
        obs = [[exact(np.eye(2, dtype=int)), bell.rational_reflection(Fraction(1, 3)),
                bell.rational_reflection(Fraction(-2, 5))] for _ in range(3)]
        t = GameTables(rho, obs, hom)
        assert t.p_quantum_exact == Fraction(140349569, 230719940)
        assert t.cell_law["quantum"].dtype == np.float64
        counts = sample_counts(SimulationConfig(1_000_000, 3, "quantum", 3), t)
        assert counts.shape == (18, 8) and int(counts[t.win].sum()) == 608586
        assert hashlib.sha256(counts.astype("<i8").tobytes()).hexdigest() == (
            "2ff0d764ee560900cf4022895cc0effdf86f50873b1b0962dcb112421fe23b05")


def reflection_in_xy_plane(phi):
    """cos(phi) X + sin(phi) Y."""
    return np.array([[0, np.exp(-1j * phi)], [np.exp(1j * phi), 0]])


def ghz(n):
    ket = np.zeros(2 ** n)
    ket[0] = ket[-1] = 1 / math.sqrt(2)
    return np.outer(ket, ket)


def chsh():
    g = np.zeros((3, 3))
    g[1, 1] = g[1, 2] = g[2, 1] = 1
    g[2, 2] = -1
    z, x = np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])
    obs = [[np.eye(2), z, x], [np.eye(2), (z + x) / math.sqrt(2), (z - x) / math.sqrt(2)]]
    return ghz(2), obs, g


def mermin():
    # XXX - XYY - YXY - YYX, setting 1 = X and setting 2 = Y
    g = np.zeros((3, 3, 3))
    g[1, 1, 1] = 1
    g[1, 2, 2] = g[2, 1, 2] = g[2, 2, 1] = -1
    obs = [[np.eye(2), reflection_in_xy_plane(0), reflection_in_xy_plane(math.pi / 2)]] * 3
    return ghz(3), obs, g


def mk4():
    # Re + Im of prod_k (a_k + i a'_k): a term with t primed factors has
    # coefficient Re(i^t) + Im(i^t)
    g = np.zeros((3,) * 4)
    for x in itertools.product((1, 2), repeat=4):
        t = x.count(2)
        g[x] = (1j ** t).real + (1j ** t).imag
    a = reflection_in_xy_plane(-math.pi / 16)
    a_primed = reflection_in_xy_plane(-math.pi / 16 + math.pi / 2)
    return ghz(4), [[np.eye(2), a, a_primed]] * 4, g


TEXTBOOK_GAMES = {
    # name: (builder of (rho, obs, g), parties, sum |g|, classical max, S, P_C, P_Q)
    "chsh": (chsh, 2, 4, 2, 2 * math.sqrt(2), Fraction(3, 4), math.cos(math.pi / 8) ** 2),
    "mermin": (mermin, 3, 4, 2, 4, Fraction(3, 4), 1.0),
    "mk4": (mk4, 4, 16, 4, 8 * math.sqrt(2), Fraction(5, 8), math.cos(math.pi / 8) ** 2),
}


def textbook_tables(name):
    rho, obs, g = TEXTBOOK_GAMES[name][0]()
    total = np.abs(g).sum()
    return GameTables(rho=rho, obs=obs, ineq=bell.Inequality(g, -total, total))


class TestTextbookGames:
    """Closed-form games of the construction P = (1 + S / sum|g|) / 2 for
    n = 2, 3 and 4 parties."""

    @pytest.mark.parametrize("name", sorted(TEXTBOOK_GAMES))
    def test_closed_form_values(self, name):
        _, n, sum_abs, c_max, s, p_c, p_q = TEXTBOOK_GAMES[name]
        t = textbook_tables(name)
        assert t.ineq.g.ndim == n and t.ineq.sum_abs() == sum_abs
        lo, hi, _ = bell.classical_extrema(t.ineq)
        assert (lo, hi) == (-c_max, c_max)
        assert t.quantum_value == pytest.approx(s, abs=1e-12)
        assert t.p_classical_exact == p_c
        assert t.p_quantum_exact == pytest.approx(p_q, abs=1e-12)

    @pytest.mark.parametrize("name", sorted(TEXTBOOK_GAMES))
    def test_bell_operator_top_eigenvalue_is_s(self, name):
        # each state is a top eigenvector of its game's B = sum_x g(x) O_x
        _, obs, g = TEXTBOOK_GAMES[name][0]()
        top = np.linalg.eigvalsh(bell.bell_operator(g, obs))[-1]
        assert top == pytest.approx(TEXTBOOK_GAMES[name][4], abs=1e-12)

    def test_chsh_run_within_five_sigma(self):
        report = run_protocol(SimulationConfig(shots=1_000_000, seed=0), textbook_tables("chsh"))
        p_q = math.cos(math.pi / 8) ** 2
        assert abs(report.empirical_probability - p_q) <= 5 * math.sqrt(p_q * (1 - p_q) / 1e6)


class TestAbstractClaim:
    """The textbook games are won with NPT states, the paper's with a PPT
    one.  A state with a positive partial transpose on every cut cannot be
    distilled (Peres, PRL 77, 1413 (1996); Horodecki, Horodecki & Horodecki,
    PRL 80, 5239 (1998)), yet it still beats the classical protocol.  Both
    claims are read from the certificates `becc state validate` prints."""

    @pytest.mark.parametrize("name", sorted(TEXTBOOK_GAMES))
    def test_textbook_states_are_npt_on_every_cut(self, name):
        t = textbook_tables(name)
        cuts = 2 ** (t.ineq.g.ndim - 1) - 1  # 1, 3 and 7 for Phi+, GHZ_3 and GHZ_4
        # GHZ_n's partial transpose on any cut has eigenvalue -1/2, up to one ulp
        report = state.validate_state(t.rho)
        assert report.pt_min_eigenvalues == pytest.approx([-0.5] * cuts, abs=1e-15)
        assert not report.certified
        assert t.p_quantum_exact > t.p_classical_exact

    def test_paper_state_is_ppt_on_every_cut(self, tables):
        report = state.validate_state(tables.rho)
        assert len(report.pt_min_eigenvalues) == 3 and report.certified
        assert tables.p_quantum_exact > tables.p_classical_exact


class TestGapExperiment:
    def test_underpowered_run_flagged(self, tables):
        report = gap_experiment(10_000, seed=0, tables=tables)
        assert report.underpowered
        assert math.isfinite(report.z_vs_classical)

    def test_exact_references(self, tables):
        report = gap_experiment(10_000, seed=0, tables=tables)
        assert report.p_classical_exact == pytest.approx(15 / 22, abs=1e-12)
        assert report.p_quantum_exact == pytest.approx(0.681974, abs=1e-5)
        assert report.exact_gap == pytest.approx(1.56e-4, abs=1e-5)

    def test_quantum_success_keeps_its_bits(self, tables):
        # (1 + S/22)/2 of the float S, with sum |g| = 22 passed as an int
        assert type(tables.p_quantum_exact) is float
        assert tables.p_quantum_exact.hex() == "0x1.5d2baf291fe66p-1"
        assert tables.p_quantum_exact == ccp.success_probability(tables.quantum_value, 22)

    def test_power_threshold_arithmetic(self, tables):
        # stderr = sqrt(p(1-p)/shots) drops below gap/4 around 1.4e8 shots;
        # at 4e8 shots the expected z-score is ~6.7
        gap = tables.p_quantum_exact - float(tables.p_classical_exact)
        p = tables.p_quantum_exact
        shots_needed = p * (1 - p) / (gap / 4) ** 2
        assert 1.3e8 < shots_needed < 1.6e8
        expected_z = gap / math.sqrt(p * (1 - p) / 4e8)
        assert expected_z == pytest.approx(6.7, abs=0.1)

    def test_well_powered_threshold(self, tables):
        # a 2e8-shot run would clear the power threshold (full-size runs
        # live in the acceptance suite)
        shots = 200_000_000
        p = tables.p_quantum_exact
        gap = p - float(tables.p_classical_exact)
        assert math.sqrt(p * (1 - p) / shots) < gap / 4

    @pytest.mark.parametrize("shots,underpowered", [(140_000_000, True), (150_000_000, False)])
    def test_power_flag_flips_at_its_threshold(self, tables, shots, underpowered):
        # stderr < gap/4 first holds at 16 P_Q (1 - P_Q) / gap^2 = 1.431e8 shots
        assert gap_experiment(shots, seed=0, tables=tables).underpowered is underpowered

    def test_json(self, tables):
        doc = json.loads(json.dumps(gap_experiment(1000, seed=0, tables=tables).to_dict()))
        assert "z_vs_classical" in doc and "underpowered" in doc

    def test_certain_classical_win_is_an_error(self):
        # one term g[1,1,1] = 1: the classical protocol always wins, P_C = 1,
        # and the score test's spread sqrt(P_C (1 - P_C) / shots) is 0
        g = np.zeros((2, 2, 2))
        g[1, 1, 1] = 1
        tables = GameTables(ineq=bell.Inequality(g, -1, 1))
        assert tables.p_classical_exact == 1
        with pytest.raises(ValueError, match="P_C = 1: the score test"):
            gap_experiment(1000, tables=tables)
