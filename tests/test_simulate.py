import itertools
import json
import math

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


@pytest.fixture(scope="module")
def tables():
    return simulate.default_tables()


@pytest.fixture(scope="module")
def rho():
    return state.build_vb_state()


@pytest.fixture(scope="module")
def obs():
    return bell.measurement_observables()


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
                for y in ccp.Y_TUPLES:
                    guess = math.prod(yi * ai for yi, ai in zip(y, bits))
                    target = ccp.target_function(ccp.GameInstance(y, x), g)
                    assert (guess == target) == tables.win[k, a]

    def test_cell_law_reproduces_exact_success(self, tables):
        for protocol, exact in (("classical", float(tables.p_classical_exact)),
                                ("quantum", tables.p_quantum_exact)):
            pi = tables.q_support[:, None] * tables.outcome_pmf[protocol]
            assert pi.sum() == pytest.approx(1.0, abs=1e-15)
            assert pi[tables.win].sum() == pytest.approx(exact, abs=1e-15)

    def test_rejects_setting_without_observable(self, obs):
        g = bell.homogenize(bell.sliwa5()).g.copy()
        g[0, 3, 0] = 1
        ineq = bell.FullCorrelationInequality(g=g, bound=9)
        with pytest.raises(ValueError, match="party 2 has no observable for setting 3"):
            GameTables(obs=obs, ineq=ineq)


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
        all_plus = np.zeros_like(t.outcome_pmf["classical"])
        all_plus[:, 0] = 1.0
        t.outcome_pmf["classical"] = all_plus
        config_q = SimulationConfig(shots=20_000, seed=5, protocol="quantum")
        config_c = SimulationConfig(shots=20_000, seed=5, protocol="classical")
        assert run_protocol(config_q, t).successes == run_protocol(config_c, t).successes

    @pytest.mark.parametrize("protocol,shards", [("quantum", 1), ("classical", 3)])
    def test_cell_counts_fit_law(self, tables, rho, obs, protocol, shards):
        # reference law built independently of GameTables' outcome tables
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

    def test_json(self, tables):
        doc = json.loads(json.dumps(gap_experiment(1000, seed=0, tables=tables).to_dict()))
        assert "z_vs_classical" in doc and "underpowered" in doc
