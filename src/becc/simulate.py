"""Monte Carlo execution of the three-party broadcast protocol.

A shot draws a setting tuple x from Q and sign bits y uniformly, yields
outcomes a (classical: the optimal sign functions; quantum: Born-rule
outcomes on the shared state), and each party broadcasts y_i * a_i.  The
guess y1*y2*y3 * a1*a2*a3 equals the target y1*y2*y3 * sign g(x) exactly
when a1*a2*a3 = sign g(x): the sign bits cancel and never affect success.
A run reports only counts, so the shots of a shard are drawn at once as
Multinomial(n, pi) over the (setting tuple, outcome) cells, with
pi(x, a) = Q(x) P(a|x); this is the exact law of the per-shot counts.

Randomness comes from numpy's Philox counter-based generator.  Shard k of
a run is seeded with SeedSequence([seed, k]), so shards are independent
substreams and the report is a pure function of
(seed, shards, shots, protocol).
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, asdict
from numbers import Integral

import numpy as np

from . import bell, ccp, state
from .bell import N_PARTIES, OUTCOME_PRODUCT, Inequality
from .bell import born_distribution  # re-exported: P(a|x) for one setting tuple

# one SeedSequence and generator per shard; the cap keeps a run's set-up bounded
MAX_SHARDS = 1024
# counts are int64, so a run's shots (and a shard's) must fit in one
MAX_SHOTS = 2 ** 63 - 1


@dataclass(frozen=True)
class SimulationConfig:
    """The inputs of one run, and the one place their limits are checked."""
    shots: int
    seed: int = 0
    protocol: str = "quantum"
    shards: int = 1

    def __post_init__(self):
        for name in ("shots", "seed", "shards"):
            value = getattr(self, name)
            if not isinstance(value, Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not 1 <= self.shots <= MAX_SHOTS:
            raise ValueError(f"shots must be in [1, {MAX_SHOTS}], got {self.shots}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 1 <= self.shards <= min(self.shots, MAX_SHARDS):
            raise ValueError(f"shards must be in [1, min(shots, {MAX_SHARDS})], "
                             f"got {self.shards}")
        if self.protocol not in ("classical", "quantum"):
            raise ValueError(f"unknown protocol {self.protocol!r}")


@dataclass(frozen=True)
class SimulationReport:
    protocol: str
    shots: int
    successes: int
    empirical_probability: float
    standard_error: float
    seed: int
    shards: int
    wall_time: float

    def to_dict(self) -> dict:
        d = asdict(self)
        d["p_hat"] = d.pop("empirical_probability")
        d["stderr"] = d.pop("standard_error")
        return d


@dataclass(frozen=True)
class GapReport:
    """Quantum simulation measured against the exact classical optimum."""
    simulation: SimulationReport
    p_classical_exact: float
    p_quantum_exact: float
    exact_gap: float
    z_vs_classical: float
    underpowered: bool

    def to_dict(self) -> dict:
        d = self.simulation.to_dict()
        d.update(
            p_classical_exact=self.p_classical_exact,
            p_quantum_exact=self.p_quantum_exact,
            exact_gap=self.exact_gap,
            z_vs_classical=self.z_vs_classical,
            underpowered=self.underpowered,
        )
        return d


class GameTables:
    """Everything a run needs, computed once.

    Holds the q-supported setting tuples with their input probabilities
    Q(x), the target signs, and per protocol an outcome table P(a|x) over
    (support, 3-bit outcome): Born-rule pmfs for "quantum", a one-hot row
    at the optimal strategy's answer for "classical".  ``win[x, a]`` marks
    the cells where the guess equals the target.
    """

    def __init__(self, rho=None, obs=None, ineq: Inequality = None):
        self.rho = state.build_vb_state() if rho is None else rho
        self.obs = bell.measurement_observables() if obs is None else obs
        self.ineq = bell.homogenize(bell.sliwa5()) if ineq is None else ineq

        g = self.ineq.g
        q = ccp.input_distribution(g)
        # one Born contraction gives both the outcome tables and S
        born = bell.born_table(self.rho, self.obs)
        self.support, quantum_pmf = bell.on_support(born, g)
        self.q_support = np.array([q[x] for x in self.support])
        self.target_sign = np.array([1 if g[x] > 0 else -1 for x in self.support])
        self.win = OUTCOME_PRODUCT == self.target_sign[:, None]

        strategy, self.p_classical_exact = ccp.optimal_classical_strategy(g)
        # outcome index of the strategy's answers: bit set where a_i = -1
        answer = [sum(int(strategy.a[p][s] < 0) << (N_PARTIES - 1 - p)
                      for p, s in enumerate(x)) for x in self.support]
        self.outcome_pmf = {
            "quantum": quantum_pmf,
            "classical": np.eye(len(OUTCOME_PRODUCT))[answer],
        }

        s = self.quantum_value = bell.expression_value(g, bell.correlations(born))
        self.p_quantum_exact = ccp.exact_success_quantum(s, self.ineq.sum_abs())


_DEFAULT_TABLES: GameTables | None = None


def default_tables() -> GameTables:
    global _DEFAULT_TABLES
    if _DEFAULT_TABLES is None:
        _DEFAULT_TABLES = GameTables()
    return _DEFAULT_TABLES


def _shard_rng(seed: int, shard: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, shard])))


def sample_counts(config: SimulationConfig,
                  tables: GameTables | None = None) -> np.ndarray:
    """Shot counts per (support tuple, outcome) cell, shape (len(support), 8).

    Shots are split across shards as evenly as possible (the first
    shots % shards shards get one extra); shard k draws
    Multinomial(n_k, pi) from its own stream with
    pi(x, a) = Q(x) P(a|x), and shard counts add, so the result does not
    depend on execution order.
    """
    tables = tables or default_tables()
    pmf = tables.outcome_pmf[config.protocol]
    pi = (tables.q_support[:, None] * pmf).ravel()
    base, extra = divmod(config.shots, config.shards)
    counts = sum(_shard_rng(config.seed, k).multinomial(base + (k < extra), pi)
                 for k in range(config.shards))
    return counts.reshape(pmf.shape)


def run_protocol(config: SimulationConfig,
                 tables: GameTables | None = None) -> SimulationReport:
    """Run the full protocol and report its exact integer success count."""
    tables = tables or default_tables()
    t0 = time.perf_counter()
    successes = int(sample_counts(config, tables)[tables.win].sum())
    p_hat = successes / config.shots
    return SimulationReport(
        protocol=config.protocol,
        shots=config.shots,
        successes=successes,
        empirical_probability=p_hat,
        standard_error=math.sqrt(p_hat * (1.0 - p_hat) / config.shots),
        seed=config.seed,
        shards=config.shards,
        wall_time=time.perf_counter() - t0,
    )


def gap_experiment(shots: int, seed: int = 0, shards: int = 1,
                   tables: GameTables | None = None) -> GapReport:
    """Simulate the quantum protocol and compare against the exact
    classical optimum (a rational number, never simulated).

    z is the score test of p_hat against the classical null P_C,
    (p_hat - P_C) / sqrt(P_C (1 - P_C) / shots): its spread comes from P_C,
    not from the sample, so it is finite for every run.  A run is flagged
    underpowered when sqrt(p(1-p)/shots) is not below a quarter of the
    exact quantum-classical gap, i.e. when z cannot be expected to reach ~4.
    """
    tables = tables or default_tables()
    report = run_protocol(
        SimulationConfig(shots=shots, seed=seed, protocol="quantum", shards=shards),
        tables)
    p_c = float(tables.p_classical_exact)
    p_q = tables.p_quantum_exact
    gap = p_q - p_c
    expected_stderr = math.sqrt(p_q * (1.0 - p_q) / shots)
    z = (report.empirical_probability - p_c) / math.sqrt(p_c * (1.0 - p_c) / shots)
    return GapReport(
        simulation=report,
        p_classical_exact=p_c,
        p_quantum_exact=p_q,
        exact_gap=gap,
        z_vs_classical=z,
        underpowered=not (expected_stderr < gap / 4),
    )
