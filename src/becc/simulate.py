"""Monte Carlo execution of the n-party broadcast protocol.

A shot draws a setting tuple x from Q and sign bits y uniformly, yields
outcomes a (classical: the optimal sign functions; quantum: Born-rule
outcomes on the shared state), and each party broadcasts y_i * a_i; it
wins on a win cell of the game's ccp.GameTables.  A run reports only
counts: a shard's shots are drawn at once as Multinomial(n, pi), the exact
law of its counts, over the cells pi(x, a) = Q(x) P(a|x) that
GameTables.cell_law builds once; this module only draws and tallies.

Randomness comes from numpy's Philox counter-based generator.  Shard k of
a run is seeded with SeedSequence([seed, k]), so shards are independent
substreams and the report is a pure function of
(seed, shards, shots, protocol).
"""
from __future__ import annotations

import math
import time
from numbers import Integral
from typing import NamedTuple

import numpy as np

# re-exported: the built-in game's outcome products, and P(a|x) for one setting tuple
from .bell import OUTCOME_PRODUCT, born_distribution
# re-exported: the game's tables, one cached default shared with ccp's readers
from .ccp import GameTables, default_tables

# one SeedSequence and generator per shard; the cap keeps a run's set-up bounded
MAX_SHARDS = 1024
# counts are int64, so a run's shots (and a shard's) must fit in one
MAX_SHOTS = 2 ** 63 - 1


class SimulationConfig(NamedTuple("SimulationConfig", [("shots", int), ("seed", int),
                                                     ("protocol", str), ("shards", int)])):
    """The inputs of one run, and the one place their limits are checked."""
    __slots__ = ()

    def __new__(cls, shots, seed=0, protocol="quantum", shards=1):
        for name, value in (("shots", shots), ("seed", seed), ("shards", shards)):
            if not isinstance(value, Integral) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not 1 <= shots <= MAX_SHOTS:
            raise ValueError(f"shots must be in [1, {MAX_SHOTS}], got {shots}")
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        if not 1 <= shards <= min(shots, MAX_SHARDS):
            raise ValueError(f"shards must be in [1, min(shots, {MAX_SHARDS})], "
                             f"got {shards}")
        if protocol not in ("classical", "quantum"):
            raise ValueError(f"unknown protocol {protocol!r}")
        return super().__new__(cls, int(shots), int(seed), protocol, int(shards))

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too


class SimulationReport(NamedTuple):
    protocol: str
    shots: int
    successes: int
    empirical_probability: float
    standard_error: float
    seed: int
    shards: int
    wall_time: float

    def to_dict(self) -> dict:
        d = self._asdict()
        d["p_hat"] = d.pop("empirical_probability")
        d["stderr"] = d.pop("standard_error")
        return d


class GapReport(NamedTuple):
    """Quantum simulation measured against the exact classical optimum."""
    simulation: SimulationReport
    p_classical_exact: float
    p_quantum_exact: float
    exact_gap: float
    z_vs_classical: float
    underpowered: bool

    def to_dict(self) -> dict:
        d = self._asdict()
        return {**d.pop("simulation").to_dict(), **d}


def _shard_rng(seed: int, shard: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, shard])))


def sample_counts(config: SimulationConfig, tables: GameTables) -> np.ndarray:
    """Shot counts per (support tuple, outcome) cell, shape (len(support), 2^n).

    Shots are split across shards as evenly as possible (the first
    shots % shards shards get one extra); shard k draws
    Multinomial(n_k, pi) from its own stream with pi the tables' cell
    law for the protocol, and shard counts add, so the result does not
    depend on execution order.
    """
    law = tables.cell_law[config.protocol]
    base, extra = divmod(config.shots, config.shards)
    counts = sum(_shard_rng(config.seed, k).multinomial(base + (k < extra), law.ravel())
                 for k in range(config.shards))
    return counts.reshape(law.shape)


def run_protocol(config: SimulationConfig, tables: GameTables) -> SimulationReport:
    """Run the full protocol and report its exact integer success count."""
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


def gap_experiment(shots: int, seed: int = 0, shards: int = 1, *, tables: GameTables) -> GapReport:
    """Simulate the quantum protocol and compare against the exact
    classical optimum (a rational number, never simulated).

    z is the score test of p_hat against the classical null P_C,
    (p_hat - P_C) / sqrt(P_C (1 - P_C) / shots): its spread comes from P_C,
    not from the sample, so it is finite for every run when P_C < 1 (at
    P_C = 1 the test is undefined: ValueError).  A run is flagged
    underpowered when sqrt(p(1-p)/shots) is not below a quarter of the
    exact quantum-classical gap, i.e. when z cannot be expected to reach ~4.
    """
    p_c = float(tables.p_classical_exact)
    if p_c == 1:
        raise ValueError("P_C = 1: the score test against the classical optimum is undefined")
    report = run_protocol(
        SimulationConfig(shots=shots, seed=seed, protocol="quantum", shards=shards),
        tables)
    p_q = float(tables.p_quantum_exact)
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
