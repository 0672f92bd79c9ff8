"""The record types are immutable tuples: a field cannot be assigned, the
two validating records check their fields however they are built, and
to_dict keeps its key order."""
import json

import numpy as np
import pytest

from becc import bell, ccp, simulate, state


@pytest.fixture(scope="module")
def records(tables):
    config = simulate.SimulationConfig(shots=1000, seed=1)
    gap = simulate.gap_experiment(1000, seed=1, tables=tables)
    return {
        "StateReport": state.validate_state(state.build_vb_state()),
        "Inequality": bell.sliwa5(),
        "ClassicalStrategy": ccp.optimal_classical_strategy(bell.sliwa5().g)[0],
        "GameInstance": ccp.GameInstance((1, 1, 1), (0, 0, 0)),
        "SimulationConfig": config,
        "SimulationReport": simulate.run_protocol(config, tables),
        "GapReport": gap,
    }


@pytest.mark.parametrize("name", ["StateReport", "Inequality", "ClassicalStrategy",
                                  "GameInstance", "SimulationConfig", "SimulationReport",
                                  "GapReport"])
def test_fields_cannot_be_assigned(records, name):
    record = records[name]
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.new_attribute = 1


G = np.ones((2, 2, 2))


@pytest.mark.parametrize("build", [
    lambda: bell.Inequality(G, 1, -1),
    lambda: bell.Inequality(g=G, lower_bound=1, upper_bound=-1),
    lambda: simulate.SimulationConfig(0),
    lambda: simulate.SimulationConfig(shots=0),
    lambda: simulate.SimulationConfig(10, 0, "quantum", 11),
    lambda: simulate.SimulationConfig(shots=10, shards=11),
    lambda: simulate.SimulationConfig(10)._replace(protocol="psychic"),
    lambda: bell.Inequality(G, -1, 1)._replace(lower_bound=2),
    lambda: bell.Inequality(G, -1, 1)._replace(g=np.full((2, 2, 2), np.nan)),
    lambda: simulate.SimulationConfig(True),
    lambda: simulate.SimulationConfig(10, seed=False),
    lambda: simulate.SimulationConfig(10, shards=True),
])
def test_every_construction_validates(build):
    with pytest.raises(ValueError):
        build()


def test_numpy_integer_config_gives_a_json_report(tables):
    config = simulate.SimulationConfig(np.int64(10), seed=np.uint64(3), shards=np.int32(2))
    assert config == (10, 3, "quantum", 2)
    assert all(type(v) is int for v in (config.shots, config.seed, config.shards))
    report = simulate.run_protocol(config, tables).to_dict()
    assert json.loads(json.dumps(report)) == report
    plain = simulate.run_protocol(simulate.SimulationConfig(10, seed=3, shards=2), tables)
    assert {**report, "wall_time": 0} == {**plain.to_dict(), "wall_time": 0}


def test_positional_and_keyword_construction_agree():
    assert simulate.SimulationConfig(5, 2, "classical", 3) == simulate.SimulationConfig(
        shots=5, seed=2, protocol="classical", shards=3)
    assert simulate.SimulationConfig(5) == (5, 0, "quantum", 1)
    by_position = bell.Inequality(G, -8, 8)
    by_keyword = bell.Inequality(g=G, lower_bound=-8, upper_bound=8)
    assert np.array_equal(by_position.g, by_keyword.g)
    assert by_position[1:] == by_keyword[1:] == (-8, 8)


def test_to_dict_key_order(records):
    assert list(records["StateReport"].to_dict()) == [
        "trace_deviation", "hermiticity_deviation", "min_eigenvalue",
        "permutation_symmetry_deviation", "pt_invariance_deviation", "pt_min_eigenvalues"]
    run_keys = ["protocol", "shots", "successes", "seed", "shards", "wall_time",
                "p_hat", "stderr"]
    assert list(records["SimulationReport"].to_dict()) == run_keys
    assert list(records["GapReport"].to_dict()) == run_keys + [
        "p_classical_exact", "p_quantum_exact", "exact_gap", "z_vs_classical",
        "underpowered"]
