import itertools
import json
import math
import re
import warnings
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from becc import bell, ccp, simulate, state
from becc.bell import (
    Inequality,
    classical_extrema,
    correlation,
    g_coefficient,
    general_quantum_value,
    homogenize,
    quantum_value,
    sliwa5,
)
from becc.cli import main
from conftest import exact


def consume(name, rho, obs, ineq):
    """What one consumer of a state, one observable list per party and an inequality
    makes of them: bell_operator and table_weight read only ineq.g."""
    return {"born_table": lambda: bell.born_table(rho, obs),
            "quantum_value": lambda: quantum_value(ineq, rho, obs),
            "GameTables": lambda: ccp.GameTables(rho, obs, ineq),
            "bell_operator": lambda: bell.bell_operator(ineq.g, obs),
            "table_weight": lambda: bell.table_weight(ineq.g)}[name]()


class TestSymmetrize:
    """sliwa5 puts each base term on every permutation of its settings."""

    def test_two_party_term(self):
        g = sliwa5().g
        for x in itertools.permutations((1, 2, 0)):
            assert g[x] == 1

    def test_fully_symmetric_term(self):
        g = sliwa5().g
        assert g[1, 1, 1] == -1 and g[2, 2, 2] == 1

    def test_single_party_term(self):
        g = sliwa5().g
        assert g[1, 0, 0] == g[0, 1, 0] == g[0, 0, 1] == 1


class TestSliwa5:
    def test_bounds(self):
        ineq = sliwa5()
        assert ineq.lower_bound == -13
        assert ineq.upper_bound == 3

    def test_term_count(self):
        # orbit sizes 3 + 6 + 3 + 1 + 3 + 1
        assert sliwa5().g.shape == (3, 3, 3)
        assert np.count_nonzero(sliwa5().g) == 17

    def test_invariant_under_party_permutations(self):
        g = sliwa5().g
        for perm in itertools.permutations(range(3)):
            assert np.array_equal(np.transpose(g, perm), g)

    def test_matches_permutation_loop_oracle(self):
        # each base term added on every permutation of its settings, one
        # += at a time
        g = np.zeros((3, 3, 3))
        for x, c in bell._SLIWA5_BASE.items():
            for y in set(itertools.permutations(x)):
                g[y] += c
        assert sliwa5().g.tobytes() == g.tobytes()

    def test_each_call_returns_a_fresh_table(self):
        first = sliwa5().g
        first[1, 0, 0] = 7.0
        assert sliwa5().g[1, 0, 0] == 1.0


class TestInequality:
    # a cube has any number of axes, all of one length, but at least one
    @pytest.mark.parametrize("shape", [(3, 2), (3, 3, 2), (2, 2, 2, 3), ()])
    def test_rejects_non_cube(self, shape):
        with pytest.raises(ValueError, match="cube"):
            Inequality(np.ones(shape), -1, 1)
        with pytest.raises(ValueError, match="cube"):  # not numpy's reshape error
            bell.search_strategies(np.ones(shape))

    def test_rejects_all_zero_table(self):
        with pytest.raises(ValueError, match="all-zero"):
            Inequality(np.zeros((2, 2, 2)), -1, 1)

    def test_rejects_crossed_bounds(self):
        with pytest.raises(ValueError, match="exceeds"):
            Inequality(np.ones((2, 2, 2)), 1, -1)

    def test_accepts_equal_bounds(self):
        ineq = Inequality(np.ones((2, 2, 2)), 8, 8)
        assert (ineq.lower_bound, ineq.upper_bound) == (8, 8)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_coefficient(self, bad):
        # without the check NaN gave extrema (inf, -inf), inf gave (-inf, inf)
        g = np.zeros((3, 3, 3))
        g[1, 1, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            Inequality(g, -1, 1)
        # called directly, the search raised TypeError on NaN and returned
        # (-inf, inf) on inf as if it had succeeded
        with pytest.raises(ValueError, match="non-finite"):
            bell.search_strategies(g)

    @pytest.mark.parametrize("scale", [1e-200, 5e-324, 1e200])
    def test_accepts_table_whose_sum_of_squares_underflows_or_overflows(self, scale):
        # the one-dot-product pre-test gives 0 or inf here, so the
        # entry-wise tests decide
        g = np.full((2, 2, 2), scale)
        assert np.array_equal(Inequality(g, -8, 8).g, g)
        assert bell.search_strategies(g)[1] == 8 * scale

    @pytest.mark.parametrize("call", [
        lambda: ccp.input_distribution(np.full((2, 2), 1e308)),
        lambda: classical_extrema(Inequality(np.full((2, 2, 2), 1e308), -1, 1)),
        lambda: ccp.optimal_classical_strategy(np.full((2, 2), 1e308)),
    ], ids=["input_distribution", "classical_extrema", "optimal_classical_strategy"])
    def test_rejects_table_whose_sum_of_abs_overflows(self, call):
        # finite entries whose sum |g| is inf: Q was all zero (with a
        # RuntimeWarning), and the searches' inf - inf = NaN sums raised TypeError
        with pytest.raises(ValueError, match=re.escape("sum |g| overflows")):
            call()

    @pytest.mark.parametrize("lower,upper", [
        (math.nan, 1), (-1, math.nan), (-math.inf, 1), (-1, math.inf)])
    def test_rejects_non_finite_bound(self, lower, upper):
        with pytest.raises(ValueError, match="finite"):
            Inequality(np.ones((2, 2, 2)), lower, upper)

    @pytest.mark.parametrize("bound", ["a", None, 1j, np.array([1.0])], ids=repr)
    def test_rejects_non_real_bound(self, bound):
        # math.isfinite let "TypeError: must be real number, not str" out for "a" and None
        for lower, upper in ((bound, 1), (-1, bound)):
            with pytest.raises(ValueError, match="bounds must be finite real numbers"):
                Inequality(np.ones((2, 2, 2)), lower, upper)

    def test_rejects_complex_table(self):
        # numpy dropped the imaginary part with only a ComplexWarning
        g = np.ones((2, 2, 2), dtype=complex)
        g[1, 1, 1] = 1 + 1e-3j
        with pytest.raises(ValueError, match="imaginary"):
            Inequality(g, -8, 8)

    def test_accepts_complex_table_with_zero_imaginary_part(self):
        ineq = Inequality(np.ones((2, 2, 2)) + 0j, -8, 8)
        assert ineq.g.dtype == float and np.array_equal(ineq.g, np.ones((2, 2, 2)))


class TestTableDtypes:
    """A float64 table skips the conversion; every other real dtype, and a
    complex one with a zero imaginary part, must give the same results."""

    @pytest.fixture(params=[np.float64, np.int64, np.float32, np.complex128])
    def dtype(self, request):
        return request.param

    @pytest.fixture(autouse=True)
    def no_warning_escapes(self):
        # a cast that drops an imaginary part warns (ComplexWarning)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    @pytest.mark.parametrize("form", ["original", "homogenized"])
    def test_same_extrema_argmax_and_p_c(self, dtype, form):
        ineq = sliwa5() if form == "original" else homogenize(sliwa5())
        g = ineq.g.astype(dtype)
        assert bell.coefficient_table(g).dtype == np.float64
        assert bell.search_strategies(g) == bell.search_strategies(ineq.g)
        typed = Inequality(g, ineq.lower_bound, ineq.upper_bound)
        assert classical_extrema(typed) == classical_extrema(ineq)
        strategy, p_c = ccp.optimal_classical_strategy(g)
        assert (strategy, p_c) == ccp.optimal_classical_strategy(ineq.g)
        assert type(p_c) is Fraction
        if form == "homogenized":
            assert p_c == Fraction(15, 22)

    def test_non_zero_imaginary_part_still_raises(self, hom):
        g = hom.g.astype(complex)
        g[1, 1, 1] += 1e-3j
        for call in (lambda: Inequality(g, -8, 8), lambda: bell.search_strategies(g),
                     lambda: ccp.optimal_classical_strategy(g)):
            with pytest.raises(ValueError, match="imaginary"):
                call()

    @pytest.mark.parametrize("entry,dtype", [(Fraction(1, 3), object), (2 ** 53 + 1, np.int64)],
                             ids=["one-third", "2^53+1"])
    def test_entry_float64_cannot_hold_raises(self, entry, dtype):
        # the float64 cast rounded both: with exact |00><00| and [I, Z], quantum_value
        # gave 6004799503160661/2^53, not 2/3, and table_weight 0.6666666666666666;
        # 2^53 + 1 became 2^53 without an error
        g = np.array([[0, entry], [entry, 0]], dtype=dtype)
        obs = [[np.eye(2, dtype=int), np.diag([1, -1])]] * 2
        message = f"coefficient table entry {entry} is not exactly a float"
        for call in (lambda: Inequality(g, -1, 1), lambda: bell.table_weight(g),
                     lambda: bell.bell_operator(g, obs)):
            with pytest.raises(ValueError, match=re.escape(message)):
                call()

    @pytest.mark.parametrize("entry,message", [
        (1 + 1j, "non-zero imaginary part"),
        (Fraction(10 ** 400), "non-finite entry"),
        (10 ** 400, "non-finite entry"),
        (None, "exact entry None is not a number"),
    ], ids=["complex", "huge-Fraction", "huge-int", "None"])
    def test_object_entry_float64_cannot_hold_raises(self, entry, message):
        # the float64 cast let Python's TypeError and OverflowError out, and
        # made None a NaN, named as a "non-finite entry"
        g = np.array([[entry, 1], [0, 1]], dtype=object)
        for call in (lambda: Inequality(g, -3, 3), lambda: bell.table_weight(g),
                     lambda: bell.search_strategies(g)):
            with pytest.raises(ValueError, match=message):
                call()

    @pytest.mark.parametrize("table,entry", [
        (np.array([["1", "0"], ["0", "1"]]), "'1'"),
        (np.array([[b"0", b"1"], [b"1", b"0"]]), "b'0'"),
        (np.array([[1, 0], [0, 1]], dtype="M8[ns]"), "'1970-01-01T00:00:00.000000001'"),
        (np.array([[1, 0], [0, 1]], dtype="m8"), "'1 generic time units'"),
    ], ids=["str", "bytes", "datetime64-ns", "timedelta64"])
    def test_non_numeric_table_entry_is_not_a_number(self, table, entry):
        # numpy cast the string "1" to 1.0, and the exactness check then raised
        # "coefficient table entry 1 is not exactly a float"; as objects, the
        # nanosecond datetimes and the timedeltas were the ints of [[1, 0], [0, 1]]
        message = re.escape(f"exact entry {entry} is not a number")
        for call in (lambda: Inequality(table, -2, 2), lambda: bell.table_weight(table),
                     lambda: bell.search_strategies(table)):
            with pytest.raises(ValueError, match=message):
                call()

    def test_object_complex_entry_with_zero_imaginary_part_is_real(self):
        # as a complex128 table with zero imaginary parts; the cast raised TypeError
        g = np.array([[1 + 0j, 1], [0, Fraction(1, 2)]], dtype=object)
        assert np.array_equal(Inequality(g, -3, 3).g, [[1.0, 1.0], [0.0, 0.5]])
        assert bell.table_weight(g) == 2.5

    def test_exact_half_gives_the_float_results(self):
        half = np.array([[0, Fraction(1, 2)], [Fraction(1, 2), 0]], dtype=object)
        floats = half.astype(float)
        obs = [[np.eye(2), np.diag([1.0, -1.0])]] * 2
        assert np.array_equal(Inequality(half, -1, 1).g, floats)
        weight = bell.table_weight(half)
        assert type(weight) is float and weight == bell.table_weight(floats)
        assert np.array_equal(bell.bell_operator(half, obs), bell.bell_operator(floats, obs))


class TestHomogenize:
    def test_bound(self, hom):
        assert (hom.lower_bound, hom.upper_bound) == (-8, 8)

    def test_constant_becomes_identity_coefficient(self, hom):
        assert hom.g[0, 0, 0] == 5

    def test_lower_order_term_padded_with_zero(self, hom):
        assert hom.g.shape == (4, 4, 4)
        assert hom.g[1, 0, 0] == 1
        assert not np.any(hom.g[3]) and not np.any(hom.g[:, 3]) and not np.any(hom.g[:, :, 3])

    def test_keeps_every_other_entry(self):
        original = sliwa5()
        shifted = homogenize(original).g[:3, :3, :3].copy()
        assert original.g[0, 0, 0] == 0  # the input is not modified
        shifted[0, 0, 0] = 0
        assert np.array_equal(shifted, original.g)

    def test_sum_abs(self, hom):
        assert hom.sum_abs() == 22 and type(hom.sum_abs()) is int

    @pytest.mark.parametrize("entries,weight", [
        ({(0, 0): 2.0 ** 53 - 2, (0, 1): -1.0}, 2 ** 53 - 1),  # integral, exact sums
        ({(1, 0): 0.5, (0, 1): -2.5}, 3.0),  # not integral, though the sum is exact
        ({(0, 0): 22.0, (0, 1): 2.0 ** -60}, 22.0),  # the sum rounds to an integer
        ({(0, 0): 2.0 ** 53, (0, 1): 1.0}, 2.0 ** 53),  # integral, the sum rounds
    ])
    def test_weight_is_an_int_only_when_every_sum_is_exact(self, entries, weight):
        # an int weight makes P = (1 + S/sum|g|)/2 a Fraction for an exact S
        g = np.zeros((2, 2))
        for x, c in entries.items():
            g[x] = c
        assert type(bell.table_weight(g)) is type(weight) and bell.table_weight(g) == weight

    def test_json_roundtrip(self, hom, capsys):
        # n and settings are read from g's shape; g and the bound rebuild
        # the inequality
        assert main(["bell", "coefficients"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["n"], doc["settings"]) == (3, 4)
        back = Inequality(np.array(doc["g"]), -doc["bound"], doc["bound"])
        assert np.array_equal(back.g, hom.g)
        assert (back.lower_bound, back.upper_bound) == (hom.lower_bound, hom.upper_bound)


class TestGCoefficient:
    def test_matches_homogenization_on_all_64_tuples(self, hom):
        for x in itertools.product(range(4), repeat=3):
            assert g_coefficient(*x) == hom.g[x]

    @pytest.mark.parametrize("x,expected", [
        ((0, 0, 0), 5), ((1, 1, 1), -1), ((0, 1, 1), 0), ((1, 2, 0), 1),
        ((2, 2, 0), -1), ((2, 2, 2), 1),
    ])
    def test_selected_values(self, x, expected):
        assert g_coefficient(*x) == expected

    def test_setting_three_annihilates(self):
        for x, y in itertools.product(range(4), repeat=2):
            assert g_coefficient(3, x, y) == 0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            g_coefficient(4, 0, 0)


class TestClassicalExtrema:
    def test_original_bounds(self):
        lo, hi, _ = classical_extrema(sliwa5())
        assert (lo, hi) == (-13, 3)

    def test_homogenized_bounds(self, hom):
        lo, hi, _ = classical_extrema(hom)
        assert (lo, hi) == (-8, 8)

    def test_sign_symmetric_for_full_correlation(self, hom):
        lo, hi, _ = classical_extrema(hom)
        assert lo == -hi

    def test_single_term_inequality(self):
        g = np.zeros((4, 4, 4))
        g[1, 1, 1] = 1.0
        lo, hi, _ = classical_extrema(Inequality(g, -1, 1))
        assert (lo, hi) == (-1, 1)

    def test_settings_come_from_g(self):
        # every non-identity setting of g is free: one term on setting 2
        # reaches both -1 and +1
        g = np.zeros((4, 4, 4))
        g[2, 2, 2] = -1.0
        lo, hi, _ = classical_extrema(Inequality(g, -1, 1))
        assert (lo, hi) == (-1, 1)

    def test_all_ones_strategy_attains_bound(self, hom):
        # sum of the 17 coefficients: 5 + 3 + 6 - 3 - 1 - 3 + 1 = 8
        _, hi, argmax = classical_extrema(hom)
        assert hi == float(hom.g.sum()) == 8
        # lexicographic tie-break picks the all-ones strategy (encoding 0)
        assert all(v == 1 for row in argmax.a for v in row)

    def test_strategy_space_guard(self):
        # 10 settings per party, each of the 27 non-identity settings
        # carrying a term -> 27 live slots -> 2^27 > guard
        g = np.zeros((10, 10, 10))
        for setting in range(1, 10):
            g[setting, 0, 0] = g[0, setting, 0] = g[0, 0, setting] = 1.0
        with pytest.raises(ValueError, match="too large"):
            classical_extrema(Inequality(g, -1, 1))

    def test_strategy_space_guard_admits_its_bound(self, monkeypatch):
        # at a bound of 2^3, 3 live slots are searched and 4 are not
        monkeypatch.setattr(bell, "MAX_STRATEGY_SPACE", 2 ** 3)
        g = np.zeros((3, 3, 3))
        g[1, 0, 0] = g[0, 1, 0] = g[0, 0, 1] = 1.0
        assert bell.search_strategies(g)[:2] == (-3, 3)
        g[2, 0, 0] = 1.0
        with pytest.raises(ValueError, match=re.escape("4 live slots: 2^4 strategies too large")):
            bell.search_strategies(g)


class TestObservables:
    def test_entries(self, obs):
        assert obs[0][1][0, 0] == pytest.approx(math.cos(2 * math.pi / 9), abs=1e-15)
        assert obs[0][1][0, 0] == pytest.approx(0.766044, abs=1e-6)
        assert obs[0][2][0, 1] == pytest.approx(-math.cos(math.pi / 18), abs=1e-15)
        assert obs[0][2][0, 1] == pytest.approx(-0.984808, abs=1e-6)

    def test_identity_setting(self, obs):
        for party in obs:
            assert np.array_equal(party[0], np.eye(2))

    @pytest.mark.parametrize("setting", [1, 2])
    def test_square_to_identity(self, obs, setting):
        for party in obs:
            o = party[setting]
            assert np.abs(o - o.conj().T).max() == 0.0
            assert np.abs(o @ o - np.eye(2)).max() < 1e-12


class TestCorrelation:
    def test_all_identity(self, rho, obs):
        assert correlation(rho, obs, (0, 0, 0)) == pytest.approx(1.0, abs=1e-9)

    def test_maximally_mixed_traceless(self, obs):
        assert correlation(np.eye(8) / 8, obs, (1, 1, 1)) == pytest.approx(0.0, abs=1e-12)

    def test_bounded_by_one(self, rho, obs):
        for x in itertools.product(range(3), repeat=3):
            assert abs(correlation(rho, obs, x)) <= 1 + 1e-9

    def test_setting_out_of_range(self, rho, obs):
        with pytest.raises(ValueError):
            correlation(rho, obs, (3, 0, 0))

    @pytest.mark.parametrize("view", [correlation, bell.born_distribution])
    @pytest.mark.parametrize("x,message", [
        ((1, 1), "setting tuple (1, 1) has 2 settings for 3 parties"),
        ((1, 1, 1, 1), "setting tuple (1, 1, 1, 1) has 4 settings for 3 parties"),
        ((-1, 0, 0), "setting tuple (-1, 0, 0): party 1 has no observable for setting -1"),
        ((0.5, 0, 0), "setting tuple (0.5, 0.0, 0.0) must hold integer settings"),
    ], ids=["short", "long", "negative", "fractional"])
    def test_rejects_malformed_tuple(self, rho, obs, view, x, message):
        # plain indexing would read a block of the table for a short tuple,
        # an outcome entry for a long one, wrap a negative setting round and
        # raise IndexError for a fractional one
        with pytest.raises(ValueError, match=re.escape(message)):
            view(rho, obs, x)


class TestBornTable:
    def test_shape_and_identity_tuple(self, rho, obs):
        table = bell.born_table(rho, obs)
        assert table.shape == (3, 3, 3, 8)
        assert table[0, 0, 0, 0] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("bad_rho,match", [
        (np.diag([1.5, -0.5, 0, 0, 0, 0, 0, 0]), "negative outcome probability"),
        (np.eye(8) / 4, "sum to"),
        (np.eye(8) / 8 + 1e-3j * np.triu(np.ones((8, 8)), 1), "imaginary part"),
        # a shape misfit, as (rho, edit of the observables): these raised
        # numpy's reshape and ragged-array errors, not a message naming the shapes
        pytest.param((np.eye(8) / 8, lambda obs: obs[:2]),
                     r"rho \(8, 8\) must be 4x4 for 2 observable lists",
                     id="8x8-rho-for-2-parties"),
        pytest.param((np.eye(8) / 8, lambda obs: [*obs[:2], [*obs[2], np.eye(3)]]),
                     r"every observable must be 2x2, got shape \(3, 3\)", id="3x3-observable"),
        # numpy's "operands could not be broadcast together" before
        pytest.param((np.eye(8) / 8, lambda obs: [obs[0], obs[1], []]),
                     "party 3 has no observables", id="empty-observable-list"),
        # the gate is two-sided: below 1 as above
        pytest.param(np.eye(8) / 16, "sum to 0.5", id="sum-to-half"),
    ])
    def test_rejects_invalid_state(self, obs, bad_rho, match):
        rho, edit = bad_rho if isinstance(bad_rho, tuple) else (bad_rho, list)
        for consumer in (bell.born_table, simulate.GameTables):
            with pytest.raises(ValueError, match=match):
                consumer(rho, edit(obs))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("consumer", ["born_table", "quantum_value", "GameTables"])
    def test_rejects_non_finite_state(self, obs, hom, bad, consumer):
        # every other guard is a comparison, which a NaN passes: a NaN state
        # gave p_quantum_exact = nan with no error
        rho = np.eye(8) / 8
        rho[3, 3] = bad
        with pytest.raises(ValueError, match="non-finite"):
            consume(consumer, rho, obs, hom)

    @pytest.mark.parametrize("consumer,mix", [
        *itertools.product(["born_table", "quantum_value", "GameTables"],
                           ["exact-rho", "exact-obs", "fraction-z-in-party-3"]),
        ("bell_operator", "fraction-z-in-party-3")])
    def test_rejects_mixed_exact_and_float_operands(self, obs, hom, consumer, mix):
        # the Born table raised "exact outcome probabilities must be >= 0 and sum
        # to 1", and B came back as an object array of Python floats
        rho = np.eye(8) / 8
        if mix == "exact-rho":
            rho = exact(np.eye(8, dtype=int)) / 8
        elif mix == "exact-obs":
            obs = [[exact(o) for o in party] for party in obs]
        else:  # beyond sliwa5's settings, so B never contracts it
            obs = [*obs[:2], [*obs[2], exact(np.diag([1, -1]))]]
        with pytest.raises(ValueError, match=re.escape("exact (object) and float operands")):
            consume(consumer, rho, obs, sliwa5() if consumer == "bell_operator" else hom)

    @pytest.mark.parametrize("consumer,where", [
        *itertools.product(["born_table", "quantum_value", "GameTables"], ["obs", "rho"]),
        ("bell_operator", "obs")])
    def test_rejects_complex_exact_entry(self, consumer, where):
        # Fraction(-1j) raised "TypeError: argument should be a string or a
        # Rational instance" out of the exact conversion
        rho, eye = exact(np.eye(4, dtype=int)) / 4, exact(np.eye(2, dtype=int))
        second = np.array([[0, -1j], [1j, 0]], dtype=object)  # Y
        if where == "rho":
            second = exact(np.diag([1, -1]))
            rho[0, 1], rho[1, 0] = 1j / 8, -1j / 8
        obs, ineq = [[eye, second]] * 2, Inequality(np.array([[0, 1], [1, 0]]), -2, 2)
        with pytest.raises(ValueError, match=r"exact entry .* is complex"):
            consume(consumer, rho, obs, ineq)

    def test_object_int_observables_are_exact(self, hom):
        # (I +- O) / 2 turned object ints into floats, and the exact table raised
        # "exact outcome probabilities must be >= 0 and sum to 1"
        rho = exact(np.eye(8, dtype=int)) / 12  # 1/3 |000><000| + 2/3 I/8
        rho[0, 0] += Fraction(1, 3)
        ints = [np.eye(2, dtype=int), np.diag([1, -1]), np.array([[0, 1], [1, 0]])]
        tables = []
        for obs in ([[o.astype(object) for o in ints]] * 3, [[exact(o) for o in ints]] * 3):
            tables.append(bell.born_table(rho, obs))
            assert all(type(p) is Fraction for p in tables[-1].flat)
            s = bell.quantum_value(hom, rho, obs)
            assert type(s) is Fraction and s == Fraction(17, 3)
        assert (tables[0] == tables[1]).all()
        # ints join the float path too, with the bits of the same observables as floats
        rho = state.build_vb_state()
        table = bell.born_table(rho, [ints] * 3)
        assert table.dtype == np.float64
        assert table.tobytes() == bell.born_table(rho, [[o * 1.0 for o in ints]] * 3).tobytes()

    def test_every_numeric_kind_at_once_stays_on_the_float_path(self, rho, obs):
        # a complex rho and bool, int, uint8 and float observables: the five NUMERIC kinds
        ints = [np.eye(2, dtype=bool), np.diag([1, -1]), np.array([[0, 1], [1, 0]], dtype=np.uint8)]
        table = bell.born_table(rho.astype(complex), [ints, *obs[1:]])
        floats = [[o.astype(float) for o in ints], *obs[1:]]
        assert table.dtype == np.float64
        assert table.tobytes() == bell.born_table(rho.astype(complex), floats).tobytes()

    def test_correlations_reject_nan(self):
        with pytest.raises(ValueError, match="outside"):
            bell.correlations(np.full((3, 3, 3, 8), math.nan))

    def test_correlations_reject_a_value_past_one(self):
        # one party, P(+1) = 1.25 and P(-1) = -0.25: E = 1.5 is past the |E| <= 1 gate
        with pytest.raises(ValueError, match=re.escape("correlation 1.5 outside [-1, 1]")):
            bell.correlations(np.array([[1.25, -0.25]]))

    @pytest.mark.parametrize("shape", [(3, 3, 3, 4), (3, 3, 3, 16), (2,), (), (3, 0)])
    def test_correlations_reject_misshaped_pmf(self, shape):
        # (3, 3, 3, 4) and (2,) raised numpy's "matmul: Input operand 1 has a mismatch in
        # its core dimension 0", and the 0-d pmf "TypeError: ufunc 'right_shift' not supported"
        with pytest.raises(ValueError, match=re.escape("last axis must hold 2^n outcomes")):
            bell.correlations(np.full(shape, 0.125))

    @pytest.mark.parametrize("shape, axis", [((0, 2), 0), ((0, 0, 4), 0), ((3, 0, 4), 1)])
    def test_correlations_name_an_empty_setting_axis(self, shape, axis):
        # (0, 2) and (0, 0, 4) pass the shape check and raised numpy's "zero-size array to
        # reduction operation maximum which has no identity" from the |E| <= 1 guard
        with pytest.raises(ValueError, match=re.escape(f"setting axis {axis} is empty")):
            bell.correlations(np.full(shape, 0.125))


class TestEntryRule:
    """Every entry of a non-NUMERIC array, of g, rho, an observable or the
    correlations, enters through one converter: an int, a Fraction, a finite
    float or a complex number with a zero imaginary part, a numpy scalar read
    as its Python value."""

    # where each operand can reach each consumer
    PLACES = [("born_table", "rho"), ("born_table", "obs"), ("quantum_value", "g"),
              ("quantum_value", "rho"), ("quantum_value", "obs"), ("GameTables", "g"),
              ("GameTables", "rho"), ("GameTables", "obs"), ("bell_operator", "g"),
              ("bell_operator", "obs"), ("table_weight", "g")]

    @staticmethod
    def run(consumer, where, entry):
        """An exact two-party game, g = [[0, 1], [1/2, 0]], rho = diag(1/2, 1/2, 0, 0) and
        party 2's second observable diag(1/2, -1/2), with entry for one of the 1/2s."""
        g = np.array([[0, 1], [Fraction(1, 2), 0]], dtype=object)
        rho = exact(np.diag([1, 1, 0, 0])) / 2
        obs = [[exact(np.eye(2, dtype=int)), exact(np.diag([1, -1]))],
               [exact(np.eye(2, dtype=int)), exact(np.diag([1, -1])) / 2]]
        {"g": g[1], "rho": rho[0], "obs": obs[1][1][0]}[where][0] = entry
        # g reaches the consumers that read only g as it is, the others as an Inequality
        raw = consumer in ("bell_operator", "table_weight")
        result = consume(consumer, rho, obs, SimpleNamespace(g=g) if raw else Inequality(g, -2, 2))
        if consumer == "GameTables":
            return result.quantum_value, result.p_quantum_exact, result.p_classical_exact
        return result

    @pytest.mark.parametrize("consumer,where", PLACES)
    @pytest.mark.parametrize("entry,message", [
        ("1/2", "exact entry '1/2' is not a number"),
        (None, "exact entry None is not a number"),
        (math.inf, "exact entry inf is non-finite"),
        (math.nan, "exact entry nan is non-finite"),
        (1j, "exact entry 1j is complex: a non-zero imaginary part"),
    ], ids=["string", "None", "inf", "nan", "imaginary"])
    def test_rejects_entry(self, consumer, where, entry, message):
        # Fraction read the string "1/2" as 1/2 and let TypeError out on None,
        # OverflowError on inf and ValueError on nan; g made None a NaN
        with pytest.raises(ValueError, match=re.escape(message)) as raised:
            self.run(consumer, where, entry)
        if isinstance(entry, float):  # a float is a numbers.Complex too, yet not complex
            assert "complex" not in str(raised.value)

    @pytest.mark.parametrize("consumer,where", PLACES)
    def test_numpy_scalar_enters_as_its_value(self, consumer, where):
        half = self.run(consumer, where, Fraction(1, 2))
        # .item() leaves a long double a numpy scalar, which was named "not a number"
        for entry in (np.float32(0.5), np.complex128(0.5), 0.5 + 0j,
                      np.longdouble(0.5), np.clongdouble(0.5)):
            result = self.run(consumer, where, entry)
            assert np.array_equal(result, half)
            assert list(map(type, np.ravel(result))) == list(map(type, np.ravel(half)))

    def test_long_double_table_enters_exactly(self):
        # the entry rule named each np.longdouble entry "not a number"
        g = bell.coefficient_table(np.ones((2, 2, 2), dtype=np.longdouble))
        assert g.dtype == np.float64 and np.array_equal(g, np.ones((2, 2, 2)))

    @pytest.mark.skipif(np.finfo(np.longdouble).nmant <= np.finfo(float).nmant,
                        reason="long double is float64 on this platform")
    def test_long_double_third_is_not_exactly_a_float(self):
        third = np.full((2, 2, 2), np.longdouble(1) / 3)
        with pytest.raises(ValueError, match="is not exactly a float"):
            bell.coefficient_table(third)


class TestDtypeRule:
    """bell.NUMERIC names the dtype kinds read as numbers.  An array of any other
    kind makes its contraction or S exact, and its entries enter through the entry
    rule, so wherever it arrives a string, bytes or datetime is named as not a
    number, by an entry of its own."""

    # (fill, the entry rule's name for it)
    FILLS = [("x", "'x'"), (b"x", "b'x'"), (np.datetime64("2020-01-01"), "'2020-01-01'"),
             # as objects these two were the ints 5 and 1
             (np.datetime64(5, "ns"), "'1970-01-01T00:00:00.000000005'"),
             (np.timedelta64(1), "'1 generic time units'")]
    IDS = ["str", "bytes", "datetime64", "datetime64-ns", "timedelta64"]

    @staticmethod
    def raises(fill_name):
        message = f"exact entry {fill_name} is not a number"
        return pytest.raises(ValueError, match=re.escape(message))

    @pytest.mark.parametrize("fill,name", FILLS, ids=IDS)
    @pytest.mark.parametrize("consumer", ["born_table", "quantum_value", "GameTables"])
    def test_rho(self, obs, hom, consumer, fill, name):
        # a str rho raised "TypeError: invalid data type for einsum"
        with self.raises(name):
            consume(consumer, np.full((8, 8), fill), obs, hom)

    @pytest.mark.parametrize("among", ["float", "int"])
    @pytest.mark.parametrize("fill,name", FILLS, ids=IDS)
    @pytest.mark.parametrize("consumer",
                             ["born_table", "quantum_value", "GameTables", "bell_operator"])
    def test_observable(self, rho, obs, hom, consumer, fill, name, among):
        # stacked with its party's float identity first, a str observable turned the
        # identity's entries into '1.0'; among floats born_table raised "The 'out' kwarg
        # is necessary...", and B numpy's UFuncTypeError
        if among == "int":
            obs = [[np.eye(2, dtype=int), np.diag([1, -1]), np.array([[0, 1], [1, 0]])]] * 3
        obs = [obs[0], [*obs[1][:2], np.full((2, 2), fill)], obs[2]]
        with self.raises(name):
            consume(consumer, rho, obs, hom)

    @pytest.mark.parametrize("fill,name", FILLS, ids=IDS)
    def test_correlations(self, hom, fill, name):
        # a str table raised numpy's UFuncTypeError
        with self.raises(name):
            bell.expression_value(hom.g, np.full((3, 3, 3), fill))

    @pytest.mark.parametrize("fill,name", FILLS, ids=IDS)
    def test_pmf(self, fill, name):
        # a str or datetime64[ns] pmf raised numpy's UFuncTypeError
        with self.raises(name):
            bell.correlations(np.full((3, 3, 3, 8), fill))

    def test_object_correlations_of_floats_give_an_exact_value(self, rho, obs, hom):
        corr = bell.correlations(bell.born_table(rho, obs))
        s = bell.expression_value(hom.g, corr.astype(object))
        g, idx = bell.support(hom.g, corr.shape)
        assert type(s) is Fraction
        assert s == sum(Fraction(c) * Fraction(e) for c, e in zip(g[idx], corr[idx]))
        assert float(s) == pytest.approx(bell.expression_value(hom.g, corr), abs=1e-12)

    def test_array_likes_give_the_array_results(self, rho, obs, hom):
        # a nested-list pmf raised "AttributeError: 'list' object has no attribute 'ndim'",
        # and a nested-list corr "... no attribute 'shape'"
        pmf = bell.born_table(rho, obs)
        corr = bell.correlations(pmf)
        assert bell.correlations(pmf.tolist()).tobytes() == corr.tobytes()
        s = bell.expression_value(hom.g, corr)
        for g, c in ((hom.g, corr.tolist()), (hom.g.tolist(), corr.tolist())):
            value = bell.expression_value(g, c)
            assert type(value) is float and value.hex() == s.hex()

    @pytest.mark.parametrize("kind", ["float", "exact"])
    @pytest.mark.parametrize("consumer",
                             ["born_table", "quantum_value", "GameTables", "bell_operator"])
    def test_nested_lists_give_the_array_results(self, rho, obs, hom, consumer, kind):
        if kind == "exact":
            rho, obs = state.printed_state(), bell.rational_observables()
        lists = [[o.tolist() for o in party] for party in obs]
        results = [consume(consumer, r, o, hom) for r, o in ((rho, obs), (rho.tolist(), lists))]
        if consumer == "GameTables":
            results = [(t.quantum_value, t.p_quantum_exact, t.cell_law["quantum"].tobytes())
                       for t in results]
        assert np.array_equal(*results)
        assert list(map(type, np.ravel(results[1]))) == list(map(type, np.ravel(results[0])))


class TestQuantumValue:
    def test_homogenized_value(self, rho, obs, hom):
        assert quantum_value(hom, rho, obs) == pytest.approx(8.00685, abs=2e-4)

    def test_original_expression_value(self, rho, obs):
        assert general_quantum_value(sliwa5(), rho, obs) == pytest.approx(3.00685, abs=2e-4)

    def test_maximally_mixed_gives_shift_only(self, obs, hom):
        assert quantum_value(hom, np.eye(8) / 8, obs) == pytest.approx(5.0, abs=1e-12)

    def test_homogenization_preserves_violation_gap(self, rho, obs, hom):
        s_hom = quantum_value(hom, rho, obs)
        s_orig = general_quantum_value(sliwa5(), rho, obs)
        assert s_hom == pytest.approx(5.0 + s_orig, abs=1e-9)

    @pytest.mark.parametrize("n_obs", [2, 4])
    @pytest.mark.parametrize("consumer", ["quantum_value", "GameTables", "bell_operator"])
    def test_rejects_party_count_mismatch(self, hom, n_obs, consumer):
        # g has three parties; the state and observables have n_obs
        obs = [[np.eye(2)] * 4 for _ in range(n_obs)]
        rho = np.eye(2 ** n_obs) / 2 ** n_obs
        with pytest.raises(ValueError, match=f"{n_obs} parties for a 3-party table"):
            consume(consumer, rho, obs, hom)

    @pytest.mark.parametrize("corr", [np.zeros((3, 3, 3)),
                                      np.full((3, 3, 3), Fraction(0), dtype=object)],
                             ids=["float", "exact"])
    def test_expression_value_rejects_all_zero_table(self, corr):
        # an empty support must not sum to int 0
        with pytest.raises(ValueError, match="all-zero coefficient table"):
            bell.expression_value(np.zeros((3, 3, 3)), corr)

    def test_bell_violation(self, rho, obs, hom):
        s = quantum_value(hom, rho, obs)
        assert s - hom.upper_bound == pytest.approx(0.00685, abs=2e-4)
        assert s > hom.upper_bound


class TestBellOperator:
    """B with S = trace(rho B) for every rho."""

    def test_paper_game_spectrum(self, rho, obs, hom):
        b = bell.bell_operator(hom.g, obs)
        low, high = np.linalg.eigvalsh(b)[[0, -1]]
        assert high == pytest.approx(9.047959571894108, abs=1e-6)
        assert low == pytest.approx(-5.298279667505556, abs=1e-6)
        assert np.trace(rho @ b) == pytest.approx(quantum_value(hom, rho, obs), abs=1e-12)

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda obs: [*obs[:2], [*obs[2], np.eye(3)]], id="one-3x3-appended"),
        pytest.param(lambda obs: [[np.eye(3)] * len(o) for o in obs], id="all-3x3"),
    ])
    @pytest.mark.parametrize("consumer", ["born_table", "bell_operator"])
    def test_rejects_non_2x2_observable(self, hom, obs, edit, consumer):
        # both contractions read the observables through one check, unobserved ones too
        with pytest.raises(ValueError, match=r"every observable must be 2x2, got shape \(3, 3\)"):
            consume(consumer, np.eye(8) / 8, edit(obs), hom)
