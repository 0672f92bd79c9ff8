"""Three-party Bell inequality machinery.

An inequality is one dense coefficient table g with an axis per party,
setting 0 being the identity, and two-sided classical bounds.  Covers the
original 2-setting inequality (Sliwa's #5), its homogenized
full-correlation form, classical bounds by exhaustive enumeration of
deterministic local strategies, and Born probabilities and quantum
values from a shared state and measurement observables.
"""
from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from . import tolerances

N_PARTIES = 3
N_SETTINGS = 4  # homogenized form: settings 0..3 (0 = identity, 3 = unused)

MAX_STRATEGY_SPACE = 2 ** 24
# strategies contracted with g at once, so that peak memory does not grow
# with the size of the strategy space
STRATEGY_BLOCK = 4096

# outcome triple (a1,a2,a3) encoded as a 3-bit index, bit=1 meaning a=-1,
# party 1 most significant (same convention as the state's basis index)
OUTCOME_PRODUCT = np.array([1 - 2 * (bin(o).count("1") % 2) for o in range(2 ** N_PARTIES)])


class Inequality(NamedTuple("Inequality", [("g", np.ndarray), ("lower_bound", float),
                                           ("upper_bound", float)])):
    """lower_bound <= sum_x g(x) E(x) <= upper_bound for every classical
    strategy.

    g is a cube with one axis per party.  Setting 0 is the identity, so a
    term without party i sits at x_i = 0 and a constant sits on the
    all-identity tuple.
    """
    __slots__ = ()

    def __new__(cls, g, lower_bound, upper_bound):
        g = np.asarray(g)
        if np.iscomplexobj(g) and g.imag.any():
            raise ValueError("coefficient table has a non-zero imaginary part")
        g = np.asarray(g.real, dtype=float)
        if g.ndim != N_PARTIES or len(set(g.shape)) > 1:
            raise ValueError(f"coefficient table must be a cube with {N_PARTIES} axes, "
                             f"got shape {g.shape}")
        if not np.isfinite(g).all():
            raise ValueError("coefficient table has a non-finite entry")
        if not g.any():
            raise ValueError("all-zero coefficient table")
        if not (math.isfinite(lower_bound) and math.isfinite(upper_bound)):
            raise ValueError("bounds must be finite")
        if lower_bound > upper_bound:
            raise ValueError("lower bound exceeds upper bound")
        return super().__new__(cls, g, lower_bound, upper_bound)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too

    def sum_abs(self) -> float:
        return float(np.abs(self.g).sum())


# Base terms of Sliwa's inequality #5 as setting tuples, 0 for an absent
# party: A1 + A1B2 - A2B2 - A1B1C1 - A2B1C1 + A2B2C2, bounds -13 .. 3.
_SLIWA5_BASE = {(1, 0, 0): 1.0, (1, 2, 0): 1.0, (2, 2, 0): -1.0,
                (1, 1, 1): -1.0, (2, 1, 1): -1.0, (2, 2, 2): 1.0}


def sliwa5() -> Inequality:
    """The original two-setting inequality, symmetrized over the parties:
    each base term on every permutation of its settings (17 entries)."""
    g = np.zeros((3,) * N_PARTIES)
    for x, c in _SLIWA5_BASE.items():
        for y in set(itertools.permutations(x)):
            g[y] += c
    return Inequality(g, lower_bound=-13.0, upper_bound=3.0)


def homogenize(ineq: Inequality) -> Inequality:
    """Full-correlation form with bounds -+(upper - lower)/2.

    g is padded to N_SETTINGS settings per party, and the constant shift
    -(lower + upper)/2 that centres the bounds is added to the
    all-identity tuple.
    """
    g = np.zeros((max(N_SETTINGS, ineq.g.shape[0]),) * N_PARTIES)
    g[tuple(map(slice, ineq.g.shape))] = ineq.g
    g[(0,) * N_PARTIES] -= (ineq.lower_bound + ineq.upper_bound) / 2.0
    half_width = (ineq.upper_bound - ineq.lower_bound) / 2.0
    return Inequality(g, -half_width, half_width)


def _delta(*args) -> int:
    return 1 if len(set(args)) == 1 else 0


def g_coefficient(x1: int, x2: int, x3: int) -> float:
    """Closed-form coefficient table of the homogenized inequality.

    Must agree with homogenize(sliwa5()) on all 64 setting tuples; the
    first factor is the sign, the rest carve out the support.
    """
    for x in (x1, x2, x3):
        if not 0 <= x < N_SETTINGS:
            raise ValueError(f"setting {x} out of range 0..3")
    sign = 2 * ((_delta(x1, x2, x3) + x1 + x2 + x3) % 2) - 1
    return float(
        sign
        * (1 + 4 * _delta(0, x1, x2, x3))
        * (1 - _delta(2, (x1 + x2 + x3) % 3))
        * (1 - _delta(3, x1)) * (1 - _delta(3, x2)) * (1 - _delta(3, x3))
    )


# --- classical bounds by deterministic-strategy enumeration ---------------

class ClassicalStrategy(NamedTuple):
    """Deterministic local strategy: party i outputs a[i][x_i] in {-1,+1}
    on setting x_i.  These are the extreme points of the local polytope;
    in the game party i broadcasts s_i = y_i * a_i(x_i)."""
    a: tuple[tuple[int, ...], ...]

    def answer(self, inst) -> int:
        prod = 1
        for i in range(N_PARTIES):
            prod *= inst.y[i] * self.a[i][inst.x[i]]
        return prod


def strategy_space(ineq: Inequality) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Coefficient table g and the free (party, setting) output slots.

    The identity setting 0 is pinned to output +1 (the identity observable
    forces it) and every other setting of every party is free: a table
    with n settings per party has 3(n - 1) free slots, 2^6 = 64 strategies
    for the original inequality and 2^9 = 512 for the homogenized one.
    """
    free = [(p, s) for p in range(N_PARTIES) for s in range(1, ineq.g.shape[0])]
    return ineq.g, free


def _sign_rows(rows: np.ndarray, free: list[tuple[int, int]], n_settings: int) -> np.ndarray:
    """Strategies as a (len(rows), parties, settings) +-1 tensor.  Row n
    puts bit j of n on free slot j, bit 0 meaning +1, so row 0 is the
    all-ones strategy; every other slot stays +1."""
    signs = np.ones((len(rows), N_PARTIES, n_settings))
    parties, settings = np.array(free, dtype=int).reshape(-1, 2).T
    bits = (rows[:, None] >> np.arange(len(free))) & 1
    signs[:, parties, settings] = 1 - 2 * bits
    return signs


def search_strategies(
    g: np.ndarray, free: list[tuple[int, int]],
) -> tuple[float, float, ClassicalStrategy, int]:
    """Exact extrema of sum_x g(x) a_1(x_1) a_2(x_2) a_3(x_3) over the
    2^len(free) deterministic strategies that vary the ``free`` slots.

    Returns (min, max, argmax, number of strategies contracted).  The
    strategies are contracted with g one party at a time (last party
    first), in blocks of STRATEGY_BLOCK rows.  The argmax is the smallest
    row that attains the maximum, across blocks as within one.
    """
    if 2 ** len(free) > MAX_STRATEGY_SPACE:
        raise ValueError(f"strategy space 2^{len(free)} too large to enumerate")
    g = np.asarray(g, dtype=float)
    n_settings = g.shape[0]
    low, high, best, enumerated = math.inf, -math.inf, 0, 0
    for start in range(0, 2 ** len(free), STRATEGY_BLOCK):
        rows = np.arange(start, min(start + STRATEGY_BLOCK, 2 ** len(free)))
        signs = _sign_rows(rows, free, n_settings)
        v = signs[:, 2] @ g.reshape(-1, n_settings).T
        v = np.einsum("nij,nj->ni", v.reshape(len(rows), n_settings, n_settings), signs[:, 1])
        values = np.einsum("ni,ni->n", v, signs[:, 0])
        k = int(np.argmax(values))
        if values[k] > high:  # strict: an earlier block keeps a tie
            high, best = float(values[k]), start + k
        low = min(low, float(values.min()))
        enumerated += len(rows)
    row = _sign_rows(np.array([best]), free, n_settings)[0].astype(int).tolist()
    return low, high, ClassicalStrategy(tuple(map(tuple, row))), enumerated


def classical_extrema(ineq: Inequality) -> tuple[float, float, ClassicalStrategy]:
    """Exact extrema of a Bell expression over all deterministic strategies
    of ``strategy_space(ineq)``: 64 for the original form, 512 for the
    homogenized one.  Returns (min, max, argmax) with the argmax
    tie-broken by the smallest bit encoding.
    """
    return search_strategies(*strategy_space(ineq))[:3]


# --- quantum side ---------------------------------------------------------

def measurement_observables() -> list[list[np.ndarray]]:
    """Per-party observables [identity, O1, O2]; identical for all parties.

    O1 and O2 are reflections (Hermitian, square to the identity) built
    from the angles 2*pi/9 and pi/18.
    """
    c1, s1 = math.cos(2 * math.pi / 9), math.sin(2 * math.pi / 9)
    s2, c2 = math.sin(math.pi / 18), math.cos(math.pi / 18)
    o1 = np.array([[c1, s1], [s1, -c1]])
    o2 = np.array([[s2, -c2], [-c2, -s2]])
    per_party = [np.eye(2), o1, o2]
    return [list(per_party) for _ in range(N_PARTIES)]


def born_table(rho: np.ndarray, obs: list[list[np.ndarray]]) -> np.ndarray:
    """Joint outcome distributions P(a1,a2,a3 | x) of projective
    measurements on rho, for every setting tuple x with observables.

    Shape (settings of party 1, of party 2, of party 3, 8), outcomes in
    the 3-bit encoding of OUTCOME_PRODUCT.  Observable O has projectors
    (I + O)/2 and (I - O)/2 for outcomes +1 and -1, so the identity
    setting gives +1 with certainty.  rho, reshaped to (2,)*6, is
    contracted with each party's (settings, 2 outcomes, 2, 2) projector
    stack in turn.  Probabilities within NEGATIVITY below zero are
    clamped and each distribution renormalized; a more negative one, an
    imaginary part or a deviation of a sum from 1 beyond FLOAT is an error.
    """
    eye = np.eye(2)
    p1, p2, p3 = (np.stack([(eye + o) / 2, (eye - o) / 2], axis=1)
                  for o in map(np.array, obs))
    # rho[i1 i2 i3, j1 j2 j3] times Pi[j, i] summed over i, j, one party
    # at a time: trace(rho Pi1 (x) Pi2 (x) Pi3) for every (x, a)
    p = np.einsum("abcdef,xuda->xubcef", np.asarray(rho).reshape((2,) * 6), p1)
    p = np.einsum("xubcef,yveb->xuyvcf", p, p2)
    p = np.einsum("xuyvcf,zwfc->xyzuvw", p, p3)
    p = p.reshape(p.shape[:N_PARTIES] + (-1,))
    # every guard below is a comparison, which a NaN passes
    if not np.isfinite(p).all():
        raise ValueError("non-finite outcome probability: rho has a non-finite entry")
    if np.abs(p.imag).max() > tolerances.FLOAT:
        raise ValueError(f"outcome probability has imaginary part {np.abs(p.imag).max():.3e}")
    p = p.real
    if p.min() < -tolerances.NEGATIVITY:
        raise ValueError(f"negative outcome probability {p.min():.3e}")
    p = np.clip(p, 0.0, None)
    total = p.sum(axis=-1, keepdims=True)
    worst = total.flat[np.abs(total - 1.0).argmax()]
    if abs(worst - 1.0) > tolerances.FLOAT:
        raise ValueError(f"outcome probabilities sum to {worst}")
    return p / total


def correlations(pmf: np.ndarray) -> np.ndarray:
    """E(x) = sum_a a1 a2 a3 P(a|x) for every tuple of a Born table."""
    e = pmf @ OUTCOME_PRODUCT
    if not np.abs(e).max() <= 1.0 + tolerances.FLOAT:  # a NaN fails this too
        raise ValueError(f"correlation {e.flat[np.abs(e).argmax()]} outside [-1, 1]")
    return e


def _at(table: np.ndarray, x: tuple[int, ...]):
    """table[x] for a setting tuple x with an observable for every party."""
    for party, setting in enumerate(x):
        if not 0 <= setting < table.shape[party]:
            raise ValueError(f"setting tuple {x}: party {party + 1} has no observable "
                             f"for setting {setting}")
    return table[tuple(x)]


def on_support(table: np.ndarray, g: np.ndarray) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """The setting tuples where g is non-zero, in np.argwhere order, and
    the entries of a Born or correlation table at them."""
    idx = np.nonzero(g)
    support = np.transpose(idx)
    missing = support >= table.shape[:len(idx)]
    if missing.any():
        k, party = np.argwhere(missing)[0]
        raise ValueError(f"setting tuple {tuple(support[k].tolist())}: party {party + 1} "
                         f"has no observable for setting {support[k, party]}")
    return list(map(tuple, support.tolist())), table[idx]


def born_distribution(rho: np.ndarray, obs: list[list[np.ndarray]],
                      x: tuple[int, int, int]) -> np.ndarray:
    """P(a1,a2,a3 | x) for one setting tuple: its row of born_table."""
    return _at(born_table(rho, obs), x)


def correlation(rho: np.ndarray, obs: list[list[np.ndarray]],
                x: tuple[int, int, int]) -> float:
    """E(x) = trace(rho * O_{x1} (x) O_{x2} (x) O_{x3}) for one setting
    tuple, read from the Born table."""
    return float(_at(correlations(born_table(rho, obs)), x))


def expression_value(g: np.ndarray, corr: np.ndarray) -> float:
    """S = sum_x g(x) E(x) over the support of g, from a correlation table."""
    _, e = on_support(corr, g)
    # Python's left-to-right sum of numpy scalars: np.sum pairs terms, moving S
    return float(sum(g[g != 0] * e))


def quantum_value(ineq: Inequality, rho: np.ndarray, obs: list[list[np.ndarray]]) -> float:
    """S = sum_x g(x) E(x) over the support of the coefficient table; an
    absent party sits on the identity setting, so contributes an identity
    factor."""
    return expression_value(ineq.g, correlations(born_table(rho, obs)))


general_quantum_value = quantum_value
