"""Three-party Bell inequality machinery.

Covers the original 2-setting inequality (Sliwa's #5), its homogenized
full-correlation form with an identity "setting 0" per party, classical
bounds by exhaustive enumeration of deterministic local strategies, and
Born probabilities and quantum values from a shared state and measurement
observables.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class Term:
    """One product term of a general inequality.

    ``settings[i]`` is party i's setting, or None when the party is absent
    (lower-order term).  A term with all parties absent is a constant.
    """
    settings: tuple[int | None, int | None, int | None]
    coefficient: float


@dataclass(frozen=True)
class GeneralInequality:
    """Term-list inequality with two-sided classical bounds."""
    terms: tuple[Term, ...]
    lower_bound: float
    upper_bound: float

    def __post_init__(self):
        if self.lower_bound > self.upper_bound:
            raise ValueError("lower bound exceeds upper bound")


@dataclass(frozen=True)
class FullCorrelationInequality:
    """Dense coefficient table g over setting tuples, with bound |sum g E| <= bound.
    The parties and settings per party are g's axes and their length."""
    g: np.ndarray = field(repr=False)  # shape (4, 4, 4)
    bound: float = 0.0

    def __post_init__(self):
        if self.g.shape != (N_SETTINGS,) * N_PARTIES:
            raise ValueError(f"coefficient table must be 4x4x4, got {self.g.shape}")
        if not np.any(self.g):
            raise ValueError("all-zero coefficient table")

    def sum_abs(self) -> float:
        return float(np.abs(self.g).sum())

    def to_json(self) -> str:
        return json.dumps({
            "n": self.g.ndim,
            "settings": self.g.shape[0],
            "g": self.g.tolist(),
            "bound": self.bound,
        })


Inequality = FullCorrelationInequality | GeneralInequality


def symmetrize(term: Term) -> list[Term]:
    """Orbit of a term under all party permutations, without duplicates."""
    seen = []
    for perm in itertools.permutations(range(N_PARTIES)):
        s = tuple(term.settings[perm[i]] for i in range(N_PARTIES))
        if s not in seen:
            seen.append(s)
    return [Term(s, term.coefficient) for s in seen]


# Base terms of Sliwa's inequality #5 before symmetrization:
# A1 + A1B2 - A2B2 - A1B1C1 - A2B1C1 + A2B2C2, bounds -13 .. 3.
_SLIWA5_BASE = (
    Term((1, None, None), 1.0),
    Term((1, 2, None), 1.0),
    Term((2, 2, None), -1.0),
    Term((1, 1, 1), -1.0),
    Term((2, 1, 1), -1.0),
    Term((2, 2, 2), 1.0),
)


def sliwa5() -> GeneralInequality:
    """The original two-setting inequality, fully symmetrized (17 terms)."""
    terms = []
    for base in _SLIWA5_BASE:
        terms.extend(symmetrize(base))
    return GeneralInequality(tuple(terms), lower_bound=-13.0, upper_bound=3.0)


def _lift(terms, n_settings: int) -> np.ndarray:
    """Dense coefficient table of a term list: absent parties get the
    identity setting 0, so a constant lands on the all-identity tuple."""
    g = np.zeros((n_settings,) * N_PARTIES)
    for t in terms:
        g[tuple(0 if s is None else s for s in t.settings)] += t.coefficient
    return g


def homogenize(ineq: GeneralInequality) -> FullCorrelationInequality:
    """Lift a general inequality to full-correlation form.

    Absent parties get the identity setting 0; the constant shift
    c = -(lower+upper)/2 that symmetrizes the bounds becomes the
    coefficient of the all-identity tuple; the new bound is
    (upper - lower)/2 and applies to the absolute value.
    """
    g = _lift(ineq.terms, N_SETTINGS)
    g[(0,) * N_PARTIES] += -(ineq.lower_bound + ineq.upper_bound) / 2.0
    return FullCorrelationInequality(g=g, bound=(ineq.upper_bound - ineq.lower_bound) / 2.0)


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

@dataclass(frozen=True)
class ClassicalStrategy:
    """Deterministic local strategy: party i outputs a[i][x_i] in {-1,+1}
    on setting x_i.  These are the extreme points of the local polytope;
    in the game party i broadcasts s_i = y_i * a_i(x_i)."""
    a: tuple[tuple[int, ...], ...]

    def answer(self, inst) -> int:
        prod = 1
        for i in range(N_PARTIES):
            prod *= inst.y[i] * self.a[i][inst.x[i]]
        return prod


def coefficient_table(ineq: Inequality) -> np.ndarray:
    """Dense coefficient table g of either form.  A term-list form is
    lifted over 1 + (largest setting used) settings per party, with no
    bound shift."""
    if isinstance(ineq, FullCorrelationInequality):
        return ineq.g
    return _lift(ineq.terms, 1 + max((s for t in ineq.terms for s in t.settings
                                      if s is not None), default=0))


def strategy_space(ineq: Inequality) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Dense coefficient table g and the free (party, setting) output slots.

    For the full-correlation form the identity setting 0 is pinned to
    output +1 (the identity observable forces it) and every other setting
    is free: 2^9 = 512 strategies.  For a term-list form the free slots
    are the ones its terms use: 2^6 = 64 for the original inequality.
    """
    if isinstance(ineq, FullCorrelationInequality):
        free = [(p, s) for p in range(N_PARTIES) for s in range(1, ineq.g.shape[0])]
    else:
        free = sorted({(p, s) for t in ineq.terms
                       for p, s in enumerate(t.settings) if s is not None})
    return coefficient_table(ineq), free


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
    of ``strategy_space(ineq)``: 512 for the full-correlation form, 64 for
    the original one.  Returns (min, max, argmax) with the argmax
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
    if np.abs(e).max() > 1.0 + tolerances.FLOAT:
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
    support = list(map(tuple, np.argwhere(g != 0).tolist()))
    return support, np.array([_at(table, x) for x in support])


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
    support, e = on_support(corr, g)
    return float(sum(g[x] * v for x, v in zip(support, e)))


def quantum_value(ineq: Inequality, rho: np.ndarray, obs: list[list[np.ndarray]]) -> float:
    """S = sum_x g(x) E(x) over the support of the coefficient table; a
    term-list inequality is lifted first, so absent parties contribute an
    identity factor."""
    return expression_value(coefficient_table(ineq), correlations(born_table(rho, obs)))


general_quantum_value = quantum_value
