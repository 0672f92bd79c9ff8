"""Bell inequality machinery for any number of parties.

An inequality is one dense coefficient table g with an axis per party, setting 0 being the
identity, and two-sided classical bounds.  Covers classical bounds by exhaustive enumeration
of deterministic local strategies, Born probabilities and quantum values from a shared state
and one observable list per party, and the built-in three-party game: Sliwa's inequality #5,
its homogenized form and the paper's observables.  One converter, _fractions, reads entries as
Fractions and names what is not a number.  A float64 g is used as it is; any other g enters entry
by entry through _fractions and must be exactly a float64 table.  A rho, observable or correlation
table of a NUMERIC kind holds numbers; any other enters the same way, makes the contraction or S
exact and may join no float array.  One gate, support, checks g against the observables' settings
before any sum over g's support.  Born table and Bell operator: one einsum step per party each.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction
from numbers import Rational, Real
from typing import NamedTuple

import numpy as np

from . import tolerances

N_SETTINGS = 4  # homogenized form: settings 0..3 (0 = identity, 3 = unused)
NUMERIC = "biufc"  # the dtype kinds read as numbers: bool, int, unsigned, float, complex

MAX_STRATEGY_SPACE = 2 ** 24
# no intermediate of the strategy search has more than this many entries,
# except the first contraction of g with one row (g.size / settings), so
# peak memory grows neither with the size of the strategy space nor with
# the number of parties
STRATEGY_BLOCK = 2 ** 16


def outcome_signs(n_parties: int) -> np.ndarray:
    """Outcomes a_i in {-1,+1} of every n-bit outcome index, shape
    (2^n, n): bit 1 means a = -1, party 1 most significant (the order of
    the state's basis index and of born_table's outcome axis)."""
    bits = (np.arange(2 ** n_parties)[:, None] >> np.arange(n_parties)[::-1]) & 1
    return 1 - 2 * bits


def _fraction(v) -> Fraction:
    """An int, Fraction, finite float or real complex as a Fraction; a numpy scalar as its value."""
    v = v.item() if isinstance(v, np.generic) else v  # a long double stays a numpy scalar
    if (cplx := isinstance(v, (complex, np.complexfloating))) and v.imag:  # not numbers.Complex
        raise ValueError(f"exact entry {v} is complex: a non-zero imaginary part")
    v = v.real if cplx else v
    if isinstance(v, (float, np.floating)) and not np.isfinite(v):
        raise ValueError(f"exact entry {v} is non-finite")
    if not isinstance(v, (Rational, float, np.floating)):
        raise ValueError(f"exact entry {v!r} is not a number")
    return Fraction(*v.as_integer_ratio()) if isinstance(v, np.floating) else Fraction(v)


def _fractions(a) -> np.ndarray:
    """The one way in for each entry of a non-NUMERIC array or a non-float64 g; times as text."""
    a = np.asarray(a)  # as an object, numpy would hand a nanosecond datetime over as an int
    return np.frompyfunc(_fraction, 1, 1)(a.astype(str) if a.dtype.kind in "mM" else a)


def coefficient_table(g) -> np.ndarray:
    """g as a real float cube with one axis per party, finite, not all zero, exactly as its
    entries are and with a finite sum |g|; anything else raises ValueError."""
    g = np.asarray(g)
    if g.ndim == 0 or len(set(g.shape)) > 1:
        raise ValueError(f"coefficient table must be a cube with an axis per party, "
                         f"got shape {g.shape}")
    if g.dtype != float:  # a float64 table is used as it is; any other enters entry by entry
        exact = _fractions(g)  # numpy would cast the string "1" to 1.0
        try:
            g = np.asarray(exact, dtype=float)
        except OverflowError:  # a Python int or Fraction beyond the float range
            raise ValueError("coefficient table has a non-finite entry as a float") from None
        if (lost := g.astype(object) != exact).any():
            raise ValueError(f"coefficient table entry {exact[lost][0]} is not exactly a float")
    # a finite, positive sum of squares bounds sum |g| and passes all three checks;
    # NaN, overflow, underflow fall through
    if not 0 < np.vdot(g, g) < math.inf:
        if not np.isfinite(g).all():
            raise ValueError("coefficient table has a non-finite entry")
        if not g.any():
            raise ValueError("all-zero coefficient table")
        with np.errstate(over="ignore"):
            if np.abs(g).sum() == math.inf:
                raise ValueError("coefficient table's sum |g| overflows a float")
    return g


def table_weight(g) -> int | float:
    """sum |g|, the normaliser of Q and of P = (1 + S/sum|g|)/2: an int when g is integral
    and sums below 2^53, so every float sum of its signed entries is exact; else a float."""
    g = np.abs(coefficient_table(g))
    return int(w) if (w := g.sum()) < 2 ** 53 and (np.rint(g) == g).all() else float(w)


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
        g = coefficient_table(g)
        if not all(isinstance(b, Real) and math.isfinite(b) for b in (lower_bound, upper_bound)):
            raise ValueError("bounds must be finite real numbers")
        if lower_bound > upper_bound:
            raise ValueError("lower bound exceeds upper bound")
        return super().__new__(cls, g, lower_bound, upper_bound)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too

    def sum_abs(self) -> int | float:
        """sum |g| as table_weight gives it: an int exactly when g is integral."""
        return table_weight(self.g)


# Base terms of Sliwa's inequality #5 as setting tuples, 0 for an absent
# party: A1 + A1B2 - A2B2 - A1B1C1 - A2B1C1 + A2B2C2, bounds -13 .. 3.
_SLIWA5_BASE = {(1, 0, 0): 1.0, (1, 2, 0): 1.0, (2, 2, 0): -1.0,
                (1, 1, 1): -1.0, (2, 1, 1): -1.0, (2, 2, 2): 1.0}
# each base term on every permutation of its settings, as a flat index into
# the 3x3x3 table and a coefficient, in the order a += loop adds them
_SLIWA5_FLAT, _SLIWA5_COEFFS = map(np.array, zip(*[(9 * y[0] + 3 * y[1] + y[2], c)
    for x, c in _SLIWA5_BASE.items() for y in set(itertools.permutations(x))]))


def sliwa5() -> Inequality:
    """The original two-setting inequality, symmetrized over the parties:
    each base term on every permutation of its settings (17 entries)."""
    return Inequality(np.bincount(_SLIWA5_FLAT, _SLIWA5_COEFFS, 27).reshape(3, 3, 3),
                      lower_bound=-13.0, upper_bound=3.0)


def homogenize(ineq: Inequality) -> Inequality:
    """Full-correlation form with bounds -+(upper - lower)/2.

    g is padded to N_SETTINGS settings per party, and the constant shift
    -(lower + upper)/2 that centres the bounds is added to the
    all-identity tuple.
    """
    g = np.zeros((max(N_SETTINGS, ineq.g.shape[0]),) * ineq.g.ndim)
    g[tuple(map(slice, ineq.g.shape))] = ineq.g
    g[(0,) * g.ndim] -= (ineq.lower_bound + ineq.upper_bound) / 2.0
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
        return math.prod(y * a[x] for y, a, x in zip(inst.y, self.a, inst.x))


def _fits(rows: list[int], s: int) -> bool:
    """Whether search_strategies may contract with local sign tables of
    these row counts: the (n, rows, s) tables and each contraction with
    party k, of s^k x (rows of parties k..n) entries, have at most
    STRATEGY_BLOCK entries unless they have one row."""
    product = 1
    for k in reversed(range(len(rows))):
        product *= rows[k]
        if product > 1 and product * s ** k > STRATEGY_BLOCK:
            return False
    return max(rows) == 1 or max(rows) * len(rows) * s <= STRATEGY_BLOCK


def search_strategies(g: np.ndarray) -> tuple[float, float, ClassicalStrategy, int]:
    """Exact extrema of sum_x g(x) a_1(x_1) ... a_n(x_n) over the
    deterministic strategies of n parties with s settings each.

    One slot rule: setting 0 outputs +1, as the identity observable forces, and settings 1..
    of every party are its free slots; the game, whose setting 0 is a plain input, reads its
    optimum from this search by a party flip (ccp.optimal_classical_strategy).  Returns (min,
    max, argmax, 2^(free slots)): 64 for the original inequality, 512 for the homogenized one.
    A free slot is live when its setting carries some of g's support for its party; a dead
    slot changes no value, so it stays +1, and only the 2^(live slots) strategies are
    searched, at most MAX_STRATEGY_SPACE.  Row r puts bit j of r on live slot j, in
    party-major order, bit 0 meaning +1, so row 0 is the all-ones strategy; the argmax is the
    smallest row that attains the maximum.  The expression is multilinear in the parties'
    outputs, so g is contracted with one local sign table per party, a row per assignment of
    its live slots, last party first.  Where that would make an array of more than
    STRATEGY_BLOCK entries, the last live slots are enumerated instead, one combination at a
    time.
    """
    g = coefficient_table(g)
    n, s = g.ndim, g.shape[0]
    nonzero = g != 0
    supported = [nonzero.reshape(s ** k, s, -1).any(axis=(0, 2)).tolist() for k in range(n)]
    # masks[p, 0, x]: the bit of party p's table row (or, once enumerated,
    # of the combination) that sets slot (p, x) to -1; 0 keeps it at +1
    masks, counts, live = np.zeros((n, 1, s), dtype=int), [0] * n, []
    for p, x in itertools.product(range(n), range(1, s)):
        if supported[p][x]:
            masks[p, 0, x], counts[p] = 1 << counts[p], counts[p] + 1
            live.append((p, x))
    if 2 ** len(live) > MAX_STRATEGY_SPACE:
        raise ValueError(f"{len(live)} live slots: 2^{len(live)} strategies too large to enumerate")
    rows, head = [2 ** c for c in counts], len(live)
    while head and not _fits(rows, s):  # the last live slots leave the tables
        head -= 1
        rows[live[head][0]] //= 2
    width = max(rows).bit_length() - 1
    for j, (p, x) in enumerate(live[head:]):
        masks[p, 0, x] = 1 << width + j
    low, high, best = math.inf, -math.inf, None
    for c in range(2 ** (len(live) - head)):  # in row order
        tables = np.where(np.arange(c << width, c + 1 << width)[:, None] & masks, -1.0, 1.0)
        local = [tables[k, :r] for k, r in enumerate(rows)]
        v = g
        for t in reversed(local):  # contract g's last axis, put the party's rows first
            v = np.dot(t, v.reshape(-1, s).T)
        low = min(low, float(v.min()))
        v = v.reshape(rows).T  # party 1's rows vary fastest, as in the row number
        k = int(v.argmax())
        if v.flat[k] > high:  # strict: an earlier combination keeps a tie
            high, best = float(v.flat[k]), []
            for t in local:
                k, r = divmod(k, len(t))
                best.append(tuple(map(int, t[r].tolist())))
    return low, high, ClassicalStrategy(tuple(best)), 2 ** (n * (s - 1))


def classical_extrema(ineq: Inequality) -> tuple[float, float, ClassicalStrategy]:
    """(min, max, argmax) of search_strategies: over the deterministic strategies with the
    identity at +1, 64 for the original form and 512 for the homogenized one."""
    return search_strategies(ineq.g)[:3]


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
    return [list(per_party) for _ in range(3)]


def rational_reflection(u) -> np.ndarray:
    """[[c, s], [s, -c]], (c, s) = (1 - u^2, 2u) / (1 + u^2): a reflection, exact at rational u."""
    c, s = (1 - u * u) / (1 + u * u), 2 * u / (1 + u * u)
    return np.array([[c, s], [s, -c]])


def rational_observables() -> list[list[np.ndarray]]:
    """measurement_observables() as fresh Fraction arrays, u = tan(theta/2) rounded to 1e-12."""
    o1, o2 = (rational_reflection(Fraction(round(math.tan(t / 2) * 10 ** 12), 10 ** 12))
              for t in (2 * math.pi / 9, -4 * math.pi / 9))
    return [[np.identity(2, dtype=object) * Fraction(1), o1, o2] for _ in range(3)]


# a1 a2 a3 for each outcome index of the built-in game
OUTCOME_PRODUCT = outcome_signs(3).prod(axis=1)


def _observable_stacks(obs: list[list[np.ndarray]], *operands) -> tuple[list, list, bool]:
    """Each party's (settings, 2, 2) observable stack, the operands, and whether they are exact."""
    if empty := [k for k, o in enumerate(obs, 1) if not len(o)]:
        raise ValueError(f"party {empty[0]} has no observables")
    if bad := {np.shape(o) for o in itertools.chain(*obs)} - {(2, 2)}:
        raise ValueError(f"every observable must be 2x2, got shape {min(bad)}")
    kinds = {np.asarray(a).dtype.kind for a in itertools.chain(*obs, operands)}
    convert = _fractions if (exact := not kinds <= set(NUMERIC)) else np.asarray
    stacks, operands = [np.array(list(map(convert, o))) for o in obs], list(map(convert, operands))
    if exact and kinds & {"f", "c"}:  # after the entries, so a string is named as not a number
        raise ValueError("exact (object) and float operands cannot mix")
    return stacks, operands, exact


def born_table(rho: np.ndarray, obs: list[list[np.ndarray]]) -> np.ndarray:
    """Joint outcome distributions P(a_1..a_n | x) on a 2^n x 2^n rho, one list of 2x2
    observables per party, shape (settings of party 1, ..., of party n, 2^n), outcomes as in
    outcome_signs: rho as (2,)*2n contracted with each party's projectors (I +- O)/2 in
    turn, by integer constants, so an exact contraction stays in Fractions.  Float probabilities
    within NEGATIVITY below zero are clamped and each distribution renormalized; a more
    negative one, an imaginary part or a sum off 1 by more than FLOAT is an error."""
    n, eye, sign = len(obs), np.eye(2, dtype=int), np.array([1, -1])[:, None, None]
    if np.shape(rho) != (2 ** n,) * 2:
        raise ValueError(f"rho {np.shape(rho)} must be {2 ** n}x{2 ** n} for {n} observable lists")
    stacks, (p,), exact = _observable_stacks(obs, rho)
    # p as (settings so far, outcomes so far, party k's row, later rows, its column, later columns)
    for k, o in enumerate(stacks):
        r, stack = 2 ** (n - k - 1), (eye + sign * o[:, None]) / 2  # x - y is x + (-y), bitwise
        p = np.einsum("XAirjc,xaji->XxAarc", p.reshape(-1, 2 ** k, 2, r, 2, r), stack)
    p = p.reshape(*(len(t) for t in stacks), -1)
    if exact:  # no clamp and no renormalization
        if min(p.flat) < 0 or (p.sum(axis=-1) != 1).any():
            raise ValueError("exact outcome probabilities must be >= 0 and sum to 1")
        return p
    # every guard below is a comparison, which a NaN passes
    if not np.isfinite(p).all():
        raise ValueError("non-finite outcome probability: rho has a non-finite entry")
    if np.iscomplexobj(p) and np.abs(p.imag).max() > tolerances.FLOAT:
        raise ValueError(f"outcome probability has imaginary part {np.abs(p.imag).max():.3e}")
    p = p.real
    if p.min() < -tolerances.NEGATIVITY:
        raise ValueError(f"negative outcome probability {p.min():.3e}")
    p = p.clip(0.0, None)
    total = p.sum(axis=-1, keepdims=True)  # tr rho for every setting tuple, up to rounding
    if (np.abs(total - 1.0) > tolerances.FLOAT).any():
        raise ValueError(f"outcome probabilities sum to {total.flat[0]}")
    return p / total


def correlations(pmf: np.ndarray) -> np.ndarray:
    """E(x) = sum_a a_1 ... a_n P(a|x) for every tuple of a Born table."""
    if (pmf := np.asarray(pmf)).ndim < 2 or pmf.shape[-1] != 2 ** (pmf.ndim - 1):
        raise ValueError(f"pmf of shape {pmf.shape}: after n >= 1 setting axes, one per party, "
                         "the last axis must hold 2^n outcomes")
    if 0 in pmf.shape:  # only a setting axis can be: the last holds 2^n >= 2 outcomes
        raise ValueError(f"pmf of shape {pmf.shape}: setting axis {pmf.shape.index(0)} is empty")
    if pmf.dtype.kind not in NUMERIC:  # its entries by the entry rule
        pmf = _fractions(pmf)
    e = pmf @ outcome_signs(pmf.ndim - 1).prod(axis=1)
    if not np.abs(e).max() <= 1.0 + tolerances.FLOAT:  # a NaN fails this too
        raise ValueError(f"correlation {e.flat[np.abs(e).argmax()]} outside [-1, 1]")
    return e


def _observed(support: np.ndarray, settings) -> tuple[np.ndarray, ...]:
    """A (tuple, party) support as index arrays; a setting < 0 or >= settings[party] raises."""
    if (missing := (support < 0) | (support >= settings)).any():
        k, party = np.argwhere(missing)[0]
        raise ValueError(f"setting tuple {tuple(support[k].tolist())}: party {party + 1} "
                         f"has no observable for setting {support[k, party]}")
    return tuple(support.T)


def support(g, settings) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """The one gate between g and observables of settings[k] settings for party k: g as
    coefficient_table gives it and its np.nonzero support; a party or setting misfit raises."""
    g = coefficient_table(g)
    if len(settings) != g.ndim:
        raise ValueError(f"observables of {len(settings)} parties for a {g.ndim}-party table")
    return g, _observed(np.array(np.nonzero(g)).T, settings)


def _at(table: np.ndarray, x: tuple[int, ...], n_parties: int):
    """table[x] for a setting tuple x of one setting per party."""
    if len(x) != n_parties:
        raise ValueError(f"setting tuple {x} has {len(x)} settings for {n_parties} parties")
    if (row := np.array([x])).dtype.kind not in "iu":
        raise ValueError(f"setting tuple {tuple(row[0].tolist())} must hold integer settings")
    return table[_observed(row, table.shape[:n_parties])][0]


def born_distribution(rho: np.ndarray, obs: list[list[np.ndarray]],
                      x: tuple[int, ...]) -> np.ndarray:
    """P(a | x) for one setting tuple: its row of born_table."""
    return _at(born_table(rho, obs), x, len(obs))


def correlation(rho: np.ndarray, obs: list[list[np.ndarray]],
                x: tuple[int, ...]) -> float:
    """E(x) = trace(rho O_{x_1} (x) ... (x) O_{x_n}) for one setting tuple, from the Born table."""
    return float(_at(correlations(born_table(rho, obs)), x, len(obs)))


def expression_value(g: np.ndarray, corr: np.ndarray) -> float | Fraction:
    """S = sum_x g(x) E(x) over the support of g; exact, in Fractions, for a non-NUMERIC corr."""
    g, idx = support(g, np.shape(corr))
    if (e := np.asarray(corr)[idx]).dtype.kind not in NUMERIC:
        return sum(_fractions(g[idx]) * _fractions(e))
    # Python's left-to-right sum of numpy scalars: np.sum pairs terms, moving S
    return sum(g[idx] * e).item()


def quantum_value(ineq: Inequality, rho: np.ndarray,
                  obs: list[list[np.ndarray]]) -> float | Fraction:
    """S = sum_x g(x) E(x) over the support of the coefficient table; an absent party sits on
    the identity setting, so contributes an identity factor.  Exact for Fraction rho and obs."""
    return expression_value(ineq.g, correlations(born_table(rho, obs)))


def bell_operator(g: np.ndarray, obs: list[list[np.ndarray]]) -> np.ndarray:
    """B = sum_x g(x) O_{1,x_1} (x) ... (x) O_{n,x_n}, so S = trace(rho B): g cut to the observed
    settings, contracted once with each party's (settings, 2, 2) stack of 2x2 observables, all
    checked as in born_table; non-NUMERIC ones make B exact, with g's entries as Fractions."""
    g = support(g, [len(o) for o in obs])[0]
    stacks, _, exact = _observable_stacks(obs)
    stacks = [t[:s] for t, s in zip(stacks, g.shape)]
    b = (_fractions if exact else np.asarray)(g[tuple(slice(len(t)) for t in stacks)])
    # b as (party k's setting, later settings, rows so far, columns so far)
    for k, t in enumerate(stacks):
        b = np.einsum("xsrc,xij->sricj", b.reshape(len(t), -1, 2 ** k, 2 ** k), t)
    return b.reshape(2 ** len(stacks), -1)


general_quantum_value = quantum_value
