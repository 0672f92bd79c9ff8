"""The three-qubit bound entangled state shared by the parties.

The state is a fixed mixture of four pure states given by 6-decimal amplitudes.
``StateReport.certified`` is the verdict: permutation symmetry and the partial
transposes' invariance and positivity pass at ``tolerances.TRANSCRIPTION`` (the
digits' ~1e-6 rounding), trace and least eigenvalue at ``tolerances.FLOAT`` (arithmetic).

Basis convention: party 1 is the most significant qubit, so basis index
b = 4*b1 + 2*b2 + b3 corresponds to |b1 b2 b3>.
"""
from __future__ import annotations

import functools
import itertools
import json
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import tolerances

# Mixture weights p_1..p_4 as printed (sum = 1.0000009; renormalized below).
MIXTURE_WEIGHTS = (0.0636039, 0.273734, 0.273734, 0.388929)

# Amplitudes of the four pure components in computational-basis order
# |000>, |001>, |010>, |011>, |100>, |101>, |110>, |111>.
PURE_STATE_AMPLITUDES = (
    (0.183013, -0.408248, -0.408248, 0.0, -0.408248, 0.0, 0.0, 0.683013),
    (0.0, -0.344106, 0.688212, 0.219677, -0.344106, -0.439354, 0.219677, 0.0),
    (0.0, -0.596008, 0.0, -0.380492, 0.596008, 0.0, 0.380492, 0.0),
    (-0.933013, 0.0, 0.0, 0.149429, 0.0, 0.149429, 0.149429, 0.25),
)


class StateReport(NamedTuple):
    """Numerical certificates of a state (Hermiticity gates in ``validate_state``)."""
    trace_deviation: float
    hermiticity_deviation: float
    min_eigenvalue: float
    permutation_symmetry_deviation: float
    pt_invariance_deviation: float
    pt_min_eigenvalues: tuple[float, ...]

    def to_dict(self) -> dict:
        return self._asdict()

    @property
    def certified(self) -> bool:
        """PPT on every cut and party-symmetric, at the module docstring's gates;
        each is a comparison, so a NaN fails it.  Not entanglement: I/2^n passes."""
        f, t = tolerances.FLOAT, tolerances.TRANSCRIPTION
        return (self.trace_deviation <= f and self.min_eigenvalue >= -f
                and self.pt_invariance_deviation <= t and self.permutation_symmetry_deviation <= t
                and all(e >= -t for e in self.pt_min_eigenvalues))


def build_vb_state() -> np.ndarray:
    """Build the 8x8 density matrix from the compiled-in constants.

    Weights and kets are renormalized, so the result has unit trace to
    machine precision.  Deterministic: repeated calls are bit-identical.
    """
    # complex on purpose: a float ket divided by its norm rounds differently and
    # moves rho's last bits; each norm is np.linalg.norm's sqrt(re.re + im.im)
    kets = np.array(PURE_STATE_AMPLITUDES, dtype=complex)
    norms = np.sqrt(sum(r[:, None] @ r[:, :, None] for r in (kets.real, kets.imag)).ravel())
    for i, norm in enumerate(norms):
        if abs(norm - 1.0) > tolerances.TRANSCRIPTION:
            raise AssertionError(f"pure state {i + 1} has norm {norm}")
    wsum = sum(MIXTURE_WEIGHTS)
    if abs(wsum - 1.0) > tolerances.TRANSCRIPTION:
        raise AssertionError(f"mixture weights sum to {wsum}")
    kets = kets / norms[:, None]
    weights = np.array([w / wsum for w in MIXTURE_WEIGHTS])[:, None, None]
    # sum over axis 0 adds the four components in order, as a += loop would
    return (weights * (kets[:, :, None] * kets.conj()[:, None, :]).real).sum(axis=0)


def printed_state() -> np.ndarray:
    """rho from the printed digits as a fresh 8x8 array of Fractions, with trace exactly 1:
    sum_i (p_i / sum p) psi_i psi_i^T / (psi_i^T psi_i), within ~6e-17 of build_vb_state()."""
    kets = np.array([[Fraction(repr(v)) for v in k] for k in PURE_STATE_AMPLITUDES])
    weights = [Fraction(repr(w)) for w in MIXTURE_WEIGHTS]
    return sum(w / sum(weights) / np.dot(k, k) * np.outer(k, k) for w, k in zip(weights, kets))


@functools.cache
def _gathers(n: int) -> np.ndarray:
    """Indices into rho.reshape(-1), on its (2,)*2n view (party k's axes k, n + k):
    rho; the partial transpose of every bipartition (the smaller side, or of two
    equal halves the one holding party 1); every party permutation (rows, columns alike)."""
    t = np.arange(4 ** n).reshape((2,) * 2 * n)
    sides = [s for r in range(1, n // 2 + 1) for s in itertools.combinations(range(n), r)
             if 2 * r < n or 0 in s]
    views = [t] + [t.transpose([(k + n * (k % n in s)) % (2 * n) for k in range(2 * n)])
                   for s in sides]
    views += [t.transpose(p + tuple(n + i for i in p)) for p in itertools.permutations(range(n))]
    return np.stack(views).reshape(-1, 2 ** n, 2 ** n)


def _as_square(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    if m.dtype.kind not in "biufc":  # np.isfinite raises TypeError on object and string dtypes
        raise ValueError(f"expected a numeric matrix, got dtype {m.dtype}")
    if not np.isfinite(m).all():
        raise ValueError("matrix contains non-finite entries")
    return m


def hermiticity_deviation(m: np.ndarray) -> float:
    """Max entry-wise |m - m^dagger|, over every matrix of a stack; above
    ``tolerances.FLOAT`` it raises, as that almost always means a construction bug."""
    m = _as_square(m)
    dev = float(np.abs(m - m.conj().swapaxes(-1, -2)).max())
    if dev > tolerances.FLOAT:
        raise ValueError(f"matrix is not Hermitian (max deviation {dev:.3e})")
    return dev


def validate_state(rho: np.ndarray) -> StateReport:
    """Measure every certificate of an n-qubit state, 2 <= n <= 5; rho and
    its partial transposes on all 2^(n-1) - 1 cuts are diagonalized as one stack."""
    rho = np.asarray(rho)
    n = (rho.size.bit_length() - 1) // 2
    # the n! permutations set the cap: at n = 6 the cached indices take ~24 MB
    if not 2 <= n <= 5 or rho.shape != (2 ** n,) * 2:
        raise ValueError(f"expected a 2^n x 2^n matrix, 2 <= n <= 5, got shape {rho.shape}")
    hermiticity, views = hermiticity_deviation(rho), rho.reshape(-1)[_gathers(n)]
    n_pt = 2 ** (n - 1)  # rho and its 2^(n-1) - 1 partial transposes
    eigs = np.linalg.eigvalsh(views[:n_pt])  # as Hermitian as rho: they permute its entries
    return StateReport(
        trace_deviation=abs(float(rho.trace().real) - 1.0),
        hermiticity_deviation=hermiticity,
        min_eigenvalue=float(eigs[0, 0]),
        permutation_symmetry_deviation=float(np.abs(views[n_pt:] - rho).max()),
        pt_invariance_deviation=float(np.abs(views[1:n_pt] - rho).max()),
        pt_min_eigenvalues=tuple(eigs[1:, 0].tolist()),
    )


def state_to_json(rho: np.ndarray) -> str:
    """A density matrix as a row-major array of [re, im] pairs; a non-finite entry raises."""
    rho = np.asarray(rho, dtype=complex)
    data = [[x.real, x.imag] for x in rho.ravel()]
    return json.dumps({"dim": rho.shape[0], "entries": data}, allow_nan=False)
