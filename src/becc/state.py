"""The three-qubit bound entangled state shared by the parties.

The state is a fixed mixture of four pure states given by 6-decimal
amplitudes.  Those printed decimals carry ~1e-6 rounding, so certificates
driven by them (permutation symmetry, partial-transpose invariance) are
checked at ``tolerances.TRANSCRIPTION``, while anything driven only by
floating-point arithmetic is checked at ``tolerances.FLOAT``.

Basis convention: party 1 is the most significant qubit, so basis index
b = 4*b1 + 2*b2 + b3 corresponds to |b1 b2 b3>.
"""
from __future__ import annotations

import itertools
import json
from typing import NamedTuple

import numpy as np

from . import linalg, tolerances

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
    """Numerical certificates of the built-in state."""
    trace_deviation: float
    hermiticity_deviation: float
    min_eigenvalue: float
    permutation_symmetry_deviation: float
    pt_invariance_deviation: float
    pt_min_eigenvalues: tuple[float, float, float]

    def to_dict(self) -> dict:
        return self._asdict()


def _check_transcription() -> None:
    for i, amps in enumerate(PURE_STATE_AMPLITUDES):
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > tolerances.KET_NORM:
            raise AssertionError(f"pure state {i + 1} has norm {norm}")
    if abs(sum(MIXTURE_WEIGHTS) - 1.0) > tolerances.TRANSCRIPTION:
        raise AssertionError(f"mixture weights sum to {sum(MIXTURE_WEIGHTS)}")


def build_vb_state() -> np.ndarray:
    """Build the 8x8 density matrix from the compiled-in constants.

    Weights and kets are renormalized, so the result has unit trace to
    machine precision.  Deterministic: repeated calls are bit-identical.
    """
    _check_transcription()
    wsum = sum(MIXTURE_WEIGHTS)
    rho = np.zeros((8, 8))
    for w, amps in zip(MIXTURE_WEIGHTS, PURE_STATE_AMPLITUDES):
        ket = linalg.normalize_ket(np.array(amps, dtype=float))
        rho += (w / wsum) * linalg.outer(ket).real
    return rho


def validate_state(rho: np.ndarray) -> StateReport:
    """Measure every checkable certificate of a candidate 3-qubit state;
    rho and its partial transposes are diagonalized as one stack."""
    rho = np.asarray(rho)
    if rho.shape != (8, 8):
        raise ValueError(f"expected an 8x8 matrix, got {rho.shape}")

    # as (2,)*6, axes k and 3 + k are the row and column index of party k
    t = rho.reshape((2,) * 6)
    stack = np.stack([t] + [t.swapaxes(k, 3 + k) for k in range(3)]).reshape(4, 8, 8)
    eigs = linalg.hermitian_eigenvalues(stack)
    # each party permutation p reorders the row and the column axes alike
    permuted = np.stack([t.transpose(p + tuple(3 + i for i in p))
                         for p in itertools.permutations(range(3))])

    return StateReport(
        trace_deviation=abs(float(np.trace(rho).real) - 1.0),
        hermiticity_deviation=linalg.hermiticity_deviation(rho),
        min_eigenvalue=float(eigs[0, 0]),
        permutation_symmetry_deviation=float(np.abs(permuted - t).max()),
        pt_invariance_deviation=float(np.abs(stack[3] - rho).max()),
        pt_min_eigenvalues=tuple(eigs[1:, 0].tolist()),
    )


def state_to_json(rho: np.ndarray) -> str:
    """Serialize a density matrix as a row-major array of [re, im] pairs."""
    rho = np.asarray(rho, dtype=complex)
    data = [[x.real, x.imag] for x in rho.ravel()]
    return json.dumps({"dim": rho.shape[0], "entries": data})
