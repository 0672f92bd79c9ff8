"""Dense complex linear algebra for few-qubit states.

Everything here works on small (<= 8x8) numpy arrays of complex (or real)
dtype, or on stacks of them along leading axes.  All functions are pure
and never mutate their arguments.
"""
from __future__ import annotations

import numpy as np

from . import tolerances


def _as_square(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix contains non-finite entries")
    return m


def normalize_ket(amplitudes: np.ndarray) -> np.ndarray:
    """Return the unit-norm version of a state vector."""
    v = np.asarray(amplitudes, dtype=complex).ravel()
    norm = np.linalg.norm(v)
    if norm == 0 or not np.isfinite(norm):
        raise ValueError("cannot normalize a zero or non-finite vector")
    return v / norm


def outer(ket: np.ndarray) -> np.ndarray:
    """Projector |k><k| of a state vector (not renormalized here)."""
    v = np.asarray(ket, dtype=complex).ravel()
    return np.outer(v, v.conj())


def partial_transpose(m: np.ndarray, party: int, local_dims: list[int]) -> np.ndarray:
    """Transpose a single tensor factor of a multipartite operator.

    ``party`` is 1-based, ``local_dims`` lists the factor dimensions in
    tensor order (party 1 = most significant).  Applying twice gives back
    the input exactly.
    """
    m = _as_square(m)
    dims = list(local_dims)
    n = len(dims)
    if m.shape != (int(np.prod(dims)),) * 2:
        raise ValueError(f"local dims {dims} do not match a matrix of shape {m.shape}")
    if not 1 <= party <= n:
        raise ValueError(f"party index {party} out of range 1..{n}")
    t = m.reshape(dims + dims)
    k = party - 1
    axes = list(range(2 * n))
    axes[k], axes[n + k] = axes[n + k], axes[k]
    return t.transpose(axes).reshape(m.shape)


def hermiticity_deviation(m: np.ndarray) -> float:
    """Max entry-wise |m - m^dagger|, over every matrix of a stack."""
    m = _as_square(m)
    return float(np.abs(m - m.conj().swapaxes(-1, -2)).max())


def hermitian_eigenvalues(m: np.ndarray, tol: float = tolerances.FLOAT) -> np.ndarray:
    """All eigenvalues of a Hermitian matrix, ascending; of a stack, one
    ascending row per matrix, each as the matrix alone would give it.

    Rejects matrices that are not Hermitian within ``tol``; a violation
    here almost always means a construction bug upstream.
    """
    dev = hermiticity_deviation(m)
    if dev > tol:
        raise ValueError(f"matrix is not Hermitian (max deviation {dev:.3e})")
    return np.linalg.eigvalsh(m)
