"""Reference linear algebra for the tests and the benchmark.

partial_transpose transposes one tensor factor; hermitian_eigenvalues
diagonalizes behind state's Hermiticity gate.  Both take small numpy
arrays, or stacks of them along leading axes, and never mutate them.
"""
from __future__ import annotations

import numpy as np

from .state import _as_square, hermiticity_deviation


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


def hermitian_eigenvalues(m: np.ndarray) -> np.ndarray:
    """All eigenvalues of a Hermitian matrix, ascending; of a stack, one
    ascending row per matrix, each as the matrix alone would give it.
    A matrix hermiticity_deviation rejects is rejected."""
    hermiticity_deviation(m)
    return np.linalg.eigvalsh(m)
