"""Every numerical tolerance the package checks against, with its reason.

A check absorbs one of two errors: floating-point arithmetic on O(1)
quantities (~1e-15 over the few hundred operations of any computation
here), or the 6-decimal transcription of the state's amplitudes and
weights (each printed number is off by up to 5e-7, which moves the
entries of the density matrix by ~1e-6).
"""

# arithmetic: trace and Hermiticity of a built matrix, Born probabilities
# summing to 1, imaginary parts of expectation values, |E| <= 1
FLOAT = 1e-9
# arithmetic: a Born probability this close below zero is rounding and is
# clamped to 0; anything more negative means a non-positive state
NEGATIVITY = 1e-12
# transcription: one unit in the sixth printed decimal; the smallest
# eigenvalue of the state (rank 4, so four eigenvalues are zero) must not
# fall below minus this
PRINT_DIGIT = 1e-6
# transcription: permutation symmetry, invariance under partial transpose
# and positivity of the partial transposes, and the sum of the printed
# mixture weights
TRANSCRIPTION = 1e-5
# transcription: norm of each printed pure state (eight amplitudes, each
# rounded); a larger deviation means a mistyped amplitude
KET_NORM = 1e-4
