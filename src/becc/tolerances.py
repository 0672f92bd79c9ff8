"""Every numerical tolerance the package checks against, with its reason.

A check absorbs one of two errors: floating-point arithmetic on O(1)
quantities (~1e-15 over the few hundred operations of any computation
here), or the 6-decimal transcription of the state's amplitudes and
weights (each printed number is off by up to 5e-7, which moves the
entries of the density matrix by ~1e-6).
"""

# arithmetic: trace, Hermiticity and smallest eigenvalue of the state (a
# renormalized mixture, so PSD whatever the printed digits), Born
# probabilities summing to 1, imaginary parts of expectation values, |E| <= 1
FLOAT = 1e-9
# arithmetic: a Born probability this close below zero is rounding and is
# clamped to 0; anything more negative means a non-positive state
NEGATIVITY = 1e-12
# transcription: permutation symmetry, invariance under partial transpose
# and positivity of the partial transposes, the sum of the printed mixture
# weights and each printed ket's norm (eight amplitudes, each off by up to
# 5e-7, move it by at most 1.4e-6); a larger deviation is a mistyped number
TRANSCRIPTION = 1e-5
# headline, not an error: the acceptance criteria's gates on reproduce-paper's S
# and P_Q against the printed 8.00685 and 0.681974; ROADMAP item 9 tightens them
S_GATE = 2e-4
P_Q_GATE = 1e-4
