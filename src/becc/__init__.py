"""Communication complexity with a bound entangled resource, on a core
that reads the number of parties from its inputs.

Submodules:
    tolerances -- every numerical tolerance, with its reason
    linalg     -- partial transpose and Hermitian spectra of small
                  matrices, for the state's certificates
    state      -- the shared 3-qubit bound entangled state and its
                  certificates
    bell       -- Bell inequalities, classical bounds by enumeration, Born
                  probabilities, quantum values; the paper's 3-party game
    ccp        -- the communication game: input distribution, target,
                  exact success probabilities
    simulate   -- seeded Monte Carlo runs of both protocols
    cli        -- command-line front end (`becc`)
"""

__version__ = "0.1.0"
