"""Three-party communication complexity with a bound entangled resource.

Submodules:
    tolerances -- every numerical tolerance, with its reason
    linalg     -- small dense complex linear algebra (partial transpose,
                  Hermitian spectra)
    state      -- the shared 3-qubit bound entangled state and its
                  certificates
    bell       -- the Bell inequality, classical bounds by enumeration,
                  Born probabilities and quantum values
    ccp        -- the communication game: input distribution, target,
                  exact success probabilities
    simulate   -- seeded Monte Carlo runs of both protocols
    cli        -- command-line front end (`becc`)
"""

__version__ = "0.1.0"
