"""Communication complexity with a bound entangled resource, on a core
that reads the number of parties from its inputs.

Submodules:
    tolerances -- every numerical tolerance, with its reason
    state      -- the 3-qubit bound entangled state, float or exact (printed_state),
                  its gates, and the certificates of any 2-5 qubit state on every cut
    linalg     -- references only, for the tests and the benchmark: the partial
                  transpose, and Hermitian spectra behind state's gate
    bell       -- Bell inequalities, classical bounds, one float-or-exact Born contraction
                  for P, S, B; the paper's game and observables (exact: rational_observables)
    ccp        -- the communication game: input distribution, target,
                  exact success probabilities, and its tables (GameTables)
    simulate   -- the sampler: seeded Monte Carlo runs of both protocols
    cli        -- command-line front end (`becc`): one table of subcommands
                  whose handlers return a report and a verdict
"""

__version__ = "0.1.0"
