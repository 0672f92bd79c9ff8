"""The inputs the test modules share: the paper's state, observables, game
and tables, built once per module, and the one exact converter."""
from fractions import Fraction

import numpy as np
import pytest

from becc import bell, simulate, state


def exact(a):
    """a as an object array of Fractions, entry by entry: exact for ints,
    floats and Fractions."""
    return np.array([Fraction(v) for v in np.ravel(a).tolist()], dtype=object).reshape(np.shape(a))


@pytest.fixture(scope="module")
def rho():
    return state.build_vb_state()


@pytest.fixture(scope="module")
def obs():
    return bell.measurement_observables()


@pytest.fixture(scope="module")
def hom():
    return bell.homogenize(bell.sliwa5())


@pytest.fixture(scope="module")
def tables():
    return simulate.default_tables()
