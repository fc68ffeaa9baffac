"""Fixtures shared by the tests; the helpers they import live in support.py."""

import numpy as np
import pytest

from criticalgabor import atom, gabor_transform, hermite_signal


@pytest.fixture(scope="session")
def hermites():
    return [hermite_signal(n) for n in range(4)]


@pytest.fixture(scope="session")
def e0():
    return atom((0, 0))


@pytest.fixture(scope="session")
def h2_field(hermites):
    return gabor_transform(hermites[2])


@pytest.fixture()
def rng():
    return np.random.default_rng(7)
