"""Shared fixtures.

The expensive artifacts (exhaustive ball, full-size walk samples, the scan
observation set) are built once per session and reused by both the unit tests
and the acceptance suite.
"""

import numpy as np
import pytest

from wreathlab import embedding, metric, walk

ALPHA = 0.45
FULL_TIMES = walk.DYADIC_TIMES  # 2^4 .. 2^14
FULL_TRIALS = 2000
SEED = 7


@pytest.fixture(scope="session")
def ball8():
    return metric.ball(8)


@pytest.fixture(scope="session")
def ball6_elements():
    return embedding.ball_elements(6)


@pytest.fixture(scope="session")
def ball4_elements():
    return embedding.ball_elements(4)


@pytest.fixture(scope="session")
def z_sample():
    return walk.simulate("z", FULL_TIMES, FULL_TRIALS, SEED)


@pytest.fixture(scope="session")
def zwrz_sample():
    return walk.simulate("zwrz", FULL_TIMES, FULL_TRIALS, SEED)


@pytest.fixture(scope="session")
def scan_observations(ball6_elements):
    """Distance/norm observations on the ball plus the balanced families."""
    elements = list(ball6_elements)
    for prefactor in (1, 2, 4, 8, 16):
        elements.extend(embedding.balanced_family(ALPHA, prefactor))
    return embedding.norm_observations(elements, ALPHA, 1e-6)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
