import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from relupca.enumeration import architectures
from relupca.subspace import epsilon_net_matrices

settings.register_profile(
    "repro",
    derandomize=True,
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


@pytest.fixture
def rng():
    return np.random.default_rng(0xC0FFEE)


def _unfiltered_network_stream(frame, eps_prime, size, l, b):
    """enumerate_networks' stream before deduplication: every clipped grid point, in odometer order."""

    def clip(mat):
        return np.where(np.abs(mat) <= eps_prime, 0.0, mat)

    radius = b + eps_prime
    stream = []
    for widths in architectures(size, l):
        dims = (len(frame), *widths, 1)
        shapes = [(dout, din) for din, dout in zip(dims, dims[1:])]
        rest = [[clip(m) for m in epsilon_net_matrices(r, c, radius, eps_prime)] for r, c in shapes[1:]]
        for w0 in epsilon_net_matrices(*shapes[0], radius, eps_prime):
            lifted = clip(w0) @ frame.vectors
            stream.extend((lifted, *tail) for tail in itertools.product(*rest))
    return stream


@pytest.fixture
def unfiltered_network_stream():
    return _unfiltered_network_stream
