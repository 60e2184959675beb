import numpy as np
import pytest


class FrozenUniformRng:
    """Stub rng whose uniforms are all 1/e, making every Gumbel draw zero."""

    def __init__(self):
        self.calls = 0

    def uniforms(self, count):
        self.calls += count
        return np.full(count, 1.0 / np.e)

    def split(self, *labels):
        return self


@pytest.fixture
def frozen_rng():
    return FrozenUniformRng()


def pytest_addoption(parser):
    parser.addoption("--runslow", action="store_true", default=False,
                     help="also run the tests marked slow (the acceptance suite)")


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: a slow, opt-in test that runs only under --runslow")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip = pytest.mark.skip(reason="slow; run with --runslow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)
