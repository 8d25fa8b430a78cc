import numpy as np
import pytest

from bgsindy import generate_benchmark


@pytest.fixture(scope="session")
def kdv_dataset():
    return generate_benchmark("kdv")


@pytest.fixture(scope="session")
def burgers_dataset():
    return generate_benchmark("burgers-hyper")


@pytest.fixture(scope="session")
def ks_dataset():
    return generate_benchmark("modified-ks")


@pytest.fixture(scope="session")
def rd_dataset():
    return generate_benchmark("rd2d")


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
