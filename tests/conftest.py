import numpy as np
import pytest

from capsbeam.capsnet import init_weights, toy_config
from capsbeam.data_model import PixelGrid, ProbeGeometry, RfVolume, Tensor


@pytest.fixture(scope="session")
def toy_cfg():
    return toy_config()


@pytest.fixture(scope="session")
def toy_grid():
    return PixelGrid(num_rows=16, num_cols=16)


@pytest.fixture(scope="session")
def toy_probe():
    return ProbeGeometry(num_elements=8)


@pytest.fixture(scope="session")
def toy_weights(toy_cfg):
    return init_weights(toy_cfg, seed=42)


@pytest.fixture(scope="session")
def toy_rf(toy_grid):
    rng = np.random.default_rng(7)
    samples = rng.normal(scale=0.25, size=(16, 16, 8)).astype(np.float32)
    return RfVolume(grid=toy_grid, num_channels=8, samples=samples)


@pytest.fixture(scope="session")
def wide_rf():
    """70x40 toy volume: several conv row chunks and routing pixel blocks."""
    rng = np.random.default_rng(11)
    samples = rng.normal(scale=0.5, size=(70, 40, 8)).astype(np.float32)
    return RfVolume(grid=PixelGrid(num_rows=70, num_cols=40), num_channels=8, samples=samples)


@pytest.fixture(scope="session")
def loud_toy_weights(toy_cfg):
    """Toy weights doubled, with random biases, so that the fixed-point
    outputs on wide_rf take over a thousand distinct values, not all zero."""
    bundle = init_weights(toy_cfg, seed=42)
    rng = np.random.default_rng(3)
    for name, entry in list(bundle.entries.items()):
        if name.endswith(".weight"):
            data = entry.data * 2
        else:
            data = rng.uniform(-0.1, 0.1, entry.dims)
        bundle.entries[name] = Tensor.from_array(data.astype(np.float32))
    return bundle
