"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.microbench import microbench_catalog
from repro.hardware.gpu import GPUDevice
from repro.hardware.profiles import RTX_2080, RTX_3090
from repro.storage.catalog import Catalog
from repro.storage.table import Table


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "engine_matrix: iterates differential_utils.engine_variants (or a "
        "matrix like it); CI re-runs every such test under REPRO_WORKERS=2, "
        "REPRO_SHARDS=2 and REPRO_BACKEND=fast",
    )


@pytest.fixture
def device() -> GPUDevice:
    return GPUDevice(RTX_3090)


@pytest.fixture
def device_2080() -> GPUDevice:
    return GPUDevice(RTX_2080)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def small_catalog() -> Catalog:
    """Two tiny (id, val) tables with known join structure."""
    catalog = Catalog()
    catalog.register(Table.from_dict("a", {
        "id": [1, 2, 3, 2, 5],
        "val": [10.0, 20.0, 30.0, 5.0, 7.0],
    }))
    catalog.register(Table.from_dict("b", {
        "id": [1, 1, 2, 4],
        "val": ["x", "y", "z", "w"],
    }))
    return catalog


@pytest.fixture
def micro_catalog() -> Catalog:
    return microbench_catalog(512, 16, seed=99)


def brute_force_equi_join(left: np.ndarray, right: np.ndarray):
    """O(n*m) reference join used to validate the vectorized kernels."""
    pairs = [
        (i, j)
        for i in range(left.size)
        for j in range(right.size)
        if left[i] == right[j]
    ]
    return pairs
