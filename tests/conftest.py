"""Shared fixtures: small synthetic samples and pipeline instances.

Heavy objects (FIB-SEM samples, pipelines) are session-scoped: they are
deterministic and read-only, so sharing them keeps the suite fast on a
single core.  Tests that mutate state build their own instances.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.adapt import robust_normalize
from repro.cache import reset_cache
from repro.core.pipeline import ZenesisPipeline
from repro.data import make_benchmark_dataset, make_sample
from repro.data.synthesis.phantoms import disk_phantom, needles_phantom, two_phase_phantom
from repro.observability import reset_registry, reset_tracing
from repro.resilience.faults import reset_fault_plan


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite checked-in golden files (e.g. the golden trace topology) "
        "instead of asserting against them",
    )


@pytest.fixture
def update_golden(request) -> bool:
    return bool(request.config.getoption("--update-golden"))


@pytest.fixture(autouse=True)
def _fresh_inference_cache():
    """Hermetic tests: each test starts with an empty global inference cache.

    Session-scoped pipelines keep the cache instance they were built with,
    so they still benefit from within-instance reuse; only the *global*
    handle is renewed, preventing cross-test hit/miss leakage.  The metrics
    registry (stage latencies, resilience events, published cache series)
    and the tracer stack are cleared for the same reason.
    """
    reset_cache()
    reset_registry()
    reset_tracing()
    reset_fault_plan()
    yield


@pytest.fixture(scope="session")
def crystalline_sample():
    """A small crystalline FIB-SEM sample (128², 4 slices)."""
    return make_sample("crystalline", shape=(128, 128), n_slices=4)


@pytest.fixture(scope="session")
def amorphous_sample():
    """A small amorphous FIB-SEM sample (128², 4 slices)."""
    return make_sample("amorphous", shape=(128, 128), n_slices=4)


@pytest.fixture(scope="session")
def mini_dataset():
    """A reduced benchmark dataset (96², 2 slices per kind) for eval tests."""
    return make_benchmark_dataset(shape=(96, 96), n_slices=2)


@pytest.fixture(scope="session")
def pipeline():
    """A shared (read-only use!) Zenesis pipeline."""
    return ZenesisPipeline()


@pytest.fixture(scope="session")
def crystalline_slice(crystalline_sample):
    """(normalised float image, gt mask) of the first crystalline slice."""
    img = robust_normalize(crystalline_sample.volume.voxels[0])
    return img, crystalline_sample.catalyst_mask[0]


@pytest.fixture(scope="session")
def amorphous_slice(amorphous_sample):
    img = robust_normalize(amorphous_sample.volume.voxels[0])
    return img, amorphous_sample.catalyst_mask[0]


@pytest.fixture()
def disk():
    """Noisy disk phantom: (image, gt mask)."""
    return disk_phantom(noise=0.03, rng=7)


@pytest.fixture()
def needles():
    """Needle phantom: (image, gt mask)."""
    return needles_phantom(noise=0.02, rng=11)


@pytest.fixture()
def two_phase():
    """Dark-over-bright band phantom: (image, mask-of-bright-band)."""
    return two_phase_phantom(noise=0.02, rng=13)


@pytest.fixture()
def rng():
    return np.random.default_rng(42)
