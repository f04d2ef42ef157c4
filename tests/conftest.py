import pytest
from hypothesis import settings

from pcseg.config import RunConfig
from pcseg.episodes import make_split
from pcseg.synth import make_pool

# One profile for every property test: no per-example deadline, which a
# slow example on a shared host can miss, and a failure prints the blob
# that replays it (`@reproduce_failure`).
settings.register_profile("tier1", deadline=None, print_blob=True)
settings.load_profile("tier1")


def _read_only(pool):
    """`pool` with every array made read-only: a test that writes into a
    shared cloud fails at the write, not in a later test that reads it."""
    for cloud in pool:
        for array in (cloud.positions, cloud.colors, cloud.labels):
            array.flags.writeable = False
    return pool


@pytest.fixture(scope="session")
def pool8():
    """Shared 8-class blob pool."""
    return _read_only(make_pool(77, 20, range(1, 9), blobs_per_scene=3, points_per_blob=300))


@pytest.fixture(scope="session")
def acceptance_pool():
    """The 24-scene pool the acceptance run trains on."""
    return _read_only(make_pool(42, 24, range(1, 9), blobs_per_scene=3, points_per_blob=400))


@pytest.fixture(scope="session")
def split8():
    return make_split(range(1, 9), 0)


@pytest.fixture()
def fast_config():
    """Small, quick config for unit tests (not the acceptance run)."""
    return RunConfig(
        seed=5,
        dim=16,
        n_prototypes=6,
        hca_layers=2,
        heads=1,
        max_points=256,
        min_fg_points=40,
        episodes=0,
        lr=1e-3,
    )
