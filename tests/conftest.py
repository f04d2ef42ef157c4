import functools
from collections import defaultdict

import pytest
from hypothesis import settings

import experiments
from pcseg import model as M
from pcseg.cli import EXIT_OK, main
from pcseg.config import RunConfig
from pcseg.episodes import make_split
from pcseg.synth import make_pool

# One profile for every property test: no per-example deadline, which a
# slow example on a shared host can miss, and a failure prints the blob
# that replays it (`@reproduce_failure`).
settings.register_profile("tier1", deadline=None, print_blob=True)
settings.load_profile("tier1")

# The training-episode ledger: every in-process `meta_train` call and the
# episodes its config asks for, by the test that ran it (its fixtures'
# set-up included), printed at the end of the run. Training is most of the
# suite's time, and an episode count, unlike a wall time, does not move
# with the host. It only reports: no count fails the run.
_ledger = defaultdict(lambda: [0, 0])  # test id -> [calls, episodes]
_current_test = "(outside a test)"


_meta_train = M.meta_train


@functools.wraps(_meta_train)
def _counted_meta_train(pool, split, config):
    entry = _ledger[_current_test]
    entry[0] += 1
    entry[1] += config.episodes
    return _meta_train(pool, split, config)


# Bound before any test module imports `meta_train` by name.
M.meta_train = _counted_meta_train


def pytest_runtest_logstart(nodeid, location):
    global _current_test
    _current_test = nodeid


def pytest_terminal_summary(terminalreporter):
    calls = sum(c for c, _ in _ledger.values())
    episodes = sum(e for _, e in _ledger.values())
    terminalreporter.write_line(f"training ledger: {calls} meta_train calls, {episodes} episodes, in process")
    for test, (c, e) in sorted(_ledger.items(), key=lambda kv: -kv[1][1])[:5]:
        terminalreporter.write_line(f"  {e:6d} episodes in {c:2d} calls  {test}")


@pytest.fixture(scope="session")
def pool8():
    """Shared 8-class blob pool."""
    return experiments.read_only_pool(make_pool(77, 20, range(1, 9), blobs_per_scene=3, points_per_blob=300))


@pytest.fixture(scope="session")
def acceptance_pool():
    """The 24-scene pool the acceptance run trains on, as the cells of
    `experiments` train on it."""
    return experiments.acceptance_pool()


@pytest.fixture(scope="session")
def split8():
    return make_split(range(1, 9), 0)


@pytest.fixture(scope="session")
def fast_config():
    """Small, quick config for unit tests (not the acceptance run); shared,
    as `RunConfig` is frozen."""
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


TINY_CONFIG = """\
seed=4
dim=8
n_prototypes=4
hca_layers=1
heads=1
max_points=192
min_fg_points=30
episodes=3
lr=0.001
"""


@pytest.fixture(scope="session")
def scene_dir(tmp_path_factory):
    """A 12-scene, 6-class pool written by `synth`."""
    out = tmp_path_factory.mktemp("scenes")
    assert main(["synth", "--out", str(out), "--seed", "1", "--scenes", "12", "--classes", "6", "--blobs", "3",
                 "--points", "150"]) == EXIT_OK
    return out


@pytest.fixture(scope="session")
def config_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("config") / "tiny.cfg"
    path.write_text(TINY_CONFIG)
    return path


def _train_tiny(scene_dir, config_path, tmp_path_factory, fold):
    model = tmp_path_factory.mktemp("model") / f"fold{fold}.model"
    assert main(["train", "--pool", str(scene_dir), "--config", str(config_path), "--fold", str(fold),
                 "--out", str(model)]) == EXIT_OK
    return model


@pytest.fixture(scope="session")
def tiny_model(scene_dir, config_path, tmp_path_factory):
    """The TINY_CONFIG fold-0 artifact on `scene_dir`, trained once: a test
    that reads a model uses it, or a copy it edits."""
    return _train_tiny(scene_dir, config_path, tmp_path_factory, 0)


@pytest.fixture(scope="session")
def tiny_model_fold1(scene_dir, config_path, tmp_path_factory):
    return _train_tiny(scene_dir, config_path, tmp_path_factory, 1)


@pytest.fixture(scope="session")
def cli_inputs(scene_dir, config_path, tiny_model):
    """Placeholder -> path of the shared inputs a CLI case names."""
    return {"POOL": str(scene_dir), "SCENE": str(sorted(scene_dir.glob("*.pcseg"))[0]), "CONFIG": str(config_path),
            "MODEL": str(tiny_model)}
