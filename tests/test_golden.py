"""Golden hashes: the SHA-256 of every CLI command's output at fixed seeds.

`test_cli.py` compares two runs of the same code with each other, so a
change that both runs share passes there. These hashes were taken once
and stay fixed: a change that is meant to keep every byte must keep them.
A change that moves the numbers on purpose regenerates them (each failure
names the hash it got) and says which ones moved and why.

Every command runs in a temporary working directory on relative paths,
because manifests and audit reports name their input files.
"""

import hashlib
import os
from pathlib import Path

import pytest

from pcseg.cli import EXIT_OK, main

CONFIG = """\
seed=11
dim=8
n_prototypes=4
hca_layers=2
heads=2
max_points=192
min_fg_points=30
episodes=30
lr=0.03
"""

GOLDEN = {
    "synth": "0742bcc1ab49636a7b626fc1c298ce01b23d223d81512283883d8c42553adefa",
    "audit": "b0399715d01b3bb0c770253e916d2c3d7d2010928e85b9859eeeaab5c28df116",
    "episodes": "b0b880a96bc5555754b63e8e3da85d1d00144f8bbfa94128024a6908f0c36a9c",
    "episodes --phase test": "ca2ef8cce590a65c03f7492083f5203ffe24571a2d20e385c9a3c1a19bd4de4e",
    "train": "0c5a69936d64a7c480e89550fb5bcc310230b1caa918ebbd2d916ff6da265ac2",
    "eval": "e9dafb9e0613c2e604915b070967b3afb19f0ddbc326635f135f6261261a95e6",
    "eval --zero-bank": "60d90aac346fb119879dd615f6051bfcc85a4a7aec5218a7ef05dac8fb3b8918",
}


def _sha(*paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).name.encode() + b"\0")
        h.update(Path(path).read_bytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    work = tmp_path_factory.mktemp("golden")
    cwd = os.getcwd()
    os.chdir(work)
    try:
        Path("run.cfg").write_text(CONFIG)
        pool = ["--pool", "scenes"]
        commands = {
            "synth": ["synth", "--out", "scenes", "--seed", "2", "--scenes", "10",
                      "--classes", "6", "--blobs", "3", "--points", "120"],
            "audit": ["audit", "--cloud", "scenes/scene_000.pcseg", "scenes/scene_001.pcseg",
                      "--fg-class", "1", "--m", "64", "--trials", "12", "--seed", "3", "--out", "audit.txt"],
            "episodes": ["episodes", *pool, "--config", "run.cfg", "--n", "8", "--phase", "train",
                         "--fold", "1", "--out", "episodes.manifest"],
            "episodes --phase test": ["episodes", *pool, "--config", "run.cfg", "--n", "8", "--phase", "test",
                                      "--fold", "0", "--out", "test_episodes.manifest"],
            "train": ["train", *pool, "--config", "run.cfg", "--fold", "0", "--out", "model.txt"],
            "eval": ["eval", *pool, "--model", "model.txt", "--episodes", "6", "--seed", "5",
                     "--out", "metrics.txt"],
            "eval --zero-bank": ["eval", *pool, "--model", "model.txt", "--episodes", "6", "--seed", "5",
                                 "--zero-bank", "--out", "zero.txt"],
        }
        codes = {name: main(argv) for name, argv in commands.items()}
        hashes = {
            "synth": _sha(*sorted(Path("scenes").glob("*.pcseg"))),
            "audit": _sha("audit.txt"),
            "episodes": _sha("episodes.manifest"),
            "episodes --phase test": _sha("test_episodes.manifest"),
            "train": _sha("model.txt"),
            "eval": _sha("metrics.txt"),
            "eval --zero-bank": _sha("zero.txt"),
        }
    finally:
        os.chdir(cwd)
    return codes, hashes


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_output_hash_is_pinned(outputs, command):
    codes, hashes = outputs
    assert codes[command] == EXIT_OK
    assert hashes[command] == GOLDEN[command], f"{command}: output hash is now {hashes[command]}"
