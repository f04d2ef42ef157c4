"""Golden hashes: the SHA-256 of every CLI command's output at fixed seeds,
and the functions of `src/pcseg` those commands enter.

Criterion `cli-determinism` in `test_acceptance.py` compares two runs of
the same code with each other, so a change that both runs share passes
there. These hashes were taken once and stay fixed: a change that is
meant to keep every byte must keep them. A change that moves the numbers
on purpose regenerates them (each failure names the hash it got) and says
which ones moved and why.

Every command runs in a temporary working directory on relative paths,
because audit reports name their input files. They run once, in process
under `sys.settrace`, and that one run gives both the hashes and the reach
check: with three commands that fail (an `audit` of a cloud with a color
out of range, one of a cloud with a byte that is not UTF-8, and a
`synth --scenes 0` that argparse rejects), the CLI must enter every
module-level function and method of `pcseg`. So code that nothing runs
fails here: it belongs in the tests that use it, or nowhere.

The digests hold on the host `GOLDEN_HOST` describes: its numpy, the
OpenBLAS core numpy's library runs and numpy's dispatch targets. A failed
digest on a host that differs names both.
"""

import contextlib
import ctypes
import hashlib
import importlib
import inspect
import pkgutil
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy._core import _multiarray_umath

import pcseg
from pcseg.cli import EXIT_IO, EXIT_OK, EXIT_USAGE, main

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

# The multi-shot path: 2 ways of 3 shots, so `forward` builds each way's
# prototypes from several shots and the background from six. The
# 10-scene pool holds each class in only a few scenes, so some streams
# draw a pair of classes it cannot give 3 shots each plus a query: seeds
# 15 and 17 within 8 episodes, seed 13 within 20. Seed 13 at 10 episodes
# runs through, and its eval scores every class above 0; at seeds 11, 12
# and 14 the eval scores 0 on every class, a file that pins little.
MULTI_SHOT_CONFIG = """\
seed=13
dim=8
n_way=2
k_shot=3
n_prototypes=4
hca_layers=2
heads=2
max_points=192
min_fg_points=30
episodes=10
lr=0.03
"""

GOLDEN = {
    "synth": "0742bcc1ab49636a7b626fc1c298ce01b23d223d81512283883d8c42553adefa",
    "audit": "b0399715d01b3bb0c770253e916d2c3d7d2010928e85b9859eeeaab5c28df116",
    "train": "0c5a69936d64a7c480e89550fb5bcc310230b1caa918ebbd2d916ff6da265ac2",
    "eval": "e9dafb9e0613c2e604915b070967b3afb19f0ddbc326635f135f6261261a95e6",
    "eval --zero-bank": "60d90aac346fb119879dd615f6051bfcc85a4a7aec5218a7ef05dac8fb3b8918",
    "train 2-way 3-shot": "1fb83e4f3aed8815b04b25d72a3f19fd9e5a384136674264b64e4ec166bd9a70",
    "eval 2-way 3-shot": "b17f114056f0db525903c69d3db9bfd41e4ede74770af6b9d239b673a45666dc",
}

# The host the digests were taken on. Another numpy, OpenBLAS core or set
# of dispatch targets may round differently, so a failure names both hosts.
GOLDEN_HOST = {
    "numpy": "2.4.6",
    "openblas core": "SkylakeX",
    "dispatch": ["X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"],
}


def host_fingerprint() -> dict:
    """`GOLDEN_HOST`'s fields for this process: the OpenBLAS core is the one
    numpy's bundled library picked at run time, "unknown" without one."""
    try:
        corename = ctypes.CDLL(_multiarray_umath.__file__).scipy_openblas_get_corename64_
        corename.restype = ctypes.c_char_p
        core = corename().decode()
    except AttributeError:
        core = "unknown"
    features = _multiarray_umath.__cpu_features__
    return {
        "numpy": np.__version__,
        "openblas core": core,
        "dispatch": [target for target in _multiarray_umath.__cpu_dispatch__ if features[target]],
    }


SRC = str(Path(pcseg.__file__).parent)


def _sha(*paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).name.encode() + b"\0")
        h.update(Path(path).read_bytes())
    return h.hexdigest()


_POOL = ["--pool", "scenes"]
COMMANDS = {
    "synth": ["synth", "--out", "scenes", "--seed", "2", "--scenes", "10",
              "--classes", "6", "--blobs", "3", "--points", "120"],
    "audit": ["audit", "--cloud", "scenes/scene_000.pcseg", "scenes/scene_001.pcseg",
              "--fg-class", "1", "--m", "64", "--trials", "12", "--seed", "3", "--out", "audit.txt"],
    "train": ["train", *_POOL, "--config", "run.cfg", "--fold", "0", "--out", "model.txt"],
    "eval": ["eval", *_POOL, "--model", "model.txt", "--episodes", "6", "--seed", "5",
             "--out", "metrics.txt"],
    "eval --zero-bank": ["eval", *_POOL, "--model", "model.txt", "--episodes", "6", "--seed", "5",
                         "--zero-bank", "--out", "zero.txt"],
    "train 2-way 3-shot": ["train", *_POOL, "--config", "shots.cfg", "--fold", "0", "--out", "shots_model.txt"],
    "eval 2-way 3-shot": ["eval", *_POOL, "--model", "shots_model.txt", "--episodes", "6", "--seed", "5",
                          "--out", "shots_metrics.txt"],
}


def run_commands() -> dict[str, int]:
    """Write the configs to the working directory, then run every command
    there, in order; returns each command's exit code."""
    Path("run.cfg").write_text(CONFIG)
    Path("shots.cfg").write_text(MULTI_SHOT_CONFIG)
    return {name: main(argv) for name, argv in COMMANDS.items()}


@contextlib.contextmanager
def traced():
    """Collect the code object of every `pcseg` function entered inside the block."""
    entered = set()

    def trace_calls(frame, event, arg):
        if frame.f_code.co_filename.startswith(SRC):
            entered.add(frame.f_code)
        # no local trace function: lines are not traced

    previous = sys.gettrace()
    sys.settrace(trace_calls)
    try:
        yield entered
    finally:
        sys.settrace(previous)


def defined_functions() -> dict:
    """Code object -> `module.qualname` of every module-level function and
    method that a `pcseg` module defines in its own source."""
    out = {}
    for info in pkgutil.iter_modules(pcseg.__path__):
        module = importlib.import_module(f"pcseg.{info.name}")
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            members = list(vars(obj).values()) if inspect.isclass(obj) else [obj]
            for member in members:
                if isinstance(member, property):
                    functions = [member.fget, member.fset, member.fdel]
                else:
                    # a classmethod's function, or the one a decorator such as contextmanager wraps
                    functions = [inspect.unwrap(getattr(member, "__func__", member))]
                for fn in functions:
                    if inspect.isfunction(fn) and fn.__code__.co_filename.startswith(SRC):
                        out[fn.__code__] = f"{info.name}.{fn.__qualname__}"
    return out


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    """Every command run once, traced: the exit codes, the output hashes and
    the `pcseg` code objects entered."""
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(tmp_path_factory.mktemp("golden"))
        with traced() as entered:
            codes = run_commands()
        hashes = {
            "synth": _sha(*sorted(Path("scenes").glob("*.pcseg"))),
            "audit": _sha("audit.txt"),
            "train": _sha("model.txt"),
            "eval": _sha("metrics.txt"),
            "eval --zero-bank": _sha("zero.txt"),
            "train 2-way 3-shot": _sha("shots_model.txt"),
            "eval 2-way 3-shot": _sha("shots_metrics.txt"),
        }
    return codes, hashes, entered


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_output_hash_is_pinned(golden_run, command):
    codes, hashes, _ = golden_run
    assert codes[command] == EXIT_OK
    host = host_fingerprint()
    hosts = "" if host == GOLDEN_HOST else f"digests taken on {GOLDEN_HOST}, this host is {host}; "
    assert hashes[command] == GOLDEN[command], f"{hosts}{command}: output hash is now {hashes[command]}"


def test_cli_enters_every_function(golden_run, tmp_path, monkeypatch):
    codes, _, entered = golden_run
    monkeypatch.chdir(tmp_path)
    Path("bad_color.pcseg").write_text("PCSEG v1 1\n0 0 0 1.5 0 0 1\n")
    Path("bad_byte.pcseg").write_bytes(b"PCSEG v1 1\n0 0 0 0 0 0 \xff\n")
    with traced() as failing:
        bad_cloud = main(["audit", "--cloud", "bad_color.pcseg", "--fg-class", "1", "--out", "a.txt"])
        bad_byte = main(["audit", "--cloud", "bad_byte.pcseg", "--fg-class", "1", "--out", "a.txt"])
        with pytest.raises(SystemExit) as bad_flag:
            main(["synth", "--out", "none", "--scenes", "0"])

    assert set(codes.values()) == {EXIT_OK}, codes
    assert (bad_cloud, bad_byte, bad_flag.value.code) == (EXIT_IO, EXIT_IO, EXIT_USAGE)
    never_entered = {name for code, name in defined_functions().items() if code not in entered | failing}
    assert never_entered == set()
