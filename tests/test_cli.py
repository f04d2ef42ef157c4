"""CLI: exit codes, file outputs, byte determinism."""

import argparse
import ast
import contextlib
import errno
import io
import os
import re
import shlex
import stat
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from pcseg import cli
from pcseg import io as pio
from pcseg import model as M
from pcseg.cli import EXIT_IO, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, build_parser, main
from conftest import TINY_CONFIG

# Every subcommand's options. A new knob is a deliberate edit of this table.
OPTIONS = {
    "synth": ["--out", "--seed", "--scenes", "--classes", "--blobs", "--points"],
    "audit": ["--cloud", "--fg-class", "--m", "--trials", "--seed", "--out"],
    "train": ["--pool", "--config", "--fold", "--out"],
    "eval": ["--pool", "--model", "--episodes", "--seed", "--zero-bank", "--out"],
}


def test_option_surface_is_pinned():
    sub, = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    got = {
        name: [opt for action in p._actions for opt in action.option_strings if opt not in ("-h", "--help")]
        for name, p in sub.choices.items()
    }
    assert got == OPTIONS


def _readme_commands():
    """Every line of a README code block that starts `pcseg `."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = text.split("```")[1::2]
    return [line.strip() for block in blocks for line in block.splitlines() if line.strip().startswith("pcseg ")]


@pytest.mark.parametrize("line", _readme_commands())
def test_readme_command_parses(line):
    build_parser().parse_args(shlex.split(line)[1:])


def test_readme_documents_every_command():
    assert {line.split()[1] for line in _readme_commands()} == set(OPTIONS)



class TestSynth:
    def test_a_scene_file_it_would_not_overwrite_exits_64(self, tmp_path, capsys):
        argv = ["synth", "--out", str(tmp_path), "--classes", "4", "--points", "20"]
        assert main(argv + ["--scenes", "5", "--seed", "1"]) == EXIT_OK
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        capsys.readouterr()
        assert main(argv + ["--scenes", "3", "--seed", "2"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == f"pcseg: error: --out {tmp_path} holds scene_003.pcseg, which this run would not overwrite\n"
        assert main(argv + ["--scenes", "5", "--seed", "1"]) == EXIT_OK  # its own output, rewritten
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


# ---------------------------------------------------------------------------
# output files
# ---------------------------------------------------------------------------

def test_output_files_follow_the_umask(scene_dir, config_path, tmp_path):
    scenes, model, metrics, report = (tmp_path / name for name in ("scenes", "model.txt", "metrics.txt", "audit.txt"))
    scene = str(sorted(scene_dir.glob("*.pcseg"))[0])
    old = os.umask(0o027)
    try:
        assert main(["synth", "--out", str(scenes), "--scenes", "2", "--classes", "2", "--blobs", "2",
                     "--points", "20"]) == EXIT_OK
        assert main(["train", "--pool", str(scene_dir), "--config", str(config_path), "--out", str(model)]) == EXIT_OK
        assert main(["eval", "--pool", str(scene_dir), "--model", str(model), "--episodes", "2",
                     "--out", str(metrics)]) == EXIT_OK
        assert main(["audit", "--cloud", scene, "--fg-class", "1", "--m", "16", "--trials", "2",
                     "--out", str(report)]) == EXIT_OK
    finally:
        os.umask(old)
    written = [*scenes.iterdir(), model, metrics, report]
    assert len(written) == 5
    assert {path.name: oct(stat.S_IMODE(path.stat().st_mode)) for path in written} == {
        path.name: oct(0o640) for path in written}


@pytest.mark.parametrize("parent, code", [("nodir", errno.ENOENT), ("afile", errno.ENOTDIR), ("adir", errno.EISDIR),
                                          pytest.param("", errno.ENOENT, id="empty-2")])
@pytest.mark.parametrize("command", ["train", "eval", "audit"])
def test_out_in_a_missing_directory_exits_2_before_any_work(scene_dir, config_path, tiny_model, tmp_path, capsys,
                                                            monkeypatch, command, parent, code):
    (tmp_path / "afile").write_text("")
    (tmp_path / "adir" / "out.txt").mkdir(parents=True)  # --out names this directory
    for owner, name in ((M, "meta_train"), (M, "evaluate"), (cli, "leakage_audit")):
        monkeypatch.setattr(owner, name, lambda *args, _name=name: pytest.fail(f"{_name} ran before --out was checked"))
    out = tmp_path / parent / "out.txt" if parent else ""
    argv = {
        "train": ["train", "--pool", str(scene_dir), "--config", str(config_path)],
        "eval": ["eval", "--pool", str(scene_dir), "--model", str(tiny_model), "--episodes", "2"],
        "audit": ["audit", "--cloud", str(sorted(scene_dir.glob("*.pcseg"))[0]), "--fg-class", "1"],
    }[command]
    capsys.readouterr()
    assert main(argv + ["--out", str(out)]) == EXIT_IO
    assert capsys.readouterr().err == f"pcseg: [Errno {code}] {os.strerror(code)}: '{out}'\n"


@pytest.mark.parametrize("command, flag, out", [
    ("audit", "--cloud", "pool/scene_000.pcseg"),
    ("train", "--config", "tiny.cfg"),
    ("train", "--pool", "pool/scene_000.pcseg"),
    ("train", "--pool", "pool/../pool/scene_001.pcseg"),  # a file of the --pool directory, by another name
    ("eval", "--pool", "pool/scene_001.pcseg"),
    ("eval", "--model", "model.txt"),
])
def test_out_that_is_an_input_exits_64_before_any_work(scene_dir, config_path, tiny_model, tmp_path, capsys,
                                                        monkeypatch, command, flag, out):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "pool").mkdir()
    for scene in sorted(scene_dir.glob("*.pcseg")):
        (tmp_path / "pool" / scene.name).write_bytes(scene.read_bytes())
    Path("tiny.cfg").write_bytes(config_path.read_bytes())
    Path("model.txt").write_bytes(tiny_model.read_bytes())
    for owner, name in ((M, "meta_train"), (M, "evaluate"), (cli, "leakage_audit")):
        monkeypatch.setattr(owner, name, lambda *args, _name=name: pytest.fail(f"{_name} ran before --out was checked"))
    # the scene pool is a directory, except where --pool itself names the scene --out names
    pool = out if flag == "--pool" and ".." not in out else "pool"
    argv = {
        "audit": ["audit", "--cloud", "pool/scene_000.pcseg", "--fg-class", "1"],
        "train": ["train", "--pool", pool, "--config", "tiny.cfg"],
        "eval": ["eval", "--pool", pool, "--model", "model.txt", "--episodes", "2"],
    }[command]
    before = Path(out).read_bytes()
    capsys.readouterr()
    assert main(argv + ["--out", out]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"pcseg: error: --out {out} is the {flag} file "), err
    assert Path(out).read_bytes() == before


def _train_into(scene_dir, config_path, capsys, monkeypatch, out) -> str:
    """stderr of a `train --out <out>` that must exit 2 before training."""
    monkeypatch.setattr(M, "meta_train", lambda *args: pytest.fail("meta_train ran before --out was checked"))
    capsys.readouterr()
    assert main(["train", "--pool", str(scene_dir), "--config", str(config_path), "--out", str(out)]) == EXIT_IO
    return capsys.readouterr().err


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs a /proc directory")
def test_out_under_proc_exits_2_before_any_work(scene_dir, config_path, capsys, monkeypatch):
    err = _train_into(scene_dir, config_path, capsys, monkeypatch, "/proc/m.txt")
    assert err.startswith("pcseg: [Errno ") and err.endswith(": '/proc/m.txt'\n") and err.count("\n") == 1, err


@pytest.mark.skipif(os.name != "posix" or os.geteuid() == 0, reason="root writes into a read-only directory")
def test_out_in_a_read_only_directory_exits_2_before_any_work(scene_dir, config_path, tmp_path, capsys,
                                                               monkeypatch):
    locked = tmp_path / "locked"
    locked.mkdir()
    locked.chmod(0o555)
    out = locked / "model.txt"
    try:
        err = _train_into(scene_dir, config_path, capsys, monkeypatch, out)
    finally:
        locked.chmod(0o755)
    assert err == f"pcseg: [Errno {errno.EACCES}] {os.strerror(errno.EACCES)}: '{out}'\n"
    assert list(locked.iterdir()) == []


# ---------------------------------------------------------------------------
# argv fuzz of main()
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """Placeholder -> path: a 6-scene pool, one of its scenes, a 2-episode
    config and a model trained on them."""
    root = tmp_path_factory.mktemp("fuzz")
    pool, config, model = root / "pool", root / "two.cfg", root / "model.txt"
    assert main(["synth", "--out", str(pool), "--seed", "2", "--scenes", "6", "--classes", "4",
                 "--blobs", "3", "--points", "150"]) == EXIT_OK
    config.write_text(TINY_CONFIG.replace("episodes=3", "episodes=2"))
    assert main(["train", "--pool", str(pool), "--config", str(config), "--out", str(model)]) == EXIT_OK
    return {"POOL": str(pool), "SCENE": str(sorted(pool.glob("*.pcseg"))[0]), "CONFIG": str(config),
            "MODEL": str(model)}


# Values any flag may draw besides its valid ones. OUT is a fresh path;
# MISSING, DIR and NOT_UTF8 are made for each example.
EDGES = ["0", "-1", str(2**63), str(2**64), "abc", "", "MISSING", "DIR", "NOT_UTF8"]
_COUNT = st.integers(1, 50).map(str)  # valid work sizes stay small
_BLOBS = st.integers(2, 50).map(str)
_SEED = st.integers(0, 2**63 - 1).map(str)
FUZZ_FLAGS = {  # flag -> its valid values; None for a switch
    "synth": {"--out": st.just("OUT"), "--seed": _SEED, "--scenes": _COUNT, "--classes": _COUNT,
              "--blobs": _BLOBS, "--points": _COUNT},
    "audit": {"--cloud": st.just("SCENE"), "--fg-class": st.integers(0, 5).map(str), "--m": _COUNT,
              "--trials": _COUNT, "--seed": _SEED, "--out": st.just("OUT")},
    "train": {"--pool": st.sampled_from(["POOL", "SCENE"]), "--config": st.just("CONFIG"),
              "--fold": st.sampled_from(["0", "1"]), "--out": st.just("OUT")},
    "eval": {"--pool": st.sampled_from(["POOL", "SCENE"]), "--model": st.just("MODEL"), "--episodes": _COUNT,
             "--seed": _SEED, "--zero-bank": None, "--out": st.just("OUT")},
}
# Always given: their defaults would start large work.
WORK_SIZE = {"--scenes", "--classes", "--blobs", "--points", "--m", "--trials", "--episodes"}


@st.composite
def fuzz_argv(draw):
    """A subcommand and its flags: at most one flag takes an edge value, and
    a flag that sets no work size may be left out."""
    command = draw(st.sampled_from(sorted(FUZZ_FLAGS)))
    flags = FUZZ_FLAGS[command]
    broken = draw(st.sampled_from([None, *flags]))
    argv = [command]
    for flag, valid in flags.items():
        if flag not in WORK_SIZE and draw(st.integers(0, 3)) == 0:
            continue
        if valid is None:
            argv.append(flag)
            continue
        if flag == broken:
            values = [draw(st.sampled_from(EDGES))]
        else:
            values = draw(st.lists(valid, min_size=1, max_size=2 if flag in ("--cloud", "--pool", "--model") else 1))
        argv += [a for v in values for a in (flag, v)] if flag == "--model" else [flag, *values]
    if draw(st.integers(0, 9)) == 0:
        argv.append("-h")
    return argv


@settings(max_examples=500, derandomize=True)
@given(argv=fuzz_argv())
def test_any_argv_exits_with_a_documented_code_and_one_line(fuzz_inputs, argv):
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # an edge value such as `--out abc` is a path relative to here
        try:
            os.mkdir("dir")
            Path("not-utf-8").write_bytes(b"\xff\xfe bad\n")
            paths = dict(fuzz_inputs, OUT="out", MISSING=os.path.join("missing", "x"), DIR="dir",
                         NOT_UTF8="not-utf-8")
            argv = [paths.get(a, a) for a in argv]
            outs = [v for flag, v in zip(argv, argv[1:]) if flag == "--out" and not os.path.lexists(v)]
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
            event(f"{argv[0]} exit {code}")
            assert code in (EXIT_OK, EXIT_IO, EXIT_USAGE, EXIT_NUMERIC), (code, err.getvalue())
            assert len(err.getvalue().splitlines()) <= 1 and "Traceback" not in err.getvalue(), err.getvalue()
            if code != EXIT_OK:
                assert not any(os.path.lexists(out) for out in outs)
        finally:
            os.chdir(cwd)


# ---------------------------------------------------------------------------
# the bad-input contract: one row per bad input, one runner
# ---------------------------------------------------------------------------

def _at(lines, where) -> int:
    """Index of the line `where` names: a 1-based number (-1 the last line),
    an exact line, `key=` (the first line that starts so) or `[section] key=`
    (the first after that header), or (where, offset), as in
    ("decoder.b2", 2) for a record's values line."""
    if isinstance(where, tuple):
        return _at(lines, where[0]) + where[1]
    if isinstance(where, int):
        return where - 1 if where > 0 else len(lines) + where
    if not where.endswith("="):
        return lines.index(where)
    section, _, key = where.rpartition(" ")
    start = lines.index(section) if section else 0
    return next(i for i in range(start, len(lines)) if lines[i].startswith(key))


# A line edit changes a list of lines in place and returns the 1-based line
# the message names: the line it wrote, or the line at `named`.
def put(where, new, named=None):
    """The line at `where` replaced by `new`, or by `new(old line)`."""
    def edit(lines):
        i = _at(lines, where)
        lines[i] = new(lines[i]) if callable(new) else new
        return _at(lines, named) + 1 if named else i + 1
    return edit


def add(where, *new):
    """`new` lines inserted after the line at `where`."""
    def edit(lines):
        i = _at(lines, where) + 1
        lines[i:i] = new
        return i + 1
    return edit


def drop(where, count=1, named=None):
    """`count` lines dropped from `where` on."""
    def edit(lines):
        i = _at(lines, where)
        del lines[i:i + count]
        return _at(lines, named) + 1 if named else i + 1
    return edit


def _unlabeled(lines):
    """Every row of a cloud file marked unlabeled (-1)."""
    lines[1:] = [row.rsplit(" ", 1)[0] + " -1" for row in lines[1:]]


def _emptied(lines):
    """No line left: an empty file, whose fault is named at line 1."""
    lines.clear()
    return 1


SYNTH = ["synth", "--out", "OUT"]
AUDIT = ["audit", "--cloud", "SCENE", "--fg-class", "1", "--m", "16", "--trials", "2", "--out", "OUT"]
TRAIN = ["train", "--pool", "POOL", "--config", "CONFIG", "--out", "OUT"]
EVAL = ["eval", "--pool", "POOL", "--model", "MODEL", "--episodes", "3", "--seed", "1", "--out", "OUT"]
INT_FLAGS = [(SYNTH, f) for f in ("--scenes", "--classes", "--blobs", "--points", "--seed")] + [
    (AUDIT, f) for f in ("--m", "--trials", "--seed")] + [(EVAL, f) for f in ("--episodes", "--seed")]
# the start of an I/O failure's and of a usage error's message that names the edited file's line
AT, USAGE_AT = "pcseg: {path}:{line}: ", "pcseg: error: {path}:{line}: "

# Every bad input the CLI documents, one row per run: (id, argv, (input,
# line edit, ...) or None, exit code, the whole stderr line). The rows of
# `FAULTS` run as `test_fault[<id>]`; the tables before it each hold one
# claim's rows, run by a test named for that claim, `<test>[<id>]`. Rows of
# one table that share an id run in order, as one case.
# POOL, SCENE, CONFIG and MODEL in argv are the shared inputs, or a private
# copy of the one the row edits; OUT is a path that must not exist after the
# run. In the stderr line, {path} and {line} are the edited copy and the
# line its edits return; a compiled pattern stands only for text that comes
# from the OS or numpy.
INT64_FAULTS = [(f"{argv[0]}{flag}-{value}", argv + [flag, value], None, 64,
                 f"pcseg {argv[0]}: error: argument {flag}: invalid int64 value: '{value}'")
                for value in (str(2**63), "99999999999999999999") for argv, flag in INT_FLAGS]
SEED_FAULTS = [(argv[0], argv + ["--seed", "-1"], None, 64,
                f"pcseg {argv[0]}: error: argument --seed: must be >= 0, got -1") for argv in (SYNTH, AUDIT, EVAL)]
CLOUD_FAULTS = [
    *[(f"{n}-{row}", AUDIT, ("SCENE", put(n, row) if n else add(-1, row)), 2, AT + what) for n, row, what in [
        (6, "0.1 0.2 0.3 0.5 0.5 0.5", "expected 7 fields, got 6"),
        (6, "0.1 0.2 0.3 0.5 0.5 0.5 1 9", "expected 7 fields, got 8"),
        (4, "nan 0.2 0.3 0.5 0.5 0.5 1", "row 'nan 0.2 0.3 0.5 0.5 0.5 1': positions must be finite"),
        (5, "0.1 0.2 0.3 2.0 0.5 0.5 1", "row '0.1 0.2 0.3 2.0 0.5 0.5 1': colors must lie in [0, 1]"),
        (None, "0.1 0.2 0.3 0.5 0.5 0.5 1", "more rows than the header's count 450"),
        (7, "0.1 0.2 0.3 0.5 0.5 0.5 1.5", "row '0.1 0.2 0.3 0.5 0.5 0.5 1.5': labels must be integers"),
        (8, "0.1 0.2 0.3 0.5 0.5 0.5 -5",
         "row '0.1 0.2 0.3 0.5 0.5 0.5 -5': labels must be >= -1 (-1 marks unlabeled), got -5"),
        # Python's float reads these two; np.loadtxt does not
        (3, "1_0 0 0 0.5 0.5 0.5 1", "cannot read '1_0 0 0 0.5 0.5 0.5 1' as 7 numbers"),
        (3, "\uff11 0 0 0.5 0.5 0.5 1", "cannot read '\uff11 0 0 0.5 0.5 0.5 1' as 7 numbers"),
        # `str.isdigit` takes these two; the header count is ASCII digits
        (1, "PCSEG v1 \u0665", "not a 'PCSEG v1 <count>' header with a count >= 1: 'PCSEG v1 \u0665'"),
        (1, "PCSEG v1 \u00b2", "not a 'PCSEG v1 <count>' header with a count >= 1: 'PCSEG v1 \u00b2'"),
        (1, "PCSEG v1 0", "not a 'PCSEG v1 <count>' header with a count >= 1: 'PCSEG v1 0'"),
        (1, "NOT A CLOUD 3", "not a 'PCSEG v1 <count>' header with a count >= 1: 'NOT A CLOUD 3'"),
        (3, "0.1 0.2 0.3 0.5 0.5 0.5 one", "cannot read '0.1 0.2 0.3 0.5 0.5 0.5 one' as 7 numbers"),
        (3, "0.1 0.2 0.3\r0.5 0.5 0.5 1", "expected 7 fields, got 3")]],  # a lone CR ends a line
    *[(case, AUDIT, ("SCENE", *edits), 2, AT + what) for case, edits, what in [
        ("empty", [_emptied], "the file is empty"),
        ("rows-dropped-from-the-end", [drop(-5, 5)], "the file ends after 445 of 450 rows"),
        # the file is decoded whole before any row is checked
        ("not-utf-8-after-a-bad-row", [put(3, "0.1 0.2 0.3 0.5 0.5 0.5"), put(5, lambda v: v[:-1] + "\udcff")],
         "byte 0xff is not UTF-8 (invalid start byte)"),
        # blank and comment lines are lines: the bad row is the file's line 10, its 6th row
        ("blank-and-comment-lines", [add(3, "", "# a comment", "   "), put(10, "0.1 0.2 0.3 0.5 0.5 0.5 2.5")],
         "row '0.1 0.2 0.3 0.5 0.5 0.5 2.5': labels must be integers")]],
]
SECTION_FAULTS = [(case, EVAL, ("MODEL", edit), 2, AT + what) for case, edit, what in [
    ("meta-repeated-key", add("fold=", "fold=1"), "duplicate [meta] key 'fold'"),
    ("meta-no-equals", add("[meta]", "fold"), "expected [meta] key=value, got 'fold'"),
    ("bank-repeated-key", add("update_counts=", "momentum=0.5"), "duplicate [bank] key 'momentum'"),
    ("bank-unknown-key", add("update_counts=", "bogus=1"), "unknown [bank] key 'bogus'"),
    ("second-config", add(-1, "[config]"), "repeated section [config]"),
    ("second-params", add(-1, "[params]"), "repeated section [params]"),
    ("stray-line-before-sections", add(1, "garbage line"), "expected a [section] header, got 'garbage line'")]]
# each value in a --config file, a usage error, and in an artifact's [config], an I/O failure
NON_FINITE_FAULTS = [
    (f"{key}={value}", argv, edit, code, f"{at}config field {key} must be {rule}, got {value}")
    # -inf and nan fail the sign check, which comes first
    for key, value, rule in [(key, value, "finite" if value == "inf" else ">= 0" if key == "weight_decay" else "> 0")
                             for key in ("lr", "grid_size", "block_size", "weight_decay")
                             for value in ("inf", "-inf", "nan")]
    for argv, edit, code, at in [
        (TRAIN, ("CONFIG", put("lr=", f"lr={value}") if key == "lr" else add(-1, f"{key}={value}")), 64, USAGE_AT),
        (EVAL, ("MODEL", put(f"[config] {key}=", f"{key}={value}")), 2, AT)]]
EPISODE_FAULTS = [(count, EVAL + ["--episodes", count], None, 64,
                   f"pcseg eval: error: argument --episodes: must be >= 1, got {count}") for count in ("0", "-1")]
# one episode could draw a scene named twice as both a support shot and the query
POOL_TWICE_FAULTS = [(f"{argv[0]}-{case}", argv + ["--pool", "POOL", second], None, 64,
                      "pcseg: error: {SCENE}: --pool names this file twice (first as {SCENE})")
                     for argv in (TRAIN, EVAL) for case, second in [("dir", "POOL"), ("dir/scene_000.pcseg", "SCENE")]]
SPLIT_FAULTS = [(case, EVAL, ("MODEL", edit), 2, AT + "[bank] class_ids=" + what) for case, edit, what in [
    ("fold", put("fold=", "fold=1", named="class_ids="), "2,4,6 do not match [meta]: fold 1 trains on 1,3,5"),
    # the last class dropped
    ("classes", put("classes=", "classes=1,2,3,4,5", named="class_ids="),
     "2,4,6 do not match [meta]: fold 0 trains on 2,4"),
    # the fold's test classes
    ("class_ids", put("class_ids=", "class_ids=1,3,5"), "1,3,5 do not match [meta]: fold 0 trains on 2,4,6"),
    # a class repeated: one id more than update_counts
    ("class_ids-repeated", put("class_ids=", "class_ids=2,4,6,2"),
     "2,4,6,2 do not match [meta]: fold 0 trains on 2,4,6")]]
FAULTS = [
    ("episodes-command-is-gone", ["episodes", "--pool", "POOL", "--n", "4", "--out", "OUT"], None, 64,
     "pcseg: error: argument command: invalid choice: 'episodes' (choose from 'synth', 'audit', 'train', 'eval')"),
    ("synth-blobs=3-above-classes=2", SYNTH + ["--blobs", "3", "--classes", "2"], None, 64,
     "pcseg: error: argument --blobs: must be <= --classes (2), got 3"),
    *[(f"synth-{flag[2:]}={value}", SYNTH + [flag, value], None, 64,
       f"pcseg synth: error: argument {flag}: must be >= {low}, got {value}")
      for flag, value, low in [("--blobs", "1", 2), ("--scenes", "0", 1), ("--points", "0", 1)]],
    ("audit-cloud-missing", AUDIT + ["--cloud", "POOL/nope.pcseg"], None, 2,
     "pcseg: [Errno 2] No such file or directory: '{POOL}/nope.pcseg'"),
    ("audit-out-in-a-missing-directory", AUDIT + ["--out", "OUT/r.txt"], None, 2,
     "pcseg: [Errno 2] No such file or directory: '{OUT}/r.txt'"),
    ("audit-unknown-flag", AUDIT + ["--definitely-not-a-flag"], None, 64,
     "pcseg: error: unrecognized arguments: --definitely-not-a-flag"),
    *[(f"audit-{flag[2:]}=0", AUDIT + [flag, "0"], None, 64,
       f"pcseg audit: error: argument {flag}: must be >= 1, got 0") for flag in ("--m", "--trials")],
    ("audit-fg-class=-1", AUDIT + ["--fg-class", "-1"], None, 64,
     "pcseg audit: error: argument --fg-class: must be >= 0, got -1"),
    ("audit-fg-class=9223372036854775808", AUDIT + ["--fg-class", str(2**63)], None, 64,
     "pcseg audit: error: argument --fg-class: invalid int64 value: '9223372036854775808'"),
    ("audit-fg-class-absent", AUDIT + ["--fg-class", "77"], None, 2, "pcseg: {SCENE}: no point has class 77"),
    # a training run's settings come from its --config file alone
    ("train-no-config", ["train", "--pool", "POOL", "--out", "OUT"], None, 64,
     "pcseg train: error: the following arguments are required: --config"),
    ("train-seed-flag", TRAIN + ["--seed", "3"], None, 64, "pcseg: error: unrecognized arguments: --seed 3"),
    ("eval-no-model", ["eval", "--pool", "POOL", "--out", "OUT"], None, 64,
     "pcseg eval: error: the following arguments are required: --model"),
    # 2-way 3-shot at seed 0: the stream first draws a class the shared pool cannot serve at episode 3
    ("train-pool-runs-dry", TRAIN,
     ("CONFIG", put("seed=", "seed=0"), put("episodes=", "episodes=4"), add(-1, "n_way=2", "k_shot=3")), 2,
     "pcseg: episode 3 (seed 7432487890069041120): class 2: need 3 support clouds with >= 30 foreground points, "
     "pool offers 2"),
    # capped to one point, each support cloud is all foreground, so the background way is empty
    ("train-support-without-background", TRAIN,
     ("CONFIG", put("max_points=", "max_points=1"), put("min_fg_points=", "min_fg_points=1")), 2,
     "pcseg: episode 0 (seed 13764803076029752189): the support holds no background point"),
    *[(f"eval-artifact-{case}", EVAL, ("MODEL", edit), 2, AT + what) for case, edit, what in [
        ("update_counts-short", put("update_counts=", lambda v: v.rsplit(" ", 1)[0]),
         "[bank] update_counts needs 3 non-negative entries, one per class id, got '3 2'"),
        ("decoder.b2-nan", put(("decoder.b2", 2), "nan"), "record decoder.b2 holds a non-finite value"),
        ("update_counts-beyond-int64", put("update_counts=", lambda v: f"{v} {2**63}"),
         "cannot parse [bank] update_counts='3 2 3 9223372036854775808'"),
        ("line-2-not-utf-8", put(2, lambda v: "\udcff" + v), "byte 0xff is not UTF-8 (invalid start byte)")]],
    # a bad line that is there is named; a deleted key, at the [meta] header
    *[(f"eval-meta-{case}", EVAL, ("MODEL", edit), 2, AT + what) for case, edit, what in [
        ("fold-missing", drop("fold=", named="[meta]"), "[meta] has no fold= line"),
        ("fold-2", put("fold=", "fold=2"), "[meta] fold must be 0 or 1, got '2'"),
        ("fold-one", put("fold=", "fold=one"), "cannot parse [meta] fold='one'"),
        ("classes-missing", drop("classes=", named="[meta]"), "[meta] has no classes= line"),
        ("classes-empty", put("classes=", "classes="), "cannot parse [meta] classes=''"),
        ("classes-1,,3", put("classes=", "classes=1,,3"), "cannot parse [meta] classes='1,,3'"),
        ("classes-1", put("classes=", "classes=1"),
         "[meta] classes=1: need at least 2 classes to split, got 1"),
        ("classes-1,1,1", put("classes=", "classes=1,1,1"),
         "[meta] classes=1,1,1: need at least 2 classes to split, got 1"),
        ("share_background_fc-1", put("share_background_fc=", "share_background_fc=1"),
         "[meta] share_background_fc must be 0 (no shared background layer), got '1'"),
        ("misspelled-key", add("[meta]", "fodl=1"), "unknown [meta] key 'fodl'")]],
    ("eval-artifact-record-missing", EVAL, ("MODEL", drop("stub.w1", 3)), 2,
     "pcseg: {path}: records mismatch (missing ['stub.w1'], extra [])"),
    ("eval-artifact-record-extra", EVAL,  # [bank] is the last section
     ("MODEL", add(-1, "extra", "1 1", "0")), 2, "pcseg: {path}: records mismatch (missing [], extra ['extra'])"),
    # a bad --config line is a usage error; the same line in an artifact's [config], an I/O failure
    *[(row_id, argv, edit, code, at + what) for row_id, argv, edit, code, at, what in [
        ("train-config-bogus=1", TRAIN, ("CONFIG", add(-1, "bogus=1")), 64, USAGE_AT, "unknown config key 'bogus'"),
        ("eval-artifact-bogus=1", EVAL, ("MODEL", add("[config]", "bogus=1")), 2, AT, "unknown config key 'bogus'"),
        ("train-config-n_prototypes=1e20", TRAIN, ("CONFIG", put("n_prototypes=", f"n_prototypes={10**20}")), 64,
         USAGE_AT, f"cannot parse config n_prototypes='{10**20}'"),
        ("eval-artifact-n_prototypes=1e20", EVAL, ("MODEL", put("[config] n_prototypes=", f"n_prototypes={10**20}")),
         2, AT, f"cannot parse config n_prototypes='{10**20}'")]],
    ("train-cell-index-outside-int64", TRAIN + ["--pool", "SCENE"],
     ("CONFIG", add(-1, "grid_size=1e-300")), 2, "pcseg: {SCENE}: grid_size=1e-300 puts a cell index outside int64"),
    # a (10**15, 8) projection exceeds any 48-bit address space, so no host can overcommit it
    ("train-impossible-allocation", TRAIN,
     ("CONFIG", put("n_prototypes=", f"n_prototypes={10**15}")), 2, re.compile(r"pcseg: Unable to allocate .*\n")),
    ("eval-logits-overflow", EVAL,
     ("MODEL", put(("decoder.w2", 2), lambda v: " ".join("1e308" for _ in v.split()))), 70,
     "pcseg: numeric failure: episode 0: segmentation logits are not finite"),
    ("eval-n_way-beyond-the-test-classes", EVAL, ("MODEL", put("n_way=", "n_way=4")), 2,
     "pcseg: n_way 4 exceeds the 3 classes [1, 3, 5]"),
    # model artifacts: each record's values and shape, and each [meta] and [bank] key
    ("eval-artifact-prototype-inf", EVAL,
     ("MODEL", put(("prototypes", 2), lambda v: "inf " + v.split(" ", 1)[1])), 2,
     AT + "record prototypes holds a non-finite value"),
    ("eval-artifact-stub.b1-short", EVAL,
     ("MODEL", put(("stub.b1", 2), lambda v: v.rsplit(" ", 1)[0])), 2, AT + "record stub.b1: 7 values for shape (8,)"),
    ("eval-artifact-prototypes-shape", EVAL,
     ("MODEL", put("classes=", "classes=1,2,3,4,5,6,7,8"), put("class_ids=", "class_ids=2,4,6,8"),
      put("update_counts=", "update_counts=0 0 0 0", named=("prototypes", 1))), 2,
     AT + "record prototypes has shape (3, 8), expected (4, 8)"),
    ("eval-bank-momentum=1.5", EVAL, ("MODEL", put("[bank] momentum=", "momentum=1.5")), 2,
     AT + "[bank] momentum=1.5 does not match [config] momentum=0.995"),
    *[(f"eval-bank-no-{key}", EVAL,
       ("MODEL", drop(f"[bank] {key}=", named="[bank]")), 2, AT + f"[bank] has no {key}= line")
      for key in ("class_ids", "momentum", "update_counts")],
    ("eval-artifact-record-header-dropped", EVAL, ("MODEL", drop(("stub.w1", 1))), 2,
     AT + "record stub.w1: malformed header (expected 'rank d0 d1 ...')"),
    # faults no other row reaches
    ("config-not-utf-8", TRAIN, ("CONFIG", put(2, lambda v: "\udcff" + v)), 64,
     USAGE_AT + "byte 0xff is not UTF-8 (invalid start byte)"),
    ("heads-not-a-divisor-of-dim", TRAIN, ("CONFIG", put("dim=", "dim=10"), put("heads=", "heads=4")), 64,
     USAGE_AT + "config field heads must be a divisor of dim, got 4"),
    # the divisor rule names the heads= line, also where it comes before dim=
    ("heads-before-dim-not-a-divisor", TRAIN,
     ("CONFIG", drop("heads="), add(1, "heads=4"), put("dim=", "dim=10", named="heads=")), 64,
     USAGE_AT + "config field heads must be a divisor of dim, got 4"),
    ("grid_size-not-positive", TRAIN, ("CONFIG", add(-1, "grid_size=-0.5")), 64,
     USAGE_AT + "config field grid_size must be > 0, got -0.5"),
    ("momentum-outside-0-1", TRAIN, ("CONFIG", add(-1, "momentum=1.5")), 64,
     USAGE_AT + "config field momentum must be in [0, 1], got 1.5"),
    ("config-repeated-key", TRAIN, ("CONFIG", add(-1, "seed=5")), 64,
     USAGE_AT + "duplicate config key 'seed'"),
    ("cloud-not-utf-8", AUDIT, ("SCENE", put(2, lambda v: "\udcff" + v)), 2,
     AT + "byte 0xff is not UTF-8 (invalid start byte)"),
    ("pool-without-two-labeled-classes", TRAIN + ["--pool", "SCENE"], ("SCENE", _unlabeled), 2,
     "pcseg: --pool {path} holds 0 labeled classes; a split needs at least 2"),
    # the first step leaves parameters near 1e300, so the second episode's forward overflows
    ("train-lr-1e300", TRAIN, ("CONFIG", put("lr=", "lr=1e300")), 70,
     "pcseg: numeric failure: episode 1: loss is nan"),
    # the last step: no later loss would see what it leaves
    ("train-final-update-not-finite", TRAIN,
     ("CONFIG", put("episodes=", "episodes=1"), put("lr=", "lr=1e300"), add(-1, "weight_decay=1e10")), 70,
     "pcseg: numeric failure: episode 0: update of stub.w1 is not finite"),
]
ROW_IDS = [row[0] for row in FAULTS]
# pytest would suffix a repeated id and pass; 60 characters keep node ids apart in their first 100
assert len(set(ROW_IDS)) == len(ROW_IDS) and max(map(len, ROW_IDS)) <= 60
PLACEHOLDER = re.compile(r"\b(POOL|SCENE|CONFIG|MODEL|OUT)\b")


def check_fault(row, inputs, tmp_path, capsys):
    """Run one row and check the contract: its exit code, its whole stderr
    as one line, no --out path left behind, and every input it names, shared
    or edited, unchanged by the run."""
    _, argv, edit, code, err = row
    tmp_path.mkdir()
    paths, named = dict(inputs, OUT=str(tmp_path / "out")), {}
    if edit:
        name, *steps = edit
        source = Path(paths[name])
        lines = source.read_bytes().decode("utf-8", "surrogateescape").splitlines()
        for step in steps:
            named["line"] = step(lines)
        paths[name] = named["path"] = str(tmp_path / f"bad{source.suffix}")
        Path(paths[name]).write_bytes("".join(f"{line}\n" for line in lines).encode("utf-8", "surrogateescape"))
    argv = [PLACEHOLDER.sub(lambda m: paths[m[0]], arg) for arg in argv]
    files = [f for arg in [*argv, *inputs.values()]
             for f in (sorted(Path(arg).iterdir()) if Path(arg).is_dir() else [Path(arg)]) if f.is_file()]
    before = {f: f.read_bytes() for f in files}
    capsys.readouterr()
    try:
        got = main(argv)
    except SystemExit as exc:
        got = exc.code
    stderr = capsys.readouterr().err
    assert got == code, stderr
    if isinstance(err, re.Pattern):
        assert err.fullmatch(stderr), stderr
    else:
        assert stderr == err.format(**paths, **named) + "\n"
    assert not [out for flag, out in zip(argv, argv[1:]) if flag == "--out" and os.path.lexists(out)]
    assert {f: f.read_bytes() for f in files} == before


def runs(rows):
    """Parametrize a test by row id; a case runs its id's rows in order."""
    cases = {}
    for row in rows:
        cases.setdefault(row[0], []).append(row)
    return pytest.mark.parametrize("rows", list(cases.values()), ids=list(cases))


def check_faults(rows, inputs, tmp_path, capsys):
    for i, row in enumerate(rows):
        check_fault(row, inputs, tmp_path / str(i), capsys)


@runs(FAULTS)
def test_fault(rows, cli_inputs, tmp_path, capsys):
    check_faults(rows, cli_inputs, tmp_path, capsys)


@runs(INT64_FAULTS)
def test_int_flag_beyond_int64_is_usage_error(rows, cli_inputs, tmp_path, capsys):
    check_faults(rows, cli_inputs, tmp_path, capsys)


@runs(SEED_FAULTS)
def test_negative_seed_is_usage_error(rows, cli_inputs, tmp_path, capsys):
    check_faults(rows, cli_inputs, tmp_path, capsys)


class TestAudit:
    @runs(CLOUD_FAULTS)
    def test_bad_cloud_exits_2_naming_path_and_line(self, rows, cli_inputs, tmp_path, capsys):
        check_faults(rows, cli_inputs, tmp_path, capsys)


class TestTrainEval:
    def test_zero_episode_artifact_equals_initialization(self, scene_dir, tmp_path):
        cfg = tmp_path / "zero.cfg"
        cfg.write_text(TINY_CONFIG.replace("episodes=3", "episodes=0"))
        a = tmp_path / "zero.model"
        b = tmp_path / "zero2.model"
        assert main(["train", "--pool", str(scene_dir), "--config", str(cfg), "--out", str(a)]) == EXIT_OK
        assert main(["train", "--pool", str(scene_dir), "--config", str(cfg), "--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()
        text = a.read_text()
        assert "update_counts=" in text
        counts = [l for l in text.splitlines() if l.startswith("update_counts=")][0]
        assert set(counts.split("=")[1].split()) == {"0"}

    def test_two_fold_table_layout(self, scene_dir, tiny_model, tiny_model_fold1, tmp_path):
        metrics = tmp_path / "metrics.txt"
        assert main(["eval", "--pool", str(scene_dir), "--model", str(tiny_model), "--model", str(tiny_model_fold1),
                     "--episodes", "3", "--seed", "1", "--out", str(metrics)]) == EXIT_OK
        values = dict(line.split("=") for line in metrics.read_text().strip().splitlines())
        assert "fold0_mean_iou" in values and "fold1_mean_iou" in values
        want = (float(values["fold0_mean_iou"]) + float(values["fold1_mean_iou"])) / 2
        np.testing.assert_allclose(float(values["mean_iou"]), want, rtol=1e-12)

    def test_two_fold_eval_reads_the_pool_once(self, scene_dir, tiny_model, tiny_model_fold1, tmp_path,
                                               monkeypatch):
        models = [tiny_model, tiny_model_fold1]

        def eval_metrics(*paths):
            out = tmp_path / "metrics.txt"
            argv = ["eval", "--pool", str(scene_dir), "--episodes", "3", "--seed", "1", "--out", str(out)]
            assert main(argv + [arg for path in paths for arg in ("--model", str(path))]) == EXIT_OK
            return out.read_text().splitlines()

        # each fold alone, read from its own pool: the two-fold file is their rows and the mean
        rows0, rows1 = eval_metrics(models[0])[:-1], eval_metrics(models[1])[2:-1]
        mean = np.mean([float(rows0[-2].split("=")[1]), float(rows1[-2].split("=")[1])])
        reads = []
        real_read = pio.read_cloud

        def counting_read(path):
            reads.append(path)
            return real_read(path)

        monkeypatch.setattr(pio, "read_cloud", counting_read)
        assert eval_metrics(*models) == rows0 + rows1 + [f"mean_iou={float(mean):.17g}"]
        assert len(reads) == len(list(scene_dir.glob("*.pcseg")))

    def test_two_models_of_one_fold_exit_64_before_evaluating(self, scene_dir, tiny_model, tmp_path, capsys,
                                                               monkeypatch):
        first, second = tiny_model, tmp_path / "b.model"
        second.write_bytes(first.read_bytes())
        monkeypatch.setattr(M, "evaluate", lambda *args: pytest.fail("evaluated before the folds were checked"))
        metrics = tmp_path / "metrics.txt"
        capsys.readouterr()
        assert main(["eval", "--pool", str(scene_dir), "--model", str(first), "--model", str(second),
                     "--episodes", "3", "--seed", "1", "--out", str(metrics)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == f"pcseg: error: {second}: a second model of fold 0 (the first is {first})\n"
        assert not metrics.exists()

    @runs(SECTION_FAULTS)
    def test_repeated_key_or_section_exits_2_naming_the_line(self, rows, cli_inputs, tmp_path, capsys):
        check_faults(rows, cli_inputs, tmp_path, capsys)

    @runs(NON_FINITE_FAULTS)
    def test_non_finite_config_exits_64_or_2_in_artifact(self, rows, cli_inputs, tmp_path, capsys):
        check_faults(rows, cli_inputs, tmp_path, capsys)

    @runs(EPISODE_FAULTS)
    def test_eval_episode_count_below_one_is_usage_error(self, rows, cli_inputs, tmp_path, capsys):
        check_faults(rows, cli_inputs, tmp_path, capsys)

    @runs(POOL_TWICE_FAULTS)
    def test_a_scene_named_twice_in_pool_exits_64(self, rows, cli_inputs, tmp_path, capsys):
        check_faults(rows, cli_inputs, tmp_path, capsys)

    @runs(SPLIT_FAULTS)
    def test_meta_split_that_disagrees_with_the_bank_exits_2(self, rows, cli_inputs, tmp_path, capsys):
        check_faults(rows, cli_inputs, tmp_path, capsys)


def test_node_ids_differ_in_their_first_100_characters(request):
    # A report that cuts test ids to 100 characters must still name each test apart.
    by_prefix = {}
    for item in request.session.items:
        by_prefix.setdefault(item.nodeid[:100], []).append(item.nodeid)
    clashes = [nodeid for ids in by_prefix.values() if len(ids) > 1 for nodeid in ids]
    assert not clashes, "\n".join(clashes)


def test_no_test_module_imports_another():
    # Shared helpers live in the oracle and harness modules, which collect no tests.
    here = Path(__file__).parent
    test_modules = {path.stem for path in here.glob("test_*.py")}
    imports = set()
    for path in here.glob("test_*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                continue
            imports |= {(path.name, name) for name in names if name in test_modules}
    assert not imports, sorted(imports)
