"""CLI: exit codes, file outputs, byte determinism."""

import argparse
import contextlib
import errno
import io
import os
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
from test_golden import COMMANDS as GOLDEN_COMMANDS, MULTI_SHOT_CONFIG

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


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("scenes")
    code = main(["synth", "--out", str(out), "--seed", "1", "--scenes", "12",
                 "--classes", "6", "--blobs", "3", "--points", "150"])
    assert code == EXIT_OK
    return out


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("config") / "tiny.cfg"
    path.write_text(TINY_CONFIG)
    return path


def _train_tiny(scene_dir, config_path, tmp_path_factory, fold):
    model = tmp_path_factory.mktemp("model") / f"fold{fold}.model"
    assert main(["train", "--pool", str(scene_dir), "--config", str(config_path), "--fold", str(fold),
                 "--out", str(model)]) == EXIT_OK
    return model


@pytest.fixture(scope="module")
def tiny_model(scene_dir, config_path, tmp_path_factory):
    """The TINY_CONFIG fold-0 artifact on `scene_dir`, trained once: a test
    that reads a model uses it, or a copy it edits."""
    return _train_tiny(scene_dir, config_path, tmp_path_factory, 0)


@pytest.fixture(scope="module")
def tiny_model_fold1(scene_dir, config_path, tmp_path_factory):
    return _train_tiny(scene_dir, config_path, tmp_path_factory, 1)


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


def test_episodes_command_is_gone(scene_dir, tmp_path, capsys):
    out = tmp_path / "episodes.manifest"
    with pytest.raises(SystemExit) as exc:
        main(["episodes", "--pool", str(scene_dir), "--n", "4", "--out", str(out)])
    assert exc.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("pcseg: error: argument command: invalid choice: 'episodes'")
    assert not out.exists()


# Every `_int_at_least` flag, with the arguments its subcommand requires.
SYNTH, AUDIT, EVAL = (["synth", "--out", "OUT"], ["audit", "--cloud", "SCENE", "--fg-class", "1", "--out", "OUT"],
                      ["eval", "--pool", "POOL", "--model", "MODEL", "--out", "OUT"])
INT_FLAGS = [
    (SYNTH, "--scenes"),
    (SYNTH, "--classes"),
    (SYNTH, "--blobs"),
    (SYNTH, "--points"),
    (SYNTH, "--seed"),
    (AUDIT, "--m"),
    (AUDIT, "--trials"),
    (AUDIT, "--seed"),
    (EVAL, "--episodes"),
    (EVAL, "--seed"),
]


def _usage_error(scene_dir, tmp_path, capsys, argv):
    """Run `argv` (placeholders filled in), require exit 64 and no output
    file, and return stderr."""
    out = tmp_path / "out"
    paths = {"OUT": str(out), "SCENE": str(sorted(scene_dir.glob("*.pcseg"))[0]), "POOL": str(scene_dir),
             "MODEL": str(tmp_path / "m.txt")}
    with pytest.raises(SystemExit) as exc:
        main([paths.get(a, a) for a in argv])
    assert exc.value.code == EXIT_USAGE
    assert not out.exists()
    return capsys.readouterr().err


@pytest.mark.parametrize("value", [str(2**63), "99999999999999999999"])
@pytest.mark.parametrize("argv, flag", INT_FLAGS, ids=[f"{a[0]}{f}" for a, f in INT_FLAGS])
def test_int_flag_beyond_int64_is_usage_error(scene_dir, tmp_path, capsys, argv, flag, value):
    err = _usage_error(scene_dir, tmp_path, capsys, argv + [flag, value])
    assert err.endswith(f"error: argument {flag}: invalid int64 value: '{value}'\n")


@pytest.mark.parametrize("argv", [SYNTH, AUDIT, EVAL], ids=["synth", "audit", "eval"])
def test_negative_seed_is_usage_error(scene_dir, tmp_path, capsys, argv):
    err = _usage_error(scene_dir, tmp_path, capsys, argv + ["--seed", "-1"])
    assert err == f"pcseg {argv[0]}: error: argument --seed: must be >= 0, got -1\n"


class TestSynth:
    def test_writes_scene_files(self, scene_dir):
        files = sorted(scene_dir.glob("*.pcseg"))
        assert len(files) == 12

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

    @pytest.mark.parametrize("argv, flag", [
        (["--blobs", "3", "--classes", "2"], "--blobs"),
        (["--blobs", "1"], "--blobs"),
        (["--scenes", "0"], "--scenes"),
        (["--points", "0"], "--points"),
    ])
    def test_bad_counts_are_usage_errors(self, tmp_path, capsys, argv, flag):
        out = tmp_path / "scenes"
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--out", str(out)] + argv)
        assert exc.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and flag in err
        assert not out.exists()


class TestAudit:
    def test_report_blocks(self, scene_dir, tmp_path):
        scene = str(sorted(scene_dir.glob("*.pcseg"))[0])
        out = tmp_path / "audit.txt"
        code = main(["audit", "--cloud", scene, "--fg-class", "1", "--m", "64",
                     "--trials", "10", "--seed", "3", "--out", str(out)])
        assert code == EXIT_OK
        text = out.read_text()
        assert "sampler=biased" in text and "sampler=uniform" in text
        for key in ("input_fg_fraction", "mean_output_fg_fraction",
                    "expected_biased_fraction", "density_ratio", "trials"):
            assert text.count(f"{key}=") == 2

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code = main(["audit", "--cloud", str(tmp_path / "nope.pcseg"),
                     "--fg-class", "1", "--out", str(tmp_path / "r.txt")])
        assert code == EXIT_IO
        assert "nope.pcseg" in capsys.readouterr().err

    def test_out_in_missing_directory_names_the_path(self, scene_dir, tmp_path, capsys):
        scene = str(sorted(scene_dir.glob("*.pcseg"))[0])
        out = tmp_path / "nodir" / "r.txt"
        code = main(["audit", "--cloud", scene, "--fg-class", "1", "--m", "16",
                     "--trials", "2", "--out", str(out)])
        assert code == EXIT_IO
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(out) in err and ".tmp-" not in err

    def test_bad_flag_exits_64(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["audit", "--definitely-not-a-flag"])
        assert exc.value.code == EXIT_USAGE

    @pytest.mark.parametrize("lineno, row", [
        (6, "0.1 0.2 0.3 0.5 0.5 0.5"),
        (6, "0.1 0.2 0.3 0.5 0.5 0.5 1 9"),
        (4, "nan 0.2 0.3 0.5 0.5 0.5 1"),
        (5, "0.1 0.2 0.3 2.0 0.5 0.5 1"),
        (None, "0.1 0.2 0.3 0.5 0.5 0.5 1"),  # one row beyond the header's count
        (7, "0.1 0.2 0.3 0.5 0.5 0.5 1.5"),
        (8, "0.1 0.2 0.3 0.5 0.5 0.5 -5"),
        (3, "1_0 0 0 0.5 0.5 0.5 1"),  # Python's float reads these two; np.loadtxt does not
        (3, "\uff11 0 0 0.5 0.5 0.5 1"),  # a full-width digit one
        (1, "PCSEG v1 \u0665"),  # `str.isdigit` takes these two; the header count is ASCII digits
        (1, "PCSEG v1 \u00b2"),
    ])
    def test_bad_cloud_exits_2_naming_path_and_line(self, scene_dir, tmp_path, capsys, lineno, row):
        lines = (sorted(scene_dir.glob("*.pcseg"))[0]).read_text().splitlines()
        if lineno is None:
            lineno = len(lines) + 1
            lines.append(row)
        else:
            lines[lineno - 1] = row
        bad = tmp_path / "bad.pcseg"
        bad.write_text("\n".join(lines) + "\n")
        code = main(["audit", "--cloud", str(bad), "--fg-class", "1", "--m", "16", "--trials", "2"])
        assert code == EXIT_IO
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"pcseg: {bad}:{lineno}: ")
        if lineno == 1:
            assert "not a 'PCSEG v1 <count>' header" in err

    @pytest.mark.parametrize("flag", ["--m", "--trials"])
    def test_zero_count_is_usage_error(self, scene_dir, capsys, flag):
        scene = str(sorted(scene_dir.glob("*.pcseg"))[0])
        with pytest.raises(SystemExit) as exc:
            main(["audit", "--cloud", scene, "--fg-class", "1", flag, "0"])
        assert exc.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and flag in err

    @pytest.mark.parametrize("value", ["-1", "9223372036854775808"])
    def test_bad_fg_class_is_usage_error(self, scene_dir, capsys, value):
        scene = str(sorted(scene_dir.glob("*.pcseg"))[0])
        with pytest.raises(SystemExit) as exc:
            main(["audit", "--cloud", scene, "--fg-class", value])
        assert exc.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--fg-class" in err

    def test_absent_fg_class_exits_2(self, scene_dir, tmp_path, capsys):
        scene = str(sorted(scene_dir.glob("*.pcseg"))[0])
        out = tmp_path / "r.txt"
        code = main(["audit", "--cloud", scene, "--fg-class", "77", "--m", "16", "--trials", "2",
                     "--out", str(out)])
        assert code == EXIT_IO
        assert capsys.readouterr().err == f"pcseg: {scene}: no point has class 77\n"
        assert not out.exists()


class TestTrainEval:
    def test_train_writes_artifact(self, scene_dir, config_path, tmp_path):
        out = tmp_path / "model.txt"
        code = main(["train", "--pool", str(scene_dir), "--config", str(config_path),
                     "--out", str(out)])
        assert code == EXIT_OK
        assert out.read_text().startswith("PCSEG-MODEL v1")

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

    def test_eval_metrics_layout(self, scene_dir, tiny_model, tmp_path):
        metrics = tmp_path / "metrics.txt"
        code = main(["eval", "--pool", str(scene_dir), "--model", str(tiny_model),
                     "--episodes", "4", "--seed", "8", "--out", str(metrics)])
        assert code == EXIT_OK
        text = metrics.read_text()
        assert "fold0_mean_iou=" in text and "mean_iou=" in text
        assert "fold0_episode_miou_mean=" in text

    # a training run's settings come from its --config file alone
    @pytest.mark.parametrize("extra, message", [
        ([], "the following arguments are required: --config"),
        (["--config", "CONFIG", "--seed", "3"], "unrecognized arguments: --seed 3"),
    ], ids=["no-config", "seed-flag"])
    def test_train_without_config_or_with_seed_exits_64(self, scene_dir, config_path, tmp_path, capsys,
                                                         extra, message):
        out = tmp_path / "model.txt"
        with pytest.raises(SystemExit) as exc:
            main(["train", "--pool", str(scene_dir), "--out", str(out)]
                 + [str(config_path) if a == "CONFIG" else a for a in extra])
        assert exc.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.endswith(f": error: {message}\n")
        assert not out.exists()

    def test_eval_without_model_exits_64(self, scene_dir, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--pool", str(scene_dir), "--out", str(tmp_path / "m.txt")])
        assert exc.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--model" in err
        assert not (tmp_path / "m.txt").exists()

    def test_non_finite_loss_exits_70(self, scene_dir, config_path, tmp_path, monkeypatch, capsys):
        import pcseg.cli as cli
        from pcseg.model import NonFiniteLossError

        def explode(*args, **kwargs):
            raise NonFiniteLossError("episode 0: loss is nan")

        monkeypatch.setattr(cli.M, "meta_train", explode)
        code = main(["train", "--pool", str(scene_dir), "--config", str(config_path),
                     "--out", str(tmp_path / "m.txt")])
        assert code == EXIT_NUMERIC
        assert "numeric failure" in capsys.readouterr().err

    def test_a_pool_that_runs_dry_names_the_episode(self, tmp_path, monkeypatch, capsys):
        # The golden pool holds each class in few scenes: at seed 15 the 2-way
        # 3-shot stream first draws a class pair it cannot serve at episode 6.
        monkeypatch.chdir(tmp_path)
        assert main(GOLDEN_COMMANDS["synth"]) == EXIT_OK
        Path("dry.cfg").write_text(MULTI_SHOT_CONFIG.replace("seed=13", "seed=15"))
        code = main(["train", "--pool", "scenes", "--config", "dry.cfg", "--out", "model.txt"])
        err = capsys.readouterr().err
        assert code == EXIT_IO and not Path("model.txt").exists()
        assert err.count("\n") == 1 and err.startswith("pcseg: episode 6 (seed "), err
        assert err.endswith("): class 6: need 3 support clouds with >= 30 foreground points, pool offers 2\n")

    def test_a_support_without_background_names_the_episode(self, scene_dir, tmp_path, capsys):
        # capped to one point, each support cloud is all foreground, so the background way is empty
        config = tmp_path / "one.cfg"
        config.write_text(TINY_CONFIG.replace("max_points=192", "max_points=1").replace("min_fg_points=30",
                                                                                       "min_fg_points=1"))
        model = tmp_path / "model.txt"
        capsys.readouterr()
        code = main(["train", "--pool", str(scene_dir), "--config", str(config), "--out", str(model)])
        err = capsys.readouterr().err
        assert code == EXIT_IO and not model.exists()
        assert err.count("\n") == 1 and err.startswith("pcseg: episode 0 (seed "), err
        assert err.endswith("): the support holds no background point\n")

    def _edited_model(self, tiny_model, tmp_path, edit):
        """A copy of `tiny_model` with `edit` applied to its lines."""
        model = tmp_path / "model.txt"
        lines = tiny_model.read_text().splitlines()
        edit(lines)
        model.write_bytes(("\n".join(lines) + "\n").encode("utf-8", "surrogateescape"))
        return model

    def _eval(self, scene_dir, model, tmp_path):
        return main(["eval", "--pool", str(scene_dir), "--model", str(model),
                     "--episodes", "3", "--seed", "1", "--out", str(tmp_path / "metrics.txt")])

    @pytest.mark.parametrize("record, edit", [
        ("update_counts", lambda v: v.rsplit(" ", 1)[0]),  # one entry dropped
        ("decoder.b2", lambda v: "nan"),
        pytest.param("update_counts", lambda v: f"{v} {2**63}", id="update_counts-beyond-int64"),
        # byte 0xff (written through surrogateescape) opening line 2, which the message names
        pytest.param(2, lambda v: "\udcff" + v, id="line-2-not-utf-8"),
        # in range, but not the [config] momentum (0.995) that save_model writes alongside it
        pytest.param("momentum", lambda v: "momentum=0.25", id="bank-momentum-disagrees-with-config"),
    ])
    def test_corrupt_artifact_exits_2_with_one_line(self, scene_dir, tiny_model, tmp_path, capsys,
                                                     record, edit):
        edited = []

        def corrupt(lines):
            if record == 2:
                idx = 1
            elif record in ("update_counts", "momentum"):  # a [bank] key=value line
                idx = next(i for i in range(lines.index("[bank]"), len(lines)) if lines[i].startswith(f"{record}="))
            else:
                idx = lines.index(record) + 2
            lines[idx] = edit(lines[idx])
            edited.append(idx + 1)

        model = self._edited_model(tiny_model, tmp_path, corrupt)
        capsys.readouterr()
        assert self._eval(scene_dir, model, tmp_path) == EXIT_IO
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"pcseg: {model}:{edited[0]}: ")
        if record != 2:
            assert record in err

    @pytest.mark.parametrize("key, edit", [
        ("fold", lambda v: None),
        ("fold", lambda v: "fold=2"),
        ("fold", lambda v: "fold=one"),
        ("classes", lambda v: None),
        ("classes", lambda v: "classes="),
        ("classes", lambda v: "classes=1,,3"),
        ("classes", lambda v: "classes=1"),  # parses, but one class cannot be split
        ("classes", lambda v: "classes=1,1,1"),
        ("share_background_fc", lambda v: "share_background_fc=1"),
        ("fodl", lambda v: "fodl=1"),  # a misspelled key, added to [meta]
    ])
    def test_bad_meta_exits_2_with_one_line(self, scene_dir, tiny_model, tmp_path, capsys, key, edit):
        def corrupt(lines):
            idx = next((i for i, l in enumerate(lines) if l.startswith(f"{key}=")), None)
            if idx is None:
                lines.insert(lines.index("[meta]") + 1, edit(None))
                return
            new = edit(lines[idx])
            if new is None:
                del lines[idx]
            else:
                lines[idx] = new

        model = self._edited_model(tiny_model, tmp_path, corrupt)
        capsys.readouterr()
        assert self._eval(scene_dir, model, tmp_path) == EXIT_IO
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(model) in err and "[meta]" in err and key in err
        # a bad line that is there is named; a deleted key, at the [meta] header
        lines = model.read_text().splitlines()
        if edit(None) is None:
            assert err == f"pcseg: {model}:{lines.index('[meta]') + 1}: [meta] has no {key}= line\n"
        else:
            assert err.startswith(f"pcseg: {model}:{lines.index(edit(None)) + 1}: ")

    @staticmethod
    def _insert_after(prefix, line):
        def edit(lines):
            lines.insert(next(i for i, l in enumerate(lines) if l.startswith(prefix)) + 1, line)
        return edit

    @staticmethod
    def _drop_record(name):
        def edit(lines):
            del lines[lines.index(name):lines.index(name) + 3]  # name, header, values
        return edit

    @staticmethod
    def _append_copy(section, seed=None):
        def edit(lines):
            start = lines.index(f"[{section}]")
            end = next(i for i in range(start + 1, len(lines)) if lines[i].startswith("["))
            lines.extend(f"seed={seed}" if seed is not None and l.startswith("seed=") else l
                         for l in lines[start:end])
        return edit

    @pytest.mark.parametrize("edit, bad_line, message", [
        (_insert_after("fold=", "fold=1"), "fold=1", "duplicate [meta] key 'fold'"),
        (_insert_after("[meta]", "fold"), "fold", "expected [meta] key=value, got 'fold'"),
        (_insert_after("update_counts=", "momentum=0.5"), "momentum=0.5", "duplicate [bank] key 'momentum'"),
        (_insert_after("update_counts=", "bogus=1"), "bogus=1", "unknown [bank] key 'bogus'"),
        (_append_copy("config", seed=999), "[config]", "repeated section [config]"),
        (_append_copy("params"), "[params]", "repeated section [params]"),
        (_insert_after("PCSEG-MODEL v1", "garbage line"), "garbage line",
         "expected a [section] header, got 'garbage line'"),
    ], ids=["meta-repeated-key", "meta-no-equals", "bank-repeated-key", "bank-unknown-key",
            "second-config", "second-params", "stray-line-before-sections"])
    def test_repeated_key_or_section_exits_2_naming_the_line(self, scene_dir, tiny_model, tmp_path, capsys,
                                                             edit, bad_line, message):
        model = self._edited_model(tiny_model, tmp_path, edit)
        lines = model.read_text().splitlines()
        lineno = len(lines) - lines[::-1].index(bad_line)  # the last line that reads `bad_line`
        capsys.readouterr()
        assert self._eval(scene_dir, model, tmp_path) == EXIT_IO
        assert capsys.readouterr().err == f"pcseg: {model}:{lineno}: {message}\n"

    @pytest.mark.parametrize("edit, message", [
        (_drop_record("stub.w1"), "records mismatch (missing ['stub.w1'], extra [])"),
        (lambda lines: lines.extend(["extra", "1 1", "0"]),  # [bank] is the last section
         "records mismatch (missing [], extra ['extra'])"),
    ], ids=["params-missing", "bank-extra"])
    def test_missing_or_extra_record_exits_2_naming_it(self, scene_dir, tiny_model, tmp_path, capsys,
                                                       edit, message):
        model = self._edited_model(tiny_model, tmp_path, edit)
        capsys.readouterr()
        assert self._eval(scene_dir, model, tmp_path) == EXIT_IO
        assert capsys.readouterr().err == f"pcseg: {model}: {message}\n"

    # (line, message): each line is appended to a config file, or put in an
    # artifact's [config] section, in place of any line with the same key.
    BAD_CONFIG_LINES = [
        ("bogus=1", "unknown config key 'bogus'"),
        ("n_prototypes=99999999999999999999", "cannot parse config n_prototypes='99999999999999999999'"),
    ]

    def test_bad_config_exits_64_but_in_an_artifact_exits_2(self, scene_dir, config_path, tiny_model, tmp_path,
                                                            capsys):
        for line, message in self.BAD_CONFIG_LINES:
            key = line.split("=")[0] + "="
            bad = tmp_path / "bad.cfg"
            kept = [l for l in config_path.read_text().splitlines() if not l.startswith(key)]
            bad.write_text("\n".join(kept + [line]) + "\n")
            code = main(["train", "--pool", str(scene_dir), "--config", str(bad), "--out", str(tmp_path / "m")])
            assert code == EXIT_USAGE, line
            assert capsys.readouterr().err == f"pcseg: error: {bad}:{len(kept) + 1}: {message}\n"

            def edit(lines):
                start = lines.index("[config]")
                end = lines.index("[params]")
                lines[start + 1:end] = [l for l in lines[start + 1:end] if not l.startswith(key)] + [line]

            model = self._edited_model(tiny_model, tmp_path, edit)
            lineno = model.read_text().splitlines().index(line) + 1
            capsys.readouterr()
            assert self._eval(scene_dir, model, tmp_path) == EXIT_IO, line
            assert capsys.readouterr().err == f"pcseg: {model}:{lineno}: {message}\n"

    @pytest.mark.parametrize("line", ["lr=inf", "grid_size=inf", "block_size=inf", "weight_decay=nan"])
    def test_non_finite_config_exits_64_but_in_an_artifact_exits_2(self, scene_dir, config_path, tiny_model,
                                                                    tmp_path, capsys, line):
        key = line.split("=")[0]
        bad = tmp_path / "bad.cfg"
        kept = [l for l in config_path.read_text().splitlines() if not l.startswith(f"{key}=")]
        bad.write_text("\n".join(kept + [line]) + "\n")
        out = tmp_path / "m"
        assert main(["train", "--pool", str(scene_dir), "--config", str(bad), "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"pcseg: error: {bad}:{len(kept) + 1}: config field {key} must be ")
        assert not out.exists()

        def edit(lines):
            start = lines.index("[config]")
            idx = next(i for i in range(start, len(lines)) if lines[i].startswith(f"{key}="))
            lines[idx] = line

        model = self._edited_model(tiny_model, tmp_path, edit)
        lineno = model.read_text().splitlines().index(line) + 1
        capsys.readouterr()
        assert self._eval(scene_dir, model, tmp_path) == EXIT_IO
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"pcseg: {model}:{lineno}: config field {key} must be ")

    def test_cell_index_outside_int64_exits_2_naming_the_scene(self, scene_dir, tmp_path, capsys):
        scene = sorted(scene_dir.glob("*.pcseg"))[0]
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY_CONFIG + "grid_size=1e-300\n")
        code = main(["train", "--pool", str(scene), "--config", str(cfg), "--out", str(tmp_path / "m.txt")])
        assert code == EXIT_IO
        assert capsys.readouterr().err == f"pcseg: {scene}: grid_size=1e-300 puts a cell index outside int64\n"

    def test_impossible_allocation_exits_2(self, scene_dir, tmp_path, capsys):
        cfg = tmp_path / "huge.cfg"
        # A (10**15, 8) projection exceeds any 48-bit address space, so no host can overcommit it.
        cfg.write_text(TINY_CONFIG.replace("n_prototypes=4", f"n_prototypes={10**15}"))
        code = main(["train", "--pool", str(scene_dir), "--config", str(cfg), "--out", str(tmp_path / "m.txt")])
        assert code == EXIT_IO
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("pcseg: ") and "allocate" in err
        assert not (tmp_path / "m.txt").exists()

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_eval_episode_count_below_one_is_usage_error(self, scene_dir, tmp_path, capsys, count):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--pool", str(scene_dir), "--model", "m.txt", "--episodes", count,
                  "--out", str(tmp_path / "m.txt")])
        assert exc.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--episodes" in err
        assert not (tmp_path / "m.txt").exists()

    def test_overflowing_logits_exit_70(self, scene_dir, tiny_model, tmp_path, capsys):
        def overflow(lines):
            idx = lines.index("decoder.w2") + 2
            lines[idx] = " ".join("1e308" for _ in lines[idx].split())

        model = self._edited_model(tiny_model, tmp_path, overflow)
        capsys.readouterr()
        with np.errstate(all="ignore"):
            code = self._eval(scene_dir, model, tmp_path)
        assert code == EXIT_NUMERIC
        assert "numeric failure: episode 0: segmentation logits are not finite" in capsys.readouterr().err

    def test_n_way_beyond_the_test_classes_exits_2_naming_them(self, scene_dir, tiny_model, tmp_path, capsys):
        def widen(lines):
            idx = next(i for i in range(lines.index("[config]"), len(lines)) if lines[i].startswith("n_way="))
            lines[idx] = "n_way=4"

        model = self._edited_model(tiny_model, tmp_path, widen)
        capsys.readouterr()
        assert self._eval(scene_dir, model, tmp_path) == EXIT_IO
        assert capsys.readouterr().err == "pcseg: n_way 4 exceeds the 3 classes [1, 3, 5]\n"
        assert not (tmp_path / "metrics.txt").exists()

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

    @pytest.mark.parametrize("second", ["dir", "dir/scene_000.pcseg"])
    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_a_scene_named_twice_in_pool_exits_64(self, scene_dir, config_path, tiny_model, tmp_path, capsys,
                                                  command, second):
        twice = str(scene_dir / "scene_000.pcseg")
        pool = [str(scene_dir), str(scene_dir) if second == "dir" else twice]
        out = tmp_path / "out"
        argv = {
            "train": ["train", "--config", str(config_path)],
            "eval": ["eval", "--model", str(tiny_model), "--episodes", "2"],
        }[command]
        capsys.readouterr()
        assert main(argv + ["--pool", *pool, "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"pcseg: error: {twice}: --pool names this file twice (first as {twice})\n"
        assert not out.exists()

    @pytest.mark.parametrize("key, edit", [
        ("fold", lambda v: "1"),
        ("classes", lambda v: v.rsplit(",", 1)[0]),  # the last class dropped
        ("class_ids", lambda v: ",".join(str(int(c) - 1) for c in v.split(","))),  # the fold's test classes
        ("class_ids", lambda v: f"{v},{v.split(',')[0]}"),  # a class repeated: one id more than update_counts
    ], ids=["fold", "classes", "class_ids", "class_ids-repeated"])
    def test_meta_split_that_disagrees_with_the_bank_exits_2(self, scene_dir, tiny_model, tmp_path, capsys,
                                                              key, edit):
        def change(lines):
            idx = next(i for i, l in enumerate(lines) if l.startswith(f"{key}="))
            lines[idx] = f"{key}={edit(lines[idx].split('=', 1)[1])}"

        model = self._edited_model(tiny_model, tmp_path, change)
        lines = model.read_text().splitlines()
        lineno = next(i for i, l in enumerate(lines) if l.startswith("class_ids=")) + 1
        capsys.readouterr()
        assert self._eval(scene_dir, model, tmp_path) == EXIT_IO
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"pcseg: {model}:{lineno}: [bank] class_ids=")


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


@pytest.mark.parametrize("parent, code", [("nodir", errno.ENOENT), ("afile", errno.ENOTDIR), ("adir", errno.EISDIR)])
@pytest.mark.parametrize("command", ["train", "eval", "audit"])
def test_out_in_a_missing_directory_exits_2_before_any_work(scene_dir, config_path, tiny_model, tmp_path, capsys,
                                                            monkeypatch, command, parent, code):
    (tmp_path / "afile").write_text("")
    (tmp_path / "adir" / "out.txt").mkdir(parents=True)  # --out names this directory
    for owner, name in ((M, "meta_train"), (M, "evaluate"), (cli, "leakage_audit")):
        monkeypatch.setattr(owner, name, lambda *args, _name=name: pytest.fail(f"{_name} ran before --out was checked"))
    out = tmp_path / parent / "out.txt"
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


@settings(max_examples=500)
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
