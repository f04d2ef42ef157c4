"""File formats: cloud round-trips, configs, model artifacts."""

import dataclasses
import math
import re
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pcseg.io as pio
import pcseg.tensor as T
from pcseg.config import PlacedError, RunConfig, format_pairs, parse_pairs
from pcseg.episodes import make_split
from pcseg.model import BasePrototypeBank, ModelParams, forward, meta_train
from pcseg.episodes import generate_episode
from pcseg.synth import make_pool, synth_scene


class TestCloudFormat:
    def test_round_trip_exact(self, tmp_path):
        scene = synth_scene(3, [(1, 50), (2, 60)])
        path = tmp_path / "scene.pcseg"
        pio.write_cloud(path, scene)
        back = pio.read_cloud(path)
        np.testing.assert_array_equal(back.positions, scene.positions)
        np.testing.assert_array_equal(back.colors, scene.colors)
        np.testing.assert_array_equal(back.labels, scene.labels)

    def test_header_checked(self, tmp_path):
        path = tmp_path / "bad.pcseg"
        path.write_text("NOT A CLOUD 3\n")
        with pytest.raises(ValueError) as exc:
            pio.read_cloud(path)
        assert str(exc.value).startswith(f"{path}:1: not a 'PCSEG v1 <count>' header")

    def test_truncated_file_rejected(self, tmp_path):
        scene = synth_scene(4, [(1, 10), (2, 10)])
        text = pio.format_cloud(scene)
        path = tmp_path / "short.pcseg"
        path.write_text("\n".join(text.splitlines()[:-5]) + "\n")
        with pytest.raises(ValueError) as exc:
            pio.read_cloud(path)
        assert str(exc.value) == f"{path}:17: the file ends after 15 of 20 rows"
        path.write_text(text.splitlines()[0] + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an empty body must not warn on top of the error
            with pytest.raises(ValueError) as exc:
                pio.read_cloud(path)
        assert str(exc.value) == f"{path}:2: the file ends after 0 of 20 rows"

    @pytest.mark.parametrize("lineno, row, what", [
        (6, "0.1 0.2 0.3 0.5 0.5 0.5", "expected 7 fields, got 6"),
        (6, "0.1 0.2 0.3 0.5 0.5 0.5 1 9", "expected 7 fields, got 8"),
        (4, "nan 0.2 0.3 0.5 0.5 0.5 1", "position nan 0.2 0.3 is not finite"),
        (5, "0.1 0.2 0.3 2.0 0.5 0.5 1", "color 2.0 0.5 0.5 is not in [0, 1]"),
        (7, "0.1 0.2 0.3 0.5 0.5 0.5 1.5", "label 1.5 is not an integer"),
        (8, "0.1 0.2 0.3 0.5 0.5 0.5 -5", "label -5 is below -1"),
        (3, "0.1 0.2 0.3 0.5 0.5 0.5 one", "cannot read '0.1 0.2 0.3 0.5 0.5 0.5 one' as 7 numbers"),
        (22, "0.1 0.2 0.3 0.5 0.5 0.5 1", "more rows than the header's count 20"),
        (1, "PCSEG v1 0", "not a 'PCSEG v1 <count>' header with a count >= 1: 'PCSEG v1 0'"),
        (3, "1_0 0.2 0.3 0.5 0.5 0.5 1", "cannot read '1_0 0.2 0.3 0.5 0.5 0.5 1' as 7 numbers"),
        (3, "\uff11 0.2 0.3 0.5 0.5 0.5 1", "cannot read '\uff11 0.2 0.3 0.5 0.5 0.5 1' as 7 numbers"),
        (3, "0.1 0.2 0.3\r0.5 0.5 0.5 1", "expected 7 fields, got 3"),  # a lone CR ends a line
    ])
    def test_bad_line_named(self, tmp_path, lineno, row, what):
        lines = pio.format_cloud(synth_scene(4, [(1, 10), (2, 10)])).splitlines()
        lines[lineno - 1:lineno] = [row]
        path = tmp_path / "bad.pcseg"
        path.write_text("\n".join(lines) + "\n", newline="")
        with pytest.raises(ValueError) as exc:
            pio.read_cloud(path)
        assert str(exc.value) == f"{path}:{lineno}: {what}"

    def test_empty_and_non_utf8_files_named(self, tmp_path):
        path = tmp_path / "bad.pcseg"
        path.write_bytes(b"")
        with pytest.raises(ValueError) as exc:
            pio.read_cloud(path)
        assert str(exc.value) == f"{path}:1: the file is empty"
        lines = pio.format_cloud(synth_scene(4, [(1, 10), (2, 10)])).encode().splitlines()
        lines[4] = lines[4][:-1] + b"\xff"
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(ValueError) as exc:
            pio.read_cloud(path)
        assert str(exc.value).startswith(f"{path}:5: 'utf-8' codec can't decode byte 0xff")

    def test_line_count_includes_comments_and_blanks(self, tmp_path):
        lines = pio.format_cloud(synth_scene(4, [(1, 10), (2, 10)])).splitlines()
        lines[3:3] = ["", "# a comment", "   "]
        lines[9] = lines[9].rsplit(" ", 1)[0] + " 2.5"
        path = tmp_path / "bad.pcseg"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r":10: label 2.5 is not an integer$"):
            pio.read_cloud(path)

    def test_good_file_never_searched(self, tmp_path, monkeypatch):
        scene = synth_scene(5, [(1, 30), (2, 30)])
        path = tmp_path / "scene.pcseg"
        pio.write_cloud(path, scene)
        monkeypatch.setattr(pio, "_first_bad_line", lambda *args: pytest.fail("searched a good file"))
        np.testing.assert_array_equal(pio.read_cloud(path).labels, scene.labels)

    def test_write_is_byte_stable(self, tmp_path):
        scene = synth_scene(5, [(1, 30), (2, 30)])
        a, b = tmp_path / "a.pcseg", tmp_path / "b.pcseg"
        pio.write_cloud(a, scene)
        pio.write_cloud(b, scene)
        assert a.read_bytes() == b.read_bytes()


class TestSerialization:
    def test_round_trip_exact(self):
        rng = np.random.default_rng(23)
        arrays = [
            ("a", rng.standard_normal((3, 4))),
            ("b.w1", rng.standard_normal(7) * 1e-17),
            ("c", np.array(3.5)),
        ]
        text = pio.format_records(arrays)
        back = pio.parse_records(text, {name: np.shape(arr) for name, arr in arrays})
        assert set(back) == {"a", "b.w1", "c"}
        for name, arr in arrays:
            assert back[name].shape == np.asarray(arr).shape
            np.testing.assert_array_equal(back[name], arr)

    def test_seventeen_digits_restore_bits(self):
        rng = np.random.default_rng(24)
        values = rng.standard_normal(1000) * 10.0 ** rng.integers(-30, 30, size=1000)
        back = pio.parse_records(pio.format_records([("x", values)]), {"x": (1000,)})["x"]
        assert (back == values).all()

    def test_repeated_record_rejected(self):
        text = pio.format_records([("a", np.zeros(2)), ("a", np.zeros(2))])
        with pytest.raises(ValueError, match=r"^record a appears twice$"):
            pio.parse_records(text, {"a": (2,)})


class TestRunConfig:
    def test_text_round_trip(self):
        config = RunConfig(seed=9, dim=16, lr=0.0005, momentum=0.99)
        back = RunConfig.from_text(config.to_text())
        assert back == config

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            RunConfig.from_text("seed=1\nwarp_factor=9\n")

    def test_from_file_names_path_and_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("seed=1\nbogus=2\n")
        with pytest.raises(ValueError) as exc:
            RunConfig.from_file(path)
        assert str(exc.value) == f"{path}:2: unknown config key 'bogus'"
        path.write_text("seed=1\ngrid_size=-0.5\n")
        with pytest.raises(ValueError) as exc:
            RunConfig.from_file(path)
        assert str(exc.value) == f"{path}: config field grid_size must be > 0, got -0.5"
        path.write_bytes(b"seed=1\n\xff\n")
        with pytest.raises(ValueError) as exc:
            RunConfig.from_file(path)
        assert str(exc.value).startswith(f"{path}: not UTF-8 text")

    def test_range_validation(self):
        with pytest.raises(ValueError, match="grid_size"):
            RunConfig.from_text("grid_size=-0.5\n")
        with pytest.raises(ValueError, match="momentum"):
            RunConfig(momentum=1.5)
        with pytest.raises(ValueError, match="heads"):
            RunConfig(dim=10, heads=3)

    @pytest.mark.parametrize("key", [f.name for f in dataclasses.fields(RunConfig) if f.type == "int"])
    def test_int_field_beyond_int64_rejected(self, key):
        with pytest.raises(ValueError, match=rf"^config field {key} must be .*, got {2**63}$"):
            RunConfig(**{key: 2**63})

    @pytest.mark.parametrize("key", ["lr", "grid_size", "block_size", "weight_decay"])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_floats_rejected(self, tmp_path, key, value):
        with pytest.raises(ValueError, match=rf"^config field {key} must be .*, got {value}$"):
            RunConfig.from_text(f"{key}={value}\n")
        path = tmp_path / "bad.cfg"
        path.write_text(f"seed=1\n{key}={value}\n")
        with pytest.raises(ValueError) as exc:
            RunConfig.from_file(path)
        assert str(exc.value).startswith(f"{path}: config field {key} must be ")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ValueError, match=r"^line 2: duplicate config key 'seed'$"):
            RunConfig.from_text("seed=1\nseed=2\n")

    def test_comments_and_blanks_ignored(self):
        config = RunConfig.from_text("# comment\n\nseed=4\n")
        assert config.seed == 4


_VALUES = st.one_of(
    st.integers(),
    # no line boundary that str.splitlines knows, and no '=' or '#'
    st.text(st.characters(blacklist_categories=("Cc", "Zl", "Zp"), blacklist_characters="=#")),
    st.floats(allow_nan=False, allow_subnormal=True),
    st.just(math.nan),  # a NaN's sign and payload are not written, so only the default NaN round-trips
)


class TestKeyValueFormat:
    @given(st.lists(st.tuples(st.from_regex(r"[a-z_]+", fullmatch=True), _VALUES), unique_by=lambda kv: kv[0]))
    def test_round_trip(self, pairs):
        text = format_pairs(pairs)
        back = list(parse_pairs(text.splitlines(), "test", {key for key, _ in pairs}, "f.txt", 5))
        assert [key for _, key, _ in back] == [key for key, _ in pairs]
        assert [at for at, _, _ in back] == [f"f.txt:{5 + i}" for i in range(len(pairs))]
        for (key, value), (_, _, raw) in zip(pairs, back):
            if isinstance(value, float):
                assert struct.pack("<d", float(raw)) == struct.pack("<d", value)
            else:
                assert raw == str(value).strip()

    @pytest.mark.parametrize("text, message", [
        ("a=1\nb\n", "f.txt:3: expected test key=value, got 'b'"),
        ("a=1\n\n# note\na=2\n", "f.txt:5: duplicate test key 'a'"),
        ("c=1\n", "f.txt:2: unknown test key 'c'"),
    ], ids=["no-equals", "duplicate", "unknown"])
    def test_bad_line_names_its_place(self, text, message):
        with pytest.raises(ValueError) as exc:
            list(parse_pairs(text.splitlines(), "test", {"a", "b"}, "f.txt", 2))
        assert str(exc.value) == message


# one value of an artifact line: free text without a line boundary, or one
# of the number shapes the format holds (an int, a float, a list of ints),
# with ints drawn past either end of int64 as often as within it
_INTS = st.one_of(st.integers(), st.integers(min_value=2**63), st.integers(max_value=-2**63 - 1))
_ARTIFACT_VALUES = st.one_of(
    st.text(st.characters(blacklist_categories=("Cc", "Zl", "Zp"))),
    _INTS.map(str),
    st.floats().map(repr),
    st.lists(_INTS, min_size=1, max_size=4).map(lambda xs: " ".join(map(str, xs))),
    st.lists(_INTS, min_size=1, max_size=4).map(lambda xs: ",".join(map(str, xs))),
)


# one value of a config line: free text, an int past either end of int64 as
# often as within it, or a float
_CONFIG_VALUES = st.one_of(
    st.text(st.characters(blacklist_categories=("Cc", "Zl", "Zp"))),
    _INTS.map(str),
    st.floats().map(repr),
)


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(RunConfig)])
@settings(max_examples=50, deadline=None)
@given(value=_CONFIG_VALUES)
def test_one_drawn_config_value_parses_to_int64_or_names_its_place(field, value):
    lines = RunConfig().to_text().splitlines()
    index = next(i for i, line in enumerate(lines) if line.startswith(f"{field}="))
    lines[index] = f"{field}={value}"
    try:
        config = RunConfig.from_text("\n".join(lines) + "\n", source="fuzz.cfg")
    except PlacedError as exc:
        message = str(exc)
        assert message.startswith("fuzz.cfg:") and "\n" not in message, message
        return
    for f in dataclasses.fields(config):
        got = getattr(config, f.name)
        if f.type == "int":
            assert type(got) is int and -2**63 <= got < 2**63, (f.name, got)
        else:
            assert type(got) is float, (f.name, got)


# one field of a cloud file: free text without a line boundary, a number,
# one of the shapes Python's `float` reads and `np.loadtxt` does not
# (digit-group underscores, non-ASCII decimal digits), or number-like text
# that may hold a tab, a comment or a lone CR (which ends a line)
_CLOUD_FIELDS = st.one_of(
    st.text(st.characters(blacklist_categories=("Cc", "Zl", "Zp"))),
    _INTS.map(str),
    st.floats().map(repr),
    st.integers().map(lambda i: f"{i:_}"),
    st.text(st.characters(whitelist_categories=("Nd",)), min_size=1),
    st.text(st.sampled_from("01.5-e_ \t#\r"), min_size=1),
)
_CLOUD_LINES = pio.format_cloud(synth_scene(5, [(1, 6), (2, 6)])).splitlines()


@pytest.mark.parametrize("column", ["count", 0, 1, 2, 3, 4, 5, 6])
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_one_drawn_cloud_field_loads_or_names_its_line(tmp_path_factory, column, data):
    lines = list(_CLOUD_LINES)
    value = data.draw(_CLOUD_FIELDS, label="value")
    if column == "count":
        lineno = 1
        lines[0] = f"{pio.CLOUD_MAGIC} {value}"
    else:
        lineno = data.draw(st.integers(2, len(lines)), label="line")
        fields = lines[lineno - 1].split()
        fields[column] = value
        lines[lineno - 1] = " ".join(fields)
    path = tmp_path_factory.mktemp("fuzz") / "cloud.pcseg"
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8", "surrogatepass"))  # a lone surrogate becomes bytes that are not UTF-8
    try:
        cloud = pio.read_cloud(path)
    except ValueError as exc:
        message = str(exc)
        place = re.match(rf"{re.escape(str(path))}:(\d+): [^\n]*$", message)
        assert place, message
        if column != "count":  # a count that parses can place the fault at any row
            # a CR starts a line; a `#` that comments the whole row out leaves the file a row short
            at, extra = int(place[1]), value.count("\r")
            assert lineno <= at <= lineno + extra or ("#" in value and at == len(lines) + 1 + extra), message
        return
    assert len(cloud) == len(lines) - 1
    assert np.isfinite(cloud.positions).all() and ((cloud.colors >= 0) & (cloud.colors <= 1)).all()
    assert (cloud.labels >= -1).all()


def _untrained_artifact_lines() -> list[str]:
    """A tiny artifact trained for 0 episodes (its initialization)."""
    config = RunConfig(seed=2, dim=8, n_prototypes=4, hca_layers=1, heads=1, episodes=0)
    result = meta_train([], make_split(range(1, 7), 0), config)
    meta = {"fold": 0, "classes": "1,2,3,4,5,6"}
    return pio.format_model(result.params, result.bank, config, meta).splitlines()


class TestModelArtifact:
    def _trained(self, pool, split):
        config = RunConfig(
            seed=2, dim=8, n_prototypes=4, hca_layers=1, heads=1,
            max_points=128, min_fg_points=20, episodes=3,
        )
        return meta_train(pool, split, config), config

    def test_round_trip_bit_exact_forward(self, tmp_path):
        pool = make_pool(31, 10, range(1, 7), blobs_per_scene=3, points_per_blob=120)
        split = make_split(range(1, 7), 0)
        result, config = self._trained(pool, split)
        path = tmp_path / "model.pcseg-model"
        meta = {"fold": 0, "classes": ",".join(str(c) for c in range(1, 7))}
        pio.save_model(path, result.params, result.bank, config, meta)
        params2, bank2, config2, meta2 = pio.load_model(path)

        assert config2 == config
        assert meta2["fold"] == "0"
        np.testing.assert_array_equal(bank2.prototypes, result.bank.prototypes)
        np.testing.assert_array_equal(bank2.update_counts, result.bank.update_counts)
        assert bank2.class_ids == result.bank.class_ids

        episode = generate_episode(pool, split, "test", 1, 1, 20, 128, 99)
        seg_a, features_a = forward(episode, result.params, result.bank, "test")
        seg_b, features_b = forward(episode, params2, bank2, "test")
        assert (seg_a.data == seg_b.data).all()
        base_a = T.mlp_forward(features_a[-1], result.params.base_head)
        base_b = T.mlp_forward(features_b[-1], params2.base_head)
        assert (base_a.data == base_b.data).all()

    def test_artifact_byte_stable(self, tmp_path):
        pool = make_pool(31, 10, range(1, 7), blobs_per_scene=3, points_per_blob=120)
        split = make_split(range(1, 7), 0)
        result, config = self._trained(pool, split)
        a, b = tmp_path / "a.model", tmp_path / "b.model"
        meta = {"fold": 1, "classes": "1,2,3,4,5,6"}
        pio.save_model(a, result.params, result.bank, config, meta)
        pio.save_model(b, result.params, result.bank, config, meta)
        assert a.read_bytes() == b.read_bytes()

    def test_missing_record_rejected(self, tmp_path):
        rng = np.random.default_rng(0)
        params = ModelParams.create(rng, 8, 4, 1, 1, n_base=2)
        bank = BasePrototypeBank.zeros([2, 4], 8, 0.995)
        config = RunConfig(dim=8, n_prototypes=4, hca_layers=1)
        path = tmp_path / "model.txt"
        meta = {"fold": 0, "classes": "1,2,3,4"}
        text = pio.format_model(params, bank, config, meta)
        # drop one parameter record (3 lines)
        lines = text.splitlines()
        idx = lines.index("stub.w1")
        broken = "\n".join(lines[:idx] + lines[idx + 3 :]) + "\n"
        path.write_text(broken)
        with pytest.raises(ValueError, match="mismatch"):
            pio.load_model(path)

    @staticmethod
    def _artifact_lines():
        rng = np.random.default_rng(0)
        params = ModelParams.create(rng, 8, 4, 1, 1, n_base=2)
        bank = BasePrototypeBank.zeros([2, 4], 8, 0.995)
        bank.apply_update(2, np.ones(8))
        config = RunConfig(dim=8, n_prototypes=4, hca_layers=1)
        meta = {"fold": 0, "classes": "1,2,3,4"}
        return pio.format_model(params, bank, config, meta).splitlines()

    def _load_broken(self, tmp_path, lines):
        path = tmp_path / "broken.model"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_short_update_counts_rejected(self, tmp_path):
        lines = self._artifact_lines()
        idx = lines.index("update_counts=1 0")
        lines[idx] = "update_counts=1"
        path = self._load_broken(tmp_path, lines)
        with pytest.raises(ValueError, match=rf"{path}: \[bank\] update_counts needs 2"):
            pio.load_model(path)

    def test_non_finite_parameter_rejected(self, tmp_path):
        lines = self._artifact_lines()
        idx = lines.index("decoder.b2")
        lines[idx + 2] = "nan"
        path = self._load_broken(tmp_path, lines)
        with pytest.raises(ValueError, match=rf"{path}: record decoder\.b2 holds a non-finite value"):
            pio.load_model(path)

    def test_non_finite_prototype_rejected(self, tmp_path):
        lines = self._artifact_lines()
        idx = lines.index("prototypes")
        lines[idx + 2] = lines[idx + 2].replace("1", "inf", 1)
        path = self._load_broken(tmp_path, lines)
        with pytest.raises(ValueError, match=rf"{path}: record prototypes holds a non-finite value"):
            pio.load_model(path)

    def test_value_count_checked_against_shape(self, tmp_path):
        lines = self._artifact_lines()
        idx = lines.index("stub.b1")
        lines[idx + 2] = lines[idx + 2].rsplit(" ", 1)[0]  # one value short
        path = self._load_broken(tmp_path, lines)
        with pytest.raises(ValueError, match=rf"{path}: record stub\.b1: 7 values for shape \(8,\)"):
            pio.load_model(path)

    def test_prototype_shape_checked_against_class_ids(self, tmp_path):
        lines = self._artifact_lines()
        idx = lines.index("class_ids=2,4")
        lines[idx] = "class_ids=2,4,6"
        lines[idx + 2] = "update_counts=1 0 0"
        path = self._load_broken(tmp_path, lines)
        with pytest.raises(ValueError, match=rf"{path}: record prototypes has shape \(2, 8\), expected \(3, 8\)"):
            pio.load_model(path)

    def test_shared_background_fc_must_be_zero(self, tmp_path):
        lines = self._artifact_lines()
        assert lines[lines.index("[meta]") + 3] == "share_background_fc=0"  # written for format compatibility
        assert pio.load_model(self._load_broken(tmp_path, lines))[3] == {"classes": "1,2,3,4", "fold": "0"}
        for value in ("1", "true", ""):
            lines[lines.index("[meta]") + 3] = f"share_background_fc={value}"
            path = self._load_broken(tmp_path, lines)
            with pytest.raises(ValueError, match=rf"^{path}: \[meta\] share_background_fc must be 0 .*, got '{value}'$"):
                pio.load_model(path)

    def test_comments_and_blanks_in_key_value_heads_skipped(self, tmp_path):
        lines = self._artifact_lines()
        _, bank0, config0, meta0 = pio.load_model(self._load_broken(tmp_path, lines))
        for header in ("[meta]", "[bank]"):
            lines[lines.index(header) + 1:lines.index(header) + 1] = ["# a note", ""]
        _, bank, config, meta = pio.load_model(self._load_broken(tmp_path, lines))
        assert meta == meta0 and config == config0
        assert bank.class_ids == bank0.class_ids and bank.momentum == bank0.momentum
        np.testing.assert_array_equal(bank.update_counts, bank0.update_counts)

    def test_bank_momentum_out_of_range_rejected(self, tmp_path):
        lines = self._artifact_lines()
        lines[lines.index("momentum=0.995", lines.index("[bank]"))] = "momentum=1.5"
        path = self._load_broken(tmp_path, lines)
        with pytest.raises(ValueError, match=rf"^{path}: momentum must lie in \[0, 1\], got 1.5$"):
            pio.load_model(path)

    def test_dropped_header_line_rejected(self, tmp_path):
        lines = self._artifact_lines()
        idx = lines.index("stub.w1")
        del lines[idx + 1]
        path = self._load_broken(tmp_path, lines)
        with pytest.raises(ValueError, match=rf"{path}: record stub\.w1: malformed header or values"):
            pio.load_model(path)

    _LINES = _untrained_artifact_lines()

    # [config] is left alone, so no drawn size can allocate
    @pytest.mark.parametrize("section, key", [
        ("meta", "fold"), ("meta", "classes"), ("meta", "share_background_fc"),
        ("bank", "class_ids"), ("bank", "momentum"), ("bank", "update_counts"),
        ("params", None),  # one value of one record's values line
    ])
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_one_drawn_value_loads_or_names_the_path(self, tmp_path_factory, section, key, data):
        lines = list(self._LINES)
        start = lines.index(f"[{section}]")
        if key is None:
            # each record is its name, its `rank dims` line and its values line
            index = data.draw(st.sampled_from(range(start + 3, lines.index("[bank]"), 3)), label="values line")
            values = lines[index].split()
            values[data.draw(st.integers(0, len(values) - 1), label="position")] = data.draw(_ARTIFACT_VALUES)
            lines[index] = " ".join(values)
        else:
            index = next(i for i in range(start, len(lines)) if lines[i].startswith(f"{key}="))
            lines[index] = f"{key}={data.draw(_ARTIFACT_VALUES, label=key)}"
        path = tmp_path_factory.mktemp("fuzz") / "model.txt"
        path.write_bytes(("\n".join(lines) + "\n").encode("utf-8", "surrogatepass"))  # a lone surrogate becomes bytes that are not UTF-8
        try:
            pio.load_model(path)
        except ValueError as exc:
            message = str(exc)
            assert message.startswith(str(path)) and "\n" not in message, message
