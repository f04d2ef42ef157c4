"""File formats: cloud round-trips, configs, model artifacts."""

import builtins
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
from pcseg.model import forward, meta_train
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

    def test_truncated_file_rejected(self, tmp_path):
        # FAULTS holds the short file's message; a row cannot see that an empty body warns
        path = tmp_path / "short.pcseg"
        path.write_text(pio.format_cloud(synth_scene(4, [(1, 10), (2, 10)])).splitlines()[0] + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an empty body must not warn on top of the error
            with pytest.raises(ValueError) as exc:
                pio.read_cloud(path)
        assert str(exc.value) == f"{path}:2: the file ends after 0 of 20 rows"

    def test_good_file_never_searched(self, tmp_path, monkeypatch):
        scene = synth_scene(5, [(1, 30), (2, 30)])
        path = tmp_path / "scene.pcseg"
        pio.write_cloud(path, scene)
        calls = []
        parse_rows = pio._parse_rows

        def spy_parse_rows(lines):
            calls.append(len(lines))
            return parse_rows(lines)

        monkeypatch.setattr(pio, "_parse_rows", spy_parse_rows)
        np.testing.assert_array_equal(pio.read_cloud(path).labels, scene.labels)
        assert calls == [len(scene)]

    @pytest.mark.parametrize("row", [
        None,
        b"0.1 0.2 0.3 0.5 0.5 0.5",
        b"0.1 0.2 0.3 0.5 0.5 0.5 -5",
        b"0.1 0.2 0.3 0.5 0.5 0.5 \xff",
    ], ids=["good", "format-fault", "point-fault", "not-utf8"])
    def test_file_read_once(self, tmp_path, monkeypatch, row):
        lines = pio.format_cloud(synth_scene(4, [(1, 10), (2, 10)])).encode().splitlines()
        if row:
            lines[4] = row
        path = tmp_path / "scene.pcseg"
        path.write_bytes(b"\n".join(lines) + b"\n")
        reads, opens = [], []
        read_lines, builtin_open = pio.read_lines, builtins.open

        def spy_read_lines(*args):
            reads.append(args)
            return read_lines(*args)

        def spy_open(file, *args, **kwargs):
            if file in (path, str(path)):
                opens.append(file)
            return builtin_open(file, *args, **kwargs)

        monkeypatch.setattr(pio, "read_lines", spy_read_lines)
        monkeypatch.setattr(builtins, "open", spy_open)
        if row:
            with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:5: "):
                pio.read_cloud(path)
        else:
            assert len(pio.read_cloud(path)) == 20
        assert (len(reads), len(opens)) == (1, 1)

    def test_point_fault_search_builds_few_clouds(self, tmp_path, monkeypatch):
        rows = 18_000
        scene = synth_scene(3, [(1, 6000), (2, 6000), (3, 6000)])
        lines = pio.format_cloud(scene.take(np.arange(rows) % len(scene))).splitlines()
        lines[-1] = lines[-1].rsplit(" ", 1)[0] + " 1.5"
        path = tmp_path / "wide.pcseg"
        path.write_text("\n".join(lines) + "\n")
        built = []
        point_cloud = pio.PointCloud

        def spy_point_cloud(*args):
            built.append(args)
            return point_cloud(*args)

        monkeypatch.setattr(pio, "PointCloud", spy_point_cloud)
        with pytest.raises(ValueError, match=rf":{rows + 1}: row '[^']*': labels must be integers$"):
            pio.read_cloud(path)
        assert len(built) <= 2 * math.ceil(math.log2(rows)) + 2

    def test_format_fault_search_parses_few_times(self, tmp_path, monkeypatch):
        rows = 18_000
        scene = synth_scene(3, [(1, 6000), (2, 6000), (3, 6000)])
        lines = pio.format_cloud(scene.take(np.arange(rows) % len(scene))).splitlines()
        lines[-1] = lines[-1].rsplit(" ", 1)[0]
        path = tmp_path / "wide.pcseg"
        path.write_text("\n".join(lines) + "\n")
        calls = []
        loadtxt = pio.np.loadtxt

        def spy_loadtxt(*args, **kwargs):
            calls.append(args)
            return loadtxt(*args, **kwargs)

        monkeypatch.setattr(pio.np, "loadtxt", spy_loadtxt)
        with pytest.raises(ValueError, match=rf":{rows + 1}: expected 7 fields, got 6$"):
            pio.read_cloud(path)
        assert len(calls) <= 2 * math.ceil(math.log2(rows)) + 4

class TestSerialization:
    def test_round_trip_exact(self):
        rng = np.random.default_rng(23)
        arrays = [
            ("a", rng.standard_normal((3, 4))),
            ("b.w1", rng.standard_normal(7) * 1e-17),
            ("c", np.array(3.5)),
        ]
        text = pio.format_records(arrays)
        back = pio.parse_records(text.splitlines(), {name: np.shape(arr) for name, arr in arrays}, "m.txt")
        assert set(back) == {"a", "b.w1", "c"}
        for name, arr in arrays:
            assert back[name].shape == np.asarray(arr).shape
            np.testing.assert_array_equal(back[name], arr)

    def test_seventeen_digits_restore_bits(self):
        rng = np.random.default_rng(24)
        values = rng.standard_normal(1000) * 10.0 ** rng.integers(-30, 30, size=1000)
        back = pio.parse_records(pio.format_records([("x", values)]).splitlines(), {"x": (1000,)}, "m.txt")["x"]
        assert (back == values).all()

    def test_repeated_record_rejected(self):
        text = pio.format_records([("a", np.zeros(2)), ("a", np.zeros(2))])
        with pytest.raises(PlacedError, match=r"^m.txt:13: record a appears twice$"):
            pio.parse_records(text.splitlines(), {"a": (2,)}, "m.txt", first_line=10)


class TestRunConfig:
    def test_text_round_trip(self):
        config = RunConfig(seed=9, dim=16, lr=0.0005, momentum=0.99)
        back = RunConfig.from_lines(config.to_text().splitlines(), "t.cfg")
        assert back == config

    @pytest.mark.parametrize("inside", ["\x0c", "\x0b", "\x1c", "\x85", "\u2028"])
    @pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"])
    def test_only_newlines_end_a_line(self, tmp_path, inside, eol):
        # as in cloud files, only \n, \r\n and \r end a line; other separators that
        # str.splitlines breaks at are whitespace inside one
        path = tmp_path / "bad.cfg"
        head = f"seed=0{inside}{eol}dim=8{eol}".encode("utf-8")
        path.write_bytes(head + b"bogus=1" + eol.encode())
        with pytest.raises(ValueError) as exc:
            RunConfig.from_file(path)
        assert str(exc.value) == f"{path}:3: unknown config key 'bogus'"
        path.write_bytes(head + b"\xff" + eol.encode())
        with pytest.raises(ValueError) as exc:
            RunConfig.from_file(path)
        assert str(exc.value) == f"{path}:3: byte 0xff is not UTF-8 (invalid start byte)"

    def test_frozen_after_validation(self):
        config = RunConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.seed = 2**63
        assert config.seed == 0 and not hasattr(RunConfig, "validate")

    @pytest.mark.parametrize("key", [f.name for f in dataclasses.fields(RunConfig) if f.type == "int"])
    def test_int_field_beyond_int64_rejected(self, key):
        with pytest.raises(ValueError, match=rf"^config field {key} must be .*, got {2**63}$"):
            RunConfig(**{key: 2**63})

    @pytest.mark.parametrize("momentum", [0.0, 1.0])
    def test_momentum_endpoints_accepted(self, momentum):
        assert RunConfig(momentum=momentum).momentum == momentum


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
        back = parse_pairs(text.splitlines(), "test", {key for key, _ in pairs}, "f.txt", 5)
        assert list(back) == [key for key, _ in pairs]
        assert [at for at, _ in back.values()] == [f"f.txt:{5 + i}" for i in range(len(pairs))]
        for (key, value), (_, raw) in zip(pairs, back.values()):
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
            parse_pairs(text.splitlines(), "test", {"a", "b"}, "f.txt", 2)
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
@settings(max_examples=50)
@given(value=_CONFIG_VALUES)
def test_one_drawn_config_value_parses_to_int64_or_names_its_place(field, value):
    lines = RunConfig().to_text().splitlines()
    index = next(i for i, line in enumerate(lines) if line.startswith(f"{field}="))
    lines[index] = f"{field}={value}"
    try:
        config = RunConfig.from_lines(lines, "fuzz.cfg")
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
@settings(max_examples=50)
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


# a row that breaks one of the format's rules, or one of a point's, and the message that names it
_FORMAT_FAULTS = [
    ("0.1 0.2 0.3 0.5 0.5 0.5", "expected 7 fields, got 6"),
    ("0.1 0.2 0.3 0.5 0.5 0.5 one", "cannot read '0.1 0.2 0.3 0.5 0.5 0.5 one' as 7 numbers"),
]
_POINT_FAULTS = [
    ("nan 0.2 0.3 0.5 0.5 0.5 1", "row 'nan 0.2 0.3 0.5 0.5 0.5 1': positions must be finite"),
    ("0.1 0.2 0.3 0.5 0.5 2 1", "row '0.1 0.2 0.3 0.5 0.5 2 1': colors must lie in [0, 1]"),
    ("0.1 0.2 0.3 0.5 0.5 0.5 1.5", "row '0.1 0.2 0.3 0.5 0.5 0.5 1.5': labels must be integers"),
]


@settings(max_examples=50)
@given(data=st.data())
def test_bad_cloud_row_named_at_the_line_an_editor_shows(tmp_path_factory, data):
    # every line ends in \n, \r\n or \r, as an editor counts them, with blank
    # and comment lines among the rows, one row that breaks the format and one
    # that breaks a point's rules; the earlier of the two is named
    lines = list(_CLOUD_LINES)
    faults = [data.draw(st.sampled_from(_FORMAT_FAULTS), label="format fault"),
              data.draw(st.sampled_from(_POINT_FAULTS), label="point fault")]
    at = data.draw(st.lists(st.integers(1, len(lines) - 1), min_size=2, max_size=2, unique=True), label="rows")
    for (row, _), index in zip(faults, at):
        lines[index] = row
    for _ in range(data.draw(st.integers(0, 6), label="inserted")):
        filler = data.draw(st.sampled_from(["", "  ", "\t", "# a note", " # 1 2 3"]), label="filler")
        lines.insert(data.draw(st.integers(1, len(lines)), label="at"), filler)
    ends = data.draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines), max_size=len(lines)),
                     label="ends")
    for i in range(1, len(lines)):
        if ends[i - 1] == "\r" and not lines[i]:
            ends[i - 1] = "\n"  # a CR before an empty line's LF would read as one CRLF
    path = tmp_path_factory.mktemp("ends") / "cloud.pcseg"
    path.write_bytes("".join(line + end for line, end in zip(lines, ends)).encode())
    with pytest.raises(ValueError) as exc:
        pio.read_cloud(path)
    row, what = min(faults, key=lambda fault: lines.index(fault[0]))
    assert str(exc.value) == f"{path}:{lines.index(row) + 1}: {what}"


def _untrained_artifact_lines() -> list[str]:
    """A tiny artifact trained for 0 episodes (its initialization)."""
    config = RunConfig(seed=2, dim=8, n_prototypes=4, hca_layers=1, heads=1, episodes=0)
    result = meta_train([], make_split(range(1, 7), 0), config)
    meta = {"fold": 0, "classes": "1,2,3,4,5,6"}
    return pio.format_model(result.params, result.bank, config, meta).splitlines()


class TestModelArtifact:
    @pytest.fixture(scope="class")
    def trained(self):
        """(pool, split, result, config) of a 3-episode run, trained once."""
        pool = make_pool(31, 10, range(1, 7), blobs_per_scene=3, points_per_blob=120)
        split = make_split(range(1, 7), 0)
        config = RunConfig(
            seed=2, dim=8, n_prototypes=4, hca_layers=1, heads=1,
            max_points=128, min_fg_points=20, episodes=3,
        )
        return pool, split, meta_train(pool, split, config), config

    def test_round_trip_bit_exact_forward(self, trained, tmp_path):
        pool, split, result, config = trained
        path = tmp_path / "model.pcseg-model"
        meta = {"fold": 0, "classes": ",".join(str(c) for c in range(1, 7))}
        pio.save_model(path, result.params, result.bank, config, meta)
        params2, bank2, config2, meta2 = pio.load_model(path)

        assert config2 == config
        assert meta2["fold"] == "0"
        np.testing.assert_array_equal(bank2.prototypes, result.bank.prototypes)
        np.testing.assert_array_equal(bank2.update_counts, result.bank.update_counts)
        assert bank2.class_ids == result.bank.class_ids

        episode = generate_episode(pool, split.test_classes, 1, 1, 20, 128, 99)
        seg_a, features_a = forward(episode, result.params, result.bank, ())
        seg_b, features_b = forward(episode, params2, bank2, ())
        assert (seg_a.data == seg_b.data).all()
        base_a = T.mlp_forward(features_a[-1], result.params.base_head)
        base_b = T.mlp_forward(features_b[-1], params2.base_head)
        assert (base_a.data == base_b.data).all()

    _LINES = _untrained_artifact_lines()

    def test_comments_and_blanks_in_key_value_heads_skipped(self, tmp_path):
        path, lines = tmp_path / "model.txt", list(self._LINES)
        path.write_text("\n".join(lines) + "\n")
        _, bank0, config0, meta0 = pio.load_model(path)
        for header in ("[meta]", "[bank]"):
            lines[lines.index(header) + 1:lines.index(header) + 1] = ["# a note", ""]
        path.write_text("\n".join(lines) + "\n")
        _, bank, config, meta = pio.load_model(path)
        assert meta == meta0 and config == config0
        assert bank.class_ids == bank0.class_ids
        np.testing.assert_array_equal(bank.update_counts, bank0.update_counts)

    # [config] is left alone, so no drawn size can allocate
    @pytest.mark.parametrize("section, key", [
        ("meta", "fold"), ("meta", "classes"), ("meta", "share_background_fc"),
        ("bank", "class_ids"), ("bank", "momentum"), ("bank", "update_counts"),
        ("params", None),  # one value of one record's values line
    ])
    @settings(max_examples=50)
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

