import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from fieldsac import artifacts
from fieldsac.errors import ConfigError

KEYS = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789._", min_size=1, max_size=12)
WORDS = st.text(alphabet="abcXYZ019 .:-+=/", max_size=20).map(str.strip)
VALUES = st.one_of(st.integers(-(2**63), 2**63), st.floats(allow_nan=False), WORDS)


def _write_parts(path, parts):
    artifacts.write_blob(str(path), parts)
    return [np.empty_like(p) for p in parts]


class TestManifest:
    @settings(max_examples=100, deadline=None)
    @given(st.dictionaries(KEYS, VALUES, max_size=10))
    def test_round_trip(self, tmp_path_factory, pairs):
        path = str(tmp_path_factory.mktemp("manifest") / "m.txt")
        artifacts.write_manifest(path, pairs)
        man = artifacts.Manifest(path, "thing")
        assert list(man.pairs) == list(pairs)
        for key, value in pairs.items():
            got = man.get(key, type(value))
            assert type(got) is type(value) and got == value

    def test_missing_file_names_the_artifact_and_directory(self, tmp_path):
        path = str(tmp_path / "meta.txt")
        with pytest.raises(ConfigError, match=f"no checkpoint at {tmp_path} \\(expected {path}\\)"):
            artifacts.Manifest(path, "checkpoint")

    def test_missing_and_malformed_keys_name_file_and_key(self, tmp_path):
        path = str(tmp_path / "m.txt")
        artifacts.write_manifest(path, {"size": "zz", "rate": "0x1.8p+1"})
        man = artifacts.Manifest(path, "thing")
        with pytest.raises(ConfigError, match=f"{path} has no 'count'"):
            man.get("count", int)
        with pytest.raises(ConfigError, match=f"{path}: 'size' has a malformed value 'zz'"):
            man.get("size", int)
        assert man.get("rate", float.fromhex) == 3.0

    def test_malformed_line_names_file_and_line(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("a = 1\n# comment\njust words\n")
        with pytest.raises(ConfigError, match=f"{path} line 3 is not 'key = value'"):
            artifacts.Manifest(str(path), "thing")

    def test_comments_blank_lines_and_equals_in_values(self):
        text = "\n# header\na = 1  # trailing\n  b=x=y \n\n"
        assert artifacts.parse_pairs(text, "t") == {"a": "1", "b": "x=y"}


SPECIALS = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -1.7976931348623157e308])


class TestBlob:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(hnp.arrays(np.float64, st.integers(0, 9), elements=st.floats(width=64)), max_size=5))
    def test_round_trip_bit_exact(self, tmp_path_factory, parts):
        parts = [SPECIALS, np.empty(0), *parts, np.empty(0)]
        path = tmp_path_factory.mktemp("blob") / "b.bin"
        back = _write_parts(path, parts)
        assert path.read_bytes() == b"".join(p.astype("<f8").tobytes() for p in parts)
        artifacts.read_blob(str(path), back)
        for want, got in zip(parts, back):
            assert got.tobytes() == want.tobytes()

    def test_reads_into_views_in_place(self, tmp_path):
        parts = [np.arange(12.0).reshape(3, 4), np.array([-0.0, np.nan])]
        artifacts.write_blob(str(tmp_path / "b.bin"), parts)
        buf = np.zeros(14)
        artifacts.read_blob(str(tmp_path / "b.bin"), [buf[:12].reshape(3, 4), buf[12:]])
        assert buf.tobytes() == b"".join(p.tobytes() for p in parts)

    @pytest.mark.parametrize("cut", [8, 3])
    def test_short_blob_rejected(self, tmp_path, cut):
        path = tmp_path / "b.bin"
        back = _write_parts(path, [np.arange(5.0), np.arange(2.0)])
        path.write_bytes(path.read_bytes()[:-cut])
        with pytest.raises(ConfigError, match="shorter than its manifest promises"):
            artifacts.read_blob(str(path), back)

    @pytest.mark.parametrize("extra", [8, 1])
    def test_long_blob_rejected(self, tmp_path, extra):
        path = tmp_path / "b.bin"
        back = _write_parts(path, [np.arange(5.0)])
        path.write_bytes(path.read_bytes() + b"\0" * extra)
        with pytest.raises(ConfigError, match=f"{extra} bytes past what its manifest promises"):
            artifacts.read_blob(str(path), back)

    def test_big_endian_host_swaps_after_reading(self, tmp_path, monkeypatch):
        parts = [np.array([1.5, -2.25, np.inf])]
        back = _write_parts(tmp_path / "b.bin", parts)
        monkeypatch.setattr(sys, "byteorder", "big")
        artifacts.read_blob(str(tmp_path / "b.bin"), back)
        assert back[0].tobytes() == parts[0].byteswap().tobytes()


def _build(directory, files):
    with artifacts.replacing_dir(str(directory)) as tmp:
        for name, text in files.items():
            with open(os.path.join(tmp, name), "w") as f:
                f.write(text)


class TestReplacingDir:
    def test_creates_then_replaces_the_whole_directory(self, tmp_path):
        target = tmp_path / "a" / "art"
        _build(target, {"x": "1", "y": "2"})
        assert sorted(os.listdir(target)) == ["x", "y"]
        _build(target, {"x": "3"})
        assert os.listdir(target) == ["x"] and (target / "x").read_text() == "3"
        assert os.listdir(tmp_path / "a") == ["art"]

    def test_error_in_the_block_keeps_the_old_directory(self, tmp_path):
        target = tmp_path / "art"
        _build(target, {"x": "1"})
        with pytest.raises(RuntimeError, match="half written"):
            with artifacts.replacing_dir(str(target)) as tmp:
                with open(os.path.join(tmp, "x"), "w") as f:
                    f.write("2")
                raise RuntimeError("half written")
        assert (target / "x").read_text() == "1"
        assert os.listdir(tmp_path) == ["art"]

    def test_failed_move_in_puts_the_old_directory_back(self, tmp_path, monkeypatch):
        target = tmp_path / "art"
        _build(target, {"x": "1"})
        real = os.rename

        def no_move_in(src, dst):
            if src.endswith(".tmp"):
                raise OSError("synthetic rename failure")
            real(src, dst)

        monkeypatch.setattr(os, "rename", no_move_in)
        with pytest.raises(OSError, match="synthetic rename failure"):
            _build(target, {"x": "2"})
        monkeypatch.undo()
        assert (target / "x").read_text() == "1"
        assert os.listdir(tmp_path) == ["art"]

    def test_clears_a_stale_build_directory(self, tmp_path):
        target = tmp_path / "art"
        (tmp_path / "art.tmp").mkdir()
        (tmp_path / "art.tmp" / "junk").write_text("left by a killed run")
        _build(target, {"x": "1"})
        assert os.listdir(target) == ["x"]
        assert os.listdir(tmp_path) == ["art"]
