import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hycone import dumpio
from hycone.analysis import LABEL_CLASSES, EmbeddingIndex
from hycone.dumpio import DumpFormatError, atomic_write, labels_path, read_dump, write_dump


def lorentz_index(vectors, labels, c=1.0):
    return EmbeddingIndex(space="lorentz", curvature=c,
                          vectors=np.asarray(vectors, dtype=np.float64),
                          labels=tuple(labels))


class TestRoundtrip:
    def test_empty_index(self, tmp_path):
        idx = lorentz_index(np.zeros((0, 3)), [])
        path, lpath = write_dump(idx, tmp_path / "e.hypb")
        loaded = read_dump(path)
        assert loaded.count == 0 and loaded.dim == 3
        assert loaded.space == "lorentz" and loaded.curvature == 1.0

    def test_three_rows_bitwise(self, tmp_path):
        rng = np.random.default_rng(0)
        vecs = rng.standard_normal((3, 4))
        idx = lorentz_index(vecs, [("text", "a"), ("image", "b/h0"), ("text", "c")], c=2.5)
        path, lpath = write_dump(idx, tmp_path / "d.hypb")
        loaded = read_dump(path)
        # storage is f32; the loaded f64 values are exactly the f32 casts
        np.testing.assert_array_equal(loaded.vectors, vecs.astype(np.float32).astype(np.float64))
        assert loaded.labels == idx.labels
        assert loaded.curvature == 2.5
        # write(read(file)) reproduces the file byte for byte
        path2, lpath2 = write_dump(loaded, tmp_path / "d2.hypb")
        assert path2.read_bytes() == path.read_bytes()
        assert lpath2.read_bytes() == lpath.read_bytes()

    def test_sphere_roundtrip_and_root_id(self, tmp_path):
        vecs = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        idx = EmbeddingIndex(space="sphere", curvature=None, vectors=vecs,
                             labels=(("text", "a"), ("image", "b"), ("root", "[ROOT]")))
        path, _ = write_dump(idx, tmp_path / "s.hypb")
        loaded = read_dump(path)
        assert loaded.space == "sphere"
        assert loaded.root_id == 2

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("value", [1e39, -3.5e38])
    def test_row_beyond_float32_is_refused_before_writing(self, tmp_path, value):
        vecs = np.zeros((4, 3))
        vecs[2, 1] = value
        idx = lorentz_index(vecs, [("text", f"t{i}") for i in range(4)])
        with pytest.raises(ValueError, match="row 2 does not fit"):
            write_dump(idx, tmp_path / "big.hypb")
        assert list(tmp_path.iterdir()) == []

    def test_labels_path_convention(self, tmp_path):
        assert labels_path(tmp_path / "x.hypb").name == "x.labels"


class TestBlockedWrite:
    """`write_dump` converts and writes WRITE_BLOCK rows at a time."""

    @pytest.mark.parametrize("block", [1, 3, 7])
    @pytest.mark.parametrize("count", [0, 1, 2, 6, 7, 8, 13, 14, 15, 21])
    def test_bytes_equal_the_whole_array_write(self, tmp_path, monkeypatch, block, count):
        rng = np.random.default_rng(count)
        vecs = rng.standard_normal((count, 5)) * 10.0 ** rng.integers(-40, 38, (count, 5))
        idx = lorentz_index(vecs, [("image", f"i{i}") for i in range(count)], c=0.5)
        monkeypatch.setattr(dumpio, "WRITE_BLOCK", block)
        path, lpath = write_dump(idx, tmp_path / "d.hypb")
        header = dumpio._HEADER.pack(b"HYPB", 1, 0, 5, count, 0.5)
        assert path.read_bytes() == header + vecs.astype("<f4").tobytes()
        assert lpath.read_bytes() == "".join(f"image\ti{i}\n" for i in range(count)).encode()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("block", [1, 3, 7])
    def test_row_beyond_float32_in_a_late_block(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(dumpio, "WRITE_BLOCK", block)
        vecs = np.zeros((20, 3))
        vecs[17, 2] = -1e39
        big = lorentz_index(vecs, [("text", f"t{i}") for i in range(20)])
        with pytest.raises(ValueError, match="^row 17 does not fit"):
            write_dump(big, tmp_path / "new.hypb")
        assert list(tmp_path.iterdir()) == []
        # An existing pair at the path keeps its bytes.
        path, lpath = write_dump(lorentz_index(np.ones((2, 2)), [("text", "a")] * 2),
                                 tmp_path / "old.hypb")
        before = path.read_bytes(), lpath.read_bytes()
        with pytest.raises(ValueError, match="^row 17 does not fit"):
            write_dump(big, path)
        assert (path.read_bytes(), lpath.read_bytes()) == before
        assert sorted(tmp_path.iterdir()) == [path, lpath]


class TestFormatErrors:
    def write_sample(self, tmp_path):
        idx = lorentz_index(np.ones((2, 2)), [("text", "a"), ("text", "b")])
        return write_dump(idx, tmp_path / "d.hypb")

    def test_bad_magic_offset_zero(self, tmp_path):
        path, _ = self.write_sample(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(DumpFormatError, match="bad magic at offset 0"):
            read_dump(path)

    def test_bad_version(self, tmp_path):
        path, _ = self.write_sample(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[4] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(DumpFormatError, match="version 99 at offset 4"):
            read_dump(path)

    def test_truncated_payload(self, tmp_path):
        path, _ = self.write_sample(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-3])
        with pytest.raises(DumpFormatError, match="payload length mismatch"):
            read_dump(path)

    def test_truncated_header(self, tmp_path):
        path, _ = self.write_sample(tmp_path)
        path.write_bytes(path.read_bytes()[:10])
        with pytest.raises(DumpFormatError, match="truncated header"):
            read_dump(path)

    def test_label_count_mismatch(self, tmp_path):
        path, lpath = self.write_sample(tmp_path)
        lpath.write_text("text\ta\n", encoding="utf-8")
        with pytest.raises(DumpFormatError, match="label count mismatch"):
            read_dump(path)

    def test_bad_label_class(self, tmp_path):
        path, lpath = self.write_sample(tmp_path)
        lpath.write_text("text\ta\ncaption\tb\n", encoding="utf-8")
        with pytest.raises(DumpFormatError, match="bad label line 1"):
            read_dump(path)

    def test_missing_sidecar(self, tmp_path):
        path, lpath = self.write_sample(tmp_path)
        lpath.unlink()
        with pytest.raises(DumpFormatError, match="missing label sidecar"):
            read_dump(path)

    def test_sphere_norm_validated_on_load(self, tmp_path):
        idx = lorentz_index(2 * np.ones((1, 2)), [("text", "a")])
        path, _ = write_dump(idx, tmp_path / "d.hypb")
        raw = bytearray(path.read_bytes())
        raw[8] = 1       # flip the space byte to sphere
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="norm"):
            read_dump(path)


class TestLabelSidecar:
    def test_tabs_and_rare_separators_roundtrip(self, tmp_path):
        texts = ["a\tb", "\t", "", "x\x1cy", "line\u2028sep\u2029", "nel\x85", "vt\x0bff\x0c", "tail\t"]
        idx = lorentz_index(np.zeros((len(texts), 2)), [("text", t) for t in texts])
        path, _ = write_dump(idx, tmp_path / "d.hypb")
        assert read_dump(path).labels == idx.labels

    @pytest.mark.parametrize("bad", ["a\nb", "a\rb", "end\r", "\n"])
    def test_line_breaks_rejected_at_write(self, tmp_path, bad):
        idx = lorentz_index(np.zeros((3, 2)), [("text", "ok"), ("image", "fine"), ("text", bad)])
        with pytest.raises(ValueError, match="row 2"):
            write_dump(idx, tmp_path / "d.hypb")
        assert list(tmp_path.iterdir()) == []    # nothing half-written

    def test_crlf_sidecar_reads_like_lf(self, tmp_path):
        path, lpath = write_dump(
            lorentz_index(np.zeros((2, 2)), [("text", "a"), ("image", "b")]), tmp_path / "d.hypb"
        )
        lpath.write_bytes(b"text\ta\r\nimage\tb\r\n")
        assert read_dump(path).labels == (("text", "a"), ("image", "b"))

    def test_line_without_tab_rejected(self, tmp_path):
        path, lpath = write_dump(
            lorentz_index(np.zeros((2, 2)), [("text", "a"), ("text", "b")]), tmp_path / "d.hypb"
        )
        lpath.write_text("text\ta\ntext\n", encoding="utf-8")
        with pytest.raises(DumpFormatError, match="bad label line 1: 'text'"):
            read_dump(path)


def seed_labels(lpath):
    """The sidecar parsed line by line, as the reader did before it was batched."""
    labels = []
    for line in lpath.read_text(encoding="utf-8").splitlines():
        cls, _, text = line.partition("\t")
        labels.append((cls, text))
    return tuple(labels)


class TestTrainedDump:
    def test_read_with_root_rows_of_class(self, tmp_path):
        from hycone.analysis import with_root
        from hycone.trainer import TrainConfig, train

        chk = train(TrainConfig(steps=20, warmup=2, batch_size=16, seed=3, held_out_per_leaf=3))
        path, lpath = write_dump(chk.index, tmp_path / "t.hypb")
        loaded = read_dump(path)
        labels = seed_labels(lpath)
        assert loaded.labels == labels == chk.index.labels
        assert loaded.root_id is None
        rooted = with_root(loaded)
        assert rooted.labels == labels + (("root", "[ROOT]"),)
        assert rooted.root_id == len(labels)
        for cls in ("text", "image", "root"):
            want = [i for i, (c, _) in enumerate(rooted.labels) if c == cls]
            assert rooted.rows_of_class(cls).tolist() == want
        np.testing.assert_array_equal(rooted.vectors[:-1], loaded.vectors)


class TestAtomicWrite:
    def test_mode_is_that_of_a_plain_write(self, tmp_path):
        plain = tmp_path / "plain"
        plain.write_bytes(b"")
        atomic_write(tmp_path / "atomic", [b"x"])
        assert (tmp_path / "atomic").stat().st_mode == plain.stat().st_mode
        assert sorted(p.name for p in tmp_path.iterdir()) == ["atomic", "plain"]

    def test_chunks_are_written_in_order(self, tmp_path):
        atomic_write(tmp_path / "a", [b"ab", bytearray(b"c"), np.arange(2, dtype="<u2"), b""])
        assert (tmp_path / "a").read_bytes() == b"abc\x00\x00\x01\x00"

    def test_a_failing_chunk_leaves_the_old_file(self, tmp_path):
        (tmp_path / "a").write_bytes(b"old")

        def chunks():
            yield b"new"
            raise ValueError("chunk failed")

        with pytest.raises(ValueError, match="chunk failed"):
            atomic_write(tmp_path / "a", chunks())
        assert [p.name for p in tmp_path.iterdir()] == ["a"]
        assert (tmp_path / "a").read_bytes() == b"old"


# -- the v1 reader against the text-mode parse it replaced -------------------

ORACLE = settings(max_examples=300, deadline=None, derandomize=True, database=None)
OLD_PREFIXES = tuple(f"{cls}\t" for cls in LABEL_CLASSES)


def text_mode_labels(lpath, count):
    """The sidecar read as the reader did before it held bytes: read_text,
    split on "\n", one startswith per line.  Returns (pairs, codes)."""
    lines = lpath.read_text(encoding="utf-8").split("\n")
    if lines[-1] == "":
        lines.pop()
    if len(lines) != count:
        raise DumpFormatError(f"label count mismatch: dump has {count} rows, sidecar has {len(lines)}")
    for row, line in enumerate(lines):
        if not line.startswith(OLD_PREFIXES):
            raise DumpFormatError(f"bad label line {row}: {line!r}")
    pairs = [(cls, text) for cls, _, text in (line.partition("\t") for line in lines)]
    return pairs, [LABEL_CLASSES.index(cls) for cls, _ in pairs]


SIDECAR_PIECES = st.one_of(
    st.sampled_from([
        b"text\t", b"image\t", b"root\t", b"text", b"texts\t", b"imag\t", b"Root\t", b"t", b"i\t",
        b"\n", b"\r\n", b"\r", b"\t", b"\xef\xbb\xbf", b"\xc2\x85", b"\xe2\x80\xa8", b"\xe2\x80\xa9",
        b"\xff", b"\xc3", b"\xed\xa0\x80", b"\xf0\x9f\x8c\xb3", "é/ü".encode(),
    ]),
    st.text(max_size=6).map(str.encode),
    st.binary(max_size=3),
    # a class prefix with one byte replaced
    st.builds(lambda prefix, at, byte: prefix[:at % len(prefix)] + byte + prefix[at % len(prefix) + 1:],
              st.sampled_from([b"text\t", b"image\t", b"root\t"]), st.integers(0, 5),
              st.binary(min_size=1, max_size=1)),
)


@st.composite
def sidecars(draw):
    """Sidecar bytes: mostly well-formed lines, with damage mixed in."""
    good = st.builds(lambda cls, text: cls + text.encode(),
                     st.sampled_from([b"text\t", b"image\t", b"root\t"]),
                     st.text(st.characters(exclude_characters="\n\r"), max_size=8))
    damaged = st.lists(SIDECAR_PIECES, max_size=4).map(b"".join)
    lines = [draw(damaged if draw(st.integers(0, 4)) == 0 else good)
             for _ in range(draw(st.integers(0, 8)))]
    ends = draw(st.lists(st.sampled_from([b"\n", b"\n", b"\r\n", b"\r"]), min_size=len(lines),
                         max_size=len(lines)))
    data = b"".join(line + end for line, end in zip(lines, ends))
    return data[:-1] if data and draw(st.booleans()) else data     # maybe no final line end


def outcome(fn):
    try:
        return "ok", fn()
    except ValueError as exc:       # DumpFormatError and UnicodeDecodeError
        return type(exc), str(exc)


class TestReaderOracle:
    @ORACLE
    @given(data=sidecars(), delta=st.sampled_from([0, 0, 0, 0, -1, 1]))
    def test_bytes_reader_matches_text_mode(self, data, delta):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "d.hypb"
            lines = data.decode("utf-8", "replace").replace("\r\n", "\n").replace("\r", "\n").split("\n")
            count = max(len(lines) - (lines[-1] == "") + delta, 0)
            write_dump(lorentz_index(np.zeros((count, 2)), [("text", "x")] * count), path)
            lpath = labels_path(path)
            lpath.write_bytes(data)

            want = outcome(lambda: text_mode_labels(lpath, count))
            got = outcome(lambda: read_dump(path))
            assert got[0] is want[0]
            if want[0] != "ok":
                assert got[1] == want[1]
                return
            index, (pairs, codes) = got[1], want[1]
            assert list(index.labels) == pairs
            assert index.classes.tolist() == codes
            if b"\r" not in data and data.endswith(b"\n") or not data:
                # write(read(p)) reproduces an LF sidecar byte for byte
                write_dump(index, Path(tmp) / "again.hypb")
                assert (Path(tmp) / "again.labels").read_bytes() == data

    @pytest.mark.parametrize("data, want", [
        (b"", []),
        (b"text\ta\r\nimage\tb\rroot\t", [("text", "a"), ("image", "b"), ("root", "")]),
        (b"\xef\xbb\xbftext\ta\n", "bad label line 0: '\\ufefftext\\ta'"),
        ("text\ta\x85b\u2028\n".encode(), [("text", "a\x85b\u2028")]),
        (b"text\t\xff\n", "'utf-8' codec can't decode byte 0xff in position 5: invalid start byte"),
    ])
    def test_named_cases(self, tmp_path, data, want):
        count = len(want) if isinstance(want, list) else 1
        path, lpath = write_dump(lorentz_index(np.zeros((count, 2)), [("text", "x")] * count),
                                 tmp_path / "d.hypb")
        lpath.write_bytes(data)
        assert outcome(lambda: text_mode_labels(lpath, count))[0] == outcome(lambda: read_dump(path))[0]
        if isinstance(want, list):
            assert list(read_dump(path).labels) == want
        else:
            with pytest.raises(ValueError) as info:
                read_dump(path)
            assert str(info.value) == want


    @pytest.mark.parametrize("prefix", [f"{cls}\t" for cls in LABEL_CLASSES])
    def test_each_prefix_byte_is_checked(self, tmp_path, prefix):
        path, lpath = write_dump(lorentz_index(np.zeros((2, 2)), [("text", "x")] * 2), tmp_path / "d.hypb")
        for at in range(len(prefix)):
            line = prefix[:at] + "X" + prefix[at + 1:] + "a"
            lpath.write_text(f"root\tr\n{line}\n", encoding="utf-8")
            with pytest.raises(DumpFormatError) as info:
                read_dump(path)
            assert str(info.value) == f"bad label line 1: {line!r}"


class TestLfRoundtrip:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(pairs=st.lists(st.tuples(st.sampled_from(LABEL_CLASSES),
                                    st.text().filter(lambda t: "\n" not in t and "\r" not in t)),
                          max_size=12))
    def test_write_read_write_is_byte_identical(self, pairs):
        with tempfile.TemporaryDirectory() as tmp:
            path, lpath = write_dump(lorentz_index(np.zeros((len(pairs), 3)), pairs), Path(tmp) / "a.hypb")
            assert lpath.read_bytes() == "".join(f"{c}\t{t}\n" for c, t in pairs).encode()
            loaded = read_dump(path)
            assert list(loaded.labels) == pairs
            _, lpath2 = write_dump(loaded, Path(tmp) / "b.hypb")
            assert lpath2.read_bytes() == lpath.read_bytes()
