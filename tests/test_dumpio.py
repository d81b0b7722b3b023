import numpy as np
import pytest

from hycone.analysis import EmbeddingIndex
from hycone.dumpio import DumpFormatError, labels_path, read_dump, write_dump


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
                             labels=(("text", "a"), ("image", "b"), ("root", "[ROOT]")),
                             root_id=2)
        path, _ = write_dump(idx, tmp_path / "s.hypb")
        loaded = read_dump(path)
        assert loaded.space == "sphere"
        assert loaded.root_id == 2

    def test_labels_path_convention(self, tmp_path):
        assert labels_path(tmp_path / "x.hypb").name == "x.labels"


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
