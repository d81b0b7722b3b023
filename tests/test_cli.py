import json
import struct

import numpy as np
import pytest

from hycone import analysis, geometry, trainer
from hycone.analysis import EmbeddingIndex
from hycone.cli import main
from hycone.dumpio import read_dump, write_dump
from hycone.losses import LossParams

TINY = [
    "--steps", "30", "--warmup", "3", "--batch-size", "8",
    "--depth", "2", "--branching", "3", "--latent-dim", "8",
    "--embed-dim", "8", "--held-out-per-leaf", "2",
]


def run_train(tmp_path, name, extra=(), capsys=None):
    out = tmp_path / name
    code = main(["train", *TINY, "--seed", "9", *extra, "--out", str(out)])
    assert code == 0
    if capsys is not None:
        capsys.readouterr()   # drop the train command's output
    return out


class TestTrainCommand:
    def test_identical_seeds_identical_artifacts(self, tmp_path, capsys):
        a = run_train(tmp_path, "a")
        b = run_train(tmp_path, "b")
        for name in ("checkpoint.bin", "curve.csv", "embeddings.hypb", "embeddings.labels"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_ablation_flags_accepted(self, tmp_path):
        run_train(tmp_path, "c", extra=["--no-entailment", "--fixed-curvature"])
        curve = (tmp_path / "c" / "curve.csv").read_text().splitlines()
        ent_col = [float(line.split(",")[2]) for line in curve[1:]]
        assert all(v == 0.0 for v in ent_col)

    def test_divergence_exit_code(self, tmp_path, capsys):
        code = main(["train", *TINY, "--peak-lr", "1e305", "--out", str(tmp_path / "d")])
        assert code == 2
        assert "numerical failure" in capsys.readouterr().err

    def test_validation_exit_code(self, tmp_path, capsys):
        code = main(["train", *TINY, "--warmup", "999", "--out", str(tmp_path / "e")])
        assert code == 1


class TestembedCommand:
    def test_embed_matches_train_dump(self, tmp_path):
        out = run_train(tmp_path, "a")
        code = main(["embed", "--checkpoint", str(out / "checkpoint.bin"),
                     "--out", str(tmp_path / "re.hypb")])
        assert code == 0
        assert (tmp_path / "re.hypb").read_bytes() == (out / "embeddings.hypb").read_bytes()


class TestStatsCommand:
    def test_single_origin_row(self, tmp_path, capsys):
        idx = EmbeddingIndex(space="lorentz", curvature=1.0,
                             vectors=np.zeros((1, 3)), labels=(("text", "origin"),))
        write_dump(idx, tmp_path / "o.hypb")
        assert main(["stats", "--dump", str(tmp_path / "o.hypb")]) == 0
        out = capsys.readouterr().out
        assert "text,1,0,0,0,0,0,0,0" in out      # count 1, all-zero proxies
        assert "text,0,0,1" in out                # one zero bin

    def test_files_written(self, tmp_path):
        out = run_train(tmp_path, "a")
        code = main(["stats", "--dump", str(out / "embeddings.hypb"),
                     "--out-summary", str(tmp_path / "s.csv"),
                     "--out-hist", str(tmp_path / "h.csv")])
        assert code == 0
        assert (tmp_path / "s.csv").read_text().startswith("class,count,mean")
        assert (tmp_path / "h.csv").read_text().startswith("class,bin_lo")

    def test_missing_dump_is_validation_error(self, tmp_path, capsys):
        assert main(["stats", "--dump", str(tmp_path / "nope.hypb")]) == 1


class TestTraverseCommand:
    def test_table_shape_and_terminal_root(self, tmp_path, capsys):
        out = run_train(tmp_path, "a", capsys=capsys)
        code = main(["traverse", "--dump", str(out / "embeddings.hypb"),
                     "--row", "10", "--steps", "12"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "kind,step,label"
        steps = [l for l in lines if l.startswith("step,")]
        uniques = [l for l in lines if l.startswith("unique,")]
        assert len(steps) == 12
        assert steps[-1].endswith("[ROOT]")
        assert uniques[-1].endswith("[ROOT]")

    def test_vector_query(self, tmp_path, capsys):
        out = run_train(tmp_path, "a", capsys=capsys)
        idx = read_dump(out / "embeddings.hypb")
        vec = ",".join(str(v) for v in idx.vectors[5])
        # = form keeps argparse from reading a leading minus as a flag
        assert main(["traverse", "--dump", str(out / "embeddings.hypb"),
                     "--vector=" + vec, "--steps", "5"]) == 0

    def test_query_required(self, tmp_path, capsys):
        out = run_train(tmp_path, "a")
        assert main(["traverse", "--dump", str(out / "embeddings.hypb")]) == 1


class TestRetrieveCommand:
    def test_topk_json(self, tmp_path, capsys):
        out = run_train(tmp_path, "a", capsys=capsys)
        code = main(["retrieve", "--dump", str(out / "embeddings.hypb"),
                     "--row", "0", "--k", "4"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["results"]) == 4
        assert payload["results"][0]["row"] == 0   # self-retrieval first

    def test_calibrated_scores(self, tmp_path, capsys):
        out = run_train(tmp_path, "a", capsys=capsys)
        code = main(["retrieve", "--dump", str(out / "embeddings.hypb"),
                     "--row", "1", "--k", "22", "--calibrated", "--tau", "0.07"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        total = sum(r["score"] for r in payload["results"])
        assert total == pytest.approx(1.0, abs=1e-9)


class TestClassifyCommand:
    def test_predictions(self, tmp_path, capsys):
        out = run_train(tmp_path, "a", capsys=capsys)
        emb = read_dump(out / "embeddings.hypb")
        rng = np.random.default_rng(0)
        prompts = EmbeddingIndex(
            space="lorentz", curvature=emb.curvature,
            vectors=rng.standard_normal((4, emb.dim)),
            labels=(("text", "alpha"), ("text", "alpha"), ("text", "beta"), ("text", "beta")),
        )
        write_dump(prompts, tmp_path / "p.hypb")
        code = main(["classify", "--prompts", str(tmp_path / "p.hypb"),
                     "--images", str(out / "embeddings.hypb"),
                     "--checkpoint", str(out / "checkpoint.bin")])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["predictions"]) == emb.count
        first = payload["predictions"][0]
        assert first["predicted"] in ("alpha", "beta")
        assert set(first["scores"]) == {"alpha", "beta"}


class TestClassifyCurvature:
    def image_dump(self, tmp_path, out, c):
        """The train dump's image rows re-lifted at curvature c, plus a prompt dump."""
        emb = read_dump(out / "embeddings.hypb")
        rows = emb.rows_of_class("image")
        tangent = np.asarray(geometry.log_space(emb.vectors[rows], emb.curvature))
        images = EmbeddingIndex(space="lorentz", curvature=c,
                                vectors=np.asarray(geometry.exp_space(tangent, c)),
                                labels=tuple(emb.labels[i] for i in rows))
        write_dump(images, tmp_path / "img.hypb")
        rng = np.random.default_rng(1)
        prompts = EmbeddingIndex(space="lorentz", curvature=1.0,
                                 vectors=rng.standard_normal((4, emb.dim)),
                                 labels=(("text", "p"), ("text", "p"), ("text", "q"), ("text", "r")))
        write_dump(prompts, tmp_path / "p.hypb")
        return ["classify", "--prompts", str(tmp_path / "p.hypb"),
                "--images", str(tmp_path / "img.hypb")]

    def test_checkpoint_at_other_curvature_rejected(self, tmp_path, capsys):
        out = run_train(tmp_path, "a", capsys=capsys)
        c = trainer.load_checkpoint(out / "checkpoint.bin").encoder.loss_params().curv().c
        argv = self.image_dump(tmp_path, out, c * 1.02)
        assert main([*argv, "--checkpoint", str(out / "checkpoint.bin")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "curvature" in err and err.count("\n") == 1

    def test_without_checkpoint_uses_dump_curvature(self, tmp_path, capsys):
        out = run_train(tmp_path, "a", capsys=capsys)
        argv = self.image_dump(tmp_path, out, 0.9454)
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        images = read_dump(tmp_path / "img.hypb")
        prompts = read_dump(tmp_path / "p.hypb")
        sets = {"p": list(prompts.vectors[:2]), "q": [prompts.vectors[2]], "r": [prompts.vectors[3]]}
        params = LossParams.init(prompts.dim, curv=0.9454)
        want = analysis.class_scores(images.vectors, sets, params, 0.9454)
        assert [p["predicted"] for p in payload["predictions"]] == want.predicted()
        got = [list(p["scores"].values()) for p in payload["predictions"]]
        np.testing.assert_array_equal(got, want.scores)


def with_config_key(src, dst, key, value):
    """Copy a checkpoint, adding one key to its config JSON."""
    raw = src.read_bytes()
    (n,) = struct.unpack_from("<I", raw, 8)
    cfg = json.loads(raw[12:12 + n])
    cfg[key] = value
    blob = json.dumps(cfg).encode("utf-8")
    dst.write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + n:])
    return dst


class TestCheckpointConfigKeys:
    def test_unknown_key_is_one_line_error(self, tmp_path, capsys):
        out = run_train(tmp_path, "a", capsys=capsys)
        bad = with_config_key(out / "checkpoint.bin", tmp_path / "bad.bin", "learning_rat", 0.1)
        commands = [
            ["embed", "--checkpoint", str(bad), "--out", str(tmp_path / "e.hypb")],
            ["classify", "--prompts", str(out / "embeddings.hypb"),
             "--images", str(out / "embeddings.hypb"), "--checkpoint", str(bad)],
        ]
        for argv in commands:
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "'learning_rat'" in err

    def test_value_of_wrong_type_is_one_line_error(self, tmp_path, capsys):
        out = run_train(tmp_path, "a", capsys=capsys)
        bad = with_config_key(out / "checkpoint.bin", tmp_path / "bad.bin", "steps", "many")
        assert main(["embed", "--checkpoint", str(bad), "--out", str(tmp_path / "e.hypb")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad checkpoint config") and err.count("\n") == 1


class TestGradcheckCommand:
    def test_reduced_suite_exits_zero(self, capsys):
        assert main(["gradcheck", "--points", "5", "--seeds", "2"]) == 0
        out = capsys.readouterr().out
        assert "gradient check passed" in out
        assert "[ok] primitive/acosh" in out


class TestHelp:
    def test_subcommand_help_lists_defaults(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for flag in ("--no-entailment", "--fixed-curvature", "--inner-product-logits",
                     "--space", "--seed", "--entail-weight"):
            assert flag in out
