import argparse
import dataclasses
import json
import os
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from hycone import analysis, geometry, trainer
from hycone.analysis import EmbeddingIndex
from hycone.cli import _config_from_args, build_parser, main
from hycone.dumpio import read_dump, write_dump
from hycone.hierarchy import MAX_BINS, MAX_TRAVERSE_STEPS
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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("flag, tensor", [
        ("--entail-weight=1e308", "img_b"), ("--cone-boundary=1e308", "log_curv"),
    ])
    def test_non_finite_gradient_is_numerical_failure(self, tmp_path, capsys, flag, tensor):
        # Valid values whose gradient overflows: exit 2, naming the tensor and step.
        assert main(["train", *TINY, flag, "--out", str(tmp_path / "g")]) == 2
        assert capsys.readouterr().err == (
            f"numerical failure: non-finite gradient for parameter '{tensor}' at step 0\n"
        )

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_noise_with_overflowing_square_trains(self, tmp_path, capsys):
        # The image encoder's gains go to 0 instead of raising OverflowError.
        assert main(["train", *TINY, "--noise=1e160", "--out", str(tmp_path / "n")]) == 0
        assert capsys.readouterr().err == ""
        assert main(["stats", "--dump", str(tmp_path / "n" / "embeddings.hypb")]) == 0

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
        text = capsys.readouterr().out
        payload = json.loads(text)
        assert text == json.dumps(payload) + "\n"    # one line
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

    def test_out_file_is_replaced_atomically(self, tmp_path, capsys, monkeypatch):
        # A write that fails at the rename leaves the old file whole and
        # no temp file beside it.
        dump = run_train(tmp_path, "a", capsys=capsys) / "embeddings.hypb"
        out = tmp_path / "r.json"
        out.write_bytes(b"old bytes\n")

        def refuse(src, dst):
            raise OSError(f"cannot replace {dst}")

        monkeypatch.setattr(os, "replace", refuse)
        assert main(["retrieve", "--dump", str(dump), "--row", "0", "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: cannot replace {out}\n"
        assert out.read_bytes() == b"old bytes\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a", "r.json"]

    def test_out_file_writes_through_symlink(self, tmp_path, capsys):
        dump = run_train(tmp_path, "a", capsys=capsys) / "embeddings.hypb"
        query = ["retrieve", "--dump", str(dump), "--row", "0"]
        assert main(query) == 0
        want = capsys.readouterr().out
        real = tmp_path / "real.json"
        real.write_bytes(b"old bytes\n")
        (tmp_path / "link.json").symlink_to("real.json")
        assert main([*query, "--out", str(tmp_path / "link.json")]) == 0
        assert real.read_text() == want
        assert (tmp_path / "link.json").is_symlink() and os.readlink(tmp_path / "link.json") == "real.json"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a", "link.json", "real.json"]


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
        text = capsys.readouterr().out
        payload = json.loads(text)
        assert text == json.dumps(payload) + "\n"    # one line
        assert len(payload["predictions"]) == emb.count
        first = payload["predictions"][0]
        assert first["predicted"] in ("alpha", "beta")
        assert set(first["scores"]) == {"alpha", "beta"}


    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("value", [3e38, 1e30])
    def test_prompt_too_long_to_lift_is_one_line_error(self, tmp_path, capsys, value):
        # sinh overflows in the lift; scores were NaN, printed as invalid JSON
        out = run_train(tmp_path, "a", capsys=capsys)
        emb = read_dump(out / "embeddings.hypb")
        vectors = np.random.default_rng(0).standard_normal((2, emb.dim))
        vectors[1, 0] = value
        write_dump(EmbeddingIndex(space="lorentz", curvature=emb.curvature, vectors=vectors,
                                  labels=(("text", "alpha"), ("text", "beta"))),
                   tmp_path / "p.hypb")
        code = main(["classify", "--prompts", str(tmp_path / "p.hypb"),
                     "--images", str(out / "embeddings.hypb"),
                     "--checkpoint", str(out / "checkpoint.bin")])
        assert code == 1
        assert "against class 'beta'" in one_error_line(capsys)

    @pytest.mark.parametrize("space", ["lorentz", "sphere"])
    def test_prompts_of_another_dimension_are_one_line_error(self, tmp_path, capsys, space):
        # numpy's matmul error named neither dump
        rng = np.random.default_rng(3)
        images = rng.standard_normal((3, 8))
        images /= np.linalg.norm(images, axis=1, keepdims=True)
        curvature = 1.0 if space == "lorentz" else None
        write_dump(EmbeddingIndex(space=space, curvature=curvature, vectors=images,
                                  labels=tuple(("image", f"i{k}") for k in range(3))),
                   tmp_path / "img.hypb")
        write_dump(EmbeddingIndex(space="lorentz", curvature=1.0, vectors=rng.standard_normal((2, 16)),
                                  labels=(("text", "alpha"), ("text", "beta"))), tmp_path / "p.hypb")
        code = main(["classify", "--prompts", str(tmp_path / "p.hypb"), "--images", str(tmp_path / "img.hypb")])
        assert code == 1
        assert one_error_line(capsys) == "error: prompts have dim 16, images have dim 8\n"


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
        c = trainer.load_checkpoint(out / "checkpoint.bin").loss_params().curv().c
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


class TestClassifySpace:
    @pytest.mark.parametrize("checkpoint_run, image_run", [
        (["--space", "sphere"], ["--fixed-curvature"]),     # images at c = 1.0
        (["--space", "sphere"], []),
        ([], ["--space", "sphere"]),
    ], ids=["sphere-on-lorentz-c1", "sphere-on-lorentz", "lorentz-on-sphere"])
    def test_checkpoint_from_other_space_rejected(self, tmp_path, capsys, checkpoint_run, image_run):
        chk = run_train(tmp_path, "chk", checkpoint_run, capsys=capsys)
        img = run_train(tmp_path, "img", image_run, capsys=capsys)
        rng = np.random.default_rng(2)
        write_dump(EmbeddingIndex(space="lorentz", curvature=1.0, vectors=rng.standard_normal((2, 8)),
                                  labels=(("text", "p"), ("text", "q"))), tmp_path / "p.hypb")
        code = main(["classify", "--prompts", str(tmp_path / "p.hypb"),
                     "--images", str(img / "embeddings.hypb"),
                     "--checkpoint", str(chk / "checkpoint.bin")])
        assert code == 1
        chk_space, img_space = ("sphere", "lorentz") if checkpoint_run else ("lorentz", "sphere")
        assert one_error_line(capsys) == (
            f"error: checkpoint is a {chk_space} run, images are a {img_space} dump\n"
        )


def with_config_key(src, dst, key, value):
    """Copy a checkpoint, adding one key to its config JSON."""
    raw = src.read_bytes()
    (n,) = struct.unpack_from("<I", raw, 8)
    cfg = json.loads(raw[12:12 + n])
    cfg[key] = value
    blob = json.dumps(cfg).encode("utf-8")
    dst.write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + n:])
    return dst


def wrong_typed(default):
    """A JSON value close to `default` but of another type: 0/1 for a
    switch, a whole float for an int, a string for a float, 1 for a string."""
    if isinstance(default, bool):
        return int(default)
    if isinstance(default, int):
        return float(default)
    return str(default) if isinstance(default, float) else 1


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

    @pytest.mark.parametrize("key, value", [
        (f.name, wrong_typed(f.default)) for f in dataclasses.fields(trainer.TrainConfig)
    ] + [("batch_size", True), ("peak_lr", False), ("no_entailment", 0.0)])
    def test_every_field_of_wrong_type_is_one_line_error(self, tmp_path, capsys, key, value):
        # A whole float where an int belongs, a 0/1 for a switch, a bool
        # for a number: each fails the same way, not in a traceback or a load.
        out = run_train(tmp_path, "a", capsys=capsys)
        bad = with_config_key(out / "checkpoint.bin", tmp_path / "bad.bin", key, value)
        with pytest.raises(ValueError, match=f"bad checkpoint config: {key} must be of type"):
            trainer.load_checkpoint(bad)
        assert main(["embed", "--checkpoint", str(bad), "--out", str(tmp_path / "e.hypb")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad checkpoint config: {key} ") and err.count("\n") == 1


class TestGradcheckCommand:
    def test_reduced_suite_exits_zero(self, capsys):
        assert main(["gradcheck", "--points", "5", "--seeds", "2"]) == 0
        out = capsys.readouterr().out
        assert "gradient check passed" in out
        assert "[ok] primitive/acosh" in out

    def test_closed_form_line_per_variant(self, capsys):
        assert main(["gradcheck", "--points", "1", "--seeds", "2"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if "closed_form/" in l]
        assert [l.split(":")[0] for l in lines] == [
            f"[ok] closed_form/{mode}/entail_weight={lam}"
            for mode in ("neg_lorentz_distance", "lorentz_inner", "cosine") for lam in (0.0, 0.2)
        ]

    @pytest.mark.parametrize("flag,value", [("--points", "0"), ("--points", "-1"), ("--seeds", "0")])
    def test_count_below_one_is_one_line_error(self, flag, value, capsys):
        assert main(["gradcheck", flag, value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: gradcheck {flag[2:]} must be >= 1, got {value}\n"


class TestHelp:
    def test_subcommand_help_lists_defaults(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for flag in ("--no-entailment", "--fixed-curvature", "--inner-product-logits",
                     "--space", "--seed", "--entail-weight"):
            assert flag in out


class TestTrainFlags:
    def train_parser(self):
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        return sub.choices["train"]

    def test_flags_and_defaults_are_the_config_fields(self):
        actions = {a.dest: a for a in self.train_parser()._actions if a.dest not in ("help", "out")}
        fields = {f.name: f for f in dataclasses.fields(trainer.TrainConfig)}
        assert list(actions) == list(fields)
        for name, f in fields.items():
            action = actions[name]
            assert action.option_strings == ["--" + name.replace("_", "-")]
            assert action.default == f.default and type(action.default) is type(f.default)
            if isinstance(f.default, bool):
                assert isinstance(action, argparse._StoreTrueAction) and action.help
            else:
                assert action.type is type(f.default)
        assert actions["space"].choices == trainer.SPACES

    def test_every_config_field_is_a_flag(self):
        # Each of the 19 fields at a value other than its default, set through its flag.
        want = trainer.TrainConfig(
            batch_size=8, steps=30, warmup=3, peak_lr=1e-3, weight_decay=0.1, seed=5,
            no_entailment=True, fixed_curvature=True, inner_product_logits=True, space="sphere",
            depth=2, branching=3, latent_dim=8, embed_dim=6, noise=0.2, hidden_dim=4,
            entail_weight=0.3, cone_boundary=0.2, held_out_per_leaf=2,
        )
        argv = []
        for f in dataclasses.fields(want):
            value = getattr(want, f.name)
            assert value != f.default, f.name
            flag = "--" + f.name.replace("_", "-")
            argv += [flag] if value is True else [flag, str(value)]
        assert len(dataclasses.fields(want)) == 19
        assert _config_from_args(build_parser().parse_args(["train", *argv, "--out", "x"])) == want

    def test_default_flags_give_the_default_config(self):
        args = build_parser().parse_args(["train", "--out", "x"])
        assert _config_from_args(args) == trainer.TrainConfig()


def one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


class TestCheckpointReader:
    def embed(self, tmp_path, chk_path):
        return main(["embed", "--checkpoint", str(chk_path), "--out", str(tmp_path / "e.hypb")])

    def test_metadata_without_clamp_hits(self, tmp_path, capsys):
        out = run_train(tmp_path, "a", capsys=capsys)
        raw = (out / "checkpoint.bin").read_bytes()
        chk = trainer.load_checkpoint(out / "checkpoint.bin")
        meta = json.dumps({"clamp_hits": chk.clamp_hits}, sort_keys=True,
                          separators=(",", ":")).encode("utf-8")
        assert raw.endswith(struct.pack("<I", len(meta)) + meta)
        bad = tmp_path / "bad.bin"
        bad.write_bytes(raw[:-4 - len(meta)] + struct.pack("<I", 2) + b"{}")
        assert self.embed(tmp_path, bad) == 1
        assert "clamp_hits" in one_error_line(capsys)

    @pytest.mark.parametrize("old, new", [("txt_w", None), ("txt_w", "txt_w9")])
    def test_tensor_names_must_match_config(self, tmp_path, capsys, old, new):
        out = run_train(tmp_path, "a", capsys=capsys)
        chk = trainer.load_checkpoint(out / "checkpoint.bin")
        value = chk.tensors.pop(old)
        if new is not None:
            chk.tensors[new] = value
        bad = tmp_path / "bad.bin"
        bad.write_bytes(trainer.checkpoint_bytes(chk))
        assert self.embed(tmp_path, bad) == 1
        assert "'txt_w'" in one_error_line(capsys)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("name, shape", [("log_curv", (3,)), ("txt_w", (5, 2)), ("img_b", (16, 1))])
    def test_tensor_shape_must_match_config(self, tmp_path, capsys, name, shape):
        out = run_train(tmp_path, "a", capsys=capsys)
        chk = trainer.load_checkpoint(out / "checkpoint.bin")
        expected = chk.tensors[name].shape
        chk.tensors[name] = np.zeros(shape)
        bad = tmp_path / "bad.bin"
        bad.write_bytes(trainer.checkpoint_bytes(chk))
        want = (f"error: checkpoint tensor '{name}' has shape {shape}, "
                f"its config implies {expected}\n")
        assert self.embed(tmp_path, bad) == 1
        assert one_error_line(capsys) == want
        dump = str(out / "embeddings.hypb")
        assert main(["classify", "--prompts", dump, "--images", dump, "--checkpoint", str(bad)]) == 1
        assert one_error_line(capsys) == want

    def test_retired_config_keys_load_and_embed_alike(self, tmp_path, capsys):
        # The keys checkpoints held while the initial tau and curvature and
        # AdamW's betas and epsilon were settings, at their values then.
        out = run_train(tmp_path, "a", capsys=capsys)
        old = out / "checkpoint.bin"
        for key, value in (("tau_init", 0.07), ("curv_init", 1.0), ("betas", [0.9, 0.98]),
                           ("adam_eps", 1e-8)):
            old = with_config_key(old, tmp_path / f"old-{key}.bin", key, value)
        assert (trainer.load_checkpoint(old).config
                == trainer.load_checkpoint(out / "checkpoint.bin").config)
        assert self.embed(tmp_path, old) == 0
        capsys.readouterr()
        assert (tmp_path / "e.hypb").read_bytes() == (out / "embeddings.hypb").read_bytes()
        assert (tmp_path / "e.labels").read_bytes() == (out / "embeddings.labels").read_bytes()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("value", [-1e308, np.nan])
    def test_overflowing_weight_is_one_line_error(self, tmp_path, capsys, value):
        out = run_train(tmp_path, "a", capsys=capsys)
        chk = trainer.load_checkpoint(out / "checkpoint.bin")
        chk.tensors["txt_w"][1, 0] = value
        bad = tmp_path / "bad.bin"
        bad.write_bytes(trainer.checkpoint_bytes(chk))
        assert self.embed(tmp_path, bad) == 1
        assert "non-finite component" in one_error_line(capsys)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("key, value", [("embed_dim", 0)])
    def test_config_out_of_range_is_one_line_error(self, tmp_path, capsys, key, value):
        out = run_train(tmp_path, "a", capsys=capsys)
        bad = with_config_key(out / "checkpoint.bin", tmp_path / "bad.bin", key, value)
        assert self.embed(tmp_path, bad) == 1
        one_error_line(capsys)

    @pytest.mark.parametrize("flag", ["--embed-dim=0", "--hidden-dim=-1"])
    def test_dims_out_of_range_rejected_before_training(self, tmp_path, capsys, flag):
        assert main(["train", *TINY, flag, "--out", str(tmp_path / "n")]) == 1
        assert "embed_dim" in one_error_line(capsys)
        assert not (tmp_path / "n").exists()

    def test_negative_entail_weight_rejected_before_training(self, tmp_path, capsys):
        code = main(["train", *TINY, "--entail-weight=-1", "--out", str(tmp_path / "n")])
        assert code == 1
        assert "entailment weight" in one_error_line(capsys)
        assert not (tmp_path / "n").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("flags", [
        ["--entail-weight=nan"], ["--cone-boundary=-1"], ["--cone-boundary=nan"],
        ["--noise=nan"], ["--noise=inf"], ["--weight-decay=-5"], ["--peak-lr=-1"],
        ["--depth=40", "--branching=2"], ["--held-out-per-leaf=1000000000"],
        ["--batch-size=1000000"], ["--steps=1000000000000"], ["--latent-dim=100000000"],
        ["--embed-dim=100000000"], ["--hidden-dim=100000000"],
    ], ids=lambda f: " ".join(f))
    def test_out_of_domain_flag_rejected_before_training(self, tmp_path, capsys, flags):
        assert main(["train", *TINY, *flags, "--out", str(tmp_path / "n")]) == 1
        one_error_line(capsys)
        assert not (tmp_path / "n").exists()

    def test_embed_held_out_above_cap_is_one_line_error(self, tmp_path, capsys):
        out = run_train(tmp_path, "a", capsys=capsys)
        code = main(["embed", "--checkpoint", str(out / "checkpoint.bin"),
                     "--out", str(tmp_path / "e.hypb"), "--held-out-per-leaf", "1000000000"])
        assert code == 1
        assert "held-out images" in one_error_line(capsys)
        assert not (tmp_path / "e.hypb").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rows_beyond_float32_leave_no_dump(self, tmp_path, capsys):
        # A hyperbolic radius near 90 is finite in float64 and past float32's range.
        out = run_train(tmp_path, "a", capsys=capsys)
        chk = trainer.load_checkpoint(out / "checkpoint.bin")
        chk.tensors["log_scale_img"] = np.asarray(np.log(50.0))
        bad = tmp_path / "bad.bin"
        bad.write_bytes(trainer.checkpoint_bytes(chk))
        assert self.embed(tmp_path, bad) == 1
        assert "float32" in one_error_line(capsys)
        assert not (tmp_path / "e.hypb").exists() and not (tmp_path / "e.labels").exists()


# Sphere --vector queries that are not unit vectors, with the norm the error names.
NON_UNIT_VECTORS = [
    ("0,0,0", "0.00000000"), ("0.6,0.8,0.003", "1.00000450"), ("2,0,0", "2.00000000"),
    ("1e200,1e200,0", "inf"),
]


class TestQueryValidation:
    @pytest.fixture
    def dump(self, tmp_path):
        vecs = np.asarray(geometry.exp_space(np.random.default_rng(5).standard_normal((6, 3)), 1.0))
        idx = EmbeddingIndex(space="lorentz", curvature=1.0, vectors=vecs,
                             labels=tuple(("text", f"t{i}") for i in range(6)))
        write_dump(idx, tmp_path / "q.hypb")
        return str(tmp_path / "q.hypb")

    @pytest.mark.parametrize("tau", ["0", "-1", "nan", "inf"])
    def test_calibrated_tau_must_be_finite_positive(self, dump, capsys, tau):
        assert main(["retrieve", "--dump", dump, "--row", "1", "--calibrated", f"--tau={tau}"]) == 1
        assert "tau" in one_error_line(capsys)

    def test_raw_retrieve_ignores_tau(self, dump, capsys):
        assert main(["retrieve", "--dump", dump, "--row", "1", "--tau=0"]) == 0

    @pytest.mark.parametrize("command", ["retrieve", "traverse"])
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_vector_must_be_finite(self, dump, capsys, command, bad):
        assert main([command, "--dump", dump, f"--vector={bad},0.5,0.5"]) == 1
        assert "non-finite" in one_error_line(capsys)

    @pytest.mark.parametrize("command, cap", [
        (["stats", "--bins=1000000000000", "--out-summary"], MAX_BINS),
        (["traverse", "--row", "1", "--steps=1000000000000", "--out"], MAX_TRAVERSE_STEPS),
    ], ids=["stats", "traverse"])
    def test_size_above_cap_is_one_line_error(self, dump, tmp_path, capsys, command, cap):
        out = tmp_path / "out.csv"
        assert main([command[0], "--dump", dump, *command[1:], str(out)]) == 1
        assert str(cap) in one_error_line(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("boundary", ["-1", "0", "nan", "inf"])
    def test_cone_boundary_must_be_finite_positive(self, dump, capsys, boundary):
        assert main(["traverse", "--dump", dump, "--row", "1", f"--cone-boundary={boundary}"]) == 1
        assert "cone boundary" in one_error_line(capsys)

    @pytest.mark.parametrize("slack", ["nan", "-1", "-inf"])
    def test_cone_slack_must_be_at_least_zero(self, dump, capsys, slack):
        assert main(["traverse", "--dump", dump, "--row", "1", f"--cone-slack={slack}"]) == 1
        assert "cone slack must be >= 0" in one_error_line(capsys)

    def test_infinite_cone_slack_keeps_every_text(self, dump, capsys):
        assert main(["traverse", "--dump", dump, "--row", "1", "--cone-slack=inf"]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command", ["retrieve", "traverse"])
    def test_row_and_vector_are_exclusive(self, dump, capsys, command):
        assert main([command, "--dump", dump, "--row", "1", "--vector=0.1,0.2,0.3"]) == 1
        assert one_error_line(capsys) == "error: give --row or --vector, not both\n"

    @pytest.fixture
    def sphere_dump(self, tmp_path):
        vecs = np.random.default_rng(6).standard_normal((6, 3))
        idx = EmbeddingIndex(space="sphere", curvature=None,
                             vectors=vecs / np.linalg.norm(vecs, axis=1, keepdims=True),
                             labels=tuple(("text", f"t{i}") for i in range(6)))
        write_dump(idx, tmp_path / "s.hypb")
        return str(tmp_path / "s.hypb")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("vector, norm", NON_UNIT_VECTORS)
    def test_sphere_vector_must_be_a_unit_vector(self, sphere_dump, capsys, vector, norm):
        # scores were raw dot products; a zero query exited 0 with rows 0..k-1
        assert main(["retrieve", "--dump", sphere_dump, f"--vector={vector}"]) == 1
        assert one_error_line(capsys) == (
            f"error: query is not a sphere point: sphere row 0 has norm {norm}, expected 1 within 1e-06\n"
        )

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("vector, norm", NON_UNIT_VECTORS)
    def test_sphere_traverse_vector_must_be_a_unit_vector(self, sphere_dump, capsys, vector, norm):
        # the walk started from the raw vector, weighted toward the root by its norm
        assert main(["traverse", "--dump", sphere_dump, f"--vector={vector}"]) == 1
        assert one_error_line(capsys) == (
            f"error: query is not a sphere point: sphere row 0 has norm {norm}, expected 1 within 1e-06\n"
        )

    def test_sphere_unit_vector_and_row_queries_pass(self, sphere_dump, capsys):
        assert main(["retrieve", "--dump", sphere_dump, "--vector=0.6,0.8,0", "--k", "6"]) == 0
        by_vector = json.loads(capsys.readouterr().out)["results"]
        assert sorted(r["row"] for r in by_vector) == list(range(6))
        assert main(["retrieve", "--dump", sphere_dump, "--row", "2", "--k", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["results"][0]["row"] == 2
        assert main(["traverse", "--dump", sphere_dump, "--vector=0.6,0.8,0", "--steps", "3"]) == 0
        assert main(["traverse", "--dump", sphere_dump, "--row", "2", "--steps", "3"]) == 0
        assert capsys.readouterr().out.splitlines()[1] == "step,0,t2"

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("command", [["retrieve", "--row", "0"], ["stats"]])
    def test_lorentz_dump_with_non_finite_row(self, dump, capsys, command, bad):
        raw = bytearray(open(dump, "rb").read())
        header = 4 + 4 + 1 + 4 + 8 + 8          # magic, version, space, dim, count, curvature
        raw[header + 4 * 3 * 4: header + 4 * 3 * 4 + 4] = struct.pack("<f", bad)  # row 4, first value
        with open(dump, "wb") as f:
            f.write(raw)
        assert main([command[0], "--dump", dump, *command[1:]]) == 1
        assert "lorentz row 4 has a non-finite component" in one_error_line(capsys)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command", [["retrieve", "--row", "0"], ["stats"]])
    def test_lorentz_row_with_both_infinities(self, dump, capsys, command):
        raw = bytearray(Path(dump).read_bytes())
        header = 4 + 4 + 1 + 4 + 8 + 8
        raw[header + 4 * 3 * 4: header + 4 * 3 * 4 + 8] = struct.pack("<2f", np.inf, -np.inf)
        Path(dump).write_bytes(raw)
        assert main([command[0], "--dump", dump, *command[1:]]) == 1
        assert "lorentz row 4 has a non-finite component" in one_error_line(capsys)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_signalling_nan_row_is_one_line_error(self, dump, capsys):
        raw = bytearray(Path(dump).read_bytes())
        header = 4 + 4 + 1 + 4 + 8 + 8
        raw[header + 4 * 3 * 4: header + 4 * 3 * 4 + 4] = struct.pack("<I", 0x7F800001)
        Path(dump).write_bytes(raw)
        assert main(["stats", "--dump", dump]) == 1
        assert "lorentz row 4 has a non-finite component" in one_error_line(capsys)


class TestQueryMemory:
    """`stats`, `retrieve` and `traverse` read a dump's float32 payload in
    place, one block of rows at a time: none of them makes a float64 copy
    of the whole set (before this, each one's traced peak was over twice
    that copy's size)."""

    def test_traced_peak_is_below_the_float64_matrix(self, tmp_path, capsys):
        count, dim = 50_000, 16
        rng = np.random.default_rng(8)
        labels = [("text", f"t{i}") for i in range(20)] + [("image", f"i{i}") for i in range(count - 20)]
        write_dump(EmbeddingIndex(space="lorentz", curvature=1.0, labels=labels,
                                  vectors=rng.standard_normal((count, dim)) * 0.3), tmp_path / "m.hypb")
        dump = str(tmp_path / "m.hypb")
        for argv in (["retrieve", "--dump", dump, "--row", "100"],
                     ["retrieve", "--dump", dump, "--row", "100", "--calibrated"],
                     ["stats", "--dump", dump],
                     ["traverse", "--dump", dump, "--row", "100"]):
            tracemalloc.start()
            try:
                assert main(argv) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            capsys.readouterr()
            assert peak < count * dim * 8, (argv, peak)
