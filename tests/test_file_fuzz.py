"""Truncated and bit-flipped dumps, sidecars, prompt dumps and checkpoints:
the readers raise only ValueError subclasses (DumpFormatError,
JSONDecodeError, UnicodeDecodeError), and every command that reads them
(`stats`, `embed`, `traverse`, `retrieve`, `classify`) ends in success or
exit 1 with one `error:` line, never a traceback; so do the query
commands at the edges of their flags, on a dump whose header curvature
lies outside the trainer's clamp range, and on `--vector` components up
to the largest float.  `train` with any flag at the edges of its domain
ends in success with a dump that `stats` reads, or in exit 1 or 2 with
one line.

Neither format carries a checksum, so a flip inside a float payload may
load silently; the properties allow that and only pin how damage that is
detected gets reported.
"""

import dataclasses
import json
import math
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hycone import hierarchy, trainer
from hycone.analysis import EmbeddingIndex, interpolate_steps, with_root
from hycone.cli import main
from hycone.dumpio import _HEADER, read_dump, write_dump

TINY = [
    "--steps", "5", "--warmup", "1", "--batch-size", "4",
    "--depth", "2", "--branching", "2", "--latent-dim", "4",
    "--embed-dim", "4", "--held-out-per-leaf", "1", "--seed", "3",
]
# A warning would print to stderr beside the one error line.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")
FUZZ = settings(max_examples=40, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


FILES = ("embeddings.hypb", "embeddings.labels", "checkpoint.bin", "prompts.hypb", "prompts.labels")


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A trained run, plus a prompt dump of two classes at its curvature."""
    out = tmp_path_factory.mktemp("fuzz") / "run"
    assert main(["train", *TINY, "--out", str(out)]) == 0
    emb = read_dump(out / "embeddings.hypb")
    prompts = EmbeddingIndex(
        space=emb.space, curvature=emb.curvature,
        vectors=np.random.default_rng(0).standard_normal((4, emb.dim)),
        labels=(("text", "alpha"), ("text", "alpha"), ("text", "beta"), ("text", "beta")),
    )
    write_dump(prompts, out / "prompts.hypb")
    return out


@st.composite
def damaged(draw, data: bytes) -> bytes:
    """`data` truncated at a random offset, or with one to three bits flipped."""
    if draw(st.booleans()):
        return data[:draw(st.integers(0, len(data) - 1))]
    out = bytearray(data)
    for _ in range(draw(st.integers(1, 3))):
        out[draw(st.integers(0, len(out) - 1))] ^= 1 << draw(st.integers(0, 7))
    return bytes(out)


def damaged_copy(trained, name, data, workdir) -> Path:
    """The trained run's files copied to workdir, `name` damaged."""
    for src in FILES:
        shutil.copy(trained / src, workdir / src)
    target = workdir / name
    target.write_bytes(data.draw(damaged(target.read_bytes())))
    return target


def assert_reported(code, captured):
    assert code in (0, 1)
    if code == 1:
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    else:
        assert captured.err == ""


def rejects(load, path) -> bool:
    """Whether `load` rejects the file; any error but a ValueError propagates."""
    try:
        load(path)
    except ValueError:
        return True
    return False


@pytest.mark.parametrize("name", ["embeddings.hypb", "embeddings.labels"])
@FUZZ
@given(data=st.data())
def test_damaged_dump(trained, name, data, capsys):
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        damaged_copy(trained, name, data, workdir)
        dump = workdir / "embeddings.hypb"
        rejected = rejects(read_dump, dump)
        capsys.readouterr()
        code = main(["stats", "--dump", str(dump)])
        captured = capsys.readouterr()
        assert_reported(code, captured)
        if rejected:
            assert code == 1


@FUZZ
@given(data=st.data())
def test_damaged_checkpoint(trained, data, capsys):
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        chk = damaged_copy(trained, "checkpoint.bin", data, workdir)
        rejected = rejects(trainer.load_checkpoint, chk)
        capsys.readouterr()
        code = main(["embed", "--checkpoint", str(chk), "--out", str(workdir / "re.hypb")])
        captured = capsys.readouterr()
        assert_reported(code, captured)
        if rejected:
            assert code == 1


def query_argv(data, workdir, command, rows):
    """A traverse, retrieve or classify command on workdir's files, with
    flags drawn around the edges of their ranges (`rows` is the dump's
    row count before any damage)."""
    dump = str(workdir / "embeddings.hypb")
    if command == "classify":
        return ["classify", "--prompts", str(workdir / "prompts.hypb"), "--images", dump,
                "--checkpoint", str(workdir / "checkpoint.bin")]
    row = ["--row", str(data.draw(st.integers(-2, rows + 2)))]
    if command == "traverse":
        return ["traverse", "--dump", dump, *row, "--steps", str(data.draw(st.integers(-1, 60)))]
    calibrated = ["--calibrated"] if data.draw(st.booleans()) else []
    return ["retrieve", "--dump", dump, *row, "--k", str(data.draw(st.integers(-1, rows + 2))),
            *calibrated]


@pytest.mark.parametrize("command, name", [
    *((c, n) for c in ("traverse", "retrieve") for n in FILES[:2]),
    *(("classify", n) for n in FILES),
])
@FUZZ
@given(data=st.data())
def test_damaged_query_inputs(trained, command, name, data, capsys):
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        target = damaged_copy(trained, name, data, workdir)
        load = trainer.load_checkpoint if name == "checkpoint.bin" else read_dump
        rejected = rejects(load, target.with_suffix(".hypb") if name.endswith("labels") else target)
        capsys.readouterr()
        rows = read_dump(trained / "embeddings.hypb").count
        code = main(query_argv(data, workdir, command, rows))
        assert_reported(code, capsys.readouterr())
        if rejected:
            assert code == 1


@pytest.mark.parametrize("command", ["traverse", "retrieve"])
@FUZZ
@given(data=st.data())
def test_query_flag_edges(trained, command, data, capsys):
    rows = read_dump(trained / "embeddings.hypb").count
    capsys.readouterr()
    code = main(query_argv(data, trained, command, rows))
    assert_reported(code, capsys.readouterr())


def run_query(trained, capsys, *argv):
    capsys.readouterr()
    code = main([argv[0], "--dump", str(trained / "embeddings.hypb"), *argv[1:]])
    captured = capsys.readouterr()
    assert_reported(code, captured)
    return code, captured.out


@pytest.mark.parametrize("argv", [
    ("traverse", "--row", "-1"), ("traverse", "--row", "{rows}"), ("traverse", "--row", "0", "--steps", "1"),
    ("retrieve", "--row", "-1"), ("retrieve", "--row", "{rows}"),
    ("retrieve", "--row", "0", "--k", "{rows_plus_1}"), ("retrieve", "--row", "0", "--k", "-1"),
])
def test_out_of_range_flags_exit_1(trained, capsys, argv):
    rows = read_dump(trained / "embeddings.hypb").count
    # traverse adds a [ROOT] row when the dump has none, so its first
    # invalid row is one further on
    rows += argv[0] == "traverse"
    argv = [a.format(rows=rows, rows_plus_1=rows + 1) for a in argv]
    assert run_query(trained, capsys, *argv)[0] == 1


@pytest.mark.parametrize("k", [0, "rows"])
def test_retrieve_k_at_its_bounds(trained, capsys, k):
    rows = read_dump(trained / "embeddings.hypb").count
    k = rows if k == "rows" else k
    code, out = run_query(trained, capsys, "retrieve", "--row", "0", "--k", str(k))
    assert code == 0
    assert len(json.loads(out)["results"]) == k


def test_traverse_two_steps_succeeds(trained, capsys):
    code, out = run_query(trained, capsys, "traverse", "--row", "0", "--steps", "2")
    assert code == 0
    assert out.splitlines()[0] == "kind,step,label"


def with_curvature(trained, workdir, c) -> Path:
    """The trained dump and its labels copied to workdir, the header's
    curvature field set to c."""
    for src in FILES[:2]:
        shutil.copy(trained / src, workdir / src)
    dump = workdir / "embeddings.hypb"
    raw = bytearray(dump.read_bytes())
    *head, _ = _HEADER.unpack_from(raw, 0)
    _HEADER.pack_into(raw, 0, *head, c)
    dump.write_bytes(bytes(raw))
    return dump


CURVATURE_COMMANDS = [("stats",), ("retrieve", "--row", "0", "--calibrated"), ("traverse", "--row", "0")]


@pytest.mark.parametrize("argv", CURVATURE_COMMANDS)
@pytest.mark.parametrize("c", [float("inf"), float("nan"), 1e308, 1e-320, 0.09, 10.01])
def test_dump_curvature_outside_clamp_range_exits_1(trained, tmp_path, capsys, argv, c):
    dump = with_curvature(trained, tmp_path, c)
    with pytest.raises(ValueError, match="curvature"):
        read_dump(dump)
    capsys.readouterr()
    code = main([argv[0], "--dump", str(dump), *argv[1:]])
    captured = capsys.readouterr()
    assert code == 1
    assert_reported(code, captured)
    assert "curvature" in captured.err


@pytest.mark.parametrize("argv", CURVATURE_COMMANDS)
@pytest.mark.parametrize("c", [0.1, 10.0])
def test_dump_curvature_at_clamp_bounds_loads(trained, tmp_path, capsys, argv, c):
    dump = with_curvature(trained, tmp_path, c)
    assert read_dump(dump).curvature == c
    capsys.readouterr()
    code = main([argv[0], "--dump", str(dump), *argv[1:]])
    assert code == 0
    assert_reported(code, capsys.readouterr())


def huge_vector(trained, magnitude) -> str:
    """--vector value of the trained dump's dim with one nonzero component."""
    dim = read_dump(trained / "embeddings.hypb").dim
    return ",".join([repr(magnitude)] + ["0"] * (dim - 1))


QUERY_COMMANDS = [("retrieve",), ("retrieve", "--calibrated"), ("traverse",)]


@pytest.mark.parametrize("argv", QUERY_COMMANDS)
@pytest.mark.parametrize("magnitude", [1e154, 1e160, 1e200, 1e300])
def test_huge_query_vector_is_reported(trained, capsys, argv, magnitude):
    # Past 1e154 the squared norm overflows: the time component is inf.
    code, _ = run_query(trained, capsys, *argv, f"--vector={huge_vector(trained, magnitude)}")
    if magnitude > 1e155:
        assert code == 1


@pytest.mark.parametrize("argv", QUERY_COMMANDS)
def test_large_query_vector_succeeds(trained, capsys, argv):
    code, out = run_query(trained, capsys, *argv, f"--vector={huge_vector(trained, 1e100)}")
    assert code == 0 and out


def test_huge_vector_walk_at_curvature_2_does_not_collapse(trained, tmp_path, capsys):
    # sqrt(c) * x_time stays finite here, but c * x_time**2 would overflow
    dump = with_curvature(trained, tmp_path, 2.0)
    y = np.array([float(v) for v in huge_vector(trained, 1e154).split(",")])
    with np.errstate(over="ignore"):    # as in traverse: the walk itself must hold
        steps = interpolate_steps(y, with_root(read_dump(dump)))
    norms = [np.linalg.norm(step) for step in steps]
    assert all(a > b for a, b in zip(norms, norms[1:])) and norms[-1] == 0.0
    capsys.readouterr()
    code = main(["traverse", "--dump", str(dump), "--vector=" + huge_vector(trained, 1e154)])
    assert code == 0
    assert_reported(code, capsys.readouterr())


@pytest.mark.parametrize("argv", QUERY_COMMANDS)
@FUZZ
@given(data=st.data())
def test_query_vector_draws(trained, capsys, argv, data):
    dim = read_dump(trained / "embeddings.hypb").dim
    vector = data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                min_size=dim, max_size=dim))
    run_query(trained, capsys, *argv, "--vector=" + ",".join(map(repr, vector)))


# Each size flag's cap, checked before anything is allocated; warmup's is
# the step count, and a tree's shape is capped by its node count.
SIZE_CAPS = {
    "batch_size": hierarchy.MAX_BATCH_SIZE, "steps": hierarchy.MAX_STEPS,
    "warmup": hierarchy.MAX_STEPS, "latent_dim": hierarchy.MAX_DIM,
    "embed_dim": hierarchy.MAX_DIM, "hidden_dim": hierarchy.MAX_DIM,
    "depth": hierarchy.MAX_TREE_NODES, "branching": hierarchy.MAX_TREE_NODES,
    "held_out_per_leaf": hierarchy.MAX_HELD_OUT_IMAGES,
}
TINY_VALUES = {flag[2:].replace("-", "_"): value for flag, value in zip(TINY[::2], TINY[1::2])}


def train_flag(f) -> st.SearchStrategy:
    """argv for one TrainConfig flag, its value drawn around the edges of
    its domain; "default" is its value in TINY, else the field's default."""
    flag = "--" + f.name.replace("_", "-")
    default = TINY_VALUES.get(f.name, f.default)
    if isinstance(f.default, bool):
        return st.sampled_from([[], [flag]])
    if isinstance(f.default, str):
        return st.sampled_from(trainer.SPACES).map(lambda v: [f"{flag}={v}"])
    if isinstance(f.default, float):
        values = [math.nan, math.inf, -math.inf, 0.0, -1.0, 1e160, 1e308, float(default)]
    else:
        values = [-1, 0, 1, 2, 3, 10**12, int(default)]
        if f.name in SIZE_CAPS:
            values.append(SIZE_CAPS[f.name] + 1)
    return st.sampled_from(values).map(lambda v: [f"{flag}={v!r}"])


@settings(FUZZ, max_examples=200)
@given(data=st.data())
def test_train_flag_draws(capsys, data):
    fields = {f.name: f for f in dataclasses.fields(trainer.TrainConfig)}
    names = data.draw(st.lists(st.sampled_from(sorted(fields)), unique=True, min_size=1, max_size=3))
    argv = [a for name in names for a in data.draw(train_flag(fields[name]), label=name)]
    with tempfile.TemporaryDirectory() as tmp:
        capsys.readouterr()
        code = main(["train", *TINY, *argv, "--out", str(Path(tmp) / "run")])
        err = capsys.readouterr().err
        if code == 0:
            assert err == ""
            assert main(["stats", "--dump", str(Path(tmp) / "run" / "embeddings.hypb")]) == 0
        else:
            prefix = {1: "error: ", 2: "numerical failure: "}[code]
            assert err.startswith(prefix) and err.count("\n") == 1, err
