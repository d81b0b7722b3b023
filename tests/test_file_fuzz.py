"""Truncated and bit-flipped dumps, sidecars and checkpoints: the readers
raise only ValueError subclasses (DumpFormatError, JSONDecodeError,
UnicodeDecodeError), and `hycone stats` / `hycone embed` end in success
or exit 1 with one `error:` line, never a traceback.

Neither format carries a checksum, so a flip inside a float payload may
load silently; the properties allow that and only pin how damage that is
detected gets reported.
"""

import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hycone import trainer
from hycone.cli import main
from hycone.dumpio import read_dump

TINY = [
    "--steps", "5", "--warmup", "1", "--batch-size", "4",
    "--depth", "2", "--branching", "2", "--latent-dim", "4",
    "--embed-dim", "4", "--held-out-per-leaf", "1", "--seed", "3",
]
# A warning would print to stderr beside the one error line.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")
FUZZ = settings(max_examples=40, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    out = tmp_path_factory.mktemp("fuzz") / "run"
    assert main(["train", *TINY, "--out", str(out)]) == 0
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
    """The trained dump pair and checkpoint copied to workdir, `name` damaged."""
    for src in ("embeddings.hypb", "embeddings.labels", "checkpoint.bin"):
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
