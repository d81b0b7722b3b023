"""Every call the benchmark's tracer wraps exists in the package.

`bench/tracer.py` looks each (owner, attribute) of `bench/spec.py`'s
TRACED_CALLS up the way this test does and, when one is gone, reports it
under `missing_trace_targets` and reads its metrics as 0.  Some targets
exist only for the tracer, such as `trainer.objective` and
`gradcheck.finite_diff`, the names those modules' callers look up; an
unused-import cleanup would delete them without any other test failing.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPEC_PATH = Path(__file__).resolve().parent.parent / "bench" / "spec.py"


def traced_calls():
    loader = importlib.util.spec_from_file_location("bench_spec", SPEC_PATH)
    spec = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(spec)
    return spec.TRACED_CALLS


@pytest.mark.parametrize("path, attr, name", traced_calls())
def test_trace_target_exists(path, attr, name):
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    if cls:
        owner = getattr(owner, cls)
        # Class attributes are read from __dict__, as the tracer does.
        assert attr in vars(owner), f"{path}.{attr} (span {name}) is gone"
    else:
        assert hasattr(owner, attr), f"{path}.{attr} (span {name}) is gone"
