"""Spans around calls into hycone's layers, recorded from outside the package.

`install` replaces each traced function at the name its caller looks up
(a module global, a class attribute or an entry of
`autodiff.PRIMITIVES`) with a wrapper that records one span: name,
start, end and parent.  Spans stay in memory in flat arrays until
`SpanRecorder.save` writes them out; `layer_metrics` derives self times
and per-layer totals from them.  `Patches.restore` puts every original
back.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import os
import time
from array import array

import numpy as np

import spec

class SpanRecorder:
    """Flat in-memory span store; span i has names[i], starts[i], ends[i]
    (perf_counter nanoseconds) and parents[i] (-1 at top level)."""

    def __init__(self):
        self.span_names: list[str] = []
        self._ids: dict[str, int] = {}
        self.names = array("i")
        self.parents = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.counters = {"tape_nodes": 0, "const_nodes": 0, "bytes_read": 0, "bytes_written": 0}
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.span_names)
            self.span_names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str):
        """`fn` recording one span per call."""
        nid = self.name_id(name)
        names, parents, starts, ends, stack = (
            self.names, self.parents, self.starts, self.ends, self._stack
        )
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def save(self, path) -> None:
        np.savez(
            path,
            span_names=np.array(self.span_names),
            names=np.frombuffer(self.names, dtype=np.int32),
            parents=np.frombuffer(self.parents, dtype=np.int32),
            starts=np.frombuffer(self.starts, dtype=np.int64),
            ends=np.frombuffer(self.ends, dtype=np.int64),
        )

    def totals(self) -> dict[str, tuple[float, float, int]]:
        """Per span name: (inclusive ms, self ms, calls)."""
        if not self.names:
            return {}
        names = np.frombuffer(self.names, dtype=np.int32)
        parents = np.frombuffer(self.parents, dtype=np.int32)
        dur = np.frombuffer(self.ends, dtype=np.int64) - np.frombuffer(self.starts, dtype=np.int64)
        dur = dur.astype(np.float64)
        nested = parents >= 0
        # Calls run one at a time, so child spans never overlap: the part of
        # a span its children cover is the sum of their durations.
        covered = np.bincount(parents[nested], weights=dur[nested], minlength=len(dur))
        k = len(self.span_names)
        incl = np.bincount(names, weights=dur, minlength=k) / 1e6
        excl = np.bincount(names, weights=dur - covered, minlength=k) / 1e6
        calls = np.bincount(names, minlength=k)
        return {
            nm: (float(incl[i]), float(excl[i]), int(calls[i]))
            for i, nm in enumerate(self.span_names)
        }


@dataclasses.dataclass
class Patches:
    """Originals replaced by `install`, in installation order."""

    attrs: list = dataclasses.field(default_factory=list)       # (owner, attr, original)
    primitives: dict = dataclasses.field(default_factory=dict)  # name -> Primitive
    missing: list = dataclasses.field(default_factory=list)     # targets not found

    def restore(self) -> list[str]:
        """Put every original back; returns the names that did not restore."""
        from hycone import autodiff

        for owner, attr, orig in reversed(self.attrs):
            setattr(owner, attr, orig)
        autodiff.PRIMITIVES.update(self.primitives)
        bad = [f"{getattr(o, '__name__', o)}.{a}" for o, a, orig in self.attrs
               if _raw_attr(o, a) is not orig]
        bad += [n for n, p in self.primitives.items() if autodiff.PRIMITIVES[n] is not p]
        return bad


def _owner(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def _raw_attr(owner, attr):
    # Class attributes are read from __dict__ so methods compare unbound.
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def install(rec: SpanRecorder) -> Patches:
    """Wrap every target and every primitive's forward and VJP."""
    from hycone import autodiff

    patches = Patches()
    counters = rec.counters
    try:
        for path, attr, name in spec.TRACED_CALLS:
            try:
                owner = _owner(path)
                orig = _raw_attr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                # The program no longer has this name: its metrics read 0.
                patches.missing.append(f"{path}.{attr}")
                continue
            fn = rec.wrap(orig, name)
            # Counting happens outside the span, so it adds to no layer's time.
            if name == "autodiff.backward":
                fn = _count_nodes(fn, counters)
            elif name == "dumpio.read_dump":
                fn = _count_read(fn, counters)
            elif name == "dumpio.write_dump":
                fn = _count_written(fn, counters)
            patches.attrs.append((owner, attr, orig))
            setattr(owner, attr, fn)
        for pname, prim in list(autodiff.PRIMITIVES.items()):
            patches.primitives[pname] = prim
            autodiff.PRIMITIVES[pname] = dataclasses.replace(
                prim,
                forward=rec.wrap(prim.forward, f"fwd.{pname}"),
                vjp=rec.wrap(prim.vjp, f"vjp.{pname}"),
            )
    except BaseException:
        patches.restore()   # leave nothing half-wrapped
        raise
    return patches


def _count_nodes(backward, counters):
    def counted(tape, output):
        counters["tape_nodes"] += len(tape.nodes)
        counters["const_nodes"] += sum(1 for n in tape.nodes if n.op == "const")
        return backward(tape, output)
    return counted


def _count_read(read_dump, counters):
    from hycone.dumpio import labels_path

    def counted(path):
        try:
            return read_dump(path)
        finally:
            # After the call, so a missing file fails inside the program.
            with contextlib.suppress(OSError):
                counters["bytes_read"] += os.path.getsize(path) + os.path.getsize(labels_path(path))
    return counted


def _count_written(write_dump, counters):
    def counted(index, path):
        paths = write_dump(index, path)
        counters["bytes_written"] += sum(os.path.getsize(p) for p in paths)
        return paths
    return counted


def layer_metrics(rec: SpanRecorder) -> dict[str, float]:
    """Per-layer metrics of one traced pass, keyed as in spec.per_layer_metrics
    (without the `trace.*` entries, which need the untraced pass)."""
    t = rec.totals()

    def incl(name):
        return t.get(name, (0.0, 0.0, 0))[0]

    def excl(name):
        return t.get(name, (0.0, 0.0, 0))[1]

    def calls(name):
        return t.get(name, (0.0, 0.0, 0))[2]

    out = {
        "autodiff.record_ms": excl("autodiff.apply_op"),
        "autodiff.record_calls": calls("autodiff.apply_op"),
        "autodiff.backward_overhead_ms": excl("autodiff.backward"),
        "autodiff.backward_calls": calls("autodiff.backward"),
        "autodiff.tape_nodes": rec.counters["tape_nodes"],
        "autodiff.const_nodes": rec.counters["const_nodes"],
    }
    for prim in spec.TRAINING_PRIMITIVES:
        out[f"autodiff.fwd_ms.{prim}"] = incl(f"fwd.{prim}")
        out[f"autodiff.vjp_ms.{prim}"] = incl(f"vjp.{prim}")
        out[f"autodiff.calls.{prim}"] = calls(f"fwd.{prim}")
    for name in spec.TIMED_CALLS:
        out[f"{name}_ms"] = incl(name)
        out[f"{name}_calls"] = calls(name)
    out["dumpio.bytes_read"] = rec.counters["bytes_read"]
    out["dumpio.bytes_written"] = rec.counters["bytes_written"]
    out["cli.self_ms"] = excl("cli.main")
    out["cli.commands"] = calls("cli.main")
    return out
