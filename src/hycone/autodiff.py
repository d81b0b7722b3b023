"""Reverse-mode automatic differentiation on a flat numpy tape.

The engine covers exactly the primitive set needed by the geometry,
entailment and loss modules: elementwise arithmetic with broadcasting,
matmul/transpose, reductions, the hyperbolic/inverse-trig functions,
boundary clamps with zero subgradient, the stable sinh(t)/t kernel, and a
row-wise logsumexp for softmax cross-entropy.  The matrix primitives
(matmul, transpose, diag_part, logsumexp_rows) act on the last two axes,
so a stack of matrices evaluates as one call.

Every operation is recorded as a node on a :class:`Tape`; append order is
topological order, and :meth:`Tape.backward` visits nodes in strict
reverse append order.  All op functions in this module are generic: given
:class:`Node` arguments they record onto the tape, given plain
arrays/floats they evaluate the identical numpy kernel, so one formula
serves both the differentiable path and reference computations.  The
kernels are pure: they compute their output and nothing else.  A
recorded tape keeps each clamp's and relu's input and bounds, so
:meth:`Tape.kink_margin` reads how near a forward pass ran to a kink.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

Array = np.ndarray

# Backward safeguard for acosh near its branch point: the derivative
# 1/sqrt(t^2-1) is evaluated at max(t, 1 + ACOSH_EPS), bounding adjoint
# magnitudes by 1/sqrt(2*eps) ~ 7.1e3.
ACOSH_EPS = 1e-8
# Below this threshold sinh(t)/t switches to its Taylor series 1 + t^2/6.
SINHC_TAYLOR = 1e-4
# Floor used by safe square roots of squared norms; keeps gradients of
# vanishing rows at exactly zero via the clamp subgradient.
NORM_FLOOR = 1e-300
# Float64 values in the stack of perturbed copies that one call of a
# function's stacked form takes (`finite_diff_stacked`).  It bounds the
# memory of a gradient check: with all of a gradcheck primitive's points
# in one call, the train-ref benchmark's peak RSS read 0.9 MB higher,
# and with all of an objective variant's cases too, 5 MB.
FD_BLOCK = 8192


# ---------------------------------------------------------------------------
# Numpy kernels (shared verbatim by the Node path and the plain-array path)
# ---------------------------------------------------------------------------

def _as_f64(x) -> Array:
    return np.asarray(x, dtype=np.float64)


def sinhc_kernel(t: Array) -> Array:
    """sinh(t)/t with a Taylor branch below SINHC_TAYLOR (even in t)."""
    t = _as_f64(t)
    small = np.abs(t) < SINHC_TAYLOR
    safe = np.where(small, 1.0, t)
    return np.where(small, 1.0 + t * t / 6.0, np.sinh(safe) / safe)


def dsinhc_kernel(t: Array) -> Array:
    """Derivative of sinh(t)/t; Taylor branch t/3 below SINHC_TAYLOR."""
    t = _as_f64(t)
    small = np.abs(t) < SINHC_TAYLOR
    safe = np.where(small, 1.0, t)
    return np.where(small, t / 3.0, (safe * np.cosh(safe) - np.sinh(safe)) / (safe * safe))


def sinhc_pair(t: Array) -> tuple[Array, Array]:
    """(sinhc_kernel(t), dsinhc_kernel(t)), the same bits from one mask,
    one sinh and one cosh; the Taylor branches are selected only when
    some entry lies below SINHC_TAYLOR."""
    t = _as_f64(t)
    small = np.abs(t) < SINHC_TAYLOR
    patch = small.any()
    safe = np.where(small, 1.0, t) if patch else t
    sh = np.sinh(safe)
    k, dk = sh / safe, (safe * np.cosh(safe) - sh) / (safe * safe)
    if patch:
        k, dk = np.where(small, 1.0 + t * t / 6.0, k), np.where(small, t / 3.0, dk)
    return k, dk


def _logsumexp_rows_kernel(m: Array) -> Array:
    mx = np.max(m, axis=-1, keepdims=True)
    return np.log(np.sum(np.exp(m - mx), axis=-1)) + mx[..., 0]


def _unbroadcast(g: Array, shape: tuple[int, ...]) -> Array:
    """Reduce a broadcast gradient back to the operand's shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


def _bcast_sum_grad(g: Array, shape: tuple[int, ...], axis, keepdims: bool) -> Array:
    if axis is None:
        return np.broadcast_to(g, shape).astype(np.float64)
    if not keepdims:
        g = np.expand_dims(g, axis=axis)
    return np.broadcast_to(g, shape).astype(np.float64)


# ---------------------------------------------------------------------------
# Primitive registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Primitive:
    """A differentiable operation: numpy kernel, adjoint, and a sampler
    that draws gradcheck inputs away from any clamp boundary."""

    name: str
    forward: Callable[..., Array]
    vjp: Callable[..., tuple]
    sample: Callable[[np.random.Generator], tuple[tuple, dict]]


PRIMITIVES: dict[str, Primitive] = {}


def _register(name, forward, vjp, sample):
    PRIMITIVES[name] = Primitive(name, forward, vjp, sample)


def _rand(rng, *shape):
    return rng.standard_normal(shape)


_register(
    "add",
    lambda a, b: a + b,
    lambda g, out, ins, p: (_unbroadcast(g, ins[0].shape), _unbroadcast(g, ins[1].shape)),
    lambda rng: ((_rand(rng, 3, 4), _rand(rng, *((3, 4) if rng.integers(2) else (4,)))), {}),
)
_register(
    "sub",
    lambda a, b: a - b,
    lambda g, out, ins, p: (_unbroadcast(g, ins[0].shape), _unbroadcast(-g, ins[1].shape)),
    lambda rng: ((_rand(rng, 3, 4), _rand(rng, 3, 4)), {}),
)
_register(
    "mul",
    lambda a, b: a * b,
    lambda g, out, ins, p: (
        _unbroadcast(g * ins[1], ins[0].shape),
        _unbroadcast(g * ins[0], ins[1].shape),
    ),
    lambda rng: ((_rand(rng, 3, 4), _rand(rng, *((3, 4) if rng.integers(2) else (3, 1)))), {}),
)
_register(
    "div",
    lambda a, b: a / b,
    lambda g, out, ins, p: (
        _unbroadcast(g / ins[1], ins[0].shape),
        _unbroadcast(-g * ins[0] / (ins[1] * ins[1]), ins[1].shape),
    ),
    lambda rng: ((_rand(rng, 3, 4), np.sign(_rand(rng, 3, 4)) * (0.5 + np.abs(_rand(rng, 3, 4)))), {}),
)
_register(
    "neg",
    lambda a: -a,
    lambda g, out, ins, p: (-g,),
    lambda rng: ((_rand(rng, 3, 4),), {}),
)
_register(
    "matmul",
    lambda a, b: a @ b,
    lambda g, out, ins, p: (g @ np.swapaxes(ins[1], -1, -2), np.swapaxes(ins[0], -1, -2) @ g),
    lambda rng: ((_rand(rng, 3, 4), _rand(rng, 4, 2)), {}),
)
_register(
    "transpose",
    lambda a: np.swapaxes(a, -1, -2),
    lambda g, out, ins, p: (np.swapaxes(g, -1, -2),),
    lambda rng: ((_rand(rng, 3, 4),), {}),
)
_register(
    "sum",
    lambda a, axis=None, keepdims=False: np.sum(a, axis=axis, keepdims=keepdims),
    lambda g, out, ins, p: (_bcast_sum_grad(g, ins[0].shape, p.get("axis"), p.get("keepdims", False)),),
    lambda rng: (
        (_rand(rng, 3, 4),),
        {"axis": [None, 0, -1][rng.integers(3)], "keepdims": bool(rng.integers(2))},
    ),
)
_register(
    "sqrt",
    np.sqrt,
    lambda g, out, ins, p: (g * 0.5 / out,),
    lambda rng: ((0.1 + np.abs(_rand(rng, 3, 4)),), {}),
)
_register(
    "exp",
    np.exp,
    lambda g, out, ins, p: (g * out,),
    lambda rng: ((np.clip(_rand(rng, 3, 4), -2, 2),), {}),
)
_register(
    "log",
    np.log,
    lambda g, out, ins, p: (g / ins[0],),
    lambda rng: ((0.1 + np.abs(_rand(rng, 3, 4)),), {}),
)
_register(
    "sinh",
    np.sinh,
    lambda g, out, ins, p: (g * np.cosh(ins[0]),),
    lambda rng: ((np.clip(_rand(rng, 3, 4), -2, 2),), {}),
)
_register(
    "cosh",
    np.cosh,
    lambda g, out, ins, p: (g * np.sinh(ins[0]),),
    lambda rng: ((np.clip(_rand(rng, 3, 4), -2, 2),), {}),
)
_register(
    "tanh",
    np.tanh,
    lambda g, out, ins, p: (g * (1.0 - out * out),),
    lambda rng: ((np.clip(_rand(rng, 3, 4), -2, 2),), {}),
)
_register(
    "asin",
    np.arcsin,
    lambda g, out, ins, p: (g / np.sqrt(np.maximum(1.0 - ins[0] * ins[0], 1e-16)),),
    lambda rng: ((rng.uniform(-0.9, 0.9, (3, 4)),), {}),
)
_register(
    "acos",
    np.arccos,
    lambda g, out, ins, p: (-g / np.sqrt(np.maximum(1.0 - ins[0] * ins[0], 1e-16)),),
    lambda rng: ((rng.uniform(-0.9, 0.9, (3, 4)),), {}),
)
_register(
    "acosh",
    np.arccosh,
    lambda g, out, ins, p: (
        g / np.sqrt(np.square(np.maximum(ins[0], 1.0 + ACOSH_EPS)) - 1.0),
    ),
    lambda rng: ((rng.uniform(1.5, 3.0, (3, 4)),), {}),
)
_register(
    "sinhc",
    sinhc_kernel,
    lambda g, out, ins, p: (g * dsinhc_kernel(ins[0]),),
    lambda rng: ((rng.uniform(0.01, 2.5, (3, 4)),), {}),
)


def _clamp_mask(x, lo, hi):
    mask = np.ones_like(x, dtype=bool)
    if lo is not None:
        mask &= x > lo
    if hi is not None:
        mask &= x < hi
    return mask


def _sample_clamp(rng):
    x = rng.uniform(-1.5, 1.5, (3, 4))
    lo, hi = -0.5, 0.8
    # keep gradcheck points away from the kinks
    for b in (lo, hi):
        near = np.abs(x - b) < 0.05
        x = np.where(near, x + 0.15, x)
    return (x,), {"lo": lo, "hi": hi}


_register(
    "clamp",
    lambda a, lo=None, hi=None: np.clip(a, lo, hi),
    lambda g, out, ins, p: (g * _clamp_mask(ins[0], p["lo"], p["hi"]),),
    _sample_clamp,
)


def _sample_relu(rng):
    x = rng.uniform(-1.5, 1.5, (3, 4))
    x = np.where(np.abs(x) < 0.05, x + 0.2, x)
    return (x,), {}


_register(
    "relu",
    lambda a: np.maximum(a, 0.0),
    lambda g, out, ins, p: (g * (ins[0] > 0.0),),
    _sample_relu,
)
_register(
    "logsumexp_rows",
    _logsumexp_rows_kernel,
    lambda g, out, ins, p: (g[..., None] * np.exp(ins[0] - out[..., None]),),
    lambda rng: ((_rand(rng, 3, 5),), {}),
)


def _diag_scatter(g, shape):
    m = np.zeros(shape)
    i = np.arange(shape[-1])
    m[..., i, i] = g
    return m


_register(
    "diag_part",
    lambda a: np.diagonal(a, axis1=-2, axis2=-1).copy(),
    lambda g, out, ins, p: (_diag_scatter(g, ins[0].shape),),
    lambda rng: ((_rand(rng, 4, 4),), {}),
)


# ---------------------------------------------------------------------------
# Tape and nodes
# ---------------------------------------------------------------------------

@dataclass
class TapeNode:
    op: str                      # primitive name, or "var"/"const" for leaves
    inputs: tuple[int, ...]
    value: Array
    params: dict


class Node:
    """Handle to a tape entry; supports numpy-like arithmetic."""

    __slots__ = ("tape", "idx")
    __array_ufunc__ = None       # keep numpy from intercepting ndarray <op> Node

    def __init__(self, tape: "Tape", idx: int):
        self.tape = tape
        self.idx = idx

    @property
    def value(self) -> Array:
        return self.tape.nodes[self.idx].value

    @property
    def shape(self):
        return self.value.shape

    def item(self) -> float:
        return float(self.value)

    def __repr__(self):
        return f"Node(idx={self.idx}, op={self.tape.nodes[self.idx].op}, shape={self.shape})"

    def __add__(self, other):
        return apply_op("add", self, other)

    def __radd__(self, other):
        return apply_op("add", other, self)

    def __sub__(self, other):
        return apply_op("sub", self, other)

    def __rsub__(self, other):
        return apply_op("sub", other, self)

    def __mul__(self, other):
        return apply_op("mul", self, other)

    def __rmul__(self, other):
        return apply_op("mul", other, self)

    def __truediv__(self, other):
        return apply_op("div", self, other)

    def __rtruediv__(self, other):
        return apply_op("div", other, self)

    def __neg__(self):
        return apply_op("neg", self)

    def __matmul__(self, other):
        return apply_op("matmul", self, other)


class Tape:
    """Append-only record of primitive ops; append order is topological."""

    def __init__(self):
        self.nodes: list[TapeNode] = []

    def _append(self, op, inputs, value, params) -> Node:
        self.nodes.append(TapeNode(op, inputs, _as_f64(value), params))
        return Node(self, len(self.nodes) - 1)

    def var(self, value) -> Node:
        """Leaf whose gradient is reported by backward()."""
        return self._append("var", (), value, {})

    def const(self, value) -> Node:
        """Leaf excluded from gradient reporting."""
        return self._append("const", (), value, {})

    def leaves(self) -> list[int]:
        return [i for i, n in enumerate(self.nodes) if n.op == "var"]

    def kink_margin(self) -> float:
        """Least |input - bound| over the tape's clamp nodes (their lo
        and/or hi) and relu nodes (0); inf when the tape has none.

        Near a kink the zero subgradient and a two-sided difference
        legitimately disagree, so gradient checks skip such points.
        """
        return float(self.kink_margins(1)[0])

    def kink_margins(self, points: int) -> Array:
        """`kink_margin` of each of `points` independent forward passes
        recorded as one stack: every clamp and relu input splits into
        `points` equal blocks of its flat values, one per pass (so a
        leading stack axis of that length).  A block holding NaN counts
        as no kink, as a NaN margin never wins a `min`."""
        margin = np.full(points, np.inf)
        for node in self.nodes:
            if node.op == "clamp":
                bounds = (node.params["lo"], node.params["hi"])
            elif node.op == "relu":
                bounds = (0.0,)
            else:
                continue
            x = self.nodes[node.inputs[0]].value
            for b in bounds:
                if b is not None and x.size:
                    margin = np.fmin(margin, np.min(np.abs(x - b).reshape(points, -1), axis=1))
        return margin

    def backward(self, output: Node) -> dict[int, Array]:
        """Gradients of a scalar output with respect to every var leaf.

        Visits nodes in strict reverse append order and accumulates
        adjoints in that fixed order, so repeated calls over the same tape
        are bitwise identical.
        """
        if output.tape is not self:
            raise ValueError("output node belongs to a different tape")
        out_node = self.nodes[output.idx]
        if out_node.value.size != 1:
            raise ValueError("backward output must be scalar-valued")
        grads: list[Array | None] = [None] * len(self.nodes)
        grads[output.idx] = np.ones_like(out_node.value)
        for idx in range(len(self.nodes) - 1, -1, -1):
            node = self.nodes[idx]
            g = grads[idx]
            if g is None or node.op in ("var", "const"):
                continue
            prim = PRIMITIVES[node.op]
            in_vals = [self.nodes[i].value for i in node.inputs]
            in_grads = prim.vjp(g, node.value, in_vals, node.params)
            for i, ig in zip(node.inputs, in_grads):
                if ig is None:
                    continue
                grads[i] = ig if grads[i] is None else grads[i] + ig
        return {
            i: (grads[i] if grads[i] is not None else np.zeros_like(self.nodes[i].value))
            for i in self.leaves()
        }


# ---------------------------------------------------------------------------
# Generic op dispatch
# ---------------------------------------------------------------------------

def apply_op(op: str, *args, **params):
    """Evaluate a primitive; records on the tape if any argument is a Node."""
    tape = None
    for a in args:
        if isinstance(a, Node):
            if tape is None:
                tape = a.tape
            elif a.tape is not tape:
                raise ValueError("cannot mix nodes from different tapes")
    prim = PRIMITIVES[op]
    if tape is None:
        return prim.forward(*[_as_f64(a) for a in args], **params)
    nodes = [a if isinstance(a, Node) else tape.const(a) for a in args]
    value = prim.forward(*[n.value for n in nodes], **params)
    return tape._append(op, tuple(n.idx for n in nodes), value, params)


def matmul(a, b):
    return apply_op("matmul", a, b)


def transpose(a):
    return apply_op("transpose", a)


def sum(a, axis=None, keepdims=False):  # noqa: A001 - numpy-style namespace use (ad.sum)
    return apply_op("sum", a, axis=axis, keepdims=keepdims)


def sqrt(a):
    return apply_op("sqrt", a)


def exp(a):
    return apply_op("exp", a)


def log(a):
    return apply_op("log", a)


def sinh(a):
    return apply_op("sinh", a)


def cosh(a):
    return apply_op("cosh", a)


def tanh(a):
    return apply_op("tanh", a)


def asin(a):
    return apply_op("asin", a)


def acos(a):
    return apply_op("acos", a)


def acosh(a):
    return apply_op("acosh", a)


def sinhc(a):
    return apply_op("sinhc", a)


def clamp(a, lo=None, hi=None):
    return apply_op("clamp", a, lo=lo, hi=hi)


def relu(a):
    return apply_op("relu", a)


def logsumexp_rows(a):
    return apply_op("logsumexp_rows", a)


def diag_part(a):
    return apply_op("diag_part", a)


def value_of(x) -> Array:
    """Underlying array of a Node, or the input coerced to float64."""
    return x.value if isinstance(x, Node) else _as_f64(x)


# ---------------------------------------------------------------------------
# Finite differences and gradient reports
# ---------------------------------------------------------------------------

def finite_diff_stacked(f_stack: Callable[[Array], Array], x, h: float = 1e-5) -> Array:
    """Central-difference gradients at a stack of points from calls of a
    function's stacked form.

    `x` holds P points on its leading axis, N = x[0].size coordinates
    each.  Point p has 2N perturbed copies: copies i and N + i are the
    point plus and minus h along coordinate i.  `f_stack` maps a
    (2KN, *x.shape[1:]) stack of the copies of K points, point by point,
    to their 2KN values; one call takes as many points as keep the stack
    within FD_BLOCK values (one point if its copies hold more).  Returns
    the (P, *x.shape[1:]) gradients.  Raises if any value is non-finite,
    naming the first such point and coordinate.
    """
    x = _as_f64(x)
    p, shape = len(x), x.shape[1:]
    n = x[0].size
    i = np.arange(n)

    def values(points):
        copies = np.repeat(points.reshape(len(points), 1, n), 2 * n, axis=1)
        copies[:, i, i] += h
        copies[:, n + i, i] -= h
        return _as_f64(f_stack(copies.reshape((-1,) + shape)))

    per = max(1, FD_BLOCK // (2 * n * n))
    fpm = np.concatenate([values(x[k:k + per]) for k in range(0, p, per)]).reshape(p, 2 * n)
    fp, fm = fpm[:, :n], fpm[:, n:]
    finite = np.isfinite(fp) & np.isfinite(fm)
    if not finite.all():
        point, coord = np.unravel_index(int(np.argmin(finite)), finite.shape)
        mi = tuple(int(k) for k in np.unravel_index(coord, shape))
        raise ValueError(f"non-finite evaluation of f at point {point}, coordinate {mi}")
    return ((fp - fm) / (2.0 * h)).reshape(x.shape)


def finite_diff(f: Callable[[Array], float], x, h: float = 1e-5) -> Array:
    """Central-difference gradient of a scalar function at x.

    Raises if any evaluation is non-finite, naming the coordinate.
    """
    x = _as_f64(x)
    return finite_diff_stacked(lambda points: [float(f(p)) for p in points], x[None], h).reshape(x.shape)


@dataclass
class GradReport:
    """Analytic vs numeric gradient of one scalar function."""

    analytic: Array
    numeric: Array
    max_abs_err: float
    max_rel_err: float

    def within(self, rtol: float, atol: float) -> bool:
        return bool(np.allclose(self.analytic, self.numeric, rtol=rtol, atol=atol))


def make_report(analytic: Array, numeric: Array) -> GradReport:
    analytic = _as_f64(analytic)
    numeric = _as_f64(numeric)
    abs_err = np.abs(analytic - numeric)
    rel_err = abs_err / np.maximum(np.abs(numeric), 1e-12)
    return GradReport(
        analytic=analytic,
        numeric=numeric,
        max_abs_err=float(abs_err.max()) if abs_err.size else 0.0,
        max_rel_err=float(rel_err.max()) if rel_err.size else 0.0,
    )
