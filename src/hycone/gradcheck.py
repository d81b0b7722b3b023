"""Gradient verification suites: per-primitive checks against central
finite differences, and end-to-end checks of the training objective: the
tape's gradient against central differences, and the closed form the
trainer runs (`losses.objective_grad`) against the tape.

A check runs its sample points as stacks, not one forward pass per
point.  A primitive's points are all drawn first, in one RNG order; the
points that share input shapes and params go through one tape and one
backward, each point on a leading stack axis.  The objective's candidate
points of a variant are recorded on one tape.  Central differences take
as many points per forward as `autodiff.FD_BLOCK` allows.  The kernels
are elementwise or act on their trailing axes, so each stacked point
gets the bits it gets alone.

End-to-end sample points whose forward pass runs within a margin of any
clamp or hinge boundary are skipped (the analytic subgradient and the
two-sided difference legitimately disagree there); replacement seeds are
drawn from a deterministic stream.  The tape that records a batch of
candidates gives each its margin (`Tape.kink_margins`) and, for an
admissible one, its tape gradient.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import PRIMITIVES, GradReport, Tape, finite_diff_stacked, make_report
from .autodiff import finite_diff  # noqa: F401  unused; bench/spec.py traces it here
from .entailment import CONE_BOUNDARY  # the cone boundary of every end-to-end point
from .losses import TAU_INIT, SimilarityMode, objective, objective_grad

BOUNDARY_MARGIN = 1e-3
END_TO_END_RTOL = 1e-4
END_TO_END_ATOL = 1e-6
PRIMITIVE_RTOL = 1e-6
PRIMITIVE_ATOL = 1e-9
# Central-difference step of every check.
STEP = 1e-5
# Shape (batch x dim rows) of every end-to-end point.
END_TO_END_BATCH = 4
END_TO_END_DIM = 8


@dataclass
class CheckResult:
    name: str
    passed: bool
    report: GradReport


# ---------------------------------------------------------------------------
# Stacked points
# ---------------------------------------------------------------------------

def _rows(stacks: list[np.ndarray]) -> np.ndarray:
    """Point stacks (a leading point axis on each) as one flat row per point."""
    return np.concatenate([a.reshape(len(a), -1) for a in stacks], axis=1)


def _padded(stacks: list[np.ndarray]) -> list[np.ndarray]:
    """Point stacks with size-1 axes after the point axis up to the largest
    rank, so a point's (4,) operand still broadcasts against its (3, 4)
    one, and its scalars against its matrices."""
    ndim = max(a.ndim for a in stacks)
    return [a.reshape(a.shape[:1] + (1,) * (ndim - a.ndim) + a.shape[1:]) for a in stacks]


def _check_count(name: str, value: int) -> None:
    if value < 1:
        raise ValueError(f"gradcheck {name} must be >= 1, got {value}")


def _trailing_axis(axis, ndim: int):
    """A reduction axis of an ndim-array counted from the end, so that it
    names the same axes under a leading stack axis; None means all."""
    if axis is None:
        return tuple(range(-ndim, 0))
    return axis - ndim if axis >= 0 else axis


def _stacked_params(params: dict, ndim: int) -> dict:
    """The params of a call on rank-ndim points, for the same call on a
    stack of them: a sum's axis counted from the end."""
    if "axis" not in params:
        return params
    return {**params, "axis": _trailing_axis(params["axis"], ndim)}


def _numeric_gradient(forward, inputs: list[np.ndarray], params: dict, h: float) -> np.ndarray:
    """Central differences of sum(forward(*point, **params)) w.r.t. every
    input at each point of the input stacks (a leading point axis on
    each), (P, N) for P points of N coordinates.

    Each point's 2N perturbed copies go through the forward in a stack
    (`autodiff.finite_diff_stacked` over the points' flat rows, as many
    points per forward as `autodiff.FD_BLOCK` allows), padded as
    `_padded` pads (the objective's rows become (2N, B, n) stacks per
    point, its scalars (2N, 1, 1)), with a sum's axis counted from the
    end.  Each copy's value sums its output over every axis but the
    stack's.
    """
    shapes = [a.shape[1:] for a in inputs]
    bounds = np.cumsum([0] + [math.prod(shape) for shape in shapes])
    stacked = _stacked_params(params, inputs[0].ndim - 1)

    def f_stack(copies):
        args = [copies[:, lo:hi].reshape((len(copies),) + shape)
                for lo, hi, shape in zip(bounds, bounds[1:], shapes)]
        out = forward(*_padded(args), **stacked)
        return np.sum(out, axis=tuple(range(1, out.ndim)))

    return finite_diff_stacked(f_stack, _rows(inputs), h=h)


def _worst(name: str, stacks, rtol: float, atol: float) -> CheckResult:
    """One check over points held in row stacks, (draw indices, analytic
    (P, N), numeric (P, N)) each: it passes when every point is within
    rtol/atol (`GradReport.within`'s test) and reports the first point in
    draw order with the largest max abs error."""
    passed, worst = True, None
    for idx, analytic, numeric in stacks:
        passed &= bool(np.isclose(analytic, numeric, rtol=rtol, atol=atol).all())
        err = np.max(np.abs(analytic - numeric), axis=1)
        r = int(np.argmax(err))
        if worst is None or (err[r], -idx[r]) > worst[0]:
            worst = (err[r], -idx[r]), analytic[r], numeric[r]
    return CheckResult(name=name, passed=passed, report=make_report(worst[1], worst[2]))


# ---------------------------------------------------------------------------
# Per-primitive checks
# ---------------------------------------------------------------------------

def _primitive_gradients(name: str, inputs: list[np.ndarray], params: dict):
    """Tape and central-difference gradients of sum(op(*point, **params))
    at each point of the input stacks, (P, N) each."""
    tape = Tape()
    nodes = [tape.var(a) for a in _padded(inputs)]
    out = ad.apply_op(name, *nodes, **_stacked_params(params, inputs[0].ndim - 1))
    grads = tape.backward(ad.sum(out))
    analytic = _rows([grads[v.idx] for v in nodes])
    return analytic, _numeric_gradient(PRIMITIVES[name].forward, inputs, params, STEP)


def check_primitive(name: str, points: int = 100, seed: int = 0) -> CheckResult:
    """Check one registered primitive at `points` random sample points,
    one stack per signature (input shapes and params)."""
    _check_count("points", points)
    sample = PRIMITIVES[name].sample
    rng = np.random.default_rng(np.random.SeedSequence([seed, zlib.crc32(name.encode())]))
    draws = [sample(rng) for _ in range(points)]
    groups: dict[tuple, list[int]] = {}
    for j, (inputs, params) in enumerate(draws):
        groups.setdefault((tuple(np.shape(a) for a in inputs), tuple(sorted(params.items()))), []).append(j)
    stacks = []
    for idx in groups.values():
        inputs = [np.asarray(np.stack(col), dtype=np.float64) for col in zip(*(draws[j][0] for j in idx))]
        stacks.append((idx, *_primitive_gradients(name, inputs, draws[idx[0]][1])))
    return _worst(f"primitive/{name}", stacks, PRIMITIVE_RTOL, PRIMITIVE_ATOL)


def check_all_primitives(points: int = 100) -> list[CheckResult]:
    return [check_primitive(name, points=points) for name in sorted(PRIMITIVES)]


# ---------------------------------------------------------------------------
# End-to-end objective checks
# ---------------------------------------------------------------------------

def _sample_case(seed: int, batch: int, dim: int):
    rng = np.random.default_rng(np.random.SeedSequence([seed, 17]))
    imgs = rng.standard_normal((batch, dim))
    txts = rng.standard_normal((batch, dim))
    scalars = np.array(
        [
            np.log(1.0 / TAU_INIT) + 0.1 * rng.standard_normal(),
            0.1 * rng.standard_normal(),                        # log c near 0
            np.log(1.0 / np.sqrt(dim)) + 0.1 * rng.standard_normal(),
            np.log(1.0 / np.sqrt(dim)) + 0.1 * rng.standard_normal(),
        ]
    )
    return imgs, txts, scalars


def _admissible_among(seeds, mode: SimilarityMode, entail_weight: float, batch: int, dim: int) -> list:
    """The admissible cases among the sample points of `seeds`, in seed
    order, each as (imgs, txts, scalars, run, tape_grad).  One tape records
    the forward of every candidate, stacked on a leading axis ((S, B, n)
    rows, (S, 1, 1) scalars): a candidate whose forward runs within the
    boundary margin of a clamp or hinge kink is dropped, and one backward
    of the summed totals gives each kept one its tape gradient w.r.t. both
    row matrices and the four log scalars, flat."""

    def run(img_rows, txt_rows, sc):
        total, _, _ = objective(
            img_rows, txt_rows, sc[0], sc[1], sc[2], sc[3],
            mode=mode, entail_weight=entail_weight, cone_boundary=CONE_BOUNDARY,
        )
        return total

    imgs, txts, scalars = (np.stack(a) for a in zip(*(_sample_case(s, batch, dim) for s in seeds)))
    k = len(imgs)
    tape = Tape()
    leaves = [tape.var(imgs), tape.var(txts), *(tape.var(s.reshape(k, 1, 1)) for s in scalars.T)]
    total = run(leaves[0], leaves[1], leaves[2:])
    keep = np.flatnonzero(tape.kink_margins(k) >= BOUNDARY_MARGIN)
    if not keep.size:
        return []
    grads = tape.backward(ad.sum(total))
    tape_grads = _rows([grads[v.idx] for v in leaves])
    return [(imgs[j], txts[j], scalars[j], run, tape_grads[j]) for j in keep]


def _admissible_cases(seeds: int, mode: SimilarityMode, entail_weight: float, batch: int, dim: int) -> list:
    """The first `seeds` admissible cases of the deterministic seed stream,
    in seed order.  Each batch records as many candidates as are still
    missing; the first 50 * seeds candidates must hold enough."""
    cases, start, cap = [], 0, 50 * seeds
    while len(cases) < seeds:
        if start == cap:
            raise RuntimeError("could not find enough admissible gradcheck points")
        stop = min(start + seeds - len(cases), cap)
        cases += _admissible_among(range(start, stop), mode, entail_weight, batch, dim)
        start = stop
    return cases


def _case_differences(cases) -> np.ndarray:
    """Central differences of the objective at admissible cases of one
    variant, (P, N).  A forward takes as many cases as FD_BLOCK allows,
    which is one: a case's 136 perturbed copies hold 136 x 68 values."""
    imgs, txts, scalars, runs, _ = zip(*cases)
    run = runs[0]
    return _numeric_gradient(lambda i, t, *sc: run(i, t, sc),
                             [np.stack(imgs), np.stack(txts), *np.stack(scalars).T], {}, STEP)


def _closed_form_gradient(case, mode: SimilarityMode, entail_weight: float) -> np.ndarray:
    imgs, txts, scalars, *_ = case
    *_, g = objective_grad(
        imgs, txts, *scalars, mode=mode, entail_weight=entail_weight, cone_boundary=CONE_BOUNDARY,
    )
    scalar_names = ("log_inv_temp", "log_curv", "log_scale_img", "log_scale_txt")
    return np.concatenate([np.ravel(g[k]) for k in ("img_rows", "txt_rows", *scalar_names)])


def check_total_loss(seeds: int = 20) -> list[CheckResult]:
    """Objective gradchecks at `seeds` admissible random points for every
    similarity mode and entailment weight {0, 0.2}: the tape gradient
    against central differences (the two hyperbolic modes, at
    END_TO_END_RTOL/ATOL), then at the same points `objective_grad` against
    the tape (every mode, to the bit: the closed form repeats the tape's
    arithmetic in the tape's order)."""
    _check_count("seeds", seeds)
    tape_results, closed_results = [], []
    for mode in SimilarityMode:
        for lam in (0.0, 0.2):
            cases = _admissible_cases(seeds, mode, lam, END_TO_END_BATCH, END_TO_END_DIM)
            points = np.arange(len(cases))
            tape_grads = np.stack([case[-1] for case in cases])
            variant = f"{mode.value}/entail_weight={lam}"
            if mode is not SimilarityMode.COSINE:
                tape_results.append(_worst(f"total_loss/{variant}", [(points, tape_grads, _case_differences(cases))],
                                           END_TO_END_RTOL, END_TO_END_ATOL))
            closed = np.stack([_closed_form_gradient(case, mode, lam) for case in cases])
            closed_results.append(_worst(f"closed_form/{variant}", [(points, closed, tape_grads)], 0.0, 0.0))
    return tape_results + closed_results


def run_suite(points: int = 100, seeds: int = 20) -> bool:
    """Full gradient suite, one printed line per check; True when all pass."""
    results = check_all_primitives(points=points) + check_total_loss(seeds=seeds)
    all_ok = True
    for r in results:
        all_ok &= r.passed
        status = "ok" if r.passed else "FAIL"
        print(
            f"[{status}] {r.name}: max_abs_err={r.report.max_abs_err:.3e} "
            f"max_rel_err={r.report.max_rel_err:.3e}"
        )
    return all_ok
