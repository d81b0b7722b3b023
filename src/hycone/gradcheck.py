"""Gradient verification suites: per-primitive checks against central
finite differences, and end-to-end checks of the training objective: the
tape's gradient against central differences, and the closed form the
trainer runs (`losses.objective_grad`) against the tape.

Central differences take one forward pass per sample point, for each
primitive and for the objective: the 2N perturbed inputs go through the
forward as one stack of plain arrays (`autodiff.finite_diff_stacked`),
which gives the gradient a loop of 2N single calls would, bit for bit.

End-to-end sample points whose forward pass runs within a margin of any
clamp or hinge boundary are skipped (the analytic subgradient and the
two-sided difference legitimately disagree there); replacement seeds are
drawn from a deterministic stream.  Each point records the objective on
one tape, which gives both the margin (`Tape.kink_margin`) and, for an
admissible point, the tape gradient.
"""

from __future__ import annotations

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
# Per-primitive checks
# ---------------------------------------------------------------------------

def _flatten(arrays: list[np.ndarray]) -> np.ndarray:
    return np.concatenate([np.ravel(a) for a in arrays]) if arrays else np.zeros(0)


def _check_count(name: str, value: int) -> None:
    if value < 1:
        raise ValueError(f"gradcheck {name} must be >= 1, got {value}")


def _trailing_axis(axis, ndim: int):
    """A reduction axis of an ndim-array counted from the end, so that it
    names the same axes under a leading stack axis; None means all."""
    if axis is None:
        return tuple(range(-ndim, 0))
    return axis - ndim if axis >= 0 else axis


def _numeric_gradient(forward, inputs: list[np.ndarray], params: dict, h: float) -> np.ndarray:
    """Central differences of sum(forward(*inputs, **params)) w.r.t. every
    input, flat.

    The 2N perturbed points go through the forward as one stack: each
    input gets a leading 2N axis and, below it, size-1 axes up to the
    largest input's rank, so broadcasting inputs still broadcast (the
    objective's rows become (2N, B, n) stacks, its scalars (2N, 1, 1)).
    Each point's value sums its output over every axis but the stack's.
    """
    ndim = max(a.ndim for a in inputs)
    if "axis" in params:
        params = {**params, "axis": _trailing_axis(params["axis"], inputs[0].ndim)}

    def f_stack(points):
        k = len(points)
        args, off = [], 0
        for a in inputs:
            args.append(points[:, off:off + a.size].reshape((k,) + (1,) * (ndim - a.ndim) + a.shape))
            off += a.size
        out = forward(*args, **params)
        return np.sum(out, axis=tuple(range(1, out.ndim)))

    return finite_diff_stacked(f_stack, _flatten(inputs), h=h)


def check_primitive(name: str, points: int = 100, seed: int = 0) -> CheckResult:
    """Check one registered primitive at `points` random sample points."""
    _check_count("points", points)
    prim = PRIMITIVES[name]
    rng = np.random.default_rng(np.random.SeedSequence([seed, zlib.crc32(name.encode())]))
    worst: GradReport | None = None
    ok = True
    for _ in range(points):
        inputs, params = prim.sample(rng)
        inputs = [np.asarray(a, dtype=np.float64) for a in inputs]
        # analytic path: one var per input on a fresh tape
        tape = Tape()
        nodes = [tape.var(a) for a in inputs]
        out = ad.sum(ad.apply_op(name, *nodes, **params))
        grads = tape.backward(out)
        analytic = _flatten([grads[n.idx] for n in nodes])
        rep = make_report(analytic, _numeric_gradient(prim.forward, inputs, params, STEP))
        if worst is None or rep.max_abs_err > worst.max_abs_err:
            worst = rep
        if not rep.within(PRIMITIVE_RTOL, PRIMITIVE_ATOL):
            ok = False
    assert worst is not None
    return CheckResult(name=f"primitive/{name}", passed=ok, report=worst)


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


def _admissible_case(seed: int, mode: SimilarityMode, entail_weight: float, batch: int, dim: int):
    """(imgs, txts, scalars, run, tape_grad) at a sample point, or None if
    the forward pass runs within the boundary margin of a clamp or hinge
    kink.  One tape records the forward: its kink margin decides, and its
    backward gives the tape gradient w.r.t. both row matrices and the four
    log scalars, flat."""
    imgs, txts, scalars = _sample_case(seed, batch, dim)

    def run(img_rows, txt_rows, sc):
        total, _, _ = objective(
            img_rows, txt_rows, sc[0], sc[1], sc[2], sc[3],
            mode=mode, entail_weight=entail_weight, cone_boundary=CONE_BOUNDARY,
        )
        return total

    tape = Tape()
    vi, vt = tape.var(imgs), tape.var(txts)
    vs = [tape.var(s) for s in scalars]
    total = run(vi, vt, vs)
    if tape.kink_margin() < BOUNDARY_MARGIN:
        return None
    grads = tape.backward(total)
    return imgs, txts, scalars, run, _flatten([grads[v.idx] for v in (vi, vt, *vs)])


def _admissible_cases(seeds: int, mode: SimilarityMode, entail_weight: float, batch: int, dim: int):
    """The first `seeds` admissible cases of the deterministic seed stream."""
    collected = candidate = 0
    while collected < seeds:
        case = _admissible_case(candidate, mode, entail_weight, batch, dim)
        candidate += 1
        if candidate > 50 * seeds:
            raise RuntimeError("could not find enough admissible gradcheck points")
        if case is not None:
            collected += 1
            yield case


def _tape_report(case) -> GradReport:
    """The tape gradient of an admissible case against central differences."""
    imgs, txts, scalars, run, tape_grad = case
    numeric = _numeric_gradient(lambda i, t, *sc: run(i, t, sc), [imgs, txts, *scalars], {}, STEP)
    return make_report(tape_grad, numeric)


def _closed_form_gradient(case, mode: SimilarityMode, entail_weight: float) -> np.ndarray:
    imgs, txts, scalars, *_ = case
    *_, g = objective_grad(
        imgs, txts, *scalars, mode=mode, entail_weight=entail_weight, cone_boundary=CONE_BOUNDARY,
    )
    scalar_names = ("log_inv_temp", "log_curv", "log_scale_img", "log_scale_txt")
    return _flatten([g[k] for k in ("img_rows", "txt_rows", *scalar_names)])


def total_loss_report(seed: int, mode: SimilarityMode, entail_weight: float) -> GradReport | None:
    """Gradient report of the objective w.r.t. encoder outputs and the four
    log scalars; None if the point lies within the boundary margin."""
    case = _admissible_case(seed, mode, entail_weight, END_TO_END_BATCH, END_TO_END_DIM)
    if case is None:
        return None
    return _tape_report(case)


def _worst(name: str, reports: list[GradReport], rtol: float, atol: float) -> CheckResult:
    return CheckResult(
        name=name,
        passed=all(rep.within(rtol, atol) for rep in reports),
        report=max(reports, key=lambda rep: rep.max_abs_err),
    )


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
            tape_reports, closed_reports = [], []
            for case in _admissible_cases(seeds, mode, lam, END_TO_END_BATCH, END_TO_END_DIM):
                *_, tape_grad = case
                closed_reports.append(make_report(_closed_form_gradient(case, mode, lam), tape_grad))
                if mode is not SimilarityMode.COSINE:
                    tape_reports.append(_tape_report(case))
            variant = f"{mode.value}/entail_weight={lam}"
            if tape_reports:
                tape_results.append(_worst(f"total_loss/{variant}", tape_reports,
                                           END_TO_END_RTOL, END_TO_END_ATOL))
            closed_results.append(_worst(f"closed_form/{variant}", closed_reports, 0.0, 0.0))
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
