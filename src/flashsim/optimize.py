"""Constrained maximization of vector objectives, plus a brute-force oracle.

The solver is sequential least-squares programming (SciPy's SLSQP) driven
by central finite-difference gradients, restarted from a Latin hypercube of
seeds over the bound box.  The starts run in lockstep through SciPy's SLSQP
core: each round steps every running start once, then evaluates the points
they ask for in one batch, so each start's iterates are those of its own
``minimize(method="SLSQP")`` call.  Residuals are normalized by the magnitude
of their constant term so pools five orders of magnitude apart weigh
comparably.  :class:`Problem`, built once per solve or scan by
:func:`problem`, is the single place where residuals are scaled; the
solver, the grid oracle and the CLI's constraint report read it.
The solver reads only the vector: an :class:`~flashsim.vectors.AttackVector`
captures the scenario when it is built or parsed, so solving on another
scenario means building the vector on it.
Objectives and constraints take a point or a batch, closed form and replayed
chain alike: a round's gradients are one call on the 2n stencil rows of
every start, its constraint Jacobians one call on their n forward steps (the
residuals at x come from the round before), a scan one call per block.

``grid_oracle`` is the independent check: an exhaustive feasible-box scan
(plus one local refinement pass) that certifies solver results for 1 to 3
parameters, in memory bounded at any resolution; its time grows as res ** n.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.optimize._slsqplib import slsqp as _slsqp  # SciPy's reverse-communication SLSQP core

from .models import ConfigError
from .vectors import AttackVector, ConstraintSpec, EvaluationError, closed_form_objective

FEASIBILITY_TOL = 1e-6
MAX_ITERATIONS = 200  # SLSQP's iteration cap per start
TOLERANCE = 1e-9  # SLSQP's accuracy goal
FD_STEP = 1e-4  # central-difference step of the objective gradient only
GRID_BLOCK = 4096  # mesh points per grid oracle call
_SQRT_EPS = np.sqrt(np.finfo(float).eps)  # SciPy's absolute step for SLSQP's constraint Jacobian


@dataclass(frozen=True)
class OptimizationResult:
    """Best point found; `max_violation` is the worst scaled residual (signed,
    positive means slack), so feasible results satisfy max_violation >= -1e-6."""

    best_params: tuple[float, ...]
    best_objective: float
    max_violation: float
    feasible: bool
    iterations: int
    wall_time: float
    starts_tried: int
    method: str

    def as_dict(self) -> dict:
        return {
            "best_params": list(self.best_params),
            "best_objective": self.best_objective,
            "max_violation": self.max_violation,
            "feasible": self.feasible,
            "iterations": self.iterations,
            "starts_tried": self.starts_tried,
            "method": self.method,
        }


@dataclass(frozen=True)
class Problem:
    """A vector's objective and active constraints, with the residual scales.

    Residuals are normalized by their magnitude at the lower-bound corner,
    i.e. the constant term for the affine majority (pools differ by ~1e5 in
    size)."""

    objective: Callable[[np.ndarray], np.ndarray | float]
    constraints: tuple[ConstraintSpec, ...]
    scales: np.ndarray
    bounds: tuple[tuple[float, float], ...]

    def residuals(self, p) -> np.ndarray:
        """Scaled residual of every active constraint, ``(..., m)`` at a point or batch ``(..., n)``."""
        p = np.asarray(p, dtype=float)
        values = np.empty((len(self.constraints),) + p.shape[:-1])  # constraint-major: fast min over m
        for j, c in enumerate(self.constraints):
            values[j] = c.fn(p)
        return np.moveaxis(values, 0, -1) / self.scales


def problem(vector: AttackVector, ignore: Iterable[str] = ()) -> Problem:
    """The solver's view of `vector`, minus the ignored constraints."""
    ignored = set(ignore)
    unknown = ignored - {c.name for c in vector.constraints}
    if unknown:
        raise ConfigError(f"cannot ignore unknown constraint(s) {sorted(unknown)}")
    constraints = tuple(c for c in vector.constraints if c.name not in ignored)
    corner = np.array([lo for lo, _ in vector.bounds], dtype=float)
    scales = np.array([max(1.0, abs(float(c.fn(corner)))) for c in constraints])
    return Problem(closed_form_objective(vector), constraints, scales, vector.bounds)


def latin_hypercube(n: int, bounds, seed: int) -> np.ndarray:
    """Deterministic LHS sample of n points over the bound box."""
    rng = np.random.default_rng(seed)
    dim = len(bounds)
    lo, hi = np.array(bounds, dtype=float).T
    cells = np.stack([rng.permutation(n) for _ in range(dim)], axis=1)
    u = (cells + rng.random((n, dim))) / n
    return lo + u * (hi - lo)


def _central_difference(f, params: np.ndarray, step: float) -> np.ndarray:
    """Central difference of `f` at each point of a batch ``(k, n)``, from one call on the 2n
    stencil rows of every point; an EvaluationError's `row` names the point."""
    k, n = params.shape
    bump = step * np.eye(n)
    stencil = np.concatenate([params[:, None] + bump, params[:, None] - bump], axis=1)
    try:
        values = np.asarray(f(stencil.reshape(-1, n)), dtype=float).reshape(k, 2 * n)
    except EvaluationError as exc:
        error = EvaluationError(exc.step, f"while differencing coordinate {exc.row % n}: {exc}")
        error.row = exc.row // (2 * n)
        raise error from None
    return (values[:, :n] - values[:, n:]) / (2.0 * step)


def _forward_jacobian(f, x: np.ndarray, lo: np.ndarray, hi: np.ndarray, f0: np.ndarray) -> np.ndarray:
    """SciPy's 2-point Jacobian of `f` for SLSQP, bit for bit, at each point of a batch ``(k, n)``
    whose values at the clipped points are `f0` ``(k, m)``: one call on the n forward steps of
    every point, sqrt(eps), relative where x + sqrt(eps) == x, reversed or cut short at the box.
    Returns ``(k, m, n)``; an EvaluationError's `row` names the point."""
    x = np.clip(x, lo, hi)
    h = np.where(x + _SQRT_EPS == x, _SQRT_EPS * np.where(x >= 0, 1.0, -1.0) * np.maximum(1.0, np.abs(x)), _SQRT_EPS)
    below, above = x - lo, hi - x
    fitting = np.abs(h) <= np.maximum(below, above)
    h = np.where(fitting, np.where((x + h < lo) | (x + h > hi), -h, h), np.where(above >= below, above, -below))
    k, n = x.shape
    rows = np.repeat(x[:, None], n, axis=1)
    rows[:, np.arange(n), np.arange(n)] = x + h
    try:
        values = f(rows.reshape(-1, n)).reshape(k, n, f0.shape[1])
    except EvaluationError as exc:
        exc.row //= n
        raise
    return ((values - f0[:, None]) / ((x + h) - x)[:, :, None]).transpose(0, 2, 1)


def finite_diff_gradient(vector: AttackVector, params: Sequence[float], step: float) -> np.ndarray:
    """Central-difference gradient of the objective at an interior point."""
    params = np.asarray(params, dtype=float)
    for i, ((lo, hi), p) in enumerate(zip(vector.bounds, params)):
        if not (lo + step <= p <= hi - step):
            raise ValueError(
                f"parameter {i} = {p} not interior to [{lo}, {hi}] by step {step}"
            )
    return _central_difference(closed_form_objective(vector), params[None], step)[0]


class _Lane:
    """One start's SLSQP state and workspace, laid out as SciPy's `_minimize_slsqp` lays them out."""

    def __init__(self, x0: np.ndarray, m: int):
        n = len(x0)
        self.state = {"acc": TOLERANCE, "alpha": 0.0, "f0": 0.0, "gs": 0.0, "h1": 0.0, "h2": 0.0, "h3": 0.0,
                      "h4": 0.0, "t": 0.0, "t0": 0.0, "tol": 10.0 * TOLERANCE, "exact": 0, "inconsistent": 0,
                      "reset": 0, "iter": 0, "itermax": MAX_ITERATIONS, "line": 0, "m": m,
                      "meq": 0, "mode": 0, "n": n}
        size = n * (n + 1) // 2 + 3 * m * n + 9 * m + 8 * n * n + 35 * n + 28 + (0 if m else 2 * n * (n + 1))
        self.buffer = np.zeros(size)
        self.indices = np.zeros(m + 2 * n + 2, dtype=np.int32)
        self.mult = np.zeros(m + 2 * n + 2)
        self.C = np.zeros((max(1, m), n), order="F")
        self.d = np.zeros(max(1, m))
        self.x, self.f, self.g = x0, 0.0, np.zeros(n)
        self.at, self.r = None, None  # the last point whose residuals were taken, and them
        self.failed = False


def _surviving(lanes: list[_Lane], evaluate) -> list:
    """(lane, value) pairs of `evaluate(lanes)`, re-run without each lane whose point raises
    EvaluationError (its `row` indexes `lanes`), as a per-start solve would skip that start."""
    while lanes:
        try:
            return list(zip(lanes, evaluate(lanes)))
        except EvaluationError as exc:
            lanes[exc.row].failed = True
            lanes = lanes[:exc.row] + lanes[exc.row + 1:]
    return []


def _lockstep_slsqp(prob: Problem, starts: np.ndarray, free: np.ndarray) -> list[tuple[np.ndarray, int]]:
    """(end point, iterations) of SciPy's SLSQP from each start whose evaluations all succeed.

    Every start is a lane of SciPy's reverse-communication core, which `minimize` loops over
    one start at a time; here each round calls the core once per running lane, then evaluates
    the points the lanes asked for in one batch.  Each lane sees what `_minimize_slsqp` gives
    it: f and g at the clipped start, f, residuals and g at the core's x, the constraint
    Jacobian at x clipped to the box, and only the coordinates that the bounds leave free."""
    lo, hi = np.array(prob.bounds, dtype=float).T
    xl, xu = lo[free], hi[free]
    m = len(prob.constraints)

    def full(x):
        """Each point of the free coordinates, with the fixed ones at their bound."""
        out = np.tile(lo, (len(x), 1))
        out[:, free] = x
        return out

    def objective(x):
        return np.asarray(prob.objective(full(x)), dtype=float)

    def residuals(x):
        return prob.residuals(full(x))

    def ask_f(lanes):
        def evaluate(kept):
            x = np.array([lane.x for lane in kept])
            return zip(x, objective(x), residuals(x))
        for lane, (x, f, r) in _surviving(lanes, evaluate):
            lane.f, lane.at, lane.r = -float(f), x, r
            lane.d[:m] = r

    def ask_g(lanes):
        def residuals_at(kept):  # residuals at a clipped point the lane's last f did not take
            x = np.array([np.clip(lane.x, xl, xu) for lane in kept])
            return zip(x, residuals(x))
        for lane, (x, r) in _surviving([lane for lane in lanes if not np.array_equal(
                np.clip(lane.x, xl, xu), lane.at)], residuals_at):
            lane.at, lane.r = x, r
        gradients = _surviving([lane for lane in lanes if not lane.failed], lambda kept: -_central_difference(
            objective, np.array([lane.x for lane in kept]), FD_STEP))
        jacobians = _surviving([lane for lane, _ in gradients], lambda kept: _forward_jacobian(
            residuals, np.array([lane.x for lane in kept]), xl, xu, np.array([lane.r for lane in kept])))
        for lane, g in gradients:
            lane.g = g
        for lane, jacobian in jacobians:
            lane.C[:m] = jacobian

    lanes = [_Lane(x0.copy(), m) for x0 in np.clip(starts[:, free], xl, xu)]
    ask_f(lanes)
    ask_g([lane for lane in lanes if not lane.failed])
    running = [lane for lane in lanes if not lane.failed]
    while running:
        for lane in running:
            _slsqp(lane.state, lane.f, lane.g, lane.C, lane.d, lane.x, lane.mult, xl, xu, lane.buffer, lane.indices)
        ask_f([lane for lane in running if lane.state["mode"] == 1])
        ask_g([lane for lane in running if lane.state["mode"] == -1])
        running = [lane for lane in running if abs(lane.state["mode"]) == 1 and not lane.failed]
    return [(full(lane.x[None])[0], lane.state["iter"]) for lane in lanes if not lane.failed]


def solve(vector: AttackVector, ignore: Iterable[str] = (), starts: int = 16, seed: int = 0) -> OptimizationResult:
    """Maximize the vector objective subject to its accumulated constraints.

    Multi-start over a seeded Latin hypercube; returns the best feasible
    point, or an explicitly infeasible result (never a silent zero) when no
    start lands within the scaled feasibility tolerance.  A start whose
    evaluation fails is skipped; parameters fixed by their bounds stay at them.
    """
    if starts < 1:
        raise ConfigError(f"starts must be >= 1, got {starts}")
    if vector.n_params < 1:
        raise ConfigError("vector has no free parameters")
    if any(not np.isfinite([lo, hi]).all() for lo, hi in vector.bounds):
        raise ConfigError("solver needs finite bounds")

    started = time.perf_counter()
    prob = problem(vector, ignore)
    lo, hi = np.array(vector.bounds, dtype=float).T
    points = latin_hypercube(starts, vector.bounds, seed)
    free = lo < hi
    # with every parameter fixed, each start ends where SciPy leaves it: at the lower corner
    solved = _lockstep_slsqp(prob, points, free) if free.any() else [(lo, 0)] * starts
    ends = []  # (objective, params, min residual) of each start that ends at a finite objective
    if solved:
        x = np.clip(np.array([end for end, _ in solved]), lo, hi)
        values = np.asarray(prob.objective(x), dtype=float)
        worst = prob.residuals(x).min(axis=-1, initial=np.inf)
        ends = [(float(v), p, float(w)) for v, p, w in zip(values, x, worst) if np.isfinite(v)]

    elapsed = time.perf_counter() - started
    if not ends:
        raise EvaluationError(0, "every start failed to evaluate")
    # the first best feasible end, else the first least violated one
    feasible = [end for end in ends if end[2] >= -FEASIBILITY_TOL]
    value, x, worst = max(feasible, key=lambda end: end[0]) if feasible else max(ends, key=lambda end: end[2])
    return OptimizationResult(
        best_params=tuple(float(v) for v in x),
        best_objective=value,
        max_violation=worst,
        feasible=bool(feasible),
        iterations=sum(iterations for _, iterations in solved),
        wall_time=elapsed,
        starts_tried=starts,
        method="slsqp",
    )


def grid_oracle(vector: AttackVector, resolution: int, ignore: Iterable[str] = ()) -> OptimizationResult:
    """Exhaustive feasible-box scan plus one refinement pass around the best cell.

    Independent of the gradient solver; used to certify its results.  Only
    supported for up to three free parameters (desk-scale exhaustion).
    """
    if vector.n_params > 3:
        raise ValueError(f"grid oracle supports at most 3 parameters, got {vector.n_params}")
    if resolution < 2:
        raise ConfigError("grid resolution must be at least 2")
    started = time.perf_counter()
    prob = problem(vector, ignore)
    evaluated = 0

    def scan(lo: np.ndarray, hi: np.ndarray) -> tuple[bool, float, np.ndarray, float]:
        """(feasible, objective, point, smallest scaled residual) at the first best
        feasible point of the row-major mesh, or at its `lo` corner if none is.
        A zero-width axis is one mesh line: its other lines repeat every point."""
        nonlocal evaluated
        shape = tuple(resolution if a < b else 1 for a, b in zip(lo, hi))
        axes = [np.linspace(a, b, n) for a, b, n in zip(lo, hi, shape)]
        size, winners = math.prod(shape), []  # per block: key, objective, point, worst
        evaluated += size
        for start in range(0, size, GRID_BLOCK):
            index = np.unravel_index(np.arange(start, min(start + GRID_BLOCK, size)), shape)
            pts = np.stack([axis[i] for axis, i in zip(axes, index)], axis=-1)
            values = np.asarray(prob.objective(pts), dtype=float)
            worst = prob.residuals(pts).min(axis=-1, initial=np.inf)
            keys = np.where(worst >= -FEASIBILITY_TOL, values, -np.inf)
            k = int(np.argmax(keys))  # copies, so no view keeps its block alive
            winners.append((keys[k], float(values[k]), pts[k].copy(), float(worst[k])))
        _, value, point, worst = winners[int(np.argmax([w[0] for w in winners]))]
        return worst >= -FEASIBILITY_TOL, value, point, worst

    lo, hi = np.array(vector.bounds, dtype=float).T
    best = scan(lo, hi)
    if best[0]:
        cell = (hi - lo) / (resolution - 1)
        fine = scan(np.maximum(lo, best[2] - cell), np.minimum(hi, best[2] + cell))
        if fine[0] and fine[1] > best[1]:
            best = fine

    elapsed = time.perf_counter() - started
    feasible, value, point, worst = best
    return OptimizationResult(
        best_params=tuple(float(v) for v in point),
        best_objective=value,
        max_violation=worst,
        feasible=feasible,
        iterations=evaluated,
        wall_time=elapsed,
        starts_tried=1,
        method="grid",
    )
