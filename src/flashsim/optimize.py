"""Constrained maximization of vector objectives, plus a brute-force oracle.

The solver is sequential least-squares programming (SciPy's SLSQP) driven
by SciPy's own forward differences, restarted from a Latin hypercube of
seeds over the bound box.  The starts run in lockstep through SciPy's SLSQP
core: each round steps every running start once, then evaluates the points
they ask for in one batch, so each start's iterates are those of its own
``minimize(method="SLSQP")`` call.  Residuals are normalized by the magnitude
of their constant term so pools five orders of magnitude apart weigh
comparably.  :class:`Problem`, built once per `optimize` run by
:func:`problem`, is the single place where residuals are scaled; the
solver, the grid oracle and the CLI's constraint report read it.
The solver reads only the Problem: an :class:`~flashsim.vectors.AttackVector`
captures the scenario when it is built or parsed, so solving on another
scenario means building the vector on it.
Objectives and constraints take a point or a batch, closed form and replayed
chain alike: a round differences the objective and the residuals together,
by one rule and in one call on the n in-box forward steps of every start
(their values at x come from the round before), and a scan makes one call
per block.  A point the chain cannot replay reads objective nan and residuals
-inf, and a closed form that overflows reads non-finite, without a warning;
a start drops out at its first non-finite value.  The solver's end points,
each grid block and then the block winners pick their best by one rule,
`_select`, among the evaluable points; a box with none is unusable input.

``grid_oracle`` is the independent check: an exhaustive feasible-box scan
that then zooms on its best point until the mesh is fine, certifying solver
results for 1 to 3 parameters in memory bounded at any resolution; its time
grows as res ** n.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass
from typing import Callable, Iterable

import numpy as np
from scipy.optimize._slsqplib import slsqp as _slsqp  # SciPy's reverse-communication SLSQP core

from .models import ConfigError
from .vectors import AttackVector, ConstraintSpec, closed_form_objective

FEASIBILITY_TOL = 1e-6
MAX_ITERATIONS = 200  # SLSQP's iteration cap per start
TOLERANCE = 1e-9  # SLSQP's accuracy goal
GRID_BLOCK = 4096  # mesh points per grid oracle call
GRID_ZOOM = 500  # the grid zooms until its mesh spacing is at most 1/GRID_ZOOM of the box
_SQRT_EPS = np.sqrt(np.finfo(float).eps)  # SciPy's absolute step for SLSQP's differences


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
        """Every field but `wall_time`, so that a report is reproducible."""
        return {k: v for k, v in asdict(self).items() if k != "wall_time"}


@dataclass(frozen=True)
class Problem:
    """A vector's objective and active constraints, with the residual scales.

    Residuals are normalized by their magnitude at the lower-bound corner,
    i.e. the constant term for the affine majority (pools differ by ~1e5 in
    size), or by 1 where that magnitude is not finite."""

    objective: Callable[[np.ndarray], np.ndarray | float]
    constraints: tuple[ConstraintSpec, ...]
    scales: np.ndarray
    bounds: tuple[tuple[float, float], ...]

    def values(self, p) -> np.ndarray:
        """The objective, then the scaled residual of every active constraint, ``(..., 1 + m)``
        at a point or batch ``(..., n)``; an overflow stays non-finite, with no warning."""
        p = np.asarray(p, dtype=float)
        values = np.empty((1 + len(self.constraints),) + p.shape[:-1])  # value-major: fast min over m
        with np.errstate(all="ignore"):
            for j, fn in enumerate([self.objective, *(c.fn for c in self.constraints)]):
                values[j] = fn(p)
        values = np.moveaxis(values, 0, -1)
        values[..., 1:] /= self.scales
        return values


def problem(vector: AttackVector, ignore: Iterable[str] = ()) -> Problem:
    """The solver's view of `vector`, minus the ignored constraints; a ConfigError if the
    vector has no free parameter or an infinite bound, or an ignored name is unknown."""
    if vector.n_params < 1:
        raise ConfigError("vector has no free parameters")
    if not np.isfinite(vector.bounds).all():
        raise ConfigError("solver needs finite bounds")
    ignored = set(ignore)
    unknown = ignored - {c.name for c in vector.constraints} - set(vector.structural)
    if unknown:
        raise ConfigError(f"cannot ignore unknown constraint(s) {sorted(unknown)}")
    constraints = tuple(c for c in vector.constraints if c.name not in ignored)
    corner = np.array([lo for lo, _ in vector.bounds], dtype=float)
    with np.errstate(all="ignore"):
        at_corner = np.array([c.fn(corner) for c in constraints], dtype=float)
    scales = np.where(np.isfinite(at_corner), np.maximum(1.0, np.abs(at_corner)), 1.0)
    return Problem(closed_form_objective(vector), constraints, scales, vector.bounds)


def _candidates(prob: Problem, points: np.ndarray) -> np.ndarray:
    """Rows (objective, smallest scaled residual, point) of points ``(k, n)``.  A point is
    evaluable when its objective is finite and no residual is nan or -inf; at any other
    point the smallest residual reads nan."""
    values = prob.values(points)
    worst = values[:, 1:].min(axis=1, initial=np.inf)
    worst[~(np.isfinite(values[:, 0]) & (worst > -np.inf))] = np.nan
    return np.column_stack([values[:, 0], worst, points])


def _select(rows: np.ndarray) -> np.ndarray:
    """The first best feasible of `_candidates` rows, else the first least violated evaluable
    one (the first row if none is evaluable), copied so that no view keeps `rows` alive."""
    objective, worst = rows[:, 0], rows[:, 1]
    feasible = worst >= -FEASIBILITY_TOL
    key = np.where(feasible, objective, -np.inf) if feasible.any() else np.where(np.isnan(worst), -np.inf, worst)
    return rows[int(np.argmax(key))].copy()


def _result(prob: Problem, row: np.ndarray, method: str, iterations: int, starts: int,
            started: float) -> OptimizationResult:
    """The result at a `_select`ed row; a ConfigError naming the box if it is not evaluable."""
    if np.isnan(row[1]):
        box = " ".join(f"p{i + 1}:{lo:g}:{hi:g}" for i, (lo, hi) in enumerate(prob.bounds))
        raise ConfigError(f"{method}: no point tried in the box {box} can be evaluated")
    return OptimizationResult(
        best_params=tuple(float(v) for v in row[2:]),
        best_objective=float(row[0]),
        max_violation=float(row[1]),
        feasible=bool(row[1] >= -FEASIBILITY_TOL),
        iterations=iterations,
        wall_time=time.perf_counter() - started,
        starts_tried=starts,
        method=method,
    )


def latin_hypercube(n: int, bounds, seed: int) -> np.ndarray:
    """Deterministic LHS sample of n points over the bound box."""
    rng = np.random.default_rng(seed)
    dim = len(bounds)
    lo, hi = np.array(bounds, dtype=float).T
    cells = np.stack([rng.permutation(n) for _ in range(dim)], axis=1)
    u = (cells + rng.random((n, dim))) / n
    return lo + u * (hi - lo)


def _forward_jacobian(f, x: np.ndarray, lo: np.ndarray, hi: np.ndarray, f0: np.ndarray) -> np.ndarray:
    """SciPy's 2-point Jacobian of `f` for SLSQP, bit for bit, at each point of a batch ``(k, n)``
    whose values at the clipped points are `f0` ``(k, m)``: one call on the n forward steps of
    every point, sqrt(eps), relative where x + sqrt(eps) == x, reversed or cut short at the box.
    Returns ``(k, m, n)``."""
    x = np.clip(x, lo, hi)
    h = np.where(x + _SQRT_EPS == x, _SQRT_EPS * np.where(x >= 0, 1.0, -1.0) * np.maximum(1.0, np.abs(x)), _SQRT_EPS)
    below, above = x - lo, hi - x
    fitting = np.abs(h) <= np.maximum(below, above)
    h = np.where(fitting, np.where((x + h < lo) | (x + h > hi), -h, h), np.where(above >= below, above, -below))
    k, n = x.shape
    rows = np.repeat(x[:, None], n, axis=1)
    rows[:, np.arange(n), np.arange(n)] = x + h
    values = f(rows.reshape(-1, n)).reshape(k, n, f0.shape[1])
    return ((values - f0[:, None]) / ((x + h) - x)[:, :, None]).transpose(0, 2, 1)


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
        self.at, self.r = None, None  # the last point taken, and its negated objective and residuals
        self.failed = False


def _lockstep_slsqp(prob: Problem, starts: np.ndarray, free: np.ndarray) -> list[tuple[np.ndarray, int]]:
    """(end point, iterations) of SciPy's SLSQP from each start whose evaluations are all finite.

    Every start is a lane of SciPy's reverse-communication core, which `minimize` loops over
    one start at a time; here each round calls the core once per running lane, then evaluates
    the points the lanes asked for in one batch.  Each lane sees what `_minimize_slsqp` gives
    it when SciPy differences both the objective and the constraints: f and residuals at the
    clipped start and at the core's x, their 2-point differences at x clipped to the box, and
    only the coordinates that the bounds leave free.
    A lane is dropped at its first non-finite objective, residual, gradient or Jacobian entry."""
    lo, hi = np.array(prob.bounds, dtype=float).T
    xl, xu = lo[free], hi[free]
    m = len(prob.constraints)

    def full(x):
        """Each point of the free coordinates, with the fixed ones at their bound."""
        out = np.tile(lo, (len(x), 1))
        out[:, free] = x
        return out

    def values(x):
        """SLSQP's view of each point: the negated objective, then the scaled residuals."""
        return prob.values(full(x)) * np.r_[-1.0, np.ones(m)]

    def take(lanes, x):
        """Keep the values at each lane's point of `x` as its last."""
        if lanes:
            x = np.array(x)
            for lane, at, row in zip(lanes, x, values(x)):
                lane.at, lane.r, lane.failed = at, row, not np.isfinite(row).all()

    def ask_f(lanes):
        take(lanes, [lane.x for lane in lanes])
        for lane in lanes:
            lane.f, lane.d[:m] = float(lane.r[0]), lane.r[1:]

    def ask_g(lanes):
        moved = [lane for lane in lanes if not np.array_equal(np.clip(lane.x, xl, xu), lane.at)]
        take(moved, [np.clip(lane.x, xl, xu) for lane in moved])  # values the lane's last f did not take
        lanes = [lane for lane in lanes if not lane.failed]
        if lanes:  # row 0 of each Jacobian is the gradient, copied: the core reads g as contiguous
            x, f0 = np.array([lane.x for lane in lanes]), np.array([lane.r for lane in lanes])
            for lane, jacobian in zip(lanes, _forward_jacobian(values, x, xl, xu, f0)):
                lane.g, lane.C[:m], lane.failed = jacobian[0].copy(), jacobian[1:], not np.isfinite(jacobian).all()

    running = lanes = [_Lane(x0.copy(), m) for x0 in np.clip(starts[:, free], xl, xu)]
    while running:  # mode 1 asks for f, -1 for g, and 0 on entry for both
        ask_f([lane for lane in running if lane.state["mode"] != -1])
        ask_g([lane for lane in running if lane.state["mode"] != 1 and not lane.failed])
        running = [lane for lane in running if not lane.failed]
        for lane in running:
            _slsqp(lane.state, lane.f, lane.g, lane.C, lane.d, lane.x, lane.mult, xl, xu, lane.buffer, lane.indices)
        running = [lane for lane in running if abs(lane.state["mode"]) == 1]
    return [(full(lane.x[None])[0], lane.state["iter"]) for lane in lanes if not lane.failed]


def solve(prob: Problem, starts: int = 16, seed: int = 0) -> OptimizationResult:
    """Maximize the objective of `prob` subject to its active constraints.

    Multi-start over a seeded Latin hypercube; returns the best feasible
    point, or an explicitly infeasible result (never a silent zero) when no
    start lands within the scaled feasibility tolerance.  A start is dropped
    at its first non-finite value, and if every start drops out the start points
    themselves are the candidates; parameters fixed by their bounds stay at them.
    If no candidate is evaluable, a ConfigError names the box.
    """
    if starts < 1:
        raise ConfigError(f"--starts must be at least 1, got {starts}")
    started = time.perf_counter()
    lo, hi = np.array(prob.bounds, dtype=float).T
    points = latin_hypercube(starts, prob.bounds, seed)
    free = lo < hi
    # with every parameter fixed, each start ends where SciPy leaves it: at the lower corner
    solved = _lockstep_slsqp(prob, points, free) if free.any() else [(lo, 0)] * starts
    ends = np.clip(np.array([end for end, _ in solved]) if solved else points, lo, hi)
    return _result(prob, _select(_candidates(prob, ends)), "slsqp",
                   sum(iterations for _, iterations in solved), starts, started)


def grid_oracle(prob: Problem, resolution: int) -> OptimizationResult:
    """Exhaustive feasible-box scan, then zoom passes around the best point until the mesh
    spacing is at most 1/GRID_ZOOM of the box (one pass at 2 or 3 mesh lines, which never shrink).

    Independent of the gradient solver; used to certify its results.  Only
    supported for up to three free parameters (desk-scale exhaustion).
    """
    if len(prob.bounds) > 3:
        raise ValueError(f"grid oracle supports at most 3 parameters, got {len(prob.bounds)}")
    if resolution < 2:
        raise ConfigError("grid resolution must be at least 2")
    started = time.perf_counter()
    evaluated = 0

    def scan(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """The `_select`ed row of the row-major mesh over [lo, hi], selected in each block and
        then among the blocks.  A zero-width axis is one mesh line: its other lines repeat every point."""
        nonlocal evaluated
        shape = tuple(resolution if a < b else 1 for a, b in zip(lo, hi))
        axes = [np.linspace(a, b, n) for a, b, n in zip(lo, hi, shape)]
        size = math.prod(shape)
        evaluated += size
        winners = []  # each block's selected row
        for start in range(0, size, GRID_BLOCK):
            index = np.unravel_index(np.arange(start, min(start + GRID_BLOCK, size)), shape)
            winners.append(_select(_candidates(prob, np.stack([axis[i] for axis, i in zip(axes, index)], axis=-1))))
        return _select(np.array(winners))

    lo, hi = np.array(prob.bounds, dtype=float).T
    best = scan(lo, hi)
    cell = (hi - lo) / (resolution - 1)
    while best[1] >= -FEASIBILITY_TOL:  # zoom on the best point, each pass scanning the cells around it
        best = _select(np.array([best, scan(np.maximum(lo, best[2:] - cell), np.minimum(hi, best[2:] + cell))]))
        cell = 2 * cell / (resolution - 1)
        if resolution <= 3 or (cell <= (hi - lo) / GRID_ZOOM).all():
            break
    return _result(prob, best, "grid", evaluated, 1, started)
