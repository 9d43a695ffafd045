"""Constrained maximization of vector objectives, plus a brute-force oracle.

The solver is sequential least-squares programming (SciPy's SLSQP) driven
by central finite-difference gradients, restarted from a Latin hypercube of
seeds over the bound box.  Residuals are normalized by the magnitude of
their constant term so pools five orders of magnitude apart weigh
comparably.  :class:`Problem`, built once per solve or scan by
:func:`problem`, is the single place where residuals are scaled; the
solver, the grid oracle and the CLI's constraint report read it.
Objectives and constraints take a point or a batch, closed form and replayed
chain alike: a gradient is one call on its 2n stencil rows, SLSQP's constraint
Jacobian one call on x and its n forward steps, a scan one call per block.

``grid_oracle`` is the independent check: an exhaustive feasible-box scan
(plus one local refinement pass) that certifies solver results for 1 to 3
parameters, in memory bounded at any resolution; its time grows as res ** n.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.optimize import minimize

from .models import ConfigError, WorldState
from .vectors import AttackVector, ConstraintSpec, EvaluationError, closed_form_objective

FEASIBILITY_TOL = 1e-6
GRID_BLOCK = 4096  # mesh points per grid oracle call
_SQRT_EPS = np.sqrt(np.finfo(float).eps)  # SciPy's absolute step for SLSQP's constraint Jacobian


@dataclass(frozen=True)
class SolverConfig:
    """`fd_step` is only the central-difference step of the objective gradient:
    the constraint Jacobian is SciPy's own forward 2-point difference for
    SLSQP, with a step of about 1.5e-8, clipped to the bounds."""

    max_iterations: int = 200
    tolerance: float = 1e-9
    fd_step: float = 1e-4
    starts: int = 16
    seed: int = 0

    def __post_init__(self):
        if self.starts < 1 or self.max_iterations < 1:
            raise ConfigError(f"starts and max_iterations must be >= 1, got {self.starts}, {self.max_iterations}")
        if not (0 < self.tolerance < np.inf and 0 < self.fd_step < np.inf):
            raise ConfigError(f"tolerance and fd_step must be finite and > 0, got {self.tolerance}, {self.fd_step}")


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


def problem(vector: AttackVector, scenario: WorldState, ignore: Iterable[str] = ()) -> Problem:
    """The solver's view of `vector` on `scenario`, minus the ignored constraints."""
    ignored = set(ignore)
    unknown = ignored - {c.name for c in vector.constraints}
    if unknown:
        raise ConfigError(f"cannot ignore unknown constraint(s) {sorted(unknown)}")
    constraints = tuple(c for c in vector.constraints if c.name not in ignored)
    corner = np.array([lo for lo, _ in vector.bounds], dtype=float)
    scales = np.array([max(1.0, abs(float(c.fn(corner)))) for c in constraints])
    return Problem(closed_form_objective(vector, scenario), constraints, scales, vector.bounds)


def latin_hypercube(n: int, bounds, seed: int) -> np.ndarray:
    """Deterministic LHS sample of n points over the bound box."""
    rng = np.random.default_rng(seed)
    dim = len(bounds)
    lo, hi = np.array(bounds, dtype=float).T
    cells = np.stack([rng.permutation(n) for _ in range(dim)], axis=1)
    u = (cells + rng.random((n, dim))) / n
    return lo + u * (hi - lo)


def _central_difference(f, params: np.ndarray, step: float) -> np.ndarray:
    """Central difference of `f` at `params` from one call on its 2n stencil rows."""
    n = len(params)
    bump = step * np.eye(n)
    try:
        values = np.asarray(f(np.concatenate([params + bump, params - bump])), dtype=float)
    except EvaluationError as exc:
        raise EvaluationError(exc.step, f"while differencing coordinate {exc.row % n}: {exc}") from None
    return (values[:n] - values[n:]) / (2.0 * step)


def _forward_jacobian(f, x, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """SciPy's 2-point Jacobian of `f` for SLSQP, bit for bit, from one call on x and its n forward
    steps: sqrt(eps), relative where x + sqrt(eps) == x, reversed or cut short at the box."""
    x = np.clip(x, lo, hi)
    h = np.where(x + _SQRT_EPS == x, _SQRT_EPS * np.where(x >= 0, 1.0, -1.0) * np.maximum(1.0, np.abs(x)), _SQRT_EPS)
    below, above = x - lo, hi - x
    fitting = np.abs(h) <= np.maximum(below, above)
    h = np.where(fitting, np.where((x + h < lo) | (x + h > hi), -h, h), np.where(above >= below, above, -below))
    rows = np.tile(x, (len(x) + 1, 1))
    rows[np.arange(1, len(x) + 1), np.arange(len(x))] = x + h
    values = f(rows)
    return ((values[1:] - values[0]) / ((x + h) - x)[:, None]).T


def finite_diff_gradient(
    vector: AttackVector,
    scenario: WorldState,
    params: Sequence[float],
    step: float,
) -> np.ndarray:
    """Central-difference gradient of the objective at an interior point."""
    params = np.asarray(params, dtype=float)
    for i, ((lo, hi), p) in enumerate(zip(vector.bounds, params)):
        if not (lo + step <= p <= hi - step):
            raise ValueError(
                f"parameter {i} = {p} not interior to [{lo}, {hi}] by step {step}"
            )
    return _central_difference(closed_form_objective(vector, scenario), params, step)


def solve(
    vector: AttackVector,
    scenario: WorldState,
    config: SolverConfig = SolverConfig(),
    ignore: Iterable[str] = (),
) -> OptimizationResult:
    """Maximize the vector objective subject to its accumulated constraints.

    Multi-start over a seeded Latin hypercube; returns the best feasible
    point, or an explicitly infeasible result (never a silent zero) when no
    start lands within the scaled feasibility tolerance.
    """
    if vector.n_params < 1:
        raise ConfigError("vector has no free parameters")
    if any(not np.isfinite([lo, hi]).all() for lo, hi in vector.bounds):
        raise ConfigError("solver needs finite bounds")

    started = time.perf_counter()
    prob = problem(vector, scenario, ignore)

    def neg_obj(p):
        return -float(prob.objective(np.asarray(p, dtype=float)))

    def grad_neg(p):
        return -_central_difference(prob.objective, np.asarray(p, dtype=float), config.fd_step)

    lo, hi = np.array(vector.bounds, dtype=float).T
    constraints = [{"type": "ineq", "fun": prob.residuals}] if prob.constraints else []
    if constraints and (lo < hi).all():  # SciPy removes fixed parameters only when it differences
        constraints[0]["jac"] = lambda p: _forward_jacobian(prob.residuals, p, lo, hi)
    starts = latin_hypercube(config.starts, vector.bounds, config.seed)
    ends: list[tuple[float, np.ndarray, float]] = []  # (objective, params, min residual)
    iterations = 0
    for x0 in starts:
        try:
            res = minimize(neg_obj, x0, jac=grad_neg, bounds=prob.bounds, constraints=constraints,
                           method="SLSQP", options={"maxiter": config.max_iterations, "ftol": config.tolerance})
        except (EvaluationError, FloatingPointError):
            continue
        iterations += int(res.nit)
        x = np.clip(res.x, lo, hi)
        value = float(prob.objective(x))
        if np.isfinite(value):
            ends.append((value, x, float(prob.residuals(x).min(initial=np.inf))))

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
        iterations=iterations,
        wall_time=elapsed,
        starts_tried=len(starts),
        method="slsqp",
    )


def grid_oracle(
    vector: AttackVector,
    scenario: WorldState,
    resolution: int,
    ignore: Iterable[str] = (),
) -> OptimizationResult:
    """Exhaustive feasible-box scan plus one refinement pass around the best cell.

    Independent of the gradient solver; used to certify its results.  Only
    supported for up to three free parameters (desk-scale exhaustion).
    """
    if vector.n_params > 3:
        raise ValueError(f"grid oracle supports at most 3 parameters, got {vector.n_params}")
    if resolution < 2:
        raise ConfigError("grid resolution must be at least 2")
    started = time.perf_counter()
    prob = problem(vector, scenario, ignore)

    def scan(lo: np.ndarray, hi: np.ndarray) -> tuple[bool, float, np.ndarray, float]:
        """(feasible, objective, point, smallest scaled residual) at the first best
        feasible point of the row-major mesh, or at its `lo` corner if none is."""
        axes = [np.linspace(a, b, resolution) for a, b in zip(lo, hi)]
        size, winners = resolution ** len(axes), []  # per block: key, objective, point, worst
        for start in range(0, size, GRID_BLOCK):
            index = np.unravel_index(np.arange(start, min(start + GRID_BLOCK, size)), (resolution,) * len(axes))
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
    evaluated = resolution ** vector.n_params
    if best[0]:
        cell = (hi - lo) / (resolution - 1)
        fine = scan(np.maximum(lo, best[2] - cell), np.minimum(hi, best[2] + cell))
        evaluated += resolution ** vector.n_params
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
