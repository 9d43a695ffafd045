"""Constrained maximization of vector objectives, plus a brute-force oracle.

The primary solver is sequential least-squares programming (SciPy's SLSQP)
driven by central finite-difference gradients, restarted from a Latin
hypercube of seeds over the bound box.  An augmented-Lagrangian fallback
covers environments where the QP subproblem solver misbehaves.  Residuals
are normalized by the magnitude of their constant term so pools five
orders of magnitude apart weigh comparably.  :class:`Problem`, built once
per solve or scan by :func:`problem`, is the single place where residuals
are scaled; every solver path and the CLI's constraint report read it.

``grid_oracle`` is the independent check: an exhaustive feasible-box scan
(plus one local refinement pass) that certifies solver results on one- to
three-parameter problems.
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


@dataclass(frozen=True)
class SolverConfig:
    max_iterations: int = 200
    tolerance: float = 1e-9
    fd_step: float = 1e-4
    starts: int = 16
    seed: int = 0

    def __post_init__(self):
        if self.tolerance <= 0 or self.fd_step <= 0:
            raise ConfigError("tolerances and steps must be positive")


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
    size).  A `batched` problem takes a ``(k, n)`` batch of points in one
    call; a replayed chain is evaluated one point at a time.
    """

    objective: Callable[[np.ndarray], np.ndarray | float]
    constraints: tuple[ConstraintSpec, ...]
    scales: np.ndarray
    bounds: tuple[tuple[float, float], ...]
    batched: bool

    def residuals(self, p) -> np.ndarray:
        """Scaled residual of every active constraint at one point."""
        p = np.asarray(p, dtype=float)
        return np.array([float(c.fn(p)) for c in self.constraints]) / self.scales

    def min_residual(self, p):
        """Smallest scaled residual at one point, or per row of a batch."""
        p = np.asarray(p, dtype=float)
        if p.ndim == 1:
            return float(self.residuals(p).min()) if self.constraints else np.inf
        worst = np.full(len(p), np.inf)
        for c, s in zip(self.constraints, self.scales):
            np.minimum(worst, np.asarray(c.fn(p), dtype=float) / s, out=worst)
        return worst

    def scan(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Objective and smallest scaled residual at each row of `pts`."""
        if self.batched:
            return np.asarray(self.objective(pts), dtype=float), self.min_residual(pts)
        # A replayed point serves its objective and its residuals together.
        return tuple(np.array([(float(self.objective(p)), self.min_residual(p)) for p in pts]).T)


def problem(vector: AttackVector, scenario: WorldState, ignore: Iterable[str] = ()) -> Problem:
    """The solver's view of `vector` on `scenario`, minus the ignored constraints."""
    ignored = set(ignore)
    unknown = ignored - {c.name for c in vector.constraints}
    if unknown:
        raise ConfigError(f"cannot ignore unknown constraint(s) {sorted(unknown)}")
    constraints = tuple(c for c in vector.constraints if c.name not in ignored)
    corner = np.array([lo for lo, _ in vector.bounds], dtype=float)
    scales = np.array([max(1.0, abs(float(c.fn(corner)))) for c in constraints])
    return Problem(closed_form_objective(vector, scenario), constraints, scales,
                   vector.bounds, batched=vector.objective is not None)


def latin_hypercube(n: int, bounds, seed: int) -> np.ndarray:
    """Deterministic LHS sample of n points over the bound box."""
    rng = np.random.default_rng(seed)
    dim = len(bounds)
    lo = np.array([b[0] for b in bounds], dtype=float)
    hi = np.array([b[1] for b in bounds], dtype=float)
    cells = np.stack([rng.permutation(n) for _ in range(dim)], axis=1)
    u = (cells + rng.random((n, dim))) / n
    return lo + u * (hi - lo)


def _central_difference(f, params: np.ndarray, step: float) -> np.ndarray:
    grad = np.empty_like(params)
    for i in range(len(params)):
        bump = np.zeros_like(params)
        bump[i] = step
        try:
            grad[i] = (float(f(params + bump)) - float(f(params - bump))) / (2.0 * step)
        except EvaluationError as exc:
            raise EvaluationError(exc.step, f"while differencing coordinate {i}: {exc}") from None
    return grad


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


def _solve_slsqp(prob: Problem, neg_obj, grad_neg, x0, cfg) -> tuple[np.ndarray, int]:
    res = minimize(
        neg_obj,
        x0,
        jac=grad_neg,
        bounds=prob.bounds,
        constraints=[{"type": "ineq", "fun": prob.residuals}] if prob.constraints else [],
        method="SLSQP",
        options={"maxiter": cfg.max_iterations, "ftol": cfg.tolerance},
    )
    return np.clip(res.x, [b[0] for b in prob.bounds], [b[1] for b in prob.bounds]), int(res.nit)


def _solve_auglag(prob: Problem, neg_obj, x0, cfg) -> tuple[np.ndarray, int]:
    """Augmented-Lagrangian fallback: L-BFGS-B inner solves, multiplier updates."""
    m = len(prob.constraints)
    lam = np.zeros(m)
    mu = 10.0
    x = np.asarray(x0, dtype=float)
    iterations = 0
    prev_violation = np.inf
    for _ in range(25):
        def lagrangian(p, lam=lam, mu=mu):
            total = neg_obj(p)
            for i, g in enumerate(prob.residuals(p)):
                total += (max(0.0, lam[i] - mu * g) ** 2 - lam[i] ** 2) / (2.0 * mu)
            return total

        inner = minimize(lagrangian, x, bounds=prob.bounds, method="L-BFGS-B",
                         options={"maxiter": cfg.max_iterations})
        x = inner.x
        iterations += int(inner.nit)
        g = prob.residuals(x)
        violation = float(np.maximum(0.0, -g).max()) if m else 0.0
        new_lam = np.maximum(0.0, lam - mu * g) if m else lam
        if violation <= FEASIBILITY_TOL and np.allclose(new_lam, lam, rtol=1e-6, atol=1e-9):
            lam = new_lam
            break
        lam = new_lam
        if violation > 0.25 * prev_violation:
            mu *= 4.0
        prev_violation = max(violation, 1e-30)
    return x, iterations


def solve(
    vector: AttackVector,
    scenario: WorldState,
    config: SolverConfig = SolverConfig(),
    ignore: Iterable[str] = (),
    method: str = "slsqp",
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
    if method not in ("slsqp", "auglag"):
        raise ConfigError(f"unknown method {method!r}")

    started = time.perf_counter()
    prob = problem(vector, scenario, ignore)

    def neg_obj(p):
        return -float(prob.objective(np.asarray(p, dtype=float)))

    def grad_neg(p):
        return -_central_difference(prob.objective, np.asarray(p, dtype=float), config.fd_step)

    starts = latin_hypercube(config.starts, vector.bounds, config.seed)
    best: tuple[float, np.ndarray, float] | None = None  # (objective, params, min residual)
    least_bad: tuple[float, np.ndarray, float] | None = None
    iterations = 0
    for x0 in starts:
        try:
            if method == "slsqp":
                x, nit = _solve_slsqp(prob, neg_obj, grad_neg, x0, config)
            else:
                x, nit = _solve_auglag(prob, neg_obj, x0, config)
        except (EvaluationError, FloatingPointError):
            continue
        iterations += nit
        value = float(prob.objective(x))
        worst = prob.min_residual(x)
        if not np.isfinite(value):
            continue
        if worst >= -FEASIBILITY_TOL:
            if best is None or value > best[0]:
                best = (value, x, worst)
        elif least_bad is None or worst > least_bad[2]:
            least_bad = (value, x, worst)

    elapsed = time.perf_counter() - started
    if best is None and least_bad is None:
        raise EvaluationError(0, "every start failed to evaluate")
    value, x, worst = best or least_bad
    return OptimizationResult(
        best_params=tuple(float(v) for v in x),
        best_objective=value,
        max_violation=worst,
        feasible=best is not None,
        iterations=iterations,
        wall_time=elapsed,
        starts_tried=len(starts),
        method=method,
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

    def scan(lo: np.ndarray, hi: np.ndarray) -> tuple[float, np.ndarray] | None:
        axes = [np.linspace(a, b, resolution) for a, b in zip(lo, hi)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=-1)
        values, worst = prob.scan(pts)
        feasible = worst >= -FEASIBILITY_TOL
        if not feasible.any():
            return None
        masked = np.where(feasible, values, -np.inf)
        idx = int(np.argmax(masked))
        return float(values[idx]), pts[idx]

    lo = np.array([b[0] for b in vector.bounds], dtype=float)
    hi = np.array([b[1] for b in vector.bounds], dtype=float)
    coarse = scan(lo, hi)
    evaluated = resolution ** vector.n_params
    best = coarse
    if coarse is not None:
        cell = (hi - lo) / (resolution - 1)
        center = coarse[1]
        fine = scan(np.maximum(lo, center - cell), np.minimum(hi, center + cell))
        evaluated += resolution ** vector.n_params
        if fine is not None and fine[0] > coarse[0]:
            best = fine

    elapsed = time.perf_counter() - started
    value, point = best if best is not None else (float(prob.objective(lo)), lo)
    return OptimizationResult(
        best_params=tuple(float(v) for v in point),
        best_objective=value,
        max_violation=prob.min_residual(point),
        feasible=best is not None,
        iterations=evaluated,
        wall_time=elapsed,
        starts_tried=1,
        method="grid",
    )
