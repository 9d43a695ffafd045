"""Solver behavior on the built-in problems plus the independent grid oracle."""

import itertools
import math
import time
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.optimize._numdiff import approx_derivative

from flashsim import vectors

from flashsim.models import ConfigError
from flashsim.optimize import (
    FEASIBILITY_TOL,
    GRID_BLOCK,
    GRID_ZOOM,
    MAX_ITERATIONS,
    TOLERANCE,
    _forward_jacobian,
    grid_oracle,
    latin_hypercube,
    problem,
    solve,
)
from flashsim.vectors import (
    AttackVector,
    ConstraintSpec,
    EvaluationError,
    build_oracle_vector,
    build_paa_vector,
    describe,
    evaluate,
    parse_vector,
    with_bounds,
)

from differences import central_difference, finite_diff_gradient


@pytest.fixture(scope="module")
def paa(paa_state):
    return build_paa_vector(paa_state)


@pytest.fixture(scope="module")
def oracle(oracle_state):
    return build_oracle_vector(oracle_state)


def linear_test_vector(coeffs=(2.0, 3.0)):
    c = np.asarray(coeffs, dtype=float)
    return AttackVector(
        name="linear", steps=(), n_params=len(c),
        bounds=tuple((0.0, 100.0) for _ in c),
        actor="adversary", profit_asset="X", objective_name="linear form",
        constraints=(), objective=lambda p: (np.asarray(p, dtype=float)[..., :] * c).sum(axis=-1),
    )


def full_mesh_grid(vector, resolution, ignore=()):
    """The grid oracle as one call on each whole mesh, the reference for the blocked scan:
    (feasible, objective, params, max violation), and the number of meshes scanned."""
    prob = problem(vector, ignore)

    def scan(lo, hi):
        mesh = np.meshgrid(*(np.linspace(a, b, resolution) for a, b in zip(lo, hi)), indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=-1)
        values = np.asarray(prob.objective(pts), dtype=float)
        worst = np.full(len(pts), np.inf)
        for c, scale in zip(prob.constraints, prob.scales):
            worst = np.minimum(worst, np.asarray(c.fn(pts), dtype=float) / scale)
        evaluable = np.isfinite(values) & (worst > -np.inf)
        feasible = evaluable & (worst >= -FEASIBILITY_TOL)
        # the first best feasible point, else the first least violated one
        i = int(np.argmax(np.where(feasible, values, -np.inf) if feasible.any() else np.where(evaluable, worst, -np.inf)))
        return bool(feasible.any()), float(values[i]), pts[i], float(worst[i])

    # zoom passes until the spacing is at most 1/GRID_ZOOM of the box; 2 or 3 mesh lines never shrink
    shrink = 2 / (resolution - 1)
    passes = 1 if shrink >= 1 else next(
        k for k in itertools.count(1) if shrink ** k / (resolution - 1) <= 1 / GRID_ZOOM)
    lo, hi = np.array(vector.bounds, dtype=float).T
    best = scan(lo, hi)
    cell = (hi - lo) / (resolution - 1)
    for _ in range(passes if best[0] else 0):
        fine = scan(np.maximum(lo, best[2] - cell), np.minimum(hi, best[2] + cell))
        if fine[0] and fine[1] > best[1]:
            best = fine
        cell = 2 * cell / (resolution - 1)
    return (best[0], best[1], tuple(float(v) for v in best[2]), best[3]), 1 + (passes if best[0] else 0)


def assert_grid_matches_full_mesh(vector, resolution, ignore=()):
    grid = grid_oracle(problem(vector, ignore), resolution)
    expected, meshes = full_mesh_grid(vector, resolution, ignore)
    assert (grid.feasible, grid.best_objective, grid.best_params, grid.max_violation) == expected
    assert grid.iterations == resolution ** vector.n_params * meshes
    return grid


def scaled_residuals(prob):
    """`prob`'s scaled residuals alone, at a point or batch."""
    return lambda p: prob.values(p)[..., 1:]


def minimize_reference(vector, ignore=(), starts=16, seed=0):
    """The solver as one `scipy.optimize.minimize(method="SLSQP")` call per start, with SciPy
    differencing the objective and the constraints itself: the reference for the lockstep
    solver.  A start is skipped at its first point that fails to evaluate or has a non-finite
    objective, residual or gradient; if every start is, the start points are the candidates.
    Returns the best params, objective and max violation, the iterations and the number of
    starts skipped."""
    prob = problem(vector, ignore)
    lo, hi = np.array(vector.bounds, dtype=float).T
    residuals = scaled_residuals(prob)

    def finite(values):
        if not np.isfinite(values).all():
            raise EvaluationError(0, f"non-finite {values}")
        return values

    def neg_obj(p):
        return -float(finite(prob.objective(p)))

    constraints = [{"type": "ineq", "fun": lambda p: finite(residuals(p))}] if prob.constraints else []
    ends, iterations, skipped = [], 0, 0
    points = latin_hypercube(starts, vector.bounds, seed)
    for x0 in points:
        try:
            with warnings.catch_warnings():  # SLSQP may step a few ulps outside the box
                warnings.filterwarnings("ignore", "Values in x were outside bounds", RuntimeWarning)
                res = minimize(neg_obj, x0, bounds=prob.bounds, constraints=constraints,
                               method="SLSQP", options={"maxiter": MAX_ITERATIONS, "ftol": TOLERANCE})
        except EvaluationError:
            skipped += 1
            continue
        iterations += int(res.nit)
        x = np.clip(res.x, lo, hi)
        ends.append((float(prob.objective(x)), x, float(residuals(x).min(initial=np.inf))))
    if skipped == starts:
        ends = [(float(prob.objective(x)), x, float(residuals(x).min(initial=np.inf))) for x in np.clip(points, lo, hi)]
    ends = [end for end in ends if np.isfinite(end[0]) and end[2] > -np.inf]  # the evaluable ones
    feasible = [end for end in ends if end[2] >= -FEASIBILITY_TOL]
    value, x, worst = max(feasible, key=lambda end: end[0]) if feasible else max(ends, key=lambda end: end[2])
    return tuple(float(v) for v in x), value, worst, iterations, skipped


def nan_past_80(p):
    """2 p1 + 3 p2 at a point or batch, nan past p1 = 80."""
    p = np.asarray(p, dtype=float)
    return np.where(p[..., 0] > 80.0, np.nan, 2.0 * p[..., 0] + 3.0 * p[..., 1])


def capped_linear_vector():
    """Maximize 2 p1 + 3 p2 with p1 <= 50; the objective fails to evaluate past p1 = 80."""
    cap = ConstraintSpec("cap", "p1 <= 50", 1, True, lambda p: 50.0 - np.asarray(p)[..., 0])
    return replace(linear_test_vector(), constraints=(cap,), objective=nan_past_80)


class TestLockstepMatchesMinimize:
    """The lockstep driver gives SciPy's own per-start SLSQP results, bit for bit."""

    @staticmethod
    def assert_matches(vector, ignore=(), **settings):
        result = solve(problem(vector, ignore), **settings)
        expected = minimize_reference(vector, ignore, **settings)
        assert (result.best_params, result.best_objective, result.max_violation, result.iterations) == expected[:4]
        return expected[4]

    @pytest.mark.parametrize("seed", [0, 3, 11, 58])
    @pytest.mark.parametrize("name, ignore", [("paa", ()), ("oracle", ()), ("oracle", ("zY",))])
    def test_incident_problems(self, name, ignore, seed, request):
        self.assert_matches(request.getfixturevalue(name), ignore=ignore, seed=seed)

    def test_fixed_parameter(self, oracle):
        self.assert_matches(with_bounds(oracle, {0: (300.0, 300.0)}), seed=0, starts=4)

    def test_unconstrained(self):
        self.assert_matches(linear_test_vector(), seed=0, starts=4)

    def test_infeasible(self):
        never = ConstraintSpec("never", "unsatisfiable", 1, True, lambda p: -1.0)
        self.assert_matches(replace(linear_test_vector(), constraints=(never,)), seed=0)

    @pytest.mark.parametrize("seed", [0, 58])
    def test_described_paa(self, paa, paa_state, seed):
        described = parse_vector(describe(paa), paa_state)
        self.assert_matches(described, seed=seed, starts=4)

    @pytest.mark.parametrize("seed", [0, 58])
    def test_described_oracle(self, oracle, oracle_state, seed):
        # a central stencil stepped below a zero bound here, and the replay refused the negative amount
        described = parse_vector(describe(oracle), oracle_state)
        assert self.assert_matches(described, seed=seed, starts=4) == 0

    def test_only_the_starts_that_fail_are_skipped(self):
        skipped = self.assert_matches(capped_linear_vector(), seed=1)
        assert 0 < skipped < 16

    def test_closed_form_lane_is_dropped_at_its_first_nan(self):
        # a closed form is nan past p1 = 80 at a point and in a batch alike; lanes once ran through it
        skipped = [self.assert_matches(capped_linear_vector(), seed=seed) for seed in range(4)]
        assert all(0 < count < 16 for count in skipped)

    def test_when_every_start_drops_out_the_best_start_point_is_reported(self):
        # every step up the objective crosses p2 = 50, past which it is nan
        vector = replace(linear_test_vector(), objective=lambda p: np.where(
            np.asarray(p)[..., 1] > 50.0, np.nan, (np.asarray(p, dtype=float) * [2.0, 3.0]).sum(axis=-1)))
        assert self.assert_matches(vector, seed=0) == 16
        starts = latin_hypercube(16, vector.bounds, 0)
        best = max((p for p in starts if p[1] <= 50.0), key=lambda p: 2.0 * p[0] + 3.0 * p[1])
        assert solve(problem(vector), seed=0).best_params == tuple(best)

    def test_described_lane_is_dropped_where_the_chain_cannot_replay(self, paa, paa_state):
        # past p1 of about 1e306 the replay overflows; those rows read nan and -inf
        described = parse_vector(describe(paa), paa_state)
        skipped = self.assert_matches(with_bounds(described, {0: (0.0, 1e306)}), seed=0, starts=4)
        assert 0 < skipped < 4

    def test_jacobian_reuses_the_replay_of_the_objective(self, paa, paa_state, monkeypatch):
        # SLSQP asks for a gradient and Jacobian only where it has just asked for f and the
        # residuals, so every replay is of a new point but the 4 ends that `solve` reads again
        described = parse_vector(describe(paa), paa_state)
        replayed, real = [], vectors.evaluate
        monkeypatch.setattr(vectors, "evaluate", lambda v, s, p: replayed.append(tuple(p)) or real(v, s, p))
        solve(problem(described), seed=0, starts=4)
        assert (len(replayed), len(set(replayed))) == (155, 151)


class TestSolve:
    def test_paa_reaches_documented_optimum(self, paa):
        begun = time.perf_counter()
        result = solve(problem(paa), seed=0)
        elapsed = time.perf_counter() - begun
        assert result.feasible
        assert result.best_objective >= 2778.94 * 0.995
        assert result.best_params[0] == pytest.approx(2470.08, rel=1e-2)
        assert result.best_params[1] == pytest.approx(1456.23, rel=1e-2)
        assert elapsed < 1.0
        assert result.starts_tried == 16

    def test_paa_resolve_with_tighter_margin_bound(self, paa):
        tightened = with_bounds(paa, {1: (0.0, 1344.0)})
        result = solve(problem(tightened), seed=0)
        assert result.best_params[0] == pytest.approx(2404.0, rel=1e-2)
        assert result.best_params[1] == pytest.approx(1344.0, rel=1e-2)
        # closed-form value at the constrained optimum
        assert result.best_objective == pytest.approx(2456.946, rel=1e-3)

    def test_oracle_with_liquidity_ignored_beats_documented_revenue(self, oracle):
        result = solve(problem(oracle, ("zY",)), seed=0)
        assert result.feasible
        assert result.best_objective >= 6323.93 * 0.995

    def test_oracle_enforced_sits_on_liquidity_boundary(self, oracle):
        result = solve(problem(oracle), seed=0)
        assert result.feasible
        zy = [c for c in oracle.constraints if c.name == "zY"][0]
        drawn = 11086.29 - float(zy.fn(np.array(result.best_params)))
        assert drawn == pytest.approx(11086.29, abs=0.05)

    def test_reported_objective_matches_fresh_replay(self, paa, paa_state):
        result = solve(problem(paa), seed=3)
        replayed = evaluate(paa, paa_state, result.best_params).objective_value
        assert math.isclose(result.best_objective, replayed, rel_tol=1e-9)

    def test_seed_determinism(self, paa):
        a = solve(problem(paa), seed=11)
        b = solve(problem(paa), seed=11)
        assert a.best_params == b.best_params
        assert a.best_objective == b.best_objective
        assert a.iterations == b.iterations

    def test_infeasible_problem_reported_explicitly(self):
        impossible = ConstraintSpec("never", "unsatisfiable", 1, True, lambda p: -1.0)
        vector = linear_test_vector()
        vector = AttackVector(**{**vector.__dict__, "constraints": (impossible,)})
        result = solve(problem(vector), seed=0)
        assert not result.feasible
        assert result.max_violation < 0

    def test_a_box_with_no_point_it_can_evaluate_is_config_error(self):
        # every start and every end is nan; this once named an evaluation error at a step 0
        vector = replace(linear_test_vector(), objective=lambda p: np.full(np.shape(p)[:-1], np.nan))
        with pytest.raises(ConfigError, match="no point tried in the box p1:0:100 p2:0:100"):
            solve(problem(vector), seed=0, starts=4)
        with pytest.raises(ConfigError, match="no point tried in the box p1:0:100 p2:0:100"):
            grid_oracle(problem(vector), 5)

    def test_a_residual_not_finite_at_the_lower_corner_is_scaled_by_1(self, paa, paa_state, oracle):
        # a replay at a negative collateral raised, and an overflowing closed form warned and scaled by inf
        described = with_bounds(parse_vector(describe(paa), paa_state), {0: (-100.0, 10000.0)})
        assert (problem(described).scales == 1.0).all()
        maxp = [c.name for c in oracle.constraints].index("maxP")
        scales = problem(with_bounds(oracle, {1: (1e6, 2e6)})).scales
        assert scales[maxp] == 1.0 and np.isfinite(scales).all()

    def test_ignoring_unknown_constraint_is_config_error(self, paa):
        with pytest.raises(ConfigError):
            problem(paa, ("nope",))

    @pytest.mark.parametrize("change, error", [
        ({"n_params": 0, "bounds": ()}, "no free parameters"),
        ({"bounds": ((0.0, 100.0), (0.0, np.inf))}, "finite bounds"),
    ], ids=["no-parameters", "infinite-bound"])
    def test_a_vector_the_solver_and_the_grid_cannot_search_is_config_error(self, change, error):
        # solve alone refused these; the grid read the vector's bounds itself
        with pytest.raises(ConfigError, match=error):
            problem(replace(linear_test_vector(), **change))

    def test_feasible_results_respect_tolerance(self, oracle):
        result = solve(problem(oracle), seed=5)
        assert result.max_violation >= -1e-6

    def test_fixed_parameter_is_solved_over_the_others(self, oracle):
        # SciPy drops a parameter fixed by its bounds only while it differences
        # the constraints itself; a Jacobian with its NaN column stalls SLSQP
        fixed = with_bounds(oracle, {0: (300.0, 300.0)})
        result = solve(problem(fixed), seed=0, starts=4)
        assert result.feasible
        assert result.best_params[0] == 300.0
        assert result.best_objective == pytest.approx(546.7721097, rel=1e-8)


@pytest.mark.parametrize("name, seed", [
    *(("paa", seed) for seed in (0, 7, 8, 27, 48, 57)), *(("oracle", seed) for seed in (0, 7, 35, 58))])
def test_described_chain_reaches_the_built_in_optimum(name, seed, request):
    # a central stencil and residuals that are zero by construction left these seeds low or crashing
    vector = request.getfixturevalue(name)
    described = parse_vector(describe(vector), request.getfixturevalue(f"{name}_state"))
    built_in, replayed = solve(problem(vector), seed=seed, starts=4), solve(problem(described), seed=seed, starts=4)
    assert built_in.feasible and replayed.feasible
    assert replayed.best_objective == pytest.approx(built_in.best_objective, rel=1e-6)


class TestGridOracle:
    def test_paa_agreement_within_one_percent(self, paa):
        best = solve(problem(paa), seed=0)
        grid = grid_oracle(problem(paa), 200)
        assert grid.feasible
        assert abs(best.best_objective - grid.best_objective) <= 0.01 * best.best_objective

    def test_oracle_agreement_within_two_percent(self, oracle):
        best = solve(problem(oracle), seed=0)
        grid = grid_oracle(problem(oracle), 60)
        assert grid.feasible
        assert abs(best.best_objective - grid.best_objective) <= 0.02 * best.best_objective

    def test_constant_objective_picks_feasible_corner(self):
        flat = AttackVector(
            name="flat", steps=(), n_params=2, bounds=((0.0, 1.0), (0.0, 1.0)),
            actor="adversary", profit_asset="X", objective_name="constant",
            constraints=(), objective=lambda p: np.asarray(p, dtype=float)[..., 0] * 0.0 + 7.0,
        )
        grid = grid_oracle(problem(flat), 5)
        assert grid.feasible
        assert grid.best_objective == 7.0
        assert all(v in (0.0, 0.25, 0.5, 0.75, 1.0) for v in grid.best_params)

    def test_dimension_limit(self):
        too_big = AttackVector(
            name="big", steps=(), n_params=4, bounds=((0.0, 1.0),) * 4,
            actor="adversary", profit_asset="X", objective_name="n/a",
            constraints=(), objective=lambda p: 0.0,
        )
        with pytest.raises(ValueError):
            grid_oracle(problem(too_big), 5)

    def test_resolution_validation(self, paa):
        with pytest.raises(ConfigError):
            grid_oracle(problem(paa), 1)

    def test_infeasible_box_flagged(self):
        impossible = ConstraintSpec("never", "unsatisfiable", 1, True, lambda p: -np.ones(np.asarray(p).shape[:-1]) if np.asarray(p).ndim > 1 else -1.0)
        vector = linear_test_vector()
        vector = AttackVector(**{**vector.__dict__, "constraints": (impossible,)})
        grid = grid_oracle(problem(vector), 5)
        assert not grid.feasible

    @pytest.mark.parametrize("name, resolution, ignore", [
        ("paa", 200, ()), ("oracle", 60, ()), ("oracle", 60, ("zY",)), ("oracle", 17, ())])
    def test_blocks_match_one_call_on_the_full_mesh(self, name, resolution, ignore, request):
        vector = request.getfixturevalue(name)
        assert_grid_matches_full_mesh(vector, resolution, ignore)
        assert resolution ** vector.n_params > GRID_BLOCK  # 17 ** 3 also leaves a partial last block

    def test_all_infeasible_box_returns_lo_corner(self):
        never = ConstraintSpec("never", "unsatisfiable", 1, True, lambda p: -1.0 - np.asarray(p)[..., 0])
        vector = replace(linear_test_vector((2.0, 3.0, 1.0)), constraints=(never,))
        grid = assert_grid_matches_full_mesh(vector, 17)
        assert not grid.feasible
        assert grid.best_params == (0.0, 0.0, 0.0)
        assert grid.max_violation == -1.0

    def test_an_infeasible_box_reports_its_least_violated_point(self):
        # the grid once fell back to its lo corner, here violated by 51 (1 after scaling by 51)
        vector = replace(linear_test_vector((2.0, 3.0, 1.0)), constraints=(
            ConstraintSpec("never", "unsatisfiable", 1, True, lambda p: -1.0 - np.abs(np.asarray(p)[..., 0] - 50.0)),))
        grid = assert_grid_matches_full_mesh(vector, 17)
        assert (grid.feasible, grid.best_params, grid.max_violation) == (False, (50.0, 0.0, 0.0), -1.0 / 51.0)

    def test_points_it_cannot_evaluate_are_skipped(self):
        # nan past p1 = 80 was the grid's best, being the first maximum numpy finds
        grid = assert_grid_matches_full_mesh(replace(linear_test_vector(), objective=nan_past_80), 21)
        assert (grid.feasible, grid.best_params, grid.best_objective) == (True, (80.0, 100.0), 460.0)

    def test_tie_goes_to_the_first_mesh_point(self):
        # the plateau p1 >= 50 starts at flat index 8 * 17 ** 2 and runs past the first block
        plateau = replace(linear_test_vector((1.0, 1.0, 1.0)),
                          objective=lambda p: np.minimum(np.asarray(p)[..., 0], 50.0))
        grid = assert_grid_matches_full_mesh(plateau, 17)
        assert 8 * 17 ** 2 < GRID_BLOCK < 17 ** 3
        assert grid.best_params == (50.0, 0.0, 0.0)

    @pytest.mark.parametrize("name, fixed", [
        ("paa", {0: (2000.0, 2000.0)}), ("paa", {1: (1000.0, 1000.0)}), ("oracle", {1: (300.0, 300.0)}),
        ("oracle", {0: (540.0, 540.0), 2: (3000.0, 3000.0)})])
    def test_a_fixed_axis_is_scanned_as_one_mesh_line(self, name, fixed, request):
        # a fixed axis was scanned at full resolution, every line the same points
        vector = with_bounds(request.getfixturevalue(name), fixed)
        grid = grid_oracle(problem(vector), 17)
        expected, meshes = full_mesh_grid(vector, 17)
        assert (grid.feasible, grid.best_objective, grid.best_params, grid.max_violation) == expected
        assert grid.feasible
        assert grid.iterations == meshes * 17 ** (vector.n_params - len(fixed))

    @pytest.mark.parametrize("name", ["paa", "oracle"])
    @pytest.mark.parametrize("resolution", [2, 3])
    def test_a_mesh_that_cannot_shrink_zooms_once(self, name, resolution, request):
        # the next spacing, 2 * cell / (resolution - 1), is no finer: a zoom loop never ended
        vector = request.getfixturevalue(name)
        grid = assert_grid_matches_full_mesh(vector, resolution)
        assert grid.feasible and grid.iterations == 2 * resolution ** vector.n_params

    @pytest.mark.parametrize("resolution, meshes", [(12, 4), (17, 3), (40, 2), (60, 2)])
    def test_the_grid_zooms_until_the_mesh_is_fine(self, oracle, resolution, meshes):
        grid = assert_grid_matches_full_mesh(oracle, resolution)
        assert grid.iterations == meshes * resolution ** 3

    @pytest.mark.parametrize("resolution", [60, 90])
    def test_memory_is_bounded_at_any_resolution(self, oracle, resolution):
        tracemalloc.start()
        try:
            grid_oracle(problem(oracle), resolution)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20


class TestFiniteDifferences:
    def test_linear_objective_recovers_coefficients(self):
        vector = linear_test_vector((2.0, 3.0))
        grad = finite_diff_gradient(vector, (50.0, 50.0), step=1e-3)
        assert grad == pytest.approx([2.0, 3.0], abs=1e-6)

    def test_first_order_optimality_at_documented_optimum(self, paa):
        # wX binds p2 at the optimum; the free (p1) direction must be flat
        grad = finite_diff_gradient(paa, (2470.08, 1456.23 - 1.0), step=0.5)
        objective = float(paa.objective(np.array([2470.08, 1456.23])))
        assert abs(grad[0]) < 1e-2 * abs(objective)

    def test_richardson_step_halving(self, paa):
        point = (3000.0, 900.0)
        estimates = {
            h: finite_diff_gradient(paa, point, step=h)
            for h in (8.0, 4.0, 2.0)
        }
        coarse = np.abs(estimates[8.0] - estimates[4.0]).max()
        fine = np.abs(estimates[4.0] - estimates[2.0]).max()
        assert fine < coarse / 2.5  # second-order decay, with float headroom

    @pytest.mark.parametrize("name, point", [
        ("paa", (3000.0, 900.0)),
        ("oracle", (700.0, 450.0, 3000.0)),
        ("described_paa", (2470.08, 1455.0)),
    ])
    def test_one_stencil_call_matches_per_coordinate_loop(self, name, point, request):
        if name == "described_paa":
            state = request.getfixturevalue("paa_state")
            f = parse_vector(describe(request.getfixturevalue("paa")), state).objective
        else:
            f = request.getfixturevalue(name).objective
        x, h = np.array(point), 1e-4
        expected = []
        for i in range(len(x)):
            bump = np.zeros_like(x)
            bump[i] = h
            expected.append((float(f(x + bump)) - float(f(x - bump))) / (2.0 * h))
        assert np.array_equal(central_difference(f, x[None], h)[0], expected)

    def test_requires_interior_point(self, paa):
        with pytest.raises(ValueError):
            finite_diff_gradient(paa, (0.0, 100.0), step=1.0)


class TestConstraintJacobian:
    """SLSQP's constraint Jacobian is SciPy's own 2-point one, bit for bit."""

    @staticmethod
    def jacobian(prob, x):
        lo, hi = np.array(prob.bounds, dtype=float).T
        residuals = scaled_residuals(prob)
        return _forward_jacobian(residuals, x[None], lo, hi, residuals(np.clip(x, lo, hi))[None])[0]

    def assert_scipy_jacobian(self, prob, x):
        lo, hi = np.array(prob.bounds, dtype=float).T
        with np.errstate(invalid="ignore", divide="ignore"):
            expected = approx_derivative(scaled_residuals(prob), x, method="2-point",
                                         abs_step=np.sqrt(np.finfo(float).eps), bounds=(lo, hi))
            jacobian = self.jacobian(prob, x)
        assert np.array_equal(jacobian, expected, equal_nan=True)
        return jacobian

    @pytest.mark.parametrize("name, ignore, points", [
        ("paa", (), 40), ("oracle", (), 40), ("oracle", ("zY",), 40), ("described_paa", (), 4)])
    def test_random_interior_points(self, name, ignore, points, request):
        state = request.getfixturevalue(f"{name.removeprefix('described_')}_state")
        vector = request.getfixturevalue(name.removeprefix("described_"))
        if name.startswith("described_"):
            vector = parse_vector(describe(vector), state)
        prob = problem(vector, ignore)
        lo, hi = np.array(prob.bounds).T
        for x in lo + np.random.default_rng(3).random((points, len(lo))) * (hi - lo):
            self.assert_scipy_jacobian(prob, x)

    @pytest.mark.parametrize("name", ["paa", "oracle"])
    def test_points_on_and_near_the_bounds(self, name, request):
        prob = problem(request.getfixturevalue(name))
        lo, hi = np.array(prob.bounds).T
        inner = lo + np.random.default_rng(4).random(len(lo)) * (hi - lo)
        at_hi = self.assert_scipy_jacobian(prob, hi.copy())
        self.assert_scipy_jacobian(prob, lo.copy())
        for i in range(len(lo)):
            for at in (hi[i], hi[i] - 1e-9, lo[i]):  # on the upper bound or within a step of it, the step turns
                x = inner.copy()
                x[i] = at
                self.assert_scipy_jacobian(prob, x)
        # SLSQP may step just outside the box; SciPy clips x before differencing
        outside = hi + 1e-9 * (hi - lo)
        assert np.array_equal(self.jacobian(prob, outside), at_hi, equal_nan=True)

    def test_zero_width_box_gives_a_nan_column(self, oracle):
        prob = problem(with_bounds(oracle, {0: (300.0, 300.0)}))
        jacobian = self.assert_scipy_jacobian(prob, np.array([300.0, 500.0, 3000.0]))
        assert np.isnan(jacobian[:, 0]).all() and not np.isnan(jacobian[:, 1:]).any()

    def test_vanishing_step_falls_back_to_a_relative_one(self, paa):
        prob = problem(with_bounds(paa, {0: (0.0, 1e12)}))
        x = np.array([5e11, 100.0])
        assert x[0] + np.sqrt(np.finfo(float).eps) == x[0]
        self.assert_scipy_jacobian(prob, x)


def test_latin_hypercube_covers_box():
    bounds = ((0.0, 10.0), (100.0, 200.0))
    sample = latin_hypercube(16, bounds, seed=4)
    assert sample.shape == (16, 2)
    assert (sample[:, 0] >= 0).all() and (sample[:, 0] <= 10).all()
    assert (sample[:, 1] >= 100).all() and (sample[:, 1] <= 200).all()
    # one point per stratum along each axis
    assert len(np.unique((sample[:, 0] / (10 / 16)).astype(int))) == 16
    assert np.array_equal(latin_hypercube(16, bounds, seed=4), sample)
