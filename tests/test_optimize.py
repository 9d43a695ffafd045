"""Solver behavior on the built-in problems plus the independent grid oracle."""

import math
import time

import numpy as np
import pytest

from flashsim.models import ConfigError
from flashsim.optimize import (
    SolverConfig,
    _central_difference,
    finite_diff_gradient,
    grid_oracle,
    latin_hypercube,
    solve,
)
from flashsim.vectors import (
    AttackVector,
    ConstraintSpec,
    build_oracle_vector,
    build_paa_vector,
    describe,
    evaluate,
    parse_vector,
    with_bounds,
)


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


class TestSolve:
    def test_paa_reaches_documented_optimum(self, paa, paa_state):
        begun = time.perf_counter()
        result = solve(paa, paa_state, SolverConfig(seed=0))
        elapsed = time.perf_counter() - begun
        assert result.feasible
        assert result.best_objective >= 2778.94 * 0.995
        assert result.best_params[0] == pytest.approx(2470.08, rel=1e-2)
        assert result.best_params[1] == pytest.approx(1456.23, rel=1e-2)
        assert elapsed < 1.0
        assert result.starts_tried == 16

    def test_paa_resolve_with_tighter_margin_bound(self, paa, paa_state):
        tightened = with_bounds(paa, {1: (0.0, 1344.0)})
        result = solve(tightened, paa_state, SolverConfig(seed=0))
        assert result.best_params[0] == pytest.approx(2404.0, rel=1e-2)
        assert result.best_params[1] == pytest.approx(1344.0, rel=1e-2)
        # closed-form value at the constrained optimum
        assert result.best_objective == pytest.approx(2456.946, rel=1e-3)

    def test_oracle_with_liquidity_ignored_beats_documented_revenue(self, oracle, oracle_state):
        result = solve(oracle, oracle_state, SolverConfig(seed=0), ignore=("zY",))
        assert result.feasible
        assert result.best_objective >= 6323.93 * 0.995

    def test_oracle_enforced_sits_on_liquidity_boundary(self, oracle, oracle_state):
        result = solve(oracle, oracle_state, SolverConfig(seed=0))
        assert result.feasible
        zy = [c for c in oracle.constraints if c.name == "zY"][0]
        drawn = 11086.29 - float(zy.fn(np.array(result.best_params)))
        assert drawn == pytest.approx(11086.29, abs=0.05)

    def test_reported_objective_matches_fresh_replay(self, paa, paa_state):
        result = solve(paa, paa_state, SolverConfig(seed=3))
        replayed = evaluate(paa, paa_state, result.best_params).objective_value
        assert math.isclose(result.best_objective, replayed, rel_tol=1e-9)

    def test_seed_determinism(self, paa, paa_state):
        a = solve(paa, paa_state, SolverConfig(seed=11))
        b = solve(paa, paa_state, SolverConfig(seed=11))
        assert a.best_params == b.best_params
        assert a.best_objective == b.best_objective
        assert a.iterations == b.iterations

    def test_infeasible_problem_reported_explicitly(self, paa_state):
        impossible = ConstraintSpec("never", "unsatisfiable", 1, True, lambda p: -1.0)
        vector = linear_test_vector()
        vector = AttackVector(**{**vector.__dict__, "constraints": (impossible,)})
        result = solve(vector, paa_state, SolverConfig(seed=0))
        assert not result.feasible
        assert result.max_violation < 0

    def test_ignoring_unknown_constraint_is_config_error(self, paa, paa_state):
        with pytest.raises(ConfigError):
            solve(paa, paa_state, SolverConfig(), ignore=("nope",))

    def test_feasible_results_respect_tolerance(self, oracle, oracle_state):
        result = solve(oracle, oracle_state, SolverConfig(seed=5))
        assert result.max_violation >= -1e-6


class TestGridOracle:
    def test_paa_agreement_within_one_percent(self, paa, paa_state):
        best = solve(paa, paa_state, SolverConfig(seed=0))
        grid = grid_oracle(paa, paa_state, 200)
        assert grid.feasible
        assert abs(best.best_objective - grid.best_objective) <= 0.01 * best.best_objective

    def test_oracle_agreement_within_two_percent(self, oracle, oracle_state):
        best = solve(oracle, oracle_state, SolverConfig(seed=0))
        grid = grid_oracle(oracle, oracle_state, 60)
        assert grid.feasible
        assert abs(best.best_objective - grid.best_objective) <= 0.02 * best.best_objective

    def test_constant_objective_picks_feasible_corner(self, paa_state):
        flat = AttackVector(
            name="flat", steps=(), n_params=2, bounds=((0.0, 1.0), (0.0, 1.0)),
            actor="adversary", profit_asset="X", objective_name="constant",
            constraints=(), objective=lambda p: np.asarray(p, dtype=float)[..., 0] * 0.0 + 7.0,
        )
        grid = grid_oracle(flat, paa_state, 5)
        assert grid.feasible
        assert grid.best_objective == 7.0
        assert all(v in (0.0, 0.25, 0.5, 0.75, 1.0) for v in grid.best_params)

    def test_dimension_limit(self, paa_state):
        too_big = AttackVector(
            name="big", steps=(), n_params=4, bounds=((0.0, 1.0),) * 4,
            actor="adversary", profit_asset="X", objective_name="n/a",
            constraints=(), objective=lambda p: 0.0,
        )
        with pytest.raises(ValueError):
            grid_oracle(too_big, paa_state, 5)

    def test_resolution_validation(self, paa, paa_state):
        with pytest.raises(ConfigError):
            grid_oracle(paa, paa_state, 1)

    def test_infeasible_box_flagged(self, paa_state):
        impossible = ConstraintSpec("never", "unsatisfiable", 1, True, lambda p: -np.ones(np.asarray(p).shape[:-1]) if np.asarray(p).ndim > 1 else -1.0)
        vector = linear_test_vector()
        vector = AttackVector(**{**vector.__dict__, "constraints": (impossible,)})
        grid = grid_oracle(vector, paa_state, 5)
        assert not grid.feasible


class TestFiniteDifferences:
    def test_linear_objective_recovers_coefficients(self, paa_state):
        vector = linear_test_vector((2.0, 3.0))
        grad = finite_diff_gradient(vector, paa_state, (50.0, 50.0), step=1e-3)
        assert grad == pytest.approx([2.0, 3.0], abs=1e-6)

    def test_first_order_optimality_at_documented_optimum(self, paa, paa_state):
        # wX binds p2 at the optimum; the free (p1) direction must be flat
        grad = finite_diff_gradient(paa, paa_state, (2470.08, 1456.23 - 1.0), step=0.5)
        objective = float(paa.objective(np.array([2470.08, 1456.23])))
        assert abs(grad[0]) < 1e-2 * abs(objective)

    def test_richardson_step_halving(self, paa, paa_state):
        point = (3000.0, 900.0)
        estimates = {
            h: finite_diff_gradient(paa, paa_state, point, step=h)
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
        assert np.array_equal(_central_difference(f, x, h), expected)

    def test_requires_interior_point(self, paa, paa_state):
        with pytest.raises(ValueError):
            finite_diff_gradient(paa, paa_state, (0.0, 100.0), step=1.0)


def test_latin_hypercube_covers_box():
    bounds = ((0.0, 10.0), (100.0, 200.0))
    sample = latin_hypercube(16, bounds, seed=4)
    assert sample.shape == (16, 2)
    assert (sample[:, 0] >= 0).all() and (sample[:, 0] <= 10).all()
    assert (sample[:, 1] >= 100).all() and (sample[:, 1] <= 200).all()
    # one point per stratum along each axis
    assert len(np.unique((sample[:, 0] / (10 / 16)).astype(int))) == 16
    assert np.array_equal(latin_hypercube(16, bounds, seed=4), sample)
