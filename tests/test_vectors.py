"""Vector composition: chain replay, built-in chains, constraint bookkeeping."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flashsim import vectors
from flashsim.models import ConfigError
from flashsim.optimize import closed_form_objective, grid_oracle, problem
from flashsim.scenario import scenario_from_dict
from flashsim.vectors import (
    ActionStep,
    AttackVector,
    EndpointCall,
    EvaluationError,
    Params,
    build_oracle_vector,
    build_paa_vector,
    describe,
    evaluate,
    format_binding,
    parse_binding,
    parse_vector,
    replay_table,
    with_bounds,
)

from references import bundled_doc

RNG = np.random.default_rng(2020)
DESCRIBED_PAA = Path(__file__).parent / "golden" / "describe_paa.json"


def constraint_values(trace, constraints) -> list[float]:
    """Each constraint's residual in a replay, found by name: a described chain's constraints
    skip the residuals that are zero by construction."""
    by_name = {f"s{r.step}_{r.name}": r.value for r in trace.residuals}
    return [by_name[c.name] for c in constraints]


@pytest.fixture(scope="module")
def paa(paa_state):
    return build_paa_vector(paa_state)


@pytest.fixture(scope="module")
def oracle(oracle_state):
    return build_oracle_vector(oracle_state)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

class TestEvaluate:
    def test_zero_params_noop_and_feasible(self, paa, paa_state):
        trace = evaluate(paa, paa_state, (0.0, 0.0))
        assert trace.objective_value == pytest.approx(0.0, abs=1e-9)
        assert all(r.value >= -1e-9 for r in trace.residuals)
        assert len(trace.states) == len(paa.steps) + 1

    def test_executed_parameters_revenue(self, paa, paa_state):
        trace = evaluate(paa, paa_state, (5500.0, 1300.0))
        assert trace.objective_value == pytest.approx(1171.70, rel=5e-3)
        # every residual holds except the buyback leg's intra-step funding gap,
        # which the collateral redeemed in the same composite step settles
        others = [r for r in trace.residuals if (r.step, r.name) != (6, "seller_balance")]
        assert all(r.value >= -1e-9 for r in others)
        assert trace.states[-1].balance("adversary", "ETH") > 0
        params = np.array([5500.0, 1300.0])
        assert min(float(c.fn(params)) for c in paa.constraints) >= 0

    def test_oracle_executed_parameters_feasible(self, oracle, oracle_state):
        trace = evaluate(oracle, oracle_state, (540.0, 360.0, 3517.86))
        assert all(r.value >= -1e-9 for r in trace.residuals)
        # fee-free model lands a few percent above the 2381.41 observed on-chain
        assert 0.02 < (trace.objective_value - 2381.41) / 2381.41 < 0.06

    def test_documented_optimum_revenue(self, paa, paa_state):
        trace = evaluate(paa, paa_state, (2470.08, 1456.23))
        assert trace.objective_value == pytest.approx(2778.94, rel=5e-3)

    def test_constrained_optimum_revenue(self, paa, paa_state):
        # closed-form value at the gas-constrained parameter pair
        trace = evaluate(paa, paa_state, (2404.0, 1344.0))
        assert trace.objective_value == pytest.approx(2456.9461039080934, rel=1e-9)

    def test_oracle_zero_params(self, oracle, oracle_state):
        trace = evaluate(oracle, oracle_state, (0.0, 0.0, 0.0))
        assert trace.objective_value == pytest.approx(0.0, abs=1e-9)
        assert all(r.value >= -1e-9 for r in trace.residuals)

    def test_oracle_gas_constrained_point(self, oracle, oracle_state):
        trace = evaluate(oracle, oracle_state, (714.3, 460.0, 3517.86))
        assert trace.objective_value == pytest.approx(4221.437820505829, rel=1e-9)
        assert trace.objective_value == pytest.approx(
            float(oracle.objective(np.array([714.3, 460.0, 3517.86]))), rel=1e-9)

    def test_oracle_documented_optimum_needs_zy_ignored(self, oracle, oracle_state):
        trace = evaluate(oracle, oracle_state, (898.58, 546.80, 3517.86))
        assert trace.objective_value == pytest.approx(6323.93, rel=5e-3)
        zy = [r for r in trace.residuals if r.name == "debt_liquidity"][0]
        assert zy.value < 0  # exceeds lender liquidity; only the cap residual says so

    def test_wrong_params(self, paa, paa_state):
        with pytest.raises(ConfigError, match=r"^vector 'paa' needs 2 parameter\(s\)$"):
            evaluate(paa, paa_state, (1.0,))
        with pytest.raises(ConfigError, match="parameters must be finite"):
            evaluate(paa, paa_state, (float("inf"), 0.0))

    def test_overflow_reports_step(self, oracle, oracle_state):
        with pytest.raises(EvaluationError) as err:
            evaluate(oracle, oracle_state, (0.0, 1e7, 0.0))
        assert err.value.step == 3

    def test_an_op_that_cannot_execute_reports_its_step(self, paa, paa_state):
        with pytest.raises(EvaluationError, match="negative collateral") as err:
            evaluate(paa, paa_state, (-100.0, 500.0))
        assert err.value.step == 2

    def test_step_indices_recorded(self, oracle, oracle_state):
        trace = evaluate(oracle, oracle_state, (10.0, 10.0, 10.0))
        assert len(trace.states) == len(oracle.steps) + 1
        assert {r.step for r in trace.residuals} == {1, 2, 3, 4, 5, 6}

    def test_determinism(self, paa, paa_state):
        a = evaluate(paa, paa_state, (1234.5, 678.9))
        b = evaluate(paa, paa_state, (1234.5, 678.9))
        assert a == b

    def test_chain_locality(self, oracle_state):
        # p2 first binds at step 2, so S0..S1 must be bit-identical across p2 values
        two_swaps = AttackVector(
            name="two-swaps",
            steps=(
                ActionStep("first", (EndpointCall("amm_swap_x_for_y", "amm", Params((0,))),)),
                ActionStep("second", (EndpointCall("amm_swap_x_for_y", "amm", Params((1,))),)),
            ),
            n_params=2, bounds=((0.0, 100.0), (0.0, 100.0)),
            actor="adversary", profit_asset="sUSD",
            objective_name="sUSD acquired", constraints=(),
        )
        base = evaluate(two_swaps, oracle_state, (10.0, 5.0))
        bumped = evaluate(two_swaps, oracle_state, (10.0, 50.0))
        assert base.states[:2] == bumped.states[:2]
        assert base.states[2] != bumped.states[2]


# ---------------------------------------------------------------------------
# built-in chains
# ---------------------------------------------------------------------------

class TestBuiltins:
    def test_paa_constraint_census(self, paa):
        specs = paa.constraints
        assert len(specs) == 6
        assert sum(c.linear for c in specs) == 5
        assert [c.name for c in specs if not c.linear] == ["repay"]

    def test_oracle_constraint_census(self, oracle):
        specs = oracle.constraints
        assert len(specs) == 7
        assert sum(c.linear for c in specs) == 5
        assert {c.name for c in specs if not c.linear} == {"maxP", "zY"}

    def test_linearity_flags_match_numerical_probes(self, paa):
        pts = RNG.uniform(0.0, 2000.0, size=(3, 2))
        for spec in paa.constraints:
            affine = True
            for a, b in zip(pts, np.roll(pts, 1, axis=0)):
                mid = 0.5 * (a + b)
                lhs = 0.5 * (float(spec.fn(a)) + float(spec.fn(b)))
                if abs(lhs - float(spec.fn(mid))) > 1e-7 * max(1.0, abs(lhs)):
                    affine = False
            assert affine == spec.linear, spec.name

    def test_closed_form_matches_trace_objective(self, paa, paa_state, oracle, oracle_state):
        for vector, state, sampler in (
            (paa, paa_state, lambda: (RNG.uniform(0, 7000), RNG.uniform(0, 1456))),
            (oracle, oracle_state, lambda: (RNG.uniform(0, 1100), RNG.uniform(0, 548),
                                            RNG.uniform(0, 3517))),
        ):
            checked = 0
            while checked < 300:
                params = np.array(sampler())
                if min(float(c.fn(params)) for c in vector.constraints) < 0:
                    continue
                algebraic = float(vector.objective(params))
                replayed = evaluate(vector, state, params).objective_value
                assert math.isclose(algebraic, replayed, rel_tol=1e-9, abs_tol=1e-9)
                checked += 1

    @pytest.mark.parametrize("name", ["paa", "oracle"])
    def test_closed_forms_take_a_point_or_a_batch_bitwise(self, name, request):
        # so a Jacobian from one batch equals SciPy's from one call per point
        vector = request.getfixturevalue(name)
        lo, hi = np.array(vector.bounds).T
        batch = lo + np.random.default_rng(0).random((3000, vector.n_params)) * (hi - lo)
        for fn in [vector.objective] + [c.fn for c in vector.constraints]:
            assert np.array_equal(fn(batch), [fn(p) for p in batch])

    @pytest.mark.parametrize("name, scenario, asset", [
        ("paa", "pump_arbitrage", "WBTC"), ("oracle", "oracle_manipulation", "sUSD")], ids=["paa", "oracle"])
    def test_closed_form_counts_the_y_the_actor_starts_with(self, name, scenario, asset):
        # the chain dumps or collateralizes all the Y held; the closed forms left out what it held at the start
        doc = bundled_doc(scenario)
        doc["balances"]["adversary"][asset] = 10.0
        state = scenario_from_dict(doc)
        vector = vectors.BUILTIN_VECTORS[name](state)
        for point in vector.reference_points.values():
            assert float(vector.objective(np.array(point))) == pytest.approx(
                evaluate(vector, state, point).objective_value, rel=1e-9)

    def test_canonical_residuals_match_mechanical_trace(self, oracle, oracle_state):
        params = np.array([700.0, 450.0, 3000.0])
        trace = evaluate(oracle, oracle_state, params)
        by_key = {(r.step, r.name): r.value for r in trace.residuals}
        pairs = {
            "vX": (1, "loan_liquidity"),
            "maxP": (3, "price_cap"),
            "maxY": (4, "market_inventory"),
            "zY": (5, "debt_liquidity"),
        }
        for cname, key in pairs.items():
            spec = [c for c in oracle.constraints if c.name == cname][0]
            assert float(spec.fn(params)) == pytest.approx(by_key[key], rel=1e-9, abs=1e-9)

    def test_missing_pool_is_config_error(self, paa_state):
        doc = {"assets": ["ETH"], "balances": {}, "pools": {
            "flash": {"type": "flash_loan", "asset": "ETH", "vX": 1.0}}}
        with pytest.raises(ConfigError):
            build_paa_vector(scenario_from_dict(doc))

    def test_bounds_override(self, paa):
        tightened = with_bounds(paa, {1: (0.0, 1344.0)})
        assert tightened.bounds[1] == (0.0, 1344.0)
        assert tightened.bounds[0] == paa.bounds[0]
        with pytest.raises(ConfigError):
            with_bounds(paa, {7: (0.0, 1.0)})


# ---------------------------------------------------------------------------
# description files
# ---------------------------------------------------------------------------

class TestDescription:
    def test_binding_round_trip(self):
        for text in ("p1", "p1 + p3", "all:adversary:sUSD",
                     "buyback:lending:market", "collateral_rate:amm@2", "123.5"):
            assert format_binding(parse_binding(text)) == text

    def test_bad_binding(self):
        with pytest.raises(ConfigError):
            parse_binding("q9 * 2")

    def test_describe_parse_round_trip(self, paa, paa_state):
        doc = json.loads(json.dumps(describe(paa)))
        parsed = parse_vector(doc, paa_state)
        for params in [(0.0, 0.0), (5500.0, 1300.0), (2470.08, 1456.23)]:
            original = evaluate(paa, paa_state, params)
            replayed = evaluate(parsed, paa_state, params)
            assert replayed.objective_value == original.objective_value
            assert [r.value for r in replayed.residuals] == [r.value for r in original.residuals]

    def test_parsed_vector_probes_linearity(self, oracle, oracle_state):
        parsed = parse_vector(describe(oracle), oracle_state)
        linear = {c.name: c.linear for c in parsed.constraints}
        assert linear["s1_loan_liquidity"]
        assert not linear["s3_price_cap"]
        assert not linear["s5_debt_liquidity"]

    @pytest.mark.parametrize("name, structural", [
        ("paa", ("s3_collateral_balance", "s4_trader_y_balance", "s6_debt_balance")),
        ("oracle", ("s4_seller_balance", "s5_collateral_balance"))])
    def test_residuals_zero_by_construction_are_not_constraints(self, name, structural, request):
        # each is the balance left after a step spends all of it
        vector, state = request.getfixturevalue(name), request.getfixturevalue(f"{name}_state")
        parsed = parse_vector(describe(vector), state)
        assert parsed.structural == structural
        names = [c.name for c in parsed.constraints]
        residuals = evaluate(parsed, state, [hi for _, hi in parsed.bounds]).residuals
        assert sorted(names + list(structural)) == sorted(f"s{r.step}_{r.name}" for r in residuals)
        assert problem(parsed, ignore=structural).constraints == parsed.constraints  # still ignorable

    def test_probe_segment_the_chain_cannot_replay_is_curved(self, paa, paa_state, monkeypatch):
        replay, replays = vectors.evaluate, []

        def probe_replays_only(*args):  # the probe point replays; every segment row fails
            if replays:
                raise EvaluationError(4, "ETH balance overflowed")
            replays.append(args)
            return replay(*args)

        monkeypatch.setattr(vectors, "evaluate", probe_replays_only)
        parsed = parse_vector(describe(paa), paa_state)
        assert len(parsed.constraints) == 9 and not any(c.linear for c in parsed.constraints)

    def test_one_replay_per_point(self, paa_state, monkeypatch):
        replays = []
        replay = vectors.evaluate
        monkeypatch.setattr(vectors, "evaluate", lambda *args: replays.append(args) or replay(*args))
        parsed = parse_vector(json.loads(DESCRIBED_PAA.read_text()), paa_state)
        assert len(replays) <= 7  # one per distinct probe point
        replays.clear()
        grid_oracle(problem(parsed), 40)
        # objective and every residual of a point share its replay
        assert len(replays) <= 2 * 40 ** 2 + 1

    def test_point_replays_survive_a_stencil_in_between(self, paa_state, monkeypatch):
        replays = []
        replay = vectors.evaluate
        monkeypatch.setattr(vectors, "evaluate", lambda *args: replays.append(tuple(args[2])) or replay(*args))
        parsed = parse_vector(json.loads(DESCRIBED_PAA.read_text()), paa_state)
        x = np.array([2470.0, 1456.0])
        stencil = x + 1e-4 * np.concatenate([np.eye(2), -np.eye(2)])  # a gradient's 2n rows
        replays.clear()
        parsed.objective(x)
        parsed.objective(stencil)
        parsed.constraints[0].fn(x)  # SLSQP's residuals at x, after the gradient
        assert replays.count(tuple(x)) == 1 and len(replays) == 1 + len(stencil)

    def test_shared_replay_never_serves_another_point(self, paa, paa_state):
        from concurrent.futures import ThreadPoolExecutor

        parsed = parse_vector(json.loads(DESCRIBED_PAA.read_text()), paa_state)
        objective = closed_form_objective(parsed)
        points = [(float(a), float(b)) for a in range(0, 7000, 700) for b in range(0, 1400, 280)]

        def read(pair):
            p, q = pair  # objective at p, then residuals at q, then the objective again
            return objective(p), [c.fn(q) for c in parsed.constraints], objective(p)

        pairs = list(zip(points, points[::-1]))
        expected = [(evaluate(paa, paa_state, p).objective_value,
                     constraint_values(evaluate(paa, paa_state, q), parsed.constraints),
                     evaluate(paa, paa_state, p).objective_value) for p, q in pairs]
        assert [read(pair) for pair in pairs] == expected
        with ThreadPoolExecutor(max_workers=4) as pool:
            assert list(pool.map(read, pairs)) == expected

    @pytest.mark.parametrize("name", ["paa", "oracle"])
    def test_parsed_vector_takes_a_point_or_a_batch(self, name, request):
        vector, state = request.getfixturevalue(name), request.getfixturevalue(f"{name}_state")
        parsed = parse_vector(describe(vector), state)
        lo, hi = np.array(parsed.bounds).T
        batch = lo + RNG.random((2, 3, parsed.n_params)) * (hi - lo) * 0.5
        traces = [[evaluate(parsed, state, p) for p in row] for row in batch]
        fns = [parsed.objective] + [c.fn for c in parsed.constraints]
        columns = [[[t.objective_value for t in row] for row in traces]] + np.moveaxis(
            [[constraint_values(t, parsed.constraints) for t in row] for row in traces], -1, 0).tolist()
        for fn, column in zip(fns, columns):
            assert np.array_equal(fn(batch), column)  # bitwise, shape (2, 3)
            point = fn(batch[1, 2])
            assert np.ndim(point) == 0 and point == column[1][2]

    @pytest.mark.parametrize("name, failing", [
        ("paa", [[1.0, 0.5], [0.5, 0.5]]),  # the ETH balance overflows at p1 = 1e308
        ("oracle", [[0.5, 1.0, 0.5], [0.5, 0.5, 0.5]]),  # the reserve quote overflows at p2 = 1e308
    ])
    def test_table_rows_are_the_scalar_replays(self, name, failing, request):
        # a row the chain cannot replay (an overflow, or an op refusing a negative amount) reads
        # nan and -inf, and so does that point alone
        vector, state = request.getfixturevalue(name), request.getfixturevalue(f"{name}_state")
        parsed = parse_vector(describe(vector), state)
        table = replay_table(parsed, state, 1 + len(parsed.constraints) + len(parsed.structural))
        seen = set()
        unit = st.lists(st.floats(0.0, 1.0), min_size=parsed.n_params, max_size=parsed.n_params)

        @settings(max_examples=60, deadline=None)
        @given(exponent=st.integers(0, 308), units=st.lists(unit, min_size=1, max_size=4))
        @example(exponent=308, units=failing)
        def rows_match(exponent, units):
            batch = (2.0 * np.array(units) - 1.0) * 10.0 ** exponent  # points in [-10 ** exponent, 10 ** exponent]
            expected = []
            for point in batch:
                try:
                    trace = evaluate(parsed, state, point)
                except EvaluationError:
                    seen.add("failed")
                    expected.append(None)
                    continue
                seen.add("replayed")
                expected.append([trace.objective_value, *(r.value for r in trace.residuals)])
            for point, row, values in zip(batch, table(batch), expected, strict=True):
                if values is None:
                    assert math.isnan(row[0]) and (row[1:] == -math.inf).all()
                else:
                    assert row.tobytes() == np.array(values).tobytes()  # bitwise
                assert table(point).tobytes() == row.tobytes()

        rows_match()
        assert {"replayed", "failed"} <= seen

    def test_unknown_endpoint_rejected(self, paa, paa_state):
        doc = describe(paa)
        doc["steps"][0]["calls"][0]["op"] = "rug_pull"
        with pytest.raises(ConfigError):
            parse_vector(doc, paa_state)

    def test_mangled_description_rejected(self, paa_state):
        with pytest.raises(ConfigError):
            parse_vector({"steps": []}, paa_state)


def test_concurrent_evaluations_share_state_safely(paa, paa_state):
    # immutable states + pure ops: parallel replay over one shared scenario
    # must reproduce the sequential results exactly
    from concurrent.futures import ThreadPoolExecutor

    grid = [(float(a), float(b)) for a in range(0, 7000, 500) for b in range(0, 1400, 200)]
    sequential = [evaluate(paa, paa_state, p).objective_value for p in grid]
    with ThreadPoolExecutor(max_workers=8) as pool:
        parallel = list(pool.map(lambda p: evaluate(paa, paa_state, p).objective_value, grid))
    assert parallel == sequential


def test_ledger_stays_non_negative_on_feasible_paths(paa, paa_state):
    checked = 0
    while checked < 100:
        params = np.array([RNG.uniform(0, 7573), RNG.uniform(0, 1456)])
        if min(float(c.fn(params)) for c in paa.constraints) < 0:
            continue
        trace = evaluate(paa, paa_state, params)
        for state in trace.states:
            assert all(v >= -1e-9 for v in state.balances.values())
        checked += 1
