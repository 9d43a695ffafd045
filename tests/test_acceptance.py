"""Acceptance suite: one test per shipping criterion, one printed line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
PASS/FAIL lines.  Criterion 5 asserts the published re-solve parameters
verbatim; it poses the re-solve with the reserve-quote coupling that the
built-in oracle chain leaves out (see the README), and the failure message
carries the measured solver output.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest
from click.testing import CliRunner

from flashsim import analytics
from flashsim.atomicity import (
    SyntheticStream,
    TwoExchangeMarket,
    non_atomic_arbitrage,
    sweep,
)
from flashsim.cli import main as cli_main
from flashsim.models import (
    AutomatedPriceReserve,
    ConstantProductAmm,
    amm_spot_price_y,
    amm_swap_x_for_y,
    compute_slippage,
    margin_short,
    reserve_convert_x_to_y,
)
from flashsim.optimize import (
    FEASIBILITY_TOL,
    grid_oracle,
    problem,
    solve,
)
from flashsim.vectors import (
    ConstraintSpec,
    build_oracle_vector,
    build_paa_vector,
    evaluate,
    with_bounds,
)

from differences import finite_diff_gradient

RNG = np.random.default_rng(314159)


def report(number: int, description: str, checks: list[tuple[str, bool, str]]) -> None:
    ok = all(passed for _, passed, _ in checks)
    print(f"\ncriterion {number:02d} [{'PASS' if ok else 'FAIL'}] {description}")
    for name, passed, detail in checks:
        print(f"    {'ok  ' if passed else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {number}: " + "; ".join(
        f"{name} ({detail})" for name, passed, detail in checks if not passed
    )


@pytest.fixture(scope="module")
def paa(paa_state):
    return build_paa_vector(paa_state)


@pytest.fixture(scope="module")
def oracle(oracle_state):
    return build_oracle_vector(oracle_state)


def test_criterion_01_executed_paa_revenue(paa, paa_state):
    trace = evaluate(paa, paa_state, (5500.0, 1300.0))
    timings = []
    for _ in range(20):
        begun = time.perf_counter()
        evaluate(paa, paa_state, (5500.0, 1300.0))
        timings.append(time.perf_counter() - begun)
    fastest = min(timings)
    report(1, "replay of the executed pump-and-arbitrage parameters", [
        ("revenue 1171.70 within 0.5%",
         abs(trace.objective_value - 1171.70) <= 0.005 * 1171.70,
         f"got {trace.objective_value:.2f}"),
        ("replay under 1 ms", fastest < 1e-3, f"fastest {fastest * 1e3:.3f} ms"),
    ])


def test_criterion_02_paa_optimum(paa):
    begun = time.perf_counter()
    result = solve(paa, seed=0, starts=16)
    elapsed = time.perf_counter() - begun
    p1, p2 = result.best_params
    report(2, "pump-and-arbitrage optimum", [
        ("objective >= 2778.94 * 0.995", result.best_objective >= 2778.94 * 0.995,
         f"got {result.best_objective:.2f}"),
        ("p1 within 1% of 2470.08", abs(p1 - 2470.08) <= 0.01 * 2470.08, f"got {p1:.2f}"),
        ("p2 within 1% of 1456.23", abs(p2 - 1456.23) <= 0.01 * 1456.23, f"got {p2:.2f}"),
        ("16 starts under 1 s", elapsed < 1.0, f"{elapsed:.3f} s"),
    ])


def test_criterion_03_paa_constrained_resolve(paa):
    result = solve(with_bounds(paa, {1: (0.0, 1344.0)}), seed=0)
    p1, p2 = result.best_params
    report(3, "pump-and-arbitrage re-solve with p2 <= 1344", [
        ("p1 within 1% of 2404", abs(p1 - 2404.0) <= 0.01 * 2404.0, f"got {p1:.2f}"),
        ("p2 within 1% of 1344", abs(p2 - 1344.0) <= 0.01 * 1344.0, f"got {p2:.2f}"),
    ])


def test_criterion_04_oracle_optimum(oracle, oracle_state):
    trace = evaluate(oracle, oracle_state, (898.58, 546.80, 3517.86))
    ignored = solve(oracle, ignore=("zY",), seed=0)
    enforced = solve(oracle, seed=0)
    zy = [c for c in oracle.constraints if c.name == "zY"][0]
    drawn = 11086.29 - float(zy.fn(np.array(enforced.best_params)))
    cli = CliRunner().invoke(cli_main, ["--format", "structured", "optimize",
                                        "--scenario", "oracle_manipulation",
                                        "--vector", "oracle"])
    notes = json.loads(cli.output)["results"]["notes"] if cli.exit_code == 0 else []
    report(4, "oracle-manipulation optimum and liquidity-cap handling", [
        ("replay at documented optimum = 6323.93 within 0.5%",
         abs(trace.objective_value - 6323.93) <= 0.005 * 6323.93,
         f"got {trace.objective_value:.2f}"),
        ("solve with zY ignored >= 6323.93 * 0.995",
         ignored.feasible and ignored.best_objective >= 6323.93 * 0.995,
         f"got {ignored.best_objective:.2f}"),
        ("solve with zY enforced sits on the borrow boundary 11086.29",
         enforced.feasible and abs(drawn - 11086.29) <= 0.05,
         f"drawn {drawn:.4f}"),
        ("report flags the documented optimum as cap-violating",
         any("zY" in n and "documented_optimum" in n for n in notes),
         f"{len(notes)} note(s)"),
    ])


def reserve_quote_coupling(state) -> ConstraintSpec:
    """p1 stops where the pumped AMM quote (uX + p1)^2 / k meets the reserve's
    quote after the p2 conversion, minP * exp(lr * (kX + p2)); past that point
    the quote the lender reads no longer rises with p1.  The residual is in
    ETH: how much more the pump could take before the two quotes meet."""
    amm = state.pool("amm", ConstantProductAmm)
    reserve = state.pool("reserve", AutomatedPriceReserve)
    k = amm.reserve_x * amm.reserve_y

    def residual(p):
        p = np.asarray(p, dtype=float)
        converted = reserve.inventory_x + p[..., 1]
        quote = reserve.min_price * np.exp(reserve.liquidity_rate * converted)
        return np.sqrt(k * quote) - amm.reserve_x - p[..., 0]

    return ConstraintSpec("quote", "oracle pump stays within the reserve's quote", 3, False,
                          residual)


def test_criterion_05_oracle_constrained_resolve(oracle, oracle_state):
    # Published re-solve figures, asserted verbatim.  Without the coupling the
    # objective rises with p1 until the flash budget vX binds, at
    # (5268.37, 2.00, 2229.63); the published point and the documented
    # optimum (898.58, 546.80, 3517.86) both lie on the reserve-quote curve,
    # each about 3 ETH of p1 past it, so the solve lands just under 714.3.
    coupling = reserve_quote_coupling(oracle_state)
    vector = with_bounds(replace(oracle, constraints=oracle.constraints + (coupling,)),
                         {1: (0.0, 460.0)})
    result = solve(vector, ignore=("zY",), seed=0)
    p1, p2, p3 = result.best_params
    prob = problem(vector, ignore=("zY",))
    scaled = dict(zip((c.name for c in prob.constraints), prob.values(result.best_params)[1:]))
    held = scaled.get(coupling.name, math.nan)
    budget = oracle_state.pool("flash").available
    report(5, "oracle re-solve with p2 <= 460 reaches the published parameters", [
        ("p1 within 1% of 714.3", abs(p1 - 714.3) <= 0.01 * 714.3, f"got {p1:.2f}"),
        ("p2 within 1% of 460", abs(p2 - 460.0) <= 0.01 * 460.0, f"got {p2:.2f}"),
        ("p3 within 1% of 3517.86", abs(p3 - 3517.86) <= 0.01 * 3517.86, f"got {p3:.2f}"),
        ("reserve-quote coupling holds p1", abs(held) <= FEASIBILITY_TOL,
         f"scaled residual {held:.2e}"),
        ("flash budget vX left slack", scaled["vX"] > FEASIBILITY_TOL,
         f"{budget - p1 - p2 - p3:.2f} of {budget:.0f} ETH unused"),
    ])


def test_criterion_06_model_cross_checks(paa_state, oracle_state):
    checks = []
    spot = amm_spot_price_y(paa_state, "amm")
    checks.append(("spot price 36.55 within 0.1%",
                   abs(spot - 36.55) <= 0.001 * 36.55, f"got {spot:.4f}"))
    shorted, _ = margin_short(
        paa_state.transact("adversary", (("ETH", 1300.0),)),
        "margin", "adversary", 1300.0)
    pushed = shorted.pool("amm").reserve_x - 2817.77
    checks.append(("short routes 5637.62 within 0.1%",
                   abs(pushed - 5637.62) <= 0.001 * 5637.62, f"got {pushed:.2f}"))
    received = 77.08 - shorted.pool("amm").reserve_y
    checks.append(("short receives 51.35 within 0.5%",
                   abs(received - 51.35) <= 0.005 * 51.35, f"got {received:.3f}"))
    funded = oracle_state.transact("adversary", (("ETH", 1000.0),))
    converted, _ = reserve_convert_x_to_y(funded, "reserve", "adversary", 360.0)
    rate = converted.balance("adversary", "sUSD") / 360.0
    checks.append(("reserve rate at 360 = 176.62 within 1%",
                   abs(rate - 176.62) <= 0.01 * 176.62, f"got {rate:.2f}"))
    dumped, _ = amm_swap_x_for_y(funded, "amm", "adversary", 540.0)
    price = 1.0 / amm_spot_price_y(dumped, "amm")
    checks.append(("pool quote after 540 = 106.05 within 0.5%",
                   abs(price - 106.05) <= 0.005 * 106.05, f"got {price:.2f}"))
    checks.append(("slippage doubling = 100% exact",
                   compute_slippage(1.0, 2.0) == 1.0, "1.0"))
    incident = compute_slippage(36.55, 109.79)
    checks.append(("incident slippage = 200.38% exact",
                   round(incident * 100, 2) == 200.38, f"got {incident * 100:.4f}%"))
    report(6, "single-operation checks against the incident narrative", checks)


def test_criterion_07_oracle_dominance(paa, oracle):
    paa_solve = solve(paa, seed=0)
    paa_grid = grid_oracle(paa, 200)
    orc_solve = solve(oracle, seed=0)
    orc_grid = grid_oracle(oracle, 60)
    paa_gap = abs(paa_solve.best_objective - paa_grid.best_objective) / paa_solve.best_objective
    orc_gap = abs(orc_solve.best_objective - orc_grid.best_objective) / orc_solve.best_objective
    report(7, "gradient solver and exhaustive grid agree", [
        ("pump-and-arbitrage within 1%", paa_gap <= 0.01, f"gap {paa_gap:.3%}"),
        ("oracle vector within 2%", orc_gap <= 0.02, f"gap {orc_gap:.3%}"),
        ("solver dominates or matches both grids",
         paa_solve.best_objective >= paa_grid.best_objective * 0.99
         and orc_solve.best_objective >= orc_grid.best_objective * 0.98, "yes"),
    ])


def _feasible_draws(vector, box, count):
    draws = []
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])
    while len(draws) < count:
        params = lo + RNG.random(len(box)) * (hi - lo)
        if min(float(c.fn(params)) for c in vector.constraints) >= 0:
            draws.append(params)
    return draws


def test_criterion_08_differential_consistency(paa, paa_state, oracle, oracle_state):
    mismatches = 0
    worst = 0.0
    for vector, state, box, count in (
        (paa, paa_state, ((0.0, 7573.0), (0.0, 1456.23)), 5000),
        (oracle, oracle_state, ((0.0, 1100.0), (0.0, 548.0), (0.0, 3517.86)), 5000),
    ):
        for params in _feasible_draws(vector, box, count):
            algebraic = float(vector.objective(params))
            replayed = evaluate(vector, state, params).objective_value
            gap = abs(algebraic - replayed) / max(1.0, abs(algebraic), abs(replayed))
            worst = max(worst, gap)
            if not math.isclose(algebraic, replayed, rel_tol=1e-9, abs_tol=1e-9):
                mismatches += 1
    report(8, "closed-form and replayed objectives agree to 1e-9 on 10,000 draws", [
        ("no mismatches", mismatches == 0, f"{mismatches} of 10000, worst gap {worst:.2e}"),
    ])


def test_criterion_09_gradient_richardson(paa):
    failures = 0
    noise_floor = 1e-7
    for _ in range(100):
        point = (float(RNG.uniform(100.0, 7000.0)), float(RNG.uniform(100.0, 1400.0)))
        grads = {h: finite_diff_gradient(paa, point, step=h) for h in (8.0, 4.0, 2.0)}
        coarse = float(np.abs(grads[8.0] - grads[4.0]).max())
        fine = float(np.abs(grads[4.0] - grads[2.0]).max())
        if fine < noise_floor:  # already at float resolution: converged
            continue
        if not fine < coarse / 2.5:
            failures += 1
    report(9, "central differences converge at second order on 100 points", [
        ("step halving shrinks the Richardson gap ~4x", failures == 0, f"{failures} failures"),
    ])


def test_criterion_10_atomicity_properties():
    market = TwoExchangeMarket(
        ConstantProductAmm("ETH", "DAI", 100.0, 35000.0),
        ConstantProductAmm("ETH", "DAI", 100.0, 36000.0),
    )
    stream = SyntheticStream(seed=99, size=400, amount_scale=0.5)
    zero_exact = all(
        non_atomic_arbitrage(market, 2.0, stream.events(trial), 0).profit_difference == 0.0
        for trial in range(1000)
    )
    identity = all(
        (o := non_atomic_arbitrage(market, 2.0, stream.events(trial), i)).profit_difference
        == o.aarb - (o.naarb - o.hv)
        for trial in range(50)
        for i in (0, 7, 50, 400)
    )
    rows = sweep(market, 2.0, stream, [0, 25, 100, 400], trials=1000)
    widths = [r.ci_high - r.ci_low for r in rows]
    print("\n    note: mainnet sweep magnitudes (123.49 +/- 1375.32 USD at i=5000) need the"
          "\n    on-chain corpus and are out of desk scope; the property suite stands in.")
    report(10, "atomicity properties on seeded synthetic flow", [
        ("i=0 gives exactly zero profit difference (1000 trials)", zero_exact, "bitwise zero"),
        ("profit difference identity holds on every outcome", identity, "aarb - (naarb - hv)"),
        ("bootstrap interval width non-decreasing in i",
         all(b >= a for a, b in zip(widths, widths[1:])),
         " -> ".join(f"{w:.4f}" for w in widths)),
    ])


def test_criterion_11_analytics_round_trip():
    addr = {
        "aave": "0x398eC7346DcD622eDc5ae82352F02bE94C62d119",
        "uniswap": "0x09cabEC1eAd1c0Ba254B09efb3EE13841712bE14",
        "compound": "0x3d9819210A31b4961b30EF54bE2aeD79B9c9Cd3B",
        "kyber": "0x7a3370075a54B187d7bD5DceBf0ff2B5552d4F7D",
        "maker": "0x197E90f9FAD81970bA7976f33CbD77088E5D7cf7",
    }
    corpus = (
        [analytics.LoanRecord(f"0xa{i}", (addr["aave"],), "ETH", 10.0, 1_000_000 + i)
         for i in range(40)]
        + [analytics.LoanRecord(f"0xb{i}", (addr["aave"], addr["uniswap"]), "DAI", 1000.0, 2_000_000)
           for i in range(30)]
        + [analytics.LoanRecord(f"0xc{i}", (addr["compound"],), "WBTC", 0.5, 900_000)
           for i in range(20)]
        + [analytics.LoanRecord(f"0xd{i}", (addr["kyber"], addr["uniswap"]), "ETH", 2.0, 800_000)
           for i in range(6)]
        + [analytics.LoanRecord(f"0xe{i}", (addr["maker"],), "DAI", 7.0, 700_000)
           for i in range(4)]
    )
    table = analytics.aggregate(corpus, analytics.AddressMap.bundled(),
                                analytics.PriceTable.default())
    rows = {row.platforms: row for row in table.rows}
    aave_gas = [1_000_000 + i for i in range(40)]
    aave_mean = sum(aave_gas) / 40
    aave_std = math.sqrt(sum((g - aave_mean) ** 2 for g in aave_gas) / 40)
    checks = [
        ("100 records in, 100 accounted", table.total.count == 100, f"{table.total.count}"),
        ("Aave row: 40 records, 140000 USD",
         rows[("Aave",)].count == 40 and rows[("Aave",)].amount_usd == pytest.approx(40 * 10 * 350.0),
         f"{rows[('Aave',)].amount_usd:.0f} USD"),
        ("Aave gas mean/std hand-computed",
         rows[("Aave",)].gas_mean == pytest.approx(aave_mean)
         and rows[("Aave",)].gas_std == pytest.approx(aave_std),
         f"{rows[('Aave',)].gas_mean:.1f} +/- {rows[('Aave',)].gas_std:.1f}"),
        ("Aave+Uniswap row: 30 records, 30000 USD",
         rows[("Aave", "Uniswap")].count == 30
         and rows[("Aave", "Uniswap")].amount_usd == pytest.approx(30 * 1000 * 1.0), "yes"),
        ("Compound row: 20 records, 100000 USD",
         rows[("Compound",)].count == 20
         and rows[("Compound",)].amount_usd == pytest.approx(20 * 0.5 * 10000.0), "yes"),
        ("Kyber+Uniswap row kept at 6 records",
         rows[("Kyber", "Uniswap")].count == 6, "yes"),
        ("4-record set folded into Others with 28 USD",
         rows[("Others",)].count == 4 and rows[("Others",)].amount_usd == pytest.approx(28.0),
         f"{rows[('Others',)].amount_usd:.0f} USD"),
        ("totals equal column sums including Others",
         table.total.count == sum(r.count for r in table.rows)
         and table.total.amount_usd == pytest.approx(sum(r.amount_usd for r in table.rows)),
         "yes"),
        ("bundled map resolves the flash lender address",
         analytics.AddressMap.bundled().project(addr["aave"]) == "Aave", "Aave"),
    ]
    report(11, "classification and aggregation against a hand-computed table", checks)


def test_criterion_12_solver_timing(paa, oracle):
    begun = time.perf_counter()
    solve(paa, seed=0)
    paa_elapsed = time.perf_counter() - begun
    begun = time.perf_counter()
    solve(oracle, seed=0)
    oracle_elapsed = time.perf_counter() - begun
    report(12, "solver wall time within 100x of the reported 6.1 ms / 12.9 ms", [
        ("pump-and-arbitrage solve under 1.3 s", paa_elapsed < 1.3, f"{paa_elapsed:.3f} s"),
        ("oracle solve under 1.3 s", oracle_elapsed < 1.3, f"{oracle_elapsed:.3f} s"),
    ])
