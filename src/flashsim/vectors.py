"""Compose protocol endpoints into parametrized trading vectors.

A vector is an ordered chain of endpoint calls whose numeric arguments are
bound either to free parameters p1..pN or to expressions over earlier
states ("all sUSD held", "cost of buying back the open debt").  Evaluating
a vector replays the chain on a scenario state, collecting every residual
with its step index; the objective is the actor's profit in one asset
between the initial and final states.

The two built-in vectors model the February 2020 pump-and-arbitrage and
oracle-manipulation incidents.  Each carries, besides its step chain, a
closed-form objective and canonical constraint set in the parameters; the
optimizer consumes those for speed, and a differential test holds the two
routes together (they must agree to 1e-9 relative on feasible points).
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from .models import (
    AutomatedPriceReserve,
    ConfigError,
    ConstantProductAmm,
    FixedPriceMarket,
    FlashLoanPool,
    LendingPool,
    MarginPlatform,
    PositionError,
    Residual,
    WorldState,
    amm_swap_x_for_y,
    amm_swap_y_for_x,
    as_number,
    collateralized_borrow,
    collateralized_repay,
    expect_type,
    flash_loan,
    flash_repay,
    margin_short,
    reserve_convert_x_to_y,
    sell_x_for_y_fixed,
)


class EvaluationError(Exception):
    """A step of the replay failed: a non-finite or undefined intermediate
    value, or a call on a position that does not exist."""

    def __init__(self, step: int, message: str):
        super().__init__(f"step {step}: {message}")
        self.step = step


# ---------------------------------------------------------------------------
# Parameter bindings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Params:
    """Sum of the referenced free parameters (0-based indices)."""

    indices: tuple[int, ...]


@dataclass(frozen=True)
class Literal:
    value: float


@dataclass(frozen=True)
class AllBalance:
    """Entire balance of (entity, asset) in the state entering the step."""

    entity: str
    asset: str


@dataclass(frozen=True)
class DebtBuyback:
    """X needed on a fixed-price market to buy back the actor's open debt."""

    lending_pool: str
    market: str


@dataclass(frozen=True)
class CollateralRate:
    """Collateral-per-debt rate read off an AMM state recorded at `step`."""

    amm: str
    step: int


Binding = Params | Literal | AllBalance | DebtBuyback | CollateralRate


def _resolve(binding: Binding, actor: str, states: Sequence[WorldState], params: Sequence[float]) -> float:
    if isinstance(binding, Params):
        return float(sum(params[i] for i in binding.indices))
    if isinstance(binding, Literal):
        return binding.value
    if isinstance(binding, AllBalance):
        return states[-1].balance(binding.entity, binding.asset)
    if isinstance(binding, DebtBuyback):
        pool = states[-1].pool(binding.lending_pool, LendingPool)
        market = states[-1].pool(binding.market, FixedPriceMarket)
        debt = sum(p.debt for p in pool.positions if p.trader == actor)
        return debt * market.price
    if isinstance(binding, CollateralRate):
        if binding.step >= len(states):
            raise ConfigError(f"binding references state {binding.step}, not yet produced")
        amm = states[binding.step].pool(binding.amm, ConstantProductAmm)
        return amm.reserve_y / amm.reserve_x
    raise ConfigError(f"unknown binding {binding!r}")


def format_binding(binding: Binding) -> str:
    if isinstance(binding, Params):
        return " + ".join(f"p{i + 1}" for i in binding.indices)
    if isinstance(binding, Literal):
        return repr(binding.value)
    if isinstance(binding, AllBalance):
        return f"all:{binding.entity}:{binding.asset}"
    if isinstance(binding, DebtBuyback):
        return f"buyback:{binding.lending_pool}:{binding.market}"
    if isinstance(binding, CollateralRate):
        return f"collateral_rate:{binding.amm}@{binding.step}"
    raise ConfigError(f"unknown binding {binding!r}")


def parse_binding(text: str) -> Binding:
    if not isinstance(text, str):
        raise ConfigError(f"cannot parse binding {text!r}")
    text = text.strip()
    if text.startswith("all:"):
        _, entity, asset = text.split(":")
        return AllBalance(entity, asset)
    if text.startswith("buyback:"):
        _, pool, market = text.split(":")
        return DebtBuyback(pool, market)
    if text.startswith("collateral_rate:"):
        _, rest = text.split(":")
        amm, step = rest.split("@")
        if int(step) < 0:
            raise ConfigError(f"binding {text!r} reads a negative step")
        return CollateralRate(amm, int(step))
    terms = [t.strip() for t in text.split("+")]
    if all(t.startswith("p") and t[1:].isdigit() for t in terms):
        return Params(tuple(int(t[1:]) - 1 for t in terms))
    try:
        return Literal(float(text))
    except ValueError:
        raise ConfigError(f"cannot parse binding {text!r}") from None


# ---------------------------------------------------------------------------
# Steps and vectors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EndpointCall:
    op: str
    pool: str
    amount: Binding | None = None
    extra: Mapping[str, Binding] = field(default_factory=dict)


@dataclass(frozen=True)
class ActionStep:
    """One chain link: a short pipeline of endpoint calls mapping S_{i-1} to S_i."""

    label: str
    calls: tuple[EndpointCall, ...]


@dataclass(frozen=True)
class ConstraintSpec:
    """One named constraint of the parameter problem, residual >= 0 feasible.
    `fn` takes one point ``(n,)`` and returns a scalar, or a batch ``(..., n)``
    and returns ``(...)``."""

    name: str
    description: str
    step: int
    linear: bool
    fn: Callable[[np.ndarray], np.ndarray | float]


@dataclass(frozen=True)
class AttackVector:
    """A parametrized chain.  `objective` takes a point or a batch as
    `ConstraintSpec.fn` does: a closed form for a built-in chain, the profit
    replayed on the parse-time scenario for a described one.  A chain built
    without one can be replayed by `evaluate` but not solved."""

    name: str
    steps: tuple[ActionStep, ...]
    n_params: int
    bounds: tuple[tuple[float, float], ...]
    actor: str
    profit_asset: str
    objective_name: str
    constraints: tuple[ConstraintSpec, ...]
    objective: Callable[[np.ndarray], np.ndarray | float] | None = None
    reference_points: Mapping[str, tuple[float, ...]] = field(default_factory=dict)


@dataclass(frozen=True)
class EvaluationTrace:
    """`states[i]` is the state after step i; `states[0]` is the scenario."""

    states: tuple[WorldState, ...]
    residuals: tuple[Residual, ...]
    objective_value: float


_OPS: dict[str, Callable] = {op.__name__: op for op in (
    flash_loan, flash_repay, sell_x_for_y_fixed, amm_swap_x_for_y, amm_swap_y_for_x,
    reserve_convert_x_to_y, collateralized_borrow, collateralized_repay, margin_short)}


def evaluate(vector: AttackVector, scenario: WorldState, params: Sequence[float]) -> EvaluationTrace:
    """Replay the chain on `scenario` with the given free parameters.

    Negative residuals never raise; non-finite intermediates, arithmetic
    failures and calls on missing positions raise :class:`EvaluationError`
    carrying the offending step index.
    """
    params = tuple(float(p) for p in params)
    if len(params) != vector.n_params:
        raise ValueError(f"expected {vector.n_params} parameters, got {len(params)}")
    if not all(math.isfinite(p) for p in params):
        raise ValueError(f"parameters must be finite, got {params}")

    states: list[WorldState] = [scenario]
    residuals: list[Residual] = []
    for i, step in enumerate(vector.steps, start=1):
        state = states[-1]
        try:
            for call in step.calls:
                op = _OPS[call.op]
                args = [state, call.pool, vector.actor]
                if call.amount is not None:
                    args.append(_resolve(call.amount, vector.actor, states, params))
                kwargs = {
                    key: _resolve(b, vector.actor, states, params)
                    for key, b in call.extra.items()
                }
                state, step_residuals = op(*args, **kwargs)
                for r in step_residuals:
                    if not math.isfinite(r.value):
                        raise OverflowError(f"residual {r.name} is {r.value}")
                    residuals.append(Residual(r.name, r.value, i))
        except (ArithmeticError, PositionError) as exc:
            raise EvaluationError(i, str(exc)) from None
        if not math.isfinite(state.balance(vector.actor, vector.profit_asset)):
            raise EvaluationError(i, f"{vector.profit_asset} balance overflowed")
        states.append(state)

    gain = states[-1].balance(vector.actor, vector.profit_asset) - states[0].balance(
        vector.actor, vector.profit_asset
    )
    return EvaluationTrace(tuple(states), tuple(residuals), gain)


def replay_table(vector: AttackVector, scenario: WorldState, width: int) -> Callable[[np.ndarray], np.ndarray]:
    """`table(P)`: objective, then every residual, at each point of ``(..., n)``, as
    ``(..., width)``, from one call per row of the module's `evaluate` (tests and the
    traced benchmark patch that name).  A row the chain cannot replay reads objective nan
    and every residual -inf; a single point ``(n,)`` raises as `evaluate` does.  The last
    table of each batch shape is kept, so the objective and residuals of a point or batch
    share its replays even when a batch of another shape (a gradient's stencil) is read
    in between."""
    last: dict[tuple, tuple[bytes, np.ndarray]] = {}

    def table(p) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        key = p.tobytes()
        cached = last.get(p.shape)  # one read: a thread may replace the entry whole meanwhile
        if cached is not None and cached[0] == key:
            return cached[1]
        points = p.reshape(-1, p.shape[-1])
        values = np.empty((len(points), width))
        for i, point in enumerate(points):
            try:
                trace = evaluate(vector, scenario, point)
                values[i] = [trace.objective_value, *(res.value for res in trace.residuals)]
            except EvaluationError:
                if p.ndim == 1:
                    raise
                values[i] = [math.nan] + [-math.inf] * (width - 1)
        values = values.reshape(*p.shape[:-1], -1)
        last[p.shape] = (key, values)
        return values

    return table


def closed_form_objective(vector: AttackVector) -> Callable:
    """The vector's objective (the traced benchmark patches this name)."""
    return vector.objective


def _bound(index: int, pair) -> tuple[float, float]:
    lo, hi = (as_number(v, f"bounds of p{index + 1}") for v in pair)
    if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
        raise ConfigError(f"bounds of p{index + 1} must be finite with low <= high, got {list(pair)}")
    return lo, hi


def with_bounds(vector: AttackVector, overrides: Mapping[int, tuple[float, float]]) -> AttackVector:
    """New vector with per-parameter (0-based) bound overrides."""
    bounds = list(vector.bounds)
    for idx, pair in overrides.items():
        if not 0 <= idx < vector.n_params:
            raise ConfigError(f"vector {vector.name!r} has no parameter p{idx + 1}, only p1..p{vector.n_params}")
        bounds[idx] = _bound(idx, pair)
    return replace(vector, bounds=tuple(bounds))


# ---------------------------------------------------------------------------
# Built-in vector: pump and arbitrage
# ---------------------------------------------------------------------------

BUILTIN_ACTOR = "adversary"  # the trader of both built-in vectors; a description file names its own


def _unique_pool(scenario: WorldState, kind: type) -> tuple[str, object]:
    matches = [(pid, p) for pid, p in scenario.pools.items() if isinstance(p, kind)]
    if len(matches) != 1:
        raise ConfigError(
            f"scenario must contain exactly one {kind.__name__}, found {len(matches)}"
        )
    return matches[0]


def _closed_form_fits(vector: str, unmodelled: Mapping[str, bool]) -> None:
    """ConfigError naming what of the scenario a built-in vector's closed form does not model."""
    found = [what for what, present in unmodelled.items() if present]
    if found:
        raise ConfigError(
            f"the built-in {vector} vector's closed form does not model {' or '.join(found)}; "
            f"write its chain with `describe --vector {vector}` on a bundled scenario "
            f"and pass that file as --vector FILE")


def _coord(p, i: int):
    """i-th parameter of a single vector or a batch of vectors."""
    return np.asarray(p, dtype=float)[..., i]


def build_paa_vector(scenario: WorldState) -> AttackVector:
    """Six-step pump-and-arbitrage chain with free params (p1, p2).

    p1 collateralizes the lending pool to draw Y; p2 opens the leveraged
    short that pumps the AMM.  The drawn Y is dumped into the pumped pool,
    the flash loan repaid, and the debt bought back at the street price to
    redeem the collateral.

    The final step nets the buyback against the collateral it redeems (on
    chain this settled incrementally over later blocks), so its sell leg
    can report a negative balance residual at large p1 even though the
    step as a whole is funded; the canonical constraint set accounts for
    the netting.
    """
    flash_id, flash = _unique_pool(scenario, FlashLoanPool)
    lend_id, lend = _unique_pool(scenario, LendingPool)
    amm_id, amm = _unique_pool(scenario, ConstantProductAmm)
    margin_id, margin = _unique_pool(scenario, MarginPlatform)
    market_id, market = _unique_pool(scenario, FixedPriceMarket)
    _closed_form_fits("paa", {
        "the AMM fee": amm.fee_rate != 0,
        "flash-loan interest": flash.interest.rate != 0 or flash.interest.flat != 0,
        f"a margin venue other than {amm_id!r}": margin.venue != amm_id,
    })

    x = flash.asset
    y = lend.debt_asset
    v_x = flash.available
    cf, er, z_y = lend.collateral_factor, lend.exchange_rate, lend.available_debt
    if er is None:
        raise ConfigError("pump-and-arbitrage lending pool needs a static exchange rate")
    lev, ocr, w_x = margin.leverage, margin.over_collateral_ratio, margin.available_x
    u_x0, u_y0 = amm.reserve_x, amm.reserve_y
    k = u_x0 * u_y0
    p_m = market.price
    b0 = scenario.balance(BUILTIN_ACTOR, x)

    def dumped_reserve_x(p):
        pumped = u_x0 + _coord(p, 1) * lev / ocr
        drawn = _coord(p, 0) * cf / er
        return k / (k / pumped + drawn)

    def objective(p):
        drawn = _coord(p, 0) * cf / er
        return u_x0 + _coord(p, 1) * lev / ocr - dumped_reserve_x(p) - _coord(p, 1) - drawn * p_m

    constraints = (
        ConstraintSpec("p1", "collateral parameter non-negative", 1, True,
                       lambda p: _coord(p, 0)),
        ConstraintSpec("p2", "short-margin parameter non-negative", 1, True,
                       lambda p: _coord(p, 1)),
        ConstraintSpec("vX", "flash liquidity covers the total loan", 1, True,
                       lambda p: v_x - _coord(p, 0) - _coord(p, 1)),
        ConstraintSpec("zY", "lending liquidity covers the drawn debt", 2, True,
                       lambda p: z_y - _coord(p, 0) * cf / er),
        ConstraintSpec("wX", "margin platform liquidity covers the leveraged excess", 3, True,
                       lambda p: w_x + _coord(p, 1) * (1.0 - lev / ocr)),
        ConstraintSpec("repay", "post-dump balance covers the flash repayment", 5, False,
                       lambda p: b0 + u_x0 + _coord(p, 1) * lev / ocr - dumped_reserve_x(p)
                       - _coord(p, 0) - _coord(p, 1)),
    )

    steps = (
        ActionStep("flash loan", (EndpointCall("flash_loan", flash_id, Params((0, 1))),)),
        ActionStep("collateralized borrow", (EndpointCall("collateralized_borrow", lend_id, Params((0,))),)),
        ActionStep("margin short via pool", (EndpointCall("margin_short", margin_id, Params((1,))),)),
        ActionStep("dump drawn debt", (EndpointCall("amm_swap_y_for_x", amm_id, AllBalance(BUILTIN_ACTOR, y)),)),
        ActionStep("flash repay", (EndpointCall("flash_repay", flash_id, Params((0, 1))),)),
        ActionStep("buy back and redeem", (
            EndpointCall("sell_x_for_y_fixed", market_id, DebtBuyback(lend_id, market_id)),
            EndpointCall("collateralized_repay", lend_id),
        )),
    )

    return AttackVector(
        name="paa",
        steps=steps,
        n_params=2,
        bounds=((0.0, v_x), (0.0, v_x)),
        actor=BUILTIN_ACTOR,
        profit_asset=x,
        objective_name=f"net {x} gain for {BUILTIN_ACTOR}",
        constraints=constraints,
        objective=objective,
        reference_points={
            "executed": (5500.0, 1300.0),
            "documented_optimum": (2470.08, 1456.23),
        },
    )


# ---------------------------------------------------------------------------
# Built-in vector: oracle manipulation
# ---------------------------------------------------------------------------

def build_oracle_vector(scenario: WorldState) -> AttackVector:
    """Six-step oracle-manipulation chain with free params (p1, p2, p3).

    p1 dumps into the price-oracle AMM, p2 into the exponential reserve,
    p3 buys at the fixed market; everything acquired is collateralized at
    the manipulated AMM rate and the flash loan repaid.
    """
    flash_id, flash = _unique_pool(scenario, FlashLoanPool)
    amm_id, amm = _unique_pool(scenario, ConstantProductAmm)
    reserve_id, reserve = _unique_pool(scenario, AutomatedPriceReserve)
    market_id, market = _unique_pool(scenario, FixedPriceMarket)
    lend_id, lend = _unique_pool(scenario, LendingPool)
    _closed_form_fits("oracle", {
        "the AMM fee": amm.fee_rate != 0,
        "flash-loan interest": flash.interest.rate != 0 or flash.interest.flat != 0,
    })

    x = flash.asset
    y = amm.asset_y
    v_x = flash.available
    u_x0, u_y0 = amm.reserve_x, amm.reserve_y
    k = u_x0 * u_y0
    lr, min_p, max_p = reserve.liquidity_rate, reserve.min_price, reserve.max_price
    k_x0 = reserve.inventory_x
    reserve_price0 = min_p * math.exp(lr * k_x0)
    p_m = market.price
    max_y = market.max_y
    cf, z_y = lend.collateral_factor, lend.available_debt
    if max_y is None:
        raise ConfigError("oracle-manipulation market needs a maxY cap")

    def acquired_y(p):
        swapped = u_y0 - k / (u_x0 + _coord(p, 0))
        converted = (1.0 - np.exp(-lr * _coord(p, 1))) / (lr * reserve_price0)
        bought = _coord(p, 2) / p_m
        return swapped + converted + bought

    def objective(p):
        pumped = u_x0 + _coord(p, 0)
        drawn = acquired_y(p) * cf * (pumped / (k / pumped))
        return drawn - _coord(p, 0) - _coord(p, 1) - _coord(p, 2)

    constraints = (
        ConstraintSpec("p1", "oracle-pump parameter non-negative", 1, True,
                       lambda p: _coord(p, 0)),
        ConstraintSpec("p2", "reserve-conversion parameter non-negative", 1, True,
                       lambda p: _coord(p, 1)),
        ConstraintSpec("p3", "fixed-market parameter non-negative", 1, True,
                       lambda p: _coord(p, 2)),
        ConstraintSpec("vX", "flash liquidity covers the total loan", 1, True,
                       lambda p: v_x - _coord(p, 0) - _coord(p, 1) - _coord(p, 2)),
        ConstraintSpec("maxP", "reserve quote stays below its cap", 3, False,
                       lambda p: max_p - min_p * np.exp(lr * (k_x0 + _coord(p, 1)))),
        ConstraintSpec("maxY", "fixed market inventory covers the purchase", 4, True,
                       lambda p: max_y - _coord(p, 2) / p_m),
        ConstraintSpec("zY", "lender liquidity covers the drawn amount", 5, False,
                       lambda p: z_y - acquired_y(p) * cf * np.square(u_x0 + _coord(p, 0)) / k),
    )

    steps = (
        ActionStep("flash loan", (EndpointCall("flash_loan", flash_id, Params((0, 1, 2))),)),
        ActionStep("pump the oracle pool", (EndpointCall("amm_swap_x_for_y", amm_id, Params((0,))),)),
        ActionStep("convert at the reserve", (EndpointCall("reserve_convert_x_to_y", reserve_id, Params((1,))),)),
        ActionStep("buy at the fixed market", (EndpointCall("sell_x_for_y_fixed", market_id, Params((2,))),)),
        ActionStep("collateralize all holdings", (
            EndpointCall("collateralized_borrow", lend_id, AllBalance(BUILTIN_ACTOR, y),
                         {"exchange_rate": CollateralRate(amm_id, 2)}),
        )),
        ActionStep("flash repay", (EndpointCall("flash_repay", flash_id, Params((0, 1, 2))),)),
    )

    return AttackVector(
        name="oracle",
        steps=steps,
        n_params=3,
        bounds=((0.0, v_x),) * 3,
        actor=BUILTIN_ACTOR,
        profit_asset=x,
        objective_name=f"net {x} gain for {BUILTIN_ACTOR}",
        constraints=constraints,
        objective=objective,
        reference_points={
            "executed": (540.0, 360.0, 3517.86),
            "documented_optimum": (898.58, 546.80, 3517.86),
        },
    )


BUILTIN_VECTORS: dict[str, Callable[[WorldState], AttackVector]] = {
    "paa": build_paa_vector,
    "oracle": build_oracle_vector,
}


# ---------------------------------------------------------------------------
# Vector description files
# ---------------------------------------------------------------------------

def describe(vector: AttackVector) -> dict:
    """Serializable description of a vector's chain (for docs and user files)."""
    return {
        "name": vector.name,
        "actor": vector.actor,
        "profit_asset": vector.profit_asset,
        "n_params": vector.n_params,
        "bounds": [list(b) for b in vector.bounds],
        "steps": [
            {
                "label": step.label,
                "calls": [
                    {
                        "op": call.op,
                        "pool": call.pool,
                        **({"amount": format_binding(call.amount)} if call.amount is not None else {}),
                        **({"extra": {k: format_binding(b) for k, b in call.extra.items()}}
                           if call.extra else {}),
                    }
                    for call in step.calls
                ],
            }
            for step in vector.steps
        ],
    }


def _probe_constraints(vector: AttackVector, probe: EvaluationTrace, table: Callable) -> tuple[ConstraintSpec, ...]:
    """Mechanically derive constraints for a user vector from a probe replay.

    Linearity is decided numerically: a residual is classified linear when it is affine
    along random segments of the parameter box, whose ends and midpoints are one batch
    of `table`; a segment with a point the chain cannot replay counts as curved.
    """
    lo, hi = np.array(vector.bounds, dtype=float).T
    rng = np.random.default_rng(11)
    ends = np.array([lo + rng.random(vector.n_params) * (hi - lo) * 0.5 for _ in range(3)])
    values = table(np.concatenate([ends, 0.5 * (ends + np.roll(ends, -1, axis=0))]))[:, 1:]
    fa, fmid = values[:3], values[3:]
    fb = np.roll(fa, -1, axis=0)
    scale = np.maximum(1.0, np.maximum(abs(fa), abs(fb)))
    with np.errstate(invalid="ignore"):  # -inf - -inf at a failed row
        gap = abs(0.5 * (fa + fb) - fmid)
    curved = ~((gap <= 1e-7 * scale) & np.isfinite(gap)).all(axis=0)

    def residual_fn(index: int):
        return lambda p: table(p)[..., 1 + index]

    return tuple(
        ConstraintSpec(
            name=f"s{res.step}_{res.name}",
            description=f"{res.name} at step {res.step}",
            step=res.step or 0,
            linear=not curved[idx],
            fn=residual_fn(idx),
        )
        for idx, res in enumerate(probe.residuals)
    )


def _parse_call(doc, where: str, n_params: int) -> EndpointCall:
    """One endpoint call, its bindings and arguments checked against its op."""
    doc = expect_type(doc, dict, where)
    op = expect_type(doc.get("op"), str, f"{where} op")
    if op not in _OPS:
        raise ConfigError(f"unknown endpoint {op!r}")
    amount = parse_binding(doc["amount"]) if "amount" in doc else None
    extra = {k: parse_binding(v) for k, v in expect_type(doc.get("extra", {}), dict, f"{where} extra").items()}
    for binding in (amount, *extra.values()):
        if isinstance(binding, Params) and not all(0 <= i < n_params for i in binding.indices):
            raise ConfigError(f"{where}: {format_binding(binding)} names a parameter beyond p{n_params}")
    try:
        inspect.signature(_OPS[op]).bind(None, None, None, *([] if amount is None else [amount]), **extra)
    except TypeError as exc:
        raise ConfigError(f"{where}: {op} cannot take these arguments: {exc}") from None
    return EndpointCall(op, expect_type(doc.get("pool"), str, f"{where} pool"), amount, extra)


def parse_vector(doc: dict, scenario: WorldState) -> AttackVector:
    """Build a user-defined vector from a parsed description document.

    A document of the wrong shape, a binding to a parameter the vector
    lacks, a call its op cannot take and bounds that are not finite pairs
    with low <= high, one per parameter, all raise ConfigError.
    """
    try:
        doc = expect_type(doc, dict, "vector description")
        n_params = expect_type(doc["n_params"], int, "n_params")
        steps = []
        for i, step in enumerate(expect_type(doc["steps"], list, "steps"), start=1):
            step = expect_type(step, dict, f"step {i}")
            calls = expect_type(step["calls"], list, f"step {i} calls")
            steps.append(ActionStep(
                label=expect_type(step.get("label", f"step {i}"), str, f"step {i} label"),
                calls=tuple(_parse_call(c, f"step {i} call {j}", n_params) for j, c in enumerate(calls, 1)),
            ))
        bounds = expect_type(doc["bounds"], list, "bounds")
        if n_params < 1 or len(bounds) != n_params:
            raise ConfigError(f"need one bound pair per parameter: n_params {n_params}, {len(bounds)} pair(s)")
        actor = expect_type(doc["actor"], str, "actor")
        asset = expect_type(doc["profit_asset"], str, "profit_asset")
        vector = AttackVector(
            name=expect_type(doc.get("name", "custom"), str, "name"),
            steps=tuple(steps), n_params=n_params,
            bounds=tuple(_bound(i, pair) for i, pair in enumerate(bounds)),
            actor=actor, profit_asset=asset, objective_name=f"net {asset} gain for {actor}",
            constraints=(),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad vector description: {exc}") from None
    probe = evaluate(vector, scenario, [lo + 0.25 * (hi - lo) for lo, hi in vector.bounds])
    table = replay_table(vector, scenario, 1 + len(probe.residuals))
    return replace(vector, constraints=_probe_constraints(vector, probe, table),
                   objective=lambda p: table(p)[..., 0])
