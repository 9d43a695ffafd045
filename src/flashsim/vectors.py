"""Compose protocol endpoints into parametrized trading vectors.

A vector is an ordered chain of endpoint calls whose numeric arguments are
bound either to free parameters p1..pN or to expressions over earlier
states ("all sUSD held", "cost of buying back the open debt").  Evaluating
a vector replays the chain on a scenario state, collecting every residual
with its step index; the objective is the actor's profit in one asset
between the initial and final states.

The two built-in vectors model the February 2020 pump-and-arbitrage and
oracle-manipulation incidents.  Each carries, besides its step chain, a
closed-form objective and canonical constraint set in the parameters, built
from the ops' own formulas and residuals; the optimizer consumes those for
speed, and a differential test holds the two routes together (they must
agree to 1e-9 relative on feasible points).
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
    Residual,
    WorldState,
    amm_swap_x_for_y,
    amm_swap_y_for_x,
    as_number,
    collateralized_borrow,
    collateralized_repay,
    constant_product_swap,
    expect_type,
    flash_loan,
    flash_repay,
    margin_short,
    reserve_convert_x_to_y,
    reserve_quote,
    sell_x_for_y_fixed,
)


class EvaluationError(Exception):
    """A step of the replay failed: one of its ops cannot execute at these
    parameters (a negative amount, empty reserves, a repay without a
    position) or gave a non-finite or undefined value."""

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
    without one can be replayed by `evaluate` but not solved.  `structural` names
    the residuals of a described chain that are zero by construction, which are
    not constraints."""

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
    structural: tuple[str, ...] = ()


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

    Negative residuals never raise; every failure of an op (a ConfigError or
    an arithmetic error) and every non-finite intermediate raises
    :class:`EvaluationError` carrying the offending step index.  Parameters
    of the wrong count or not finite raise ConfigError.
    """
    params = tuple(float(p) for p in params)
    if len(params) != vector.n_params:
        raise ConfigError(f"vector {vector.name!r} needs {vector.n_params} parameter(s)")
    if not all(math.isfinite(p) for p in params):
        raise ConfigError(f"parameters must be finite, got {params}")

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
        except (ArithmeticError, ConfigError) as exc:
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
    traced benchmark patch that name).  A row the chain cannot replay, a single point
    ``(n,)`` too, reads objective nan and every residual -inf.  The last table of each
    batch shape is kept, so the objective and residuals of a point or batch share its
    replays even when a batch of another shape (a gradient's stencil) is read in between."""
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


def _coord(p, i: int):
    """i-th parameter of a single vector or a batch of vectors."""
    return np.asarray(p, dtype=float)[..., i]


def _non_negative(*parameters: str) -> tuple[ConstraintSpec, ...]:
    """The constraints p1 >= 0, p2 >= 0, ..., each described by what its parameter sets."""
    return tuple(ConstraintSpec(f"p{i + 1}", f"{what} parameter non-negative", 1, True, lambda p, i=i: _coord(p, i))
                 for i, what in enumerate(parameters))


def build_paa_vector(scenario: WorldState) -> AttackVector:
    """Six-step pump-and-arbitrage chain with free params (p1, p2).

    p1 collateralizes the lending pool to draw Y; p2 opens the leveraged
    short that pumps the AMM.  The drawn Y is dumped into the pumped pool,
    the flash loan repaid with its interest, and the debt bought back at the
    street price to redeem the collateral.  The short must execute on the AMM.

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
    if margin.venue != amm_id:
        raise ConfigError(
            f"the built-in paa vector's closed form does not model a margin venue other than {amm_id!r}; "
            "write its chain with `describe --vector paa` on a bundled scenario and pass that file as --vector FILE")

    x = flash.asset
    y = lend.debt_asset
    if lend.exchange_rate is None:
        raise ConfigError("pump-and-arbitrage lending pool needs a static exchange rate")
    b0, y0 = scenario.balance(BUILTIN_ACTOR, x), scenario.balance(BUILTIN_ACTOR, y)

    def loan(p):
        return _coord(p, 0) + _coord(p, 1)

    def pushed(p):
        return _coord(p, 1) * margin.leverage / margin.over_collateral_ratio

    def drawn(p):
        return _coord(p, 0) * lend.collateral_factor / lend.exchange_rate

    def dumped(p):
        """X received for dumping all the Y held into the pool the short pumped."""
        pumped_x, pumped_y, _ = constant_product_swap(amm.reserve_x, amm.reserve_y, amm.fee_rate, pushed(p))
        return constant_product_swap(pumped_y, pumped_x, amm.fee_rate, y0 + drawn(p))[2]

    def objective(p):
        return dumped(p) - _coord(p, 1) - drawn(p) * market.price - flash.interest.fee(loan(p))

    constraints = (
        *_non_negative("collateral", "short-margin"),
        ConstraintSpec("vX", "flash liquidity covers the total loan", 1, True,
                       lambda p: flash.available - loan(p)),
        ConstraintSpec("zY", "lending liquidity covers the drawn debt", 2, True,
                       lambda p: lend.available_debt - drawn(p)),
        ConstraintSpec("wX", "margin platform liquidity covers the leveraged excess", 3, True,
                       lambda p: margin.available_x + _coord(p, 1) - pushed(p)),
        ConstraintSpec("repay", "post-dump balance covers the flash repayment", 5, False,
                       lambda p: b0 + dumped(p) - loan(p) - flash.interest.fee(loan(p))),
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
        bounds=((0.0, flash.available),) * 2,
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
    the manipulated AMM rate and the flash loan repaid with its interest.
    """
    flash_id, flash = _unique_pool(scenario, FlashLoanPool)
    amm_id, amm = _unique_pool(scenario, ConstantProductAmm)
    reserve_id, reserve = _unique_pool(scenario, AutomatedPriceReserve)
    market_id, market = _unique_pool(scenario, FixedPriceMarket)
    lend_id, lend = _unique_pool(scenario, LendingPool)

    x = flash.asset
    y = amm.asset_y
    lr, min_p, max_p = reserve.liquidity_rate, reserve.min_price, reserve.max_price
    reserve_price0 = reserve_quote(reserve)
    y0 = scenario.balance(BUILTIN_ACTOR, y)
    if market.max_y is None:
        raise ConfigError("oracle-manipulation market needs a maxY cap")

    def loan(p):
        return _coord(p, 0) + _coord(p, 1) + _coord(p, 2)

    def drawn(p):
        """X drawn against all the Y held, at the pumped AMM's rate."""
        pumped_x, pumped_y, swapped = constant_product_swap(amm.reserve_x, amm.reserve_y, amm.fee_rate,
                                                            _coord(p, 0))
        converted = (1.0 - np.exp(-lr * _coord(p, 1))) / (lr * reserve_price0)
        bought = _coord(p, 2) / market.price
        return (y0 + swapped + converted + bought) * lend.collateral_factor / (pumped_y / pumped_x)

    def objective(p):
        return drawn(p) - loan(p) - flash.interest.fee(loan(p))

    constraints = (
        *_non_negative("oracle-pump", "reserve-conversion", "fixed-market"),
        ConstraintSpec("vX", "flash liquidity covers the total loan", 1, True,
                       lambda p: flash.available - loan(p)),
        ConstraintSpec("maxP", "reserve quote stays below its cap", 3, False,
                       lambda p: max_p - min_p * np.exp(lr * (reserve.inventory_x + _coord(p, 1)))),
        ConstraintSpec("maxY", "fixed market inventory covers the purchase", 4, True,
                       lambda p: market.max_y - _coord(p, 2) / market.price),
        ConstraintSpec("zY", "lender liquidity covers the drawn amount", 5, False,
                       lambda p: lend.available_debt - drawn(p)),
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
        bounds=((0.0, flash.available),) * 3,
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


def _probe_constraints(vector: AttackVector, probe: EvaluationTrace, table: Callable) -> AttackVector:
    """`vector` with the constraints mechanically derived from a probe replay.

    A residual within 1e-9 of zero, relative to its size at the probe point, there and
    at every point of the random segments below is zero by construction (the balance left
    after a step spends all of it): it is named in `structural`, not made a constraint.
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
    at_probe = np.array([res.value for res in probe.residuals])
    zero = 1e-9 * np.maximum(1.0, abs(at_probe))
    structural = (abs(at_probe) <= zero) & (abs(values) <= zero).all(axis=0)
    names = [f"s{res.step}_{res.name}" for res in probe.residuals]

    def residual_fn(index: int):
        return lambda p: table(p)[..., 1 + index]

    constraints = tuple(
        ConstraintSpec(
            name=names[idx],
            description=f"{res.name} at step {res.step}",
            step=res.step or 0,
            linear=not curved[idx],
            fn=residual_fn(idx),
        )
        for idx, res in enumerate(probe.residuals) if not structural[idx]
    )
    return replace(vector, constraints=constraints, structural=tuple(n for n, dropped in zip(names, structural) if dropped))


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
    return _probe_constraints(replace(vector, objective=lambda p: table(p)[..., 0]), probe, table)
