"""Pure state-transition models for six DeFi protocol primitives.

A :class:`WorldState` is the balances per (entity, asset) plus the pools.
Every operation takes a state plus numeric parameters and returns its
successor, built by one :meth:`WorldState.transact` call, together with a
list of signed constraint residuals.  A residual >= 0 means the protocol
rule it encodes is satisfied; negative residuals are *returned, not
raised*, so an optimizer can walk through infeasible regions.  An op
that cannot execute at all (unknown pool, bad price, empty reserves, a
negative amount, a repay without a position) raises :class:`ConfigError`;
a chain replay reports that as the failing step, so a parameter point
where it happens is one the optimizer cannot evaluate.

Conventions: each venue trades a pair X/Y; amounts are token units in
binary floating point, and all golden comparisons elsewhere use relative
tolerances, never bit equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Mapping, Union

AssetId = str
Entity = str


class ConfigError(Exception):
    """A pool, asset or parameter an op cannot execute with (distinct from an infeasible
    trade, which returns a negative residual)."""


STRICT_RESIDUAL_TOL = 1e-9


@dataclass(frozen=True)
class Residual:
    """Signed slack of one protocol constraint; >= 0 means satisfied."""

    name: str
    value: float
    step: int | None = None

    @property
    def satisfied(self) -> bool:
        """The rule holds, allowing STRICT_RESIDUAL_TOL of rounding."""
        return self.value >= -STRICT_RESIDUAL_TOL


@dataclass(frozen=True)
class InterestModel:
    """Flash-loan fee: proportional rate plus a constant absolute fee."""

    rate: float = 0.0
    flat: float = 0.0

    def fee(self, amount: float) -> float:
        return self.rate * amount + self.flat


@dataclass(frozen=True)
class FlashLoanPool:
    """Uncollateralized intra-transaction lender with `available` liquidity."""

    asset: AssetId
    available: float
    interest: InterestModel = InterestModel()


@dataclass(frozen=True)
class ConstantProductAmm:
    """Two-asset exchange keeping reserve_x * reserve_y invariant (at zero fee)."""

    asset_x: AssetId
    asset_y: AssetId
    reserve_x: float
    reserve_y: float
    fee_rate: float = 0.0


@dataclass(frozen=True)
class AutomatedPriceReserve:
    """Single-inventory market maker quoting min_price * exp(liquidity_rate * inventory_x).

    The quote (X per Y) rises exponentially as X accumulates in inventory;
    min_price/max_price bound the admissible quote, enforced as residuals.
    """

    asset_x: AssetId
    asset_y: AssetId
    inventory_x: float
    liquidity_rate: float
    min_price: float
    max_price: float


@dataclass(frozen=True)
class FixedPriceMarket:
    """Venue selling Y for X at a fixed price, optionally capped in cumulative Y."""

    asset_x: AssetId
    asset_y: AssetId
    price: float  # X per Y
    max_y: float | None = None
    dispensed_y: float = 0.0


@dataclass(frozen=True)
class LoanPosition:
    trader: Entity
    collateral: float
    debt: float


@dataclass(frozen=True)
class LendingPool:
    """Over-collateralized lender: deposit collateral_asset, draw debt_asset.

    `exchange_rate` is collateral units per debt unit; it may be None when a
    caller always supplies a live rate (e.g. read off an AMM).  Open
    positions are tracked per trader so collateral can be redeemed later.
    """

    collateral_asset: AssetId
    debt_asset: AssetId
    collateral_factor: float
    available_debt: float
    exchange_rate: float | None = None
    positions: tuple[LoanPosition, ...] = ()


@dataclass(frozen=True)
class MarginPlatform:
    """Margin venue opening leveraged shorts through an execution venue.

    A short of collateral d pushes d * leverage / over_collateral_ratio of X
    through the venue AMM and locks the received Y until close/liquidation.
    `external_price` substitutes for the AMM when no venue is configured.
    """

    collateral_asset: AssetId
    short_asset: AssetId
    leverage: float
    over_collateral_ratio: float
    available_x: float
    venue: str | None = None  # pool id of a ConstantProductAmm
    external_price: float | None = None
    locked: Mapping[Entity, float] = field(default_factory=dict)


Pool = Union[
    FlashLoanPool,
    ConstantProductAmm,
    AutomatedPriceReserve,
    FixedPriceMarket,
    LendingPool,
    MarginPlatform,
]


@dataclass(frozen=True)
class WorldState:
    """Immutable snapshot of all balances and pool states at one step.

    `balances` maps (entity, asset) to an amount; absent entries read as
    zero.  `transact` is the one way to make the next state.
    """

    balances: Mapping[tuple[Entity, AssetId], float] = field(default_factory=dict)
    pools: Mapping[str, Pool] = field(default_factory=dict)

    def pool(self, pool_id: str, kind: type | None = None) -> Pool:
        try:
            found = self.pools[pool_id]
        except KeyError:
            raise ConfigError(f"unknown pool {pool_id!r}") from None
        if kind is not None and not isinstance(found, kind):
            raise ConfigError(
                f"pool {pool_id!r} is {type(found).__name__}, expected {kind.__name__}"
            )
        return found

    def balance(self, entity: Entity, asset: AssetId) -> float:
        return self.balances.get((entity, asset), 0.0)

    def transact(self, trader: Entity, deltas: tuple[tuple[AssetId, float], ...],
                 pools: Mapping[str, Pool] | None = None) -> "WorldState":
        """The next state: `trader`'s balances moved by each (asset, delta) in
        order, and the pools in `pools` replaced by id."""
        balances = dict(self.balances)
        for asset, delta in deltas:
            balances[(trader, asset)] = balances.get((trader, asset), 0.0) + delta
        return WorldState(balances, {**self.pools, **pools} if pools else self.pools)


OpResult = tuple[WorldState, list[Residual]]


def _require_finite(name: str, value: float, non_negative: bool = False) -> None:
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    if non_negative and value < 0:
        raise ConfigError(f"negative {name} {value}")


_JSON_TYPES = {dict: "a JSON object", list: "a JSON list", str: "a string", int: "a JSON integer"}


def expect_type(value, kind: type, what: str):
    """`value` if it has the JSON type `kind`, else a ConfigError naming `what`."""
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ConfigError(f"{what} must be {_JSON_TYPES[kind]}, got {type(value).__name__}")
    return value


def as_number(value, what: str) -> float:
    """A JSON number (int or float, never a boolean) as a float, or a ConfigError
    naming `what`.  An integer too large for a float reads as infinite."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{what} must be a number, got {type(value).__name__}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


# ---------------------------------------------------------------------------
# Flash loans
# ---------------------------------------------------------------------------

def flash_loan(state: WorldState, pool_id: str, borrower: Entity, amount: float) -> OpResult:
    """Borrow `amount` from a flash pool; feasible while amount <= available."""
    _require_finite("loan amount", amount)
    pool = state.pool(pool_id, FlashLoanPool)
    new_state = state.transact(borrower, ((pool.asset, amount),))
    return new_state, [Residual("loan_liquidity", pool.available - amount)]


def flash_repay(state: WorldState, pool_id: str, borrower: Entity, amount: float) -> OpResult:
    """Repay `amount` plus interest; feasible while the borrower can cover both."""
    _require_finite("repay amount", amount)
    pool = state.pool(pool_id, FlashLoanPool)
    owed = amount + pool.interest.fee(amount)
    held = state.balance(borrower, pool.asset)
    new_state = state.transact(borrower, ((pool.asset, -owed),))
    return new_state, [Residual("repay_balance", held - owed)]


# ---------------------------------------------------------------------------
# Fixed-price trading
# ---------------------------------------------------------------------------

def sell_x_for_y_fixed(state: WorldState, market_id: str, trader: Entity, amount: float) -> OpResult:
    """Sell `amount` of X for Y at the market's fixed price."""
    _require_finite("sale amount", amount)
    market = state.pool(market_id, FixedPriceMarket)
    if market.price <= 0:
        raise ConfigError(f"market {market_id!r} has non-positive price {market.price}")
    bought = amount / market.price
    new_market = replace(market, dispensed_y=market.dispensed_y + bought)
    new_state = state.transact(trader, ((market.asset_x, -amount), (market.asset_y, bought)),
                               {market_id: new_market})
    residuals = [Residual("seller_balance", state.balance(trader, market.asset_x) - amount)]
    if market.max_y is not None:
        residuals.append(Residual("market_inventory", market.max_y - market.dispensed_y - bought))
    return new_state, residuals


# ---------------------------------------------------------------------------
# Constant-product AMM
# ---------------------------------------------------------------------------

def _amm_checked(state: WorldState, amm_id: str) -> ConstantProductAmm:
    amm = state.pool(amm_id, ConstantProductAmm)
    if amm.reserve_x <= 0 or amm.reserve_y <= 0:
        raise ConfigError(f"amm {amm_id!r} has empty reserves")
    return amm


def constant_product_swap(r_in: float, r_out: float, fee: float, amount: float) -> tuple[float, float, float]:
    """Pay `amount` into reserve `r_in` at `fee`: (new r_in, new r_out, amount out)."""
    effective = amount * (1.0 - fee)
    out = effective * r_out / (r_in + effective)
    return r_in + amount, r_out - out, out


def _amm_swap(state: WorldState, amm_id: str, trader: Entity, amount: float, x_in: bool) -> OpResult:
    _require_finite("swap amount", amount, non_negative=True)
    amm = _amm_checked(state, amm_id)
    if x_in:
        asset_in, asset_out, held = amm.asset_x, amm.asset_y, "trader_x_balance"
        reserve_x, reserve_y, out = constant_product_swap(amm.reserve_x, amm.reserve_y, amm.fee_rate, amount)
    else:
        asset_in, asset_out, held = amm.asset_y, amm.asset_x, "trader_y_balance"
        reserve_y, reserve_x, out = constant_product_swap(amm.reserve_y, amm.reserve_x, amm.fee_rate, amount)
    new_state = state.transact(trader, ((asset_in, -amount), (asset_out, out)),
                               {amm_id: replace(amm, reserve_x=reserve_x, reserve_y=reserve_y)})
    return new_state, [Residual(held, state.balance(trader, asset_in) - amount)]


def amm_swap_x_for_y(state: WorldState, amm_id: str, trader: Entity, amount: float) -> OpResult:
    """Swap `amount` of X into the pool for Y; output preserves the reserve product."""
    return _amm_swap(state, amm_id, trader, amount, x_in=True)


def amm_swap_y_for_x(state: WorldState, amm_id: str, trader: Entity, amount: float) -> OpResult:
    """Mirror swap: Y in, X out."""
    return _amm_swap(state, amm_id, trader, amount, x_in=False)


def amm_spot_price_y(state: WorldState, amm_id: str) -> float:
    """Marginal price of Y in X units: reserve_x / reserve_y."""
    amm = _amm_checked(state, amm_id)
    return amm.reserve_x / amm.reserve_y


# ---------------------------------------------------------------------------
# Automated price reserve
# ---------------------------------------------------------------------------

def reserve_quote(res: AutomatedPriceReserve) -> float:
    """The reserve's current quote (X per Y); the max_price cap is a residual, not a clamp."""
    return res.min_price * math.exp(res.liquidity_rate * res.inventory_x)


def reserve_convert_x_to_y(state: WorldState, reserve_id: str, trader: Entity, amount: float) -> OpResult:
    """Convert `amount` of X into Y against the exponential-quote reserve.

    Integrating the inverse quote over the inventory move gives the output
    (1 - exp(-liquidity_rate * amount)) / (liquidity_rate * pre-trade quote),
    so successive conversions get a strictly worse marginal rate.
    """
    _require_finite("convert amount", amount, non_negative=True)
    res = state.pool(reserve_id, AutomatedPriceReserve)
    out = (1.0 - math.exp(-res.liquidity_rate * amount)) / (res.liquidity_rate * reserve_quote(res))
    new_res = replace(res, inventory_x=res.inventory_x + amount)
    post_price = reserve_quote(new_res)
    new_state = state.transact(trader, ((res.asset_x, -amount), (res.asset_y, out)), {reserve_id: new_res})
    return new_state, [
        Residual("trader_x_balance", state.balance(trader, res.asset_x) - amount),
        Residual("price_floor", post_price - res.min_price),
        Residual("price_cap", res.max_price - post_price),
    ]


# ---------------------------------------------------------------------------
# Collateralized lending
# ---------------------------------------------------------------------------

def collateralized_borrow(state: WorldState, pool_id: str, trader: Entity, collateral: float,
                          exchange_rate: float | None = None, debt_cap: float | None = None) -> OpResult:
    """Deposit collateral and draw collateral * factor / rate of the debt asset.

    `exchange_rate` overrides the pool's static rate (oracle-driven pools
    quote a live rate instead).  When `debt_cap` is given the drawn amount
    is clamped to it; otherwise the pool's liquidity limit stays a residual.
    """
    _require_finite("collateral", collateral, non_negative=True)
    pool = state.pool(pool_id, LendingPool)
    rate = exchange_rate if exchange_rate is not None else pool.exchange_rate
    if rate is None or rate <= 0:
        raise ConfigError(f"lending pool {pool_id!r} has no usable exchange rate")
    drawn = collateral * pool.collateral_factor / rate
    if debt_cap is not None:
        drawn = min(drawn, debt_cap)
    new_pool = replace(pool, positions=pool.positions + (LoanPosition(trader, collateral, drawn),))
    new_state = state.transact(trader, ((pool.collateral_asset, -collateral), (pool.debt_asset, drawn)),
                               {pool_id: new_pool})
    return new_state, [
        Residual("collateral_balance", state.balance(trader, pool.collateral_asset) - collateral),
        Residual("debt_liquidity", pool.available_debt - drawn),
    ]


def collateralized_repay(state: WorldState, pool_id: str, trader: Entity) -> OpResult:
    """Repay the trader's most recent open position and reclaim its collateral."""
    pool = state.pool(pool_id, LendingPool)
    open_idx = [i for i, p in enumerate(pool.positions) if p.trader == trader]
    if not open_idx:
        raise ConfigError(f"{trader!r} has no open position in {pool_id!r}")
    idx = open_idx[-1]
    position = pool.positions[idx]
    held = state.balance(trader, pool.debt_asset)
    new_pool = replace(pool, positions=pool.positions[:idx] + pool.positions[idx + 1:])
    new_state = state.transact(
        trader, ((pool.debt_asset, -position.debt), (pool.collateral_asset, position.collateral)),
        {pool_id: new_pool})
    return new_state, [Residual("debt_balance", held - position.debt)]


# ---------------------------------------------------------------------------
# Margin trading
# ---------------------------------------------------------------------------

def margin_short(state: WorldState, platform_id: str, trader: Entity, collateral: float) -> OpResult:
    """Open a short: leveraged collateral is swapped for Y and the Y is locked.

    The platform fronts collateral * leverage / over_collateral_ratio of X;
    its own liquidity must cover everything beyond the posted collateral.
    """
    _require_finite("margin collateral", collateral, non_negative=True)
    platform = state.pool(platform_id, MarginPlatform)
    pushed = collateral * platform.leverage / platform.over_collateral_ratio
    residuals = [
        Residual("collateral_balance", state.balance(trader, platform.collateral_asset) - collateral),
        Residual("platform_liquidity", platform.available_x + collateral - pushed),
    ]
    if platform.venue is not None:
        amm = _amm_checked(state, platform.venue)
        new_x, new_y, locked_out = constant_product_swap(amm.reserve_x, amm.reserve_y, amm.fee_rate, pushed)
        pools = {platform.venue: replace(amm, reserve_x=new_x, reserve_y=new_y)}
    elif platform.external_price is not None:
        locked_out = pushed / platform.external_price
        pools = {}
    else:
        raise ConfigError(f"margin platform {platform_id!r} has no execution venue")
    locked = {**platform.locked, trader: platform.locked.get(trader, 0.0) + locked_out}
    pools[platform_id] = replace(platform, locked=locked)
    return state.transact(trader, ((platform.collateral_asset, -collateral),), pools), residuals


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def compute_slippage(expected_price: float, executed_price: float) -> float:
    """Relative drift of the executed price against the expected price."""
    if expected_price <= 0:
        raise ConfigError(f"expected price must be positive, got {expected_price}")
    return (executed_price - expected_price) / expected_price
