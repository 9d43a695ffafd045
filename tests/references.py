"""Reference figures the tests check the models and the sweep against: a pool's spot price,
a price's slippage and the atomic arbitrage.  No command needs them."""

from flashsim.atomicity import TwoExchangeMarket
from flashsim.models import ConfigError, ConstantProductAmm, WorldState, constant_product_swap


def amm_spot_price_y(state: WorldState, amm_id: str) -> float:
    """Marginal price of Y in X units: reserve_x / reserve_y."""
    amm = state.pool(amm_id, ConstantProductAmm)
    return amm.reserve_x / amm.reserve_y


def compute_slippage(expected_price: float, executed_price: float) -> float:
    """Relative drift of the executed price against the expected price."""
    if expected_price <= 0:
        raise ConfigError(f"expected price must be positive, got {expected_price}")
    return (executed_price - expected_price) / expected_price


def atomic_arbitrage(market: TwoExchangeMarket, budget: float) -> tuple[float, float]:
    """Buy Y with `budget` X where it is cheap, sell it on the other exchange:
    (profit, quantity held between the two legs)."""
    a, b = market.exchange_a, market.exchange_b
    buy, sell = (a, b) if a.reserve_x / a.reserve_y <= b.reserve_x / b.reserve_y else (b, a)
    held = constant_product_swap(buy.reserve_x, buy.reserve_y, buy.fee_rate, budget)[2]
    return constant_product_swap(sell.reserve_y, sell.reserve_x, sell.fee_rate, held)[2] - budget, held
