"""Reference figures the tests check the models and the sweep against: a pool's spot price,
the atomic arbitrage, and variants of the bundled scenarios.  No command needs them."""

import json
from importlib import resources

from flashsim.atomicity import TwoExchangeMarket
from flashsim.models import ConstantProductAmm, WorldState, constant_product_swap
from flashsim.scenario import scenario_from_dict

# Bundled scenarios with an AMM fee or flash-loan interest, which the built-in closed forms price:
# (bundled scenario, pool, the stanza fields changed).
PRICED_VARIANTS = {
    "paa-amm-fee": ("pump_arbitrage", "amm", {"fee": 0.003}),
    "paa-flash-interest": ("pump_arbitrage", "flash", {"interest": {"rate": 0.0009}}),
    "paa-flash-flat-fee": ("pump_arbitrage", "flash", {"interest": {"flat": 1.0}}),
    "oracle-amm-fee": ("oracle_manipulation", "amm", {"fee": 0.003}),
    "oracle-flash-interest": ("oracle_manipulation", "flash", {"interest": {"rate": 0.0009}}),
}


def bundled_doc(name: str) -> dict:
    """The parsed document of the bundled scenario `name`."""
    return json.loads(resources.files("flashsim.data").joinpath(f"{name}.json").read_text())


def priced_variant(name: str, pool: str, change: dict) -> WorldState:
    """The bundled scenario `name` with the fields `change` of `pool` changed."""
    doc = bundled_doc(name)
    doc["pools"][pool].update(change)
    return scenario_from_dict(doc)


def amm_spot_price_y(state: WorldState, amm_id: str) -> float:
    """Marginal price of Y in X units: reserve_x / reserve_y."""
    amm = state.pool(amm_id, ConstantProductAmm)
    return amm.reserve_x / amm.reserve_y


def atomic_arbitrage(market: TwoExchangeMarket, budget: float) -> tuple[float, float]:
    """Buy Y with `budget` X where it is cheap, sell it on the other exchange:
    (profit, quantity held between the two legs)."""
    a, b = market.exchange_a, market.exchange_b
    buy, sell = (a, b) if a.reserve_x / a.reserve_y <= b.reserve_x / b.reserve_y else (b, a)
    held = constant_product_swap(buy.reserve_x, buy.reserve_y, buy.fee_rate, budget)[2]
    return constant_product_swap(sell.reserve_y, sell.reserve_x, sell.fee_rate, held)[2] - budget, held
