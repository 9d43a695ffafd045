"""Quantify what atomic execution is worth to a two-exchange arbitrageur.

An arbitrage is two trades: buy the cheaper asset on one exchange (T_A),
sell it on the other (T_B).  Executed atomically nothing can interleave;
executed non-atomically, `i` intermediary trades move both pools while the
arbitrageur holds inventory.  The holding value -- held quantity times the
change in the two exchanges' average spot price -- neutralizes plain price
drift so the remaining profit difference isolates the value of atomicity:

    profit_difference = aarb - (naarb - hv)

Mainnet-scale replay corpora are out of scope; synthetic seeded streams
and a replay file format stand in for them.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .models import ConfigError, ConstantProductAmm, constant_product_swap


@dataclass(frozen=True)
class TradeEvent:
    exchange: str  # "a" or "b"; anything else is an irrelevant no-op
    direction: str  # "XY" sells X for Y, "YX" sells Y for X
    amount: float


@dataclass(frozen=True)
class TwoExchangeMarket:
    exchange_a: ConstantProductAmm
    exchange_b: ConstantProductAmm

    def __post_init__(self):
        pair_a = (self.exchange_a.asset_x, self.exchange_a.asset_y)
        pair_b = (self.exchange_b.asset_x, self.exchange_b.asset_y)
        if pair_a != pair_b:
            raise ConfigError(f"exchanges trade different pairs: {pair_a} vs {pair_b}")
        for amm in (self.exchange_a, self.exchange_b):
            if amm.reserve_x <= 0 or amm.reserve_y <= 0:
                raise ConfigError("both exchanges need positive reserves")


@dataclass(frozen=True)
class ArbOutcome:
    aarb: float
    naarb: float
    hv: float
    profit_difference: float
    intermediaries: int


def _outcome(aarb: float, naarb: float, hv: float, i: int) -> ArbOutcome:
    return ArbOutcome(aarb, naarb, hv, aarb - (naarb - hv), i)


# Pools are carried as plain floats internally; event streams reach millions
# of applications per sweep and dataclass churn dominates otherwise.  A Y-in
# trade is the constant-product kernel with the reserves swapped.

class _Pools:
    __slots__ = ("ax", "ay", "afee", "bx", "by", "bfee")

    def __init__(self, market: TwoExchangeMarket):
        self.ax, self.ay = market.exchange_a.reserve_x, market.exchange_a.reserve_y
        self.bx, self.by = market.exchange_b.reserve_x, market.exchange_b.reserve_y
        self.afee = market.exchange_a.fee_rate
        self.bfee = market.exchange_b.fee_rate

    def spot_mean(self) -> float:
        return 0.5 * (self.ax / self.ay + self.bx / self.by)

    def buy_y(self, exchange: str, budget: float) -> float:
        if exchange == "a":
            self.ax, self.ay, out = constant_product_swap(self.ax, self.ay, self.afee, budget)
        else:
            self.bx, self.by, out = constant_product_swap(self.bx, self.by, self.bfee, budget)
        return out

    def sell_y(self, exchange: str, quantity: float) -> float:
        if exchange == "a":
            self.ay, self.ax, out = constant_product_swap(self.ay, self.ax, self.afee, quantity)
        else:
            self.by, self.bx, out = constant_product_swap(self.by, self.bx, self.bfee, quantity)
        return out

    def apply(self, event: TradeEvent) -> None:
        if event.exchange == "a":
            if event.direction == "XY":
                self.ax, self.ay, _ = constant_product_swap(self.ax, self.ay, self.afee, event.amount)
            else:
                self.ay, self.ax, _ = constant_product_swap(self.ay, self.ax, self.afee, event.amount)
        elif event.exchange == "b":
            if event.direction == "XY":
                self.bx, self.by, _ = constant_product_swap(self.bx, self.by, self.bfee, event.amount)
            else:
                self.by, self.bx, _ = constant_product_swap(self.by, self.bx, self.bfee, event.amount)
        # other exchange ids: irrelevant replay traffic, no-op


def _cheap_exchange(market: TwoExchangeMarket) -> tuple[str, str]:
    price_a = market.exchange_a.reserve_x / market.exchange_a.reserve_y
    price_b = market.exchange_b.reserve_x / market.exchange_b.reserve_y
    return ("a", "b") if price_a <= price_b else ("b", "a")


def atomic_arbitrage(market: TwoExchangeMarket, budget: float) -> tuple[float, float]:
    """Buy Y with `budget` X where it is cheap, sell it on the other exchange.

    Returns (profit, quantity held between the two legs).  With no price gap
    the profit is simply <= 0; that is a result, not an error.
    """
    if budget <= 0:
        raise ConfigError(f"budget must be positive, got {budget}")
    buy_on, sell_on = _cheap_exchange(market)
    pools = _Pools(market)
    held = pools.buy_y(buy_on, budget)
    proceeds = pools.sell_y(sell_on, held)
    return proceeds - budget, held


def non_atomic_arbitrage(
    market: TwoExchangeMarket, budget: float, stream: Sequence[TradeEvent], i: int
) -> ArbOutcome:
    """Same two legs, but `i` stream events execute between them."""
    if i < 0:
        raise ConfigError(f"intermediary count must be >= 0, got {i}")
    if len(stream) < i:
        raise ValueError(
            f"stream exhausted: need {i} events, have {len(stream)} (short by {i - len(stream)})"
        )
    aarb, _ = atomic_arbitrage(market, budget)
    buy_on, sell_on = _cheap_exchange(market)
    pools = _Pools(market)
    held = pools.buy_y(buy_on, budget)
    mean_before = pools.spot_mean()
    for event in stream[:i]:
        pools.apply(event)
    mean_after = pools.spot_mean()
    proceeds = pools.sell_y(sell_on, held)
    naarb = proceeds - budget
    hv = held * (mean_after - mean_before)
    return _outcome(aarb, naarb, hv, i)


def optimal_trade_size(market: TwoExchangeMarket) -> float:
    """Gap-closing T_A size from marginal-price equalization (zero-fee pools)."""
    if market.exchange_a.fee_rate != 0 or market.exchange_b.fee_rate != 0:
        raise ConfigError("closed-form sizing assumes zero-fee pools")
    buy_on, _ = _cheap_exchange(market)
    buy = market.exchange_a if buy_on == "a" else market.exchange_b
    sell = market.exchange_b if buy_on == "a" else market.exchange_a
    k_buy = buy.reserve_x * buy.reserve_y
    k_sell = sell.reserve_x * sell.reserve_y
    size = (np.sqrt(k_buy * k_sell) - buy.reserve_x * sell.reserve_y) / (
        buy.reserve_y + sell.reserve_y
    )
    return max(0.0, float(size))


# ---------------------------------------------------------------------------
# Streams
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SyntheticStream:
    """Seeded random-walk intermediary flow; trial t draws substream (seed, t)."""

    seed: int
    size: int
    amount_scale: float = 1.0
    sigma: float = 1.0

    def events(self, trial: int = 0) -> tuple[TradeEvent, ...]:
        rng = np.random.default_rng((self.seed, trial))
        exchanges = rng.choice(np.array(["a", "b"]), size=self.size)
        directions = rng.choice(np.array(["XY", "YX"]), size=self.size)
        amounts = self.amount_scale * rng.lognormal(mean=0.0, sigma=self.sigma, size=self.size)
        return tuple(
            TradeEvent(str(e), str(d), float(a))
            for e, d, a in zip(exchanges, directions, amounts)
        )


@dataclass(frozen=True)
class ReplayStream:
    """Pre-recorded trace; every trial replays the identical sequence."""

    trace: tuple[TradeEvent, ...]

    def events(self, trial: int = 0) -> tuple[TradeEvent, ...]:
        return self.trace


def parse_trace(text: str) -> ReplayStream:
    """Parse `block_index, exchange_id, direction(XY|YX), amount` lines."""
    events = []
    for line_no, row in enumerate(csv.reader(io.StringIO(text)), start=1):
        if not row or not "".join(row).strip():
            continue
        if line_no == 1 and not row[0].strip().lstrip("-").isdigit():
            continue  # header
        if len(row) != 4:
            raise ConfigError(f"trace line {line_no}: expected 4 fields, got {len(row)}")
        _, exchange, direction, amount = (field.strip() for field in row)
        if direction not in ("XY", "YX"):
            raise ConfigError(f"trace line {line_no}: bad direction {direction!r}")
        try:
            value = float(amount)
        except ValueError:
            raise ConfigError(f"trace line {line_no}: bad amount {amount!r}") from None
        if value <= 0:
            raise ConfigError(f"trace line {line_no}: amount must be positive")
        events.append(TradeEvent(exchange, direction, value))
    return ReplayStream(tuple(events))


def load_trace(path: str | Path) -> ReplayStream:
    return parse_trace(Path(path).read_text())


# ---------------------------------------------------------------------------
# Sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    intermediaries: int
    mean: float
    ci_low: float
    ci_high: float
    trials: int

    def as_dict(self) -> dict:
        return {
            "i": self.intermediaries,
            "mean": self.mean,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "trials": self.trials,
        }


def bootstrap_mean_ci(
    samples: np.ndarray, rng: np.random.Generator, n_resamples: int = 1000, alpha: float = 0.05
) -> tuple[float, float]:
    """Percentile bootstrap confidence interval of the sample mean."""
    samples = np.asarray(samples, dtype=float)
    idx = rng.integers(0, len(samples), size=(n_resamples, len(samples)))
    means = samples[idx].mean(axis=1)
    low, high = np.percentile(means, [100 * alpha / 2, 100 * (1 - alpha / 2)])
    return float(low), float(high)


def sweep(
    market: TwoExchangeMarket,
    budget: float,
    stream: SyntheticStream | ReplayStream,
    i_values: Sequence[int],
    trials: int,
    bootstrap_samples: int = 1000,
) -> list[SweepRow]:
    """Mean and 95% bootstrap CI of the profit difference per intermediary count.

    Each trial replays one stream; all i-values share a trial's stream so
    the profit difference accumulates along a common path.
    """
    if trials < 1:
        raise ConfigError("need at least one trial")
    i_values = list(i_values)
    needed = max(i_values, default=0)
    per_i: dict[int, list[float]] = {i: [] for i in i_values}
    for trial in range(trials):
        events = stream.events(trial)
        if len(events) < needed:
            raise ValueError(
                f"stream exhausted: need {needed} events, have {len(events)} "
                f"(short by {needed - len(events)})"
            )
        for i in i_values:
            per_i[i].append(non_atomic_arbitrage(market, budget, events, i).profit_difference)
    rows = []
    for i in i_values:
        samples = np.array(per_i[i])
        if trials == 1:
            low = high = float(samples[0])
        else:
            rng = np.random.default_rng((24181, i))
            low, high = bootstrap_mean_ci(samples, rng, bootstrap_samples)
        rows.append(SweepRow(i, float(samples.mean()), low, high, trials))
    return rows
