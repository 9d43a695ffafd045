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

import copy
import csv
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .models import ConfigError, ConstantProductAmm, constant_product_swap, expect_type
from .scenario import build_pool, read_json, read_text


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


def load_market(path: str | Path) -> tuple[TwoExchangeMarket, str]:
    """Read a market file: the pair `x`, `y` and one constant-product stanza
    (`uX`, `uY`, optional `fee`) under each of `exchange_a` and `exchange_b`.
    Returns the market and the sha256 of the file."""
    doc, digest = read_json(path, "market")
    expect_type(doc, dict, f"market {path}")
    pair = {"type": "constant_product", "x": doc.get("x", "X"), "y": doc.get("y", "Y")}
    return TwoExchangeMarket(*(
        build_pool(name, {**expect_type(doc.get(name), dict, f"market {path}: {name}"), **pair})
        for name in ("exchange_a", "exchange_b")
    )), digest


@dataclass(frozen=True)
class ArbOutcome:
    aarb: float
    naarb: float
    hv: float
    profit_difference: float
    intermediaries: int


# Pools are carried as plain floats, or as arrays with one entry per lane
# when many event streams replay in lockstep.  A Y-in trade is the
# constant-product kernel with the reserves swapped.

class _Pools:
    __slots__ = ("ax", "ay", "afee", "bx", "by", "bfee")

    def __init__(self, market: TwoExchangeMarket):
        self.ax, self.ay = market.exchange_a.reserve_x, market.exchange_a.reserve_y
        self.bx, self.by = market.exchange_b.reserve_x, market.exchange_b.reserve_y
        self.afee = market.exchange_a.fee_rate
        self.bfee = market.exchange_b.fee_rate

    def lanes(self, count: int) -> "_Pools":
        """A copy with every reserve repeated over `count` lanes."""
        lanes = copy.copy(self)
        for name in ("ax", "ay", "bx", "by"):
            setattr(lanes, name, np.full(count, getattr(self, name)))
        return lanes

    def spot_mean(self):
        return 0.5 * (self.ax / self.ay + self.bx / self.by)

    def buy_y(self, exchange: str, budget: float) -> float:
        if exchange == "a":
            self.ax, self.ay, out = constant_product_swap(self.ax, self.ay, self.afee, budget)
        else:
            self.bx, self.by, out = constant_product_swap(self.bx, self.by, self.bfee, budget)
        return out

    def sell_y(self, exchange: str, quantity: float):
        """Proceeds of selling `quantity` Y; the reserves are left as they are."""
        if exchange == "a":
            return constant_product_swap(self.ay, self.ax, self.afee, quantity)[2]
        return constant_product_swap(self.by, self.bx, self.bfee, quantity)[2]

    def step(self, xy: np.ndarray, amount_a: np.ndarray, amount_b: np.ndarray) -> None:
        """Apply one event per lane; a lane whose event is elsewhere pays in 0."""
        self.ax, self.ay = _swap_lanes(self.ax, self.ay, self.afee, xy, amount_a)
        self.bx, self.by = _swap_lanes(self.bx, self.by, self.bfee, xy, amount_b)


def _swap_lanes(rx, ry, fee: float, xy: np.ndarray, amount: np.ndarray):
    """Pay `amount` of X (lanes where `xy`) or of Y into one pool: (new rx, new ry).

    A zero amount leaves a lane's reserves bit-for-bit unchanged.
    """
    r_in, r_out, _ = constant_product_swap(np.where(xy, rx, ry), np.where(xy, ry, rx), fee, amount)
    return np.where(xy, r_in, r_out), np.where(xy, r_out, r_in)


def _cheap_exchange(market: TwoExchangeMarket) -> tuple[str, str]:
    price_a = market.exchange_a.reserve_x / market.exchange_a.reserve_y
    price_b = market.exchange_b.reserve_x / market.exchange_b.reserve_y
    return ("a", "b") if price_a <= price_b else ("b", "a")


def _buy(market: TwoExchangeMarket, budget: float) -> tuple[_Pools, str, float]:
    """The buy leg: (pools after it, the exchange to sell on, Y held)."""
    if not 0 < budget < np.inf:
        raise ConfigError(f"budget must be finite and positive, got {budget}")
    buy_on, sell_on = _cheap_exchange(market)
    pools = _Pools(market)
    held = pools.buy_y(buy_on, budget)
    if not (pools.ay if buy_on == "a" else pools.by) > 0:
        raise ConfigError(f"budget {budget:g} drains exchange {buy_on}'s Y reserve")
    return pools, sell_on, held


def atomic_arbitrage(market: TwoExchangeMarket, budget: float) -> tuple[float, float]:
    """Buy Y with `budget` X where it is cheap, sell it on the other exchange.

    Returns (profit, quantity held between the two legs).  With no price gap
    the profit is simply <= 0; that is a result, not an error.  The budget
    must be finite and positive and leave the bought pool some Y.
    """
    pools, sell_on, held = _buy(market, budget)
    return pools.sell_y(sell_on, held) - budget, held


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
    aarb, naarb, hv, difference = _replay(market, budget, [_event_block(stream[:i])], [i])
    return ArbOutcome(aarb, float(naarb[0, 0]), float(hv[0, 0]), float(difference[0, 0]), i)


# Event arrays code the exchange as 0 for a, 1 for b and 2 for irrelevant
# replay traffic.  A block holds one lane per stream, step-major: the XY mask
# and the amounts paid into a and into b (0 where the event is elsewhere).

_EXCHANGE_CODES = {"a": 0, "b": 1}
_Block = tuple[np.ndarray, np.ndarray, np.ndarray]
_LANES = 128  # streams per block: event memory is _LANES x max(i), whatever the trial count


def _block(lanes: Iterable[tuple[np.ndarray, ...]], count: int, steps: int) -> _Block:
    """Step-major block of `count` lanes' first `steps` events.

    Each lane comes as arrays of exchange code, XY mask and amount, and is
    written in as it arrives, so only one lane's draws exist besides the block.
    """
    xy = np.empty((steps, count), dtype=bool)
    amount_a, amount_b = np.empty((2, steps, count))
    for lane, (exchange, is_xy, amount) in enumerate(lanes):
        exchange, amount = exchange[:steps], amount[:steps]
        xy[:, lane] = is_xy[:steps]
        amount_a[:, lane] = np.where(exchange == 0, amount, 0.0)
        amount_b[:, lane] = np.where(exchange == 1, amount, 0.0)
    return xy, amount_a, amount_b


def _event_block(events: Sequence[TradeEvent]) -> _Block:
    """One-lane block of a recorded event sequence."""
    lane = (
        np.array([_EXCHANGE_CODES.get(e.exchange, 2) for e in events], dtype=np.int64),
        np.array([e.direction == "XY" for e in events], dtype=bool),
        np.array([e.amount for e in events], dtype=float),
    )
    return _block([lane], 1, len(events))


def _replay(
    market: TwoExchangeMarket, budget: float, blocks: Iterable[_Block], counts: Sequence[int]
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Run lanes of intermediary events between the two arbitrage legs, in lockstep.

    Every block holds at least max(counts) steps; `counts` are sorted and
    distinct.  The buy leg runs once; after each count of events every lane
    sells and is read, its reserves left as they are, so a lane costs
    max(counts) steps.  Returns aarb and (len(counts), lanes) arrays of naarb,
    hv and the profit difference.
    """
    bought, sell_on, held = _buy(market, budget)
    aarb = bought.sell_y(sell_on, held) - budget  # selling leaves the reserves as they are
    mean_before = bought.spot_mean()
    naarb, hv = [], []
    for xy, amount_a, amount_b in blocks:
        pools = bought.lanes(xy.shape[1])
        block_naarb, block_hv = np.empty((2, len(counts), xy.shape[1]))
        done = 0
        for row, count in enumerate(counts):
            for j in range(done, count):
                pools.step(xy[j], amount_a[j], amount_b[j])
            done = count
            mean_after = pools.spot_mean()
            block_naarb[row] = pools.sell_y(sell_on, held) - budget
            block_hv[row] = held * (mean_after - mean_before)
        naarb.append(block_naarb)
        hv.append(block_hv)
        del xy, amount_a, amount_b  # free this block before the next one is built
    naarb, hv = np.concatenate(naarb, axis=1), np.concatenate(hv, axis=1)
    return aarb, naarb, hv, aarb - (naarb - hv)


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

    def __post_init__(self):
        if self.size < 0:
            raise ConfigError(f"stream size must be >= 0, got {self.size}")
        if not 0 < self.amount_scale < np.inf:
            raise ConfigError(f"amount scale must be finite and positive, got {self.amount_scale}")
        if not 0 <= self.sigma < np.inf:
            raise ConfigError(f"sigma must be finite and non-negative, got {self.sigma}")

    def events(self, trial: int = 0) -> tuple[TradeEvent, ...]:
        exchanges, xy, amounts = self._draws(trial)
        return tuple(
            TradeEvent("ab"[e], "XY" if d else "YX", float(a))
            for e, d, a in zip(exchanges, xy, amounts)
        )

    def _draws(self, trial: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Trial `trial`'s events as arrays: exchange code, XY mask, amount."""
        rng = np.random.default_rng((self.seed, trial))
        exchanges = rng.choice(2, size=self.size)  # the draws of choice(["a", "b"])
        xy = rng.choice(2, size=self.size) == 0  # the draws of choice(["XY", "YX"])
        amounts = self.amount_scale * rng.lognormal(mean=0.0, sigma=self.sigma, size=self.size)
        return exchanges, xy, amounts

    def _blocks(self, trials: int, steps: int) -> Iterator[_Block]:
        """Blocks of up to _LANES trials, cut to their first `steps` events."""
        for first in range(0, trials, _LANES):
            last = min(first + _LANES, trials)
            yield _block((self._draws(t) for t in range(first, last)), last - first, steps)


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
        if not 0 < value < np.inf:
            raise ConfigError(f"trace line {line_no}: amount must be finite and positive")
        events.append(TradeEvent(exchange, direction, value))
    return ReplayStream(tuple(events))


def load_trace(path: str | Path) -> ReplayStream:
    return parse_trace(read_text(path, "trace")[0])


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


BOOTSTRAP_BLOCK = 1 << 15  # index draws per block: 512 KiB of indices and gathered samples


def bootstrap_mean_ci(
    samples: np.ndarray, rng: np.random.Generator, n_resamples: int = 1000, alpha: float = 0.05
) -> tuple[float, float]:
    """Percentile bootstrap confidence interval of the sample mean.

    The resamples are drawn a block of rows at a time, about BOOTSTRAP_BLOCK
    indices each and at least one row; the generator yields the same
    indices as one `(n_resamples, n)` draw, so memory holds one block
    whatever the sample and resample counts.
    """
    if n_resamples < 1:
        raise ConfigError(f"need at least one bootstrap resample, got {n_resamples}")
    samples = np.asarray(samples, dtype=float)
    n = len(samples)
    rows = max(1, BOOTSTRAP_BLOCK // max(n, 1))
    means = np.empty(n_resamples)
    for first in range(0, n_resamples, rows):
        last = min(first + rows, n_resamples)
        means[first:last] = samples[rng.integers(0, n, size=(last - first, n))].mean(axis=1)
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
    the profit difference accumulates along a common path.  Trials run as
    lanes of one lockstep replay, each once over the sorted i-values; every
    row, a repeated i-value's too, rests on exactly `trials` samples.
    """
    if trials < 1:
        raise ConfigError("need at least one trial")
    i_values = list(i_values)
    needed = max(i_values, default=0)
    replay = isinstance(stream, ReplayStream)
    have = len(stream.trace) if replay else stream.size
    if have < needed:
        raise ValueError(
            f"stream exhausted: need {needed} events, have {have} (short by {needed - have})"
        )
    for i in i_values:
        if i < 0:
            raise ConfigError(f"intermediary count must be >= 0, got {i}")
    counts = sorted(set(i_values))
    if replay:  # every trial replays the identical sequence: one lane stands for all
        *_, differences = _replay(market, budget, [_event_block(stream.trace[:needed])], counts)
        differences = np.repeat(differences, trials, axis=1)
    else:
        *_, differences = _replay(market, budget, stream._blocks(trials, needed), counts)
    rows = []
    for i in i_values:
        samples = differences[counts.index(i)]
        if trials == 1:
            low = high = float(samples[0])
        else:
            rng = np.random.default_rng((24181, i))
            low, high = bootstrap_mean_ci(samples, rng, bootstrap_samples)
        rows.append(SweepRow(i, float(samples.mean()), low, high, trials))
    return rows
