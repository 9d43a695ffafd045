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
    (`uX`, `uY` > 0, optional `fee` in [0, 1)) under each of `exchange_a` and
    `exchange_b`.  Returns the market and the sha256 of the file."""
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


# Both pools' reserves are the rows ax, ay, bx, by: a list for the buy leg,
# a (4, lanes) array when event streams replay in lockstep, a column each.
# An event is a one-byte code, the row it pays into (its pool's X row for XY,
# its Y row for YX), and an amount; it pays out of row code ^ 1.  A trade on
# any other exchange pays 0, which leaves the pool bit-for-bit unchanged.

_POOL_ROW = {"a": 0, "b": 2}  # a pool's X row; its Y row is the next one
_IN_OUT = np.array([[0], [1]], dtype=np.uint8)  # code ^ _IN_OUT: the rows paid into and out of
_LANES = 128  # streams per block: event memory is _LANES x max(i) x 9 bytes, whatever the trial count
_Block = tuple[np.ndarray, np.ndarray]  # step-major (steps, lanes) codes and amounts


def _spot_mean(reserves):
    return 0.5 * (reserves[0] / reserves[1] + reserves[2] / reserves[3])


def _sell_y(reserves, fees, row: int, quantity: float):
    """Proceeds of selling `quantity` Y into the pool at `row`; the reserves are left as they are."""
    return constant_product_swap(reserves[row + 1], reserves[row], fees[row], quantity)[2]


def _cheap_exchange(market: TwoExchangeMarket) -> tuple[str, str]:
    price_a = market.exchange_a.reserve_x / market.exchange_a.reserve_y
    price_b = market.exchange_b.reserve_x / market.exchange_b.reserve_y
    return ("a", "b") if price_a <= price_b else ("b", "a")


def _buy(market: TwoExchangeMarket, budget: float) -> tuple[list[float], list[float], int, float]:
    """The buy leg, in Python floats: (reserves after it, each row's fee, the
    row of the pool to sell on, Y held).  The budget must be finite and
    positive and leave the bought pool some Y; with no price gap the profit
    is simply <= 0, a result and not an error."""
    if not 0 < budget < np.inf:
        raise ConfigError(f"budget must be finite and positive, got {budget}")
    buy_on, sell_on = _cheap_exchange(market)
    a, b = market.exchange_a, market.exchange_b
    reserves = [a.reserve_x, a.reserve_y, b.reserve_x, b.reserve_y]
    fees = [a.fee_rate, a.fee_rate, b.fee_rate, b.fee_rate]
    row = _POOL_ROW[buy_on]
    reserves[row], reserves[row + 1], held = constant_product_swap(reserves[row], reserves[row + 1], fees[row], budget)
    if not reserves[row + 1] > 0:
        raise ConfigError(f"budget {budget:g} drains exchange {buy_on}'s Y reserve")
    return reserves, fees, _POOL_ROW[sell_on], held


def non_atomic_arbitrage(
    market: TwoExchangeMarket, budget: float, stream: Sequence[TradeEvent], i: int
) -> ArbOutcome:
    """Same two legs, but `i` stream events execute between them."""
    _check_counts([i], len(stream))
    aarb, naarb, hv, difference = _replay(market, budget, [_event_block(stream[:i])], [i])
    return ArbOutcome(aarb, float(naarb[0, 0]), float(hv[0, 0]), float(difference[0, 0]), i)


def _check_counts(i_values: Sequence[int], have: int) -> int:
    """The largest of `i_values`, once a stream of `have` events covers it and none is negative."""
    needed = max(i_values, default=0)
    if have < needed:
        raise ValueError(f"stream exhausted: need {needed} events, have {have} (short by {needed - have})")
    for i in i_values:
        if i < 0:
            raise ConfigError(f"intermediary count must be >= 0, got {i}")
    return needed


def _fill(buffer: _Block, lanes: Iterable[tuple[np.ndarray, np.ndarray]]) -> _Block:
    """Write lanes of (codes, amounts), each as long as `buffer`'s steps, into
    its first columns; the filled columns.  Each lane is written in as it
    arrives, so only one lane's draws exist besides the buffer."""
    codes, amounts = buffer
    for count, (code, amount) in enumerate(lanes, start=1):
        codes[:, count - 1] = code
        amounts[:, count - 1] = amount
    return codes[:, :count], amounts[:, :count]


def _event_block(events: Sequence[TradeEvent]) -> _Block:
    """One-lane block of a recorded event sequence."""
    codes = [_POOL_ROW.get(e.exchange, 0) + (e.direction == "YX") for e in events]
    amounts = [e.amount if e.exchange in _POOL_ROW else 0.0 for e in events]
    return np.array(codes, dtype=np.uint8).reshape(-1, 1), np.array(amounts, dtype=float).reshape(-1, 1)


def _replay(
    market: TwoExchangeMarket, budget: float, blocks: Iterable[_Block], counts: Sequence[int]
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Run lanes of intermediary events between the two arbitrage legs, in lockstep.

    Every block holds at least max(counts) steps; `counts` are sorted and
    distinct.  The buy leg runs once; after each count of events every lane
    sells and is read, its reserves left as they are, so a lane costs
    max(counts) steps, each one gather, one swap and one scatter.  Returns
    aarb and (len(counts), lanes) arrays of naarb, hv and the profit
    difference.  A block where a lane's reserves or profit difference are
    not finite at some count (the trades overflowed or drained a pool)
    raises a ConfigError naming the first such count.
    """
    bought, fees, sell_row, held = _buy(market, budget)
    aarb = _sell_y(bought, fees, sell_row, held) - budget
    mean_before = _spot_mean(bought)
    bought, fees = np.array(bought)[:, None], np.array(fees)
    naarb, hv = [], []
    with np.errstate(all="ignore"):
        for codes, amounts in blocks:
            lanes = np.arange(codes.shape[1])
            pools = np.repeat(bought, len(lanes), axis=1)
            block_naarb, block_hv = np.empty((2, len(counts), len(lanes)))
            finite = np.empty(len(counts), dtype=bool)
            done = 0
            for row, count in enumerate(counts):
                for code, amount in zip(codes[done:count], amounts[done:count]):
                    paid = code ^ _IN_OUT, lanes
                    pools[paid] = constant_product_swap(*pools[paid], fees[code], amount)[:2]
                done = count
                block_naarb[row] = _sell_y(pools, fees, sell_row, held) - budget
                block_hv[row] = held * (_spot_mean(pools) - mean_before)
                finite[row] = np.isfinite(pools).all()  # an overflowed reserve stays non-finite
            finite &= np.isfinite(aarb - (block_naarb - block_hv)).all(axis=1)
            if not finite.all():
                raise ConfigError(f"profit difference at i={counts[int(np.argmin(finite))]} is not finite: "
                                  "the intermediary trades overflow or drain a pool")
            naarb.append(block_naarb)
            hv.append(block_hv)
    naarb, hv = np.concatenate(naarb, axis=1), np.concatenate(hv, axis=1)
    return aarb, naarb, hv, aarb - (naarb - hv)


# ---------------------------------------------------------------------------
# Streams
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SyntheticStream:
    """Seeded random-walk intermediary flow; trial t draws substream (seed, t),
    whose first n events are the same whatever the stream's size."""

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
        codes, amounts = self._draws(trial, self.size)
        return tuple(
            TradeEvent("ab"[c >> 1], ("XY", "YX")[c & 1], float(a))
            for c, a in zip(codes.tolist(), amounts)
        )

    def _draws(self, trial: int, count: int) -> tuple[np.ndarray, np.ndarray]:
        """Trial `trial`'s first `count` events as arrays: row code and amount.
        Event k is row k of one (count, 3) standard-normal draw z: exchange b if
        z0 > 0, direction YX if z1 > 0, amount amount_scale * exp(sigma * z2).
        A scale near the float limit can overflow an amount to inf; the replay refuses it."""
        z = np.random.default_rng((self.seed, trial)).standard_normal((count, 3))
        codes = 2 * (z[:, 0] > 0) + (z[:, 1] > 0)
        with np.errstate(over="ignore"):
            amounts = self.amount_scale * np.exp(self.sigma * z[:, 2])
        return codes, amounts

    def _blocks(self, trials: int, steps: int) -> Iterator[_Block]:
        """Blocks of up to _LANES trials' first `steps` events, each refilled
        into one buffer that is allocated once."""
        shape = steps, min(trials, _LANES)
        buffer = np.empty(shape, dtype=np.uint8), np.empty(shape)
        for first in range(0, trials, _LANES):
            yield _fill(buffer, (self._draws(t, steps) for t in range(first, min(first + _LANES, trials))))


@dataclass(frozen=True)
class ReplayStream:
    """Pre-recorded trace; every trial replays the identical sequence."""

    trace: tuple[TradeEvent, ...]


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
    indices as one `(n_resamples, n)` draw, so memory holds one block and
    the resample means, 8 bytes each, whatever the sample count.
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
    low, high = np.percentile(means, [100 * alpha / 2, 100 * (1 - alpha / 2)], overwrite_input=True)
    return float(low), float(high)


def sweep(
    market: TwoExchangeMarket,
    budget: float,
    stream: SyntheticStream | ReplayStream,
    i_values: Sequence[int],
    trials: int,
) -> list[SweepRow]:
    """Mean and 95% bootstrap CI (1,000 resamples) of the profit difference per intermediary count.

    Each trial replays one stream; all i-values share a trial's stream so
    the profit difference accumulates along a common path.  A synthetic
    trial's first i events do not depend on how many are drawn, so no row
    depends on the other i-values.  Trials run as
    lanes of one lockstep replay, each once over the sorted i-values; every
    row, a repeated i-value's too, rests on exactly `trials` samples.
    """
    if trials < 1:
        raise ConfigError(f"--trials must be at least 1, got {trials}")
    i_values = list(i_values)
    replay = isinstance(stream, ReplayStream)
    needed = _check_counts(i_values, len(stream.trace) if replay else stream.size)
    counts = sorted(set(i_values))
    if replay:  # every trial replays the identical sequence: one lane stands for all
        *_, differences = _replay(market, budget, [_event_block(stream.trace[:needed])], counts)
        differences = np.repeat(differences, trials, axis=1)
    else:
        *_, differences = _replay(market, budget, stream._blocks(trials, needed), counts)
    rows = []
    for i in i_values:
        samples = differences[counts.index(i)]
        low, high = bootstrap_mean_ci(samples, np.random.default_rng((24181, i)))
        rows.append(SweepRow(i, float(samples.mean()), low, high, trials))
    return rows
