"""Atomic vs non-atomic arbitrage accounting and the sweep statistics."""

import json
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flashsim import atomicity
from flashsim.atomicity import (
    ReplayStream,
    SyntheticStream,
    TradeEvent,
    TwoExchangeMarket,
    bootstrap_mean_ci,
    load_trace,
    non_atomic_arbitrage,
    parse_trace,
    sweep,
)
from flashsim.models import ConfigError, ConstantProductAmm, constant_product_swap

from references import atomic_arbitrage

GOLDEN = Path(__file__).parent / "golden" / "atomicity_sweep.json"
TRACE = Path(__file__).parents[1] / "src" / "flashsim" / "data" / "sample_trades.csv"


def market(ay=35000.0, by=36000.0, ax=100.0, bx=100.0):
    return TwoExchangeMarket(
        ConstantProductAmm("ETH", "DAI", ax, ay),
        ConstantProductAmm("ETH", "DAI", bx, by),
    )


def inverse_of(event: TradeEvent, pools: dict) -> TradeEvent:
    """Exact undo of a zero-fee swap: feed the output back the other way."""
    rx, ry = pools[event.exchange]
    if event.direction == "XY":
        out = event.amount * ry / (rx + event.amount)
        pools[event.exchange] = (rx + event.amount, ry - out)
        return TradeEvent(event.exchange, "YX", out)
    out = event.amount * rx / (ry + event.amount)
    pools[event.exchange] = (rx - out, ry + event.amount)
    return TradeEvent(event.exchange, "XY", out)


def paired_inverse_stream(
    seed: int, pairs: int, m: TwoExchangeMarket, budget: float
) -> tuple[TradeEvent, ...]:
    """Stream of exact do/undo swap pairs, built against the post-T_A pools."""
    rng = np.random.default_rng(seed)
    pools = {
        "a": (m.exchange_a.reserve_x, m.exchange_a.reserve_y),
        "b": (m.exchange_b.reserve_x, m.exchange_b.reserve_y),
    }
    price = {e: rx / ry for e, (rx, ry) in pools.items()}
    buy_on = "a" if price["a"] <= price["b"] else "b"
    rx, ry = pools[buy_on]
    out = budget * ry / (rx + budget)
    pools[buy_on] = (rx + budget, ry - out)
    events = []
    for _ in range(pairs):
        forward = TradeEvent(
            rng.choice(["a", "b"]),
            rng.choice(["XY", "YX"]),
            float(rng.uniform(0.1, 2.0)),
        )
        backward = inverse_of(forward, pools)
        rx, ry = pools[forward.exchange]
        if backward.direction == "XY":
            out = backward.amount * ry / (rx + backward.amount)
            pools[forward.exchange] = (rx + backward.amount, ry - out)
        else:
            out = backward.amount * rx / (ry + backward.amount)
            pools[forward.exchange] = (rx - out, ry + backward.amount)
        events += [forward, backward]
    return tuple(events)


def atomic_profit(m: TwoExchangeMarket, budget: float) -> float:
    """The atomic profit the sweep reports, which with no event between the legs
    is also the reference's two swaps, bit for bit."""
    profit = non_atomic_arbitrage(m, budget, (), 0).aarb
    assert profit == atomic_arbitrage(m, budget)[0]
    return profit


class TestAtomic:
    def test_identical_pools_no_gap(self):
        # finite round trips through equal pools pay slippage: never a profit,
        # and the loss vanishes with the trade size
        assert atomic_profit(market(by=35000.0), budget=5.0) <= 0
        assert atomic_profit(market(by=35000.0), budget=1e-6) == pytest.approx(0.0, abs=1e-9)

    def test_two_hop_profit_from_closed_form(self):
        # independent arithmetic: buy on b (DAI-richer), sell on a
        m = TwoExchangeMarket(
            ConstantProductAmm("X", "Y", 100.0, 100.0),
            ConstantProductAmm("X", "Y", 100.0, 121.0),
        )
        bought = 121.0 * 5.0 / (100.0 + 5.0)
        proceeds = 100.0 * bought / (100.0 + bought)
        profit = atomic_profit(m, budget=5.0)
        assert atomic_arbitrage(m, budget=5.0)[1] == pytest.approx(bought, rel=1e-12)
        assert profit == pytest.approx(proceeds - 5.0, rel=1e-12)
        assert profit > 0

    def test_vanishing_budget_vanishing_profit(self):
        assert abs(atomic_profit(market(), budget=1e-9)) < 1e-9

    def test_budget_validation(self):
        with pytest.raises(ConfigError):
            sweep(market(), 0.0, SyntheticStream(seed=0, size=0), [0], trials=1)

    @pytest.mark.parametrize("budget", [float("inf"), float("nan"), -1.0])
    def test_budget_must_be_finite_and_positive(self, budget):
        with pytest.raises(ConfigError, match="finite and positive"):
            sweep(market(), budget, SyntheticStream(seed=0, size=0), [0], trials=1)

    def test_budget_that_drains_the_bought_pool_is_rejected(self):
        # 1e20 X into 100 X / 35000 Y rounds the Y reserve to 0.0
        with pytest.raises(ConfigError, match="drains"):
            sweep(market(), 1e20, SyntheticStream(seed=0, size=0), [0], trials=1)

    def test_mismatched_pairs_rejected(self):
        with pytest.raises(ConfigError):
            TwoExchangeMarket(
                ConstantProductAmm("ETH", "DAI", 1.0, 1.0),
                ConstantProductAmm("ETH", "MKR", 1.0, 1.0),
            )


class TestNonAtomic:
    def test_zero_intermediaries_is_the_atomic_limit(self):
        stream = SyntheticStream(seed=1, size=10)
        for trial in range(50):
            outcome = non_atomic_arbitrage(market(), 2.0, stream.events(trial), 0)
            assert outcome.naarb == outcome.aarb  # bitwise, same execution path
            assert outcome.hv == 0.0
            assert outcome.profit_difference == 0.0

    def test_paired_inverse_stream_cancels(self):
        m = market()
        events = paired_inverse_stream(seed=3, pairs=40, m=m, budget=2.0)
        outcome = non_atomic_arbitrage(m, 2.0, events, len(events))
        assert outcome.profit_difference == pytest.approx(0.0, abs=1e-6)

    def test_reproducible_for_fixed_seed(self):
        stream = SyntheticStream(seed=9, size=100)
        a = non_atomic_arbitrage(market(), 2.0, stream.events(0), 100)
        b = non_atomic_arbitrage(market(), 2.0, stream.events(0), 100)
        assert a == b

    def test_exhausted_stream_names_shortfall(self):
        with pytest.raises(ValueError, match="short by 3"):
            non_atomic_arbitrage(market(), 2.0, SyntheticStream(seed=1, size=7).events(), 10)

    def test_negative_count_rejected(self):
        with pytest.raises(ConfigError):
            non_atomic_arbitrage(market(), 2.0, (), -1)

    def test_irrelevant_events_are_noops(self):
        noise = tuple(TradeEvent("cex", "XY", 1.0) for _ in range(5))
        outcome = non_atomic_arbitrage(market(), 2.0, noise, 5)
        assert outcome.profit_difference == 0.0


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    i=st.integers(0, 60),
    budget=st.floats(0.1, 20.0),
)
def test_identity_holds_on_every_outcome(seed, i, budget):
    stream = SyntheticStream(seed=seed, size=60)
    outcome = non_atomic_arbitrage(market(), budget, stream.events(), i)
    assert outcome.profit_difference == outcome.aarb - (outcome.naarb - outcome.hv)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    trial=st.integers(0, 10_000),
    amount_scale=st.floats(1e-300, 1e308),
    sigma=st.floats(0.0, 1e308),
    sizes=st.lists(st.integers(0, 50), min_size=2, max_size=2).map(sorted),
)
def test_first_events_do_not_depend_on_the_stream_size(seed, trial, amount_scale, sigma, sizes):
    short, long = (SyntheticStream(seed, size, amount_scale, sigma).events(trial) for size in sizes)
    assert long[:sizes[0]] == short


class TestSweep:
    def test_zero_row_is_all_zero(self):
        rows = sweep(market(), 2.0, SyntheticStream(seed=5, size=10), [0], trials=20)
        assert rows[0].mean == 0.0
        assert rows[0].ci_low == 0.0 and rows[0].ci_high == 0.0

    def test_random_walk_interval_widens(self):
        rows = sweep(market(), 2.0, SyntheticStream(seed=2020, size=400, amount_scale=0.5),
                     [0, 25, 100, 400], trials=300)
        widths = [r.ci_high - r.ci_low for r in rows]
        assert all(later >= earlier for earlier, later in zip(widths, widths[1:]))

    def test_price_neutral_flow_keeps_mean_inside_interval(self):
        m = market()
        streams = ReplayStream(paired_inverse_stream(seed=8, pairs=100, m=m, budget=2.0))
        rows = sweep(m, 2.0, streams, [200], trials=1)
        assert abs(rows[0].mean) < 1e-6

    def test_replayed_trace_matches_golden_table(self):
        rows = sweep(
            market(), 2.0, load_trace(TRACE), [0, 25, 100, 400], trials=1,
        )
        assert [r.as_dict() for r in rows] == json.loads(GOLDEN.read_text())

    def test_trial_validation(self):
        with pytest.raises(ConfigError):
            sweep(market(), 2.0, SyntheticStream(seed=1, size=1), [0], trials=0)

    def test_exhaustion_detected_before_any_work(self):
        with pytest.raises(ValueError, match="stream exhausted"):
            sweep(market(), 2.0, SyntheticStream(seed=1, size=5), [0, 50], trials=2)


def reference_differences(m: TwoExchangeMarket, budget: float, events, i_values) -> list[float]:
    """Scalar reference: a plain loop over the swap kernel, one fresh pass per i."""
    fee = {"a": m.exchange_a.fee_rate, "b": m.exchange_b.fee_rate}
    start = {"a": (m.exchange_a.reserve_x, m.exchange_a.reserve_y),
             "b": (m.exchange_b.reserve_x, m.exchange_b.reserve_y)}
    spot = {e: rx / ry for e, (rx, ry) in start.items()}
    buy_on, sell_on = ("a", "b") if spot["a"] <= spot["b"] else ("b", "a")

    def spot_mean(pools):
        return 0.5 * (pools["a"][0] / pools["a"][1] + pools["b"][0] / pools["b"][1])

    def naarb_and_hv(between):
        pools = dict(start)
        rx, ry, held = constant_product_swap(*pools[buy_on], fee[buy_on], budget)
        pools[buy_on] = (rx, ry)
        before = spot_mean(pools)
        for event in between:
            if event.exchange not in pools:
                continue
            rx, ry = pools[event.exchange]
            if event.direction == "XY":
                rx, ry, _ = constant_product_swap(rx, ry, fee[event.exchange], event.amount)
            else:
                ry, rx, _ = constant_product_swap(ry, rx, fee[event.exchange], event.amount)
            pools[event.exchange] = (rx, ry)
        after = spot_mean(pools)
        rx, ry = pools[sell_on]
        proceeds = constant_product_swap(ry, rx, fee[sell_on], held)[2]
        return proceeds - budget, held * (after - before)

    aarb, _ = naarb_and_hv(())
    differences = []
    for i in i_values:
        naarb, hv = naarb_and_hv(events[:i])
        differences.append(aarb - (naarb - hv))
    return differences


def fee_market():
    return TwoExchangeMarket(
        ConstantProductAmm("ETH", "DAI", 100.0, 35000.0, fee_rate=0.003),
        ConstantProductAmm("ETH", "DAI", 120.0, 36000.0, fee_rate=0.01),
    )


NOISY_TRACE = ReplayStream(tuple(
    TradeEvent(exchange, direction, amount)
    for exchange, direction, amount in zip(
        ["a", "cex", "b", "b", "other", "a", "a", "cex", "b", "a"] * 3,
        ["XY", "YX", "YX", "XY", "XY", "YX", "XY", "XY", "YX", "YX"] * 3,
        [0.7, 3.0, 250.0, 1.3, 9.0, 410.0, 0.2, 5.0, 90.0, 33.0] * 3,
    )
))


class TestLockstepSweep:
    """The sweep's per-trial profit differences are the scalar replay's, bit for bit."""

    @pytest.mark.parametrize("m, stream, i_values, trials", [
        # fees, a trial count past the lane block, unsorted i, stream longer than max(i)
        (fee_market(), SyntheticStream(seed=11, size=60, amount_scale=0.7), [40, 0, 7, 25], 130),
        # i = 0 and i = the stream length
        (market(), SyntheticStream(seed=12, size=30, sigma=0.5), [30, 0, 1], 3),
        # a replay whose irrelevant exchange ids must leave both pools alone
        (fee_market(), NOISY_TRACE, [len(NOISY_TRACE.trace), 0, 3, 14], 4),
    ])
    def test_matches_scalar_reference(self, monkeypatch, m, stream, i_values, trials):
        captured = []

        def capture(samples, rng, n_resamples=1000, alpha=0.05):
            captured.append(np.array(samples))
            return 0.0, 0.0

        monkeypatch.setattr(atomicity, "bootstrap_mean_ci", capture)
        rows = sweep(m, 2.0, stream, i_values, trials)
        # a replay's trials all replay its trace
        events = [stream.trace] * trials if isinstance(stream, ReplayStream) else map(stream.events, range(trials))
        expected = np.ascontiguousarray(np.array([reference_differences(m, 2.0, e, i_values) for e in events]).T)
        assert [r.intermediaries for r in rows] == i_values
        assert len(captured) == len(i_values)
        for row, samples, reference in zip(rows, captured, expected):
            assert samples.tobytes() == reference.tobytes()
            assert row.mean == float(reference.mean())
            assert row.trials == trials
        assert np.any(expected != 0.0)

    def test_one_lane_call_matches_scalar_reference(self):
        m = fee_market()
        events = NOISY_TRACE.trace
        for i in (0, 5, len(events)):
            outcome = non_atomic_arbitrage(m, 2.0, events, i)
            assert outcome.profit_difference == reference_differences(m, 2.0, events, [i])[0]

    def test_synthetic_sweep_builds_no_events(self, monkeypatch):
        def no_events(self, trial=0):
            raise AssertionError("sweep built TradeEvent objects")

        lanes = []
        fill = atomicity._fill

        def counting_fill(buffer, draws):
            codes, amounts = fill(buffer, draws)
            lanes.append(codes.shape[1])
            return codes, amounts

        monkeypatch.setattr(SyntheticStream, "events", no_events)
        monkeypatch.setattr(atomicity, "_fill", counting_fill)
        trials = 2 * atomicity._LANES + 5
        rows = sweep(market(), 2.0, SyntheticStream(seed=6, size=50), [50, 10], trials)
        assert [r.trials for r in rows] == [trials, trials]
        # memory is bounded by the lane block, not by the trial count
        assert lanes == [atomicity._LANES, atomicity._LANES, 5]

    def test_one_lane_block_is_alive_at_a_time(self):
        steps, trials = 1000, 3 * atomicity._LANES + 5
        block_bytes = steps * atomicity._LANES * (1 + 8)  # a row code and an amount
        tracemalloc.start()
        try:
            sweep(market(), 2.0, SyntheticStream(seed=3, size=steps), [0, steps], trials)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the loop variables once kept block k while block k + 1 was built
        assert peak < block_bytes + 2 ** 19

    def test_blocks_are_refilled_into_one_buffer(self):
        stream = SyntheticStream(seed=7, size=40)
        blocks = stream._blocks(2 * atomicity._LANES + 5, 30)
        first_codes, first_amounts = next(blocks)
        for codes, amounts in blocks:  # the next blocks overwrite the first one's buffer
            assert np.shares_memory(codes, first_codes) and np.shares_memory(amounts, first_amounts)
        assert codes.shape == amounts.shape == (30, 5)

    @pytest.mark.parametrize("stream, first", [
        (SyntheticStream(seed=1, size=3, amount_scale=1e308), 1),  # some draws overflow to inf
        # 1e308 X into exchange a pays out more Y than it holds: a finite spot price, a -inf reserve
        (ReplayStream((TradeEvent("b", "YX", 1.0), TradeEvent("a", "XY", 1e308), TradeEvent("a", "XY", 1.0))), 2),
    ], ids=["synthetic", "replay"])
    def test_overflow_is_unusable_input(self, stream, first):
        rows = sweep(market(), 2.0, stream, range(first), trials=4)
        assert all(np.isfinite(r.mean) for r in rows)
        with pytest.raises(ConfigError, match=rf"^profit difference at i={first} is not finite"):
            sweep(market(), 2.0, stream, [3, 0, first, 1], trials=4)

    def test_overflow_in_one_lane_call(self):
        events = (TradeEvent("a", "XY", 1e308), TradeEvent("a", "XY", 1.0))
        assert non_atomic_arbitrage(market(), 2.0, events, 0).profit_difference == 0.0
        with pytest.raises(ConfigError, match=r"^profit difference at i=2 is not finite"):
            non_atomic_arbitrage(market(), 2.0, events, 2)

    def test_overflowed_draw_is_refused_where_it_is_replayed(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            events = SyntheticStream(seed=0, size=8, amount_scale=1e308).events(1)
        first = next(i for i, event in enumerate(events, start=1) if event.amount == np.inf)
        with pytest.raises(ConfigError, match=rf"^profit difference at i={first} is not finite"):
            non_atomic_arbitrage(market(), 2.0, events, first)


class TestTraces:
    def test_header_and_noise_rows(self):
        stream = parse_trace(
            "block_index,exchange_id,direction,amount\n"
            "1,a,XY,0.5\n"
            "2,other,YX,1.5\n"
        )
        assert stream.trace == (TradeEvent("a", "XY", 0.5), TradeEvent("other", "YX", 1.5))

    def test_bad_direction(self):
        with pytest.raises(ConfigError, match="direction"):
            parse_trace("1,a,sideways,0.5\n")

    def test_bad_amount(self):
        with pytest.raises(ConfigError):
            parse_trace("1,a,XY,plenty\n")
        with pytest.raises(ConfigError):
            parse_trace("1,a,XY,-2\n")

    def test_synthetic_streams_differ_by_trial_not_by_call(self):
        stream = SyntheticStream(seed=4, size=10)
        assert stream.events(0) == stream.events(0)
        assert stream.events(0) != stream.events(1)

    def test_negative_synthetic_stream_size_rejected(self):
        # it once reported a stream of -1 events as exhausted
        with pytest.raises(ConfigError, match="stream size must be >= 0, got -1"):
            SyntheticStream(seed=4, size=-1)


def test_bootstrap_interval_brackets_mean():
    rng = np.random.default_rng(17)
    samples = rng.normal(3.0, 1.0, size=400)
    low, high = bootstrap_mean_ci(samples, np.random.default_rng(1), 2000)
    assert low < samples.mean() < high
    assert high - low < 0.5


def test_bootstrap_needs_a_resample():
    with pytest.raises(ConfigError):
        bootstrap_mean_ci(np.ones(3), np.random.default_rng(1), 0)


def one_shot_bootstrap(samples, rng, n_resamples, alpha=0.05):
    """The interval from one `(n_resamples, n)` index draw."""
    idx = rng.integers(0, len(samples), size=(n_resamples, len(samples)))
    low, high = np.percentile(samples[idx].mean(axis=1), [100 * alpha / 2, 100 * (1 - alpha / 2)])
    return float(low), float(high)


@pytest.mark.parametrize("block", [1, 33, 100, atomicity.BOOTSTRAP_BLOCK])
@pytest.mark.parametrize("n", [1, 7, 101, 500])
def test_blocked_bootstrap_is_the_one_shot_draw_bitwise(monkeypatch, n, block):
    monkeypatch.setattr(atomicity, "BOOTSTRAP_BLOCK", block)
    samples = np.random.default_rng(n).lognormal(size=n) - 1.0
    for n_resamples in (1, 999):  # 999 is no multiple of the rows in a block
        got = bootstrap_mean_ci(samples, np.random.default_rng((5, n)), n_resamples)
        assert got == one_shot_bootstrap(samples, np.random.default_rng((5, n)), n_resamples)


def test_bootstrap_memory_is_bounded_by_the_block():
    samples = np.random.default_rng(2).normal(size=5000)
    tracemalloc.start()
    try:
        bootstrap_mean_ci(samples, np.random.default_rng(1), 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20  # one (1000, 5000) draw and its gather take 80 MB


def test_bootstrap_memory_beyond_the_block_is_the_resample_means():
    n_resamples = 1_000_000  # 8 MB of means against a 0.5 MB block
    tracemalloc.start()
    try:
        bootstrap_mean_ci(np.arange(10.0), np.random.default_rng(1), n_resamples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * n_resamples  # the percentile once took a copy of the means
