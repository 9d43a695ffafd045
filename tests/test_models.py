"""Protocol primitive behavior: worked examples plus algebraic properties."""

import copy
import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flashsim import vectors
from flashsim.models import (
    AutomatedPriceReserve,
    ConfigError,
    ConstantProductAmm,
    FixedPriceMarket,
    FlashLoanPool,
    InterestModel,
    LendingPool,
    MarginPlatform,
    Residual,
    STRICT_RESIDUAL_TOL,
    WorldState,
    amm_swap_x_for_y,
    amm_swap_y_for_x,
    collateralized_borrow,
    collateralized_repay,
    flash_loan,
    flash_repay,
    margin_short,
    reserve_convert_x_to_y,
    reserve_quote,
    sell_x_for_y_fixed,
)
from flashsim.scenario import builtin_scenario

from references import amm_spot_price_y, compute_slippage

A = "adversary"


def state_with(pools, balances=None):
    return WorldState(balances or {}, pools)


@pytest.fixture
def flash_state():
    return state_with({"flash": FlashLoanPool("ETH", available=10000.0)})


@pytest.fixture
def amm_state():
    return state_with(
        {"amm": ConstantProductAmm("ETH", "WBTC", 2817.77, 77.08)},
        {(A, "ETH"): 20000.0},
    )


# ---------------------------------------------------------------------------
# flash loans
# ---------------------------------------------------------------------------

class TestFlashLoan:
    def test_full_pool_loan(self, flash_state):
        after, residuals = flash_loan(flash_state, "flash", A, 10000.0)
        assert after.balance(A, "ETH") == 10000.0
        assert residuals[0].value == 0.0

    def test_zero_loan_is_noop(self, flash_state):
        after, residuals = flash_loan(flash_state, "flash", A, 0.0)
        assert after.balances == dict(flash_state.balances) | {(A, "ETH"): 0.0}
        assert residuals[0].value == 10000.0

    def test_overdraw_reports_negative_residual(self, flash_state):
        _, residuals = flash_loan(flash_state, "flash", A, 10001.0)
        assert residuals[0].value == -1.0

    def test_unknown_pool_is_config_error(self, flash_state):
        with pytest.raises(ConfigError):
            flash_loan(flash_state, "nope", A, 1.0)
        with pytest.raises(ConfigError):
            flash_loan(flash_state, "flash", A, float("nan"))

    def test_repay_with_flat_interest(self):
        state = state_with(
            {"flash": FlashLoanPool("ETH", 10000.0, InterestModel(flat=1e-7))},
            {(A, "ETH"): 10500.0},
        )
        after, residuals = flash_repay(state, "flash", A, 10000.0)
        assert after.balance(A, "ETH") == pytest.approx(500.0 - 1e-7, abs=1e-12)
        assert residuals[0].value == pytest.approx(500.0 - 1e-7)

    def test_zero_repay_zero_fee_is_noop(self):
        state = state_with({"flash": FlashLoanPool("ETH", 1.0)}, {(A, "ETH"): 5.0})
        after, _ = flash_repay(state, "flash", A, 0.0)
        assert after.balance(A, "ETH") == 5.0

    def test_short_balance_residual(self):
        state = state_with({"flash": FlashLoanPool("ETH", 100.0)}, {(A, "ETH"): 5.0})
        _, residuals = flash_repay(state, "flash", A, 10.0)
        assert residuals[0].value == -5.0


# ---------------------------------------------------------------------------
# fixed-price market
# ---------------------------------------------------------------------------

class TestFixedPriceMarket:
    def setup_method(self):
        self.state = state_with(
            {"mkt": FixedPriceMarket("ETH", "sUSD", price=0.00372719, max_y=943837.59)},
            {(A, "ETH"): 5000.0},
        )

    def test_purchase_matches_division(self):
        # division oracle: 3517.86 / 0.00372719
        expected = 3517.86 / 0.00372719
        assert expected == pytest.approx(943837.0461393167, rel=1e-12)
        after, residuals = sell_x_for_y_fixed(self.state, "mkt", A, 3517.86)
        assert after.balance(A, "sUSD") == pytest.approx(expected, rel=1e-12)
        assert after.balance(A, "ETH") == pytest.approx(5000.0 - 3517.86)
        # sits just under the inventory cap
        assert residuals[1].value == pytest.approx(943837.59 - expected, rel=1e-9)
        assert residuals[1].value > 0

    def test_zero_trade_is_noop(self):
        after, _ = sell_x_for_y_fixed(self.state, "mkt", A, 0.0)
        assert after.balance(A, "sUSD") == 0.0
        assert after.balance(A, "ETH") == 5000.0

    def test_inventory_cap_overrun_goes_negative(self):
        over = 0.00372719 * 943837.59 + 1.0
        _, residuals = sell_x_for_y_fixed(self.state, "mkt", A, over)
        assert residuals[1].value < 0

    def test_cap_is_cumulative_across_sales(self):
        state, first = sell_x_for_y_fixed(self.state, "mkt", A, 2000.0)
        _, second = sell_x_for_y_fixed(state, "mkt", A, 2000.0)
        assert second[1].value < first[1].value

    def test_bad_price_is_config_error(self):
        state = state_with({"mkt": FixedPriceMarket("ETH", "sUSD", price=0.0)})
        with pytest.raises(ConfigError):
            sell_x_for_y_fixed(state, "mkt", A, 1.0)


# ---------------------------------------------------------------------------
# constant-product AMM
# ---------------------------------------------------------------------------

class TestAmmSwap:
    def test_textbook_half_pool_swap(self):
        state = state_with({"amm": ConstantProductAmm("ETH", "WBTC", 10.0, 10.0)},
                           {(A, "ETH"): 10.0})
        after, _ = amm_swap_x_for_y(state, "amm", A, 10.0)
        assert after.balance(A, "WBTC") == pytest.approx(5.0, rel=1e-12)
        assert compute_slippage(1.0, 10.0 / 5.0) == pytest.approx(1.0)

    def test_pump_swap_output(self, amm_state):
        after, _ = amm_swap_x_for_y(amm_state, "amm", A, 5637.40)
        # 51.35 observed on-chain with fees; fee-free model within 0.5%
        assert after.balance(A, "WBTC") == pytest.approx(51.35, rel=5e-3)
        assert after.balance(A, "WBTC") == pytest.approx(51.39231878247273, rel=1e-12)

    def test_zero_swap_leaves_reserves(self, amm_state):
        after, _ = amm_swap_x_for_y(amm_state, "amm", A, 0.0)
        amm = after.pool("amm")
        assert (amm.reserve_x, amm.reserve_y) == (2817.77, 77.08)

    def test_mirror_swap_output(self):
        state = state_with({"amm": ConstantProductAmm("ETH", "WBTC", 9132.73, 23.783)},
                           {(A, "WBTC"): 100.0})
        after, _ = amm_swap_y_for_x(state, "amm", A, 50.78)
        # closed form: 50.78 * 9132.73 / (23.783 + 50.78)
        assert after.balance(A, "ETH") == pytest.approx(6219.707219398361, rel=1e-12)
        assert after.balance(A, "ETH") == pytest.approx(6219.7, abs=1.0)

    def test_round_trip_recovers_input(self, amm_state):
        mid, _ = amm_swap_x_for_y(amm_state, "amm", A, 123.456)
        got = mid.balance(A, "WBTC")
        back, _ = amm_swap_y_for_x(mid, "amm", A, got)
        assert back.balance(A, "ETH") == pytest.approx(20000.0, rel=1e-9)

    def test_negative_amount_rejected(self, amm_state):
        with pytest.raises(ConfigError):
            amm_swap_x_for_y(amm_state, "amm", A, -1.0)

    def test_empty_reserves_rejected(self):
        state = state_with({"amm": ConstantProductAmm("ETH", "WBTC", 0.0, 10.0)})
        with pytest.raises(ConfigError):
            amm_swap_x_for_y(state, "amm", A, 1.0)

    def test_spot_price_examples(self, amm_state):
        assert amm_spot_price_y(amm_state, "amm") == pytest.approx(36.55, rel=1e-3)
        balanced = state_with({"amm": ConstantProductAmm("ETH", "WBTC", 10.0, 10.0)})
        assert amm_spot_price_y(balanced, "amm") == 1.0
        dumped = state_with({"amm": ConstantProductAmm("ETH", "sUSD", 1419.757, 150849.0)})
        assert amm_spot_price_y(dumped, "amm") == pytest.approx(0.0094118, abs=1e-7)
        assert 1.0 / amm_spot_price_y(dumped, "amm") == pytest.approx(106.05, rel=5e-3)


@settings(max_examples=100, deadline=None)
@given(
    ux=st.floats(1.0, 1e6),
    uy=st.floats(1.0, 1e6),
    amount=st.floats(0.0, 1e6),
)
def test_constant_product_preserved_at_zero_fee(ux, uy, amount):
    state = state_with({"amm": ConstantProductAmm("X", "Y", ux, uy)}, {(A, "X"): amount})
    after, _ = amm_swap_x_for_y(state, "amm", A, amount)
    amm = after.pool("amm")
    assert amm.reserve_x * amm.reserve_y == pytest.approx(ux * uy, rel=1e-9)


@settings(max_examples=100, deadline=None)
@given(
    ux=st.floats(1.0, 1e5),
    uy=st.floats(1.0, 1e5),
    amount=st.floats(1e-3, 1e5),
    bump=st.floats(0.01, 1e3),
)
def test_amm_output_monotone_and_bounded(ux, uy, amount, bump):
    state = state_with({"amm": ConstantProductAmm("X", "Y", ux, uy)})
    small, _ = amm_swap_x_for_y(state, "amm", A, amount)
    large, _ = amm_swap_x_for_y(state, "amm", A, amount + bump)
    assert large.balance(A, "Y") > small.balance(A, "Y")
    assert small.balance(A, "Y") < uy


@settings(max_examples=100, deadline=None)
@given(ux=st.floats(1.0, 1e6), uy=st.floats(1.0, 1e6), amount=st.floats(0.0, 1e6))
def test_swap_conserves_assets_exactly(ux, uy, amount):
    state = state_with({"amm": ConstantProductAmm("X", "Y", ux, uy)}, {(A, "X"): amount})
    after, _ = amm_swap_x_for_y(state, "amm", A, amount)
    amm = after.pool("amm")
    # the very float credited to the trader is the one debited from the pool
    expected_out = amount * uy / (ux + amount)
    assert after.balance(A, "Y") == expected_out
    assert amm.reserve_y == uy - expected_out
    assert amm.reserve_x == ux + amount
    assert after.balance(A, "X") == 0.0


# ---------------------------------------------------------------------------
# automated price reserve
# ---------------------------------------------------------------------------

RESERVE = AutomatedPriceReserve("ETH", "sUSD", inventory_x=0.90658,
                                liquidity_rate=0.00252, min_price=0.0037, max_price=0.0148)


class TestPriceReserve:
    def setup_method(self):
        self.state = state_with({"res": RESERVE}, {(A, "ETH"): 1000.0})

    def test_quote_at_initial_inventory(self):
        assert reserve_quote(self.state.pools["res"]) == pytest.approx(0.0037085, abs=1e-6)

    def test_quote_at_zero_inventory(self):
        state = state_with({"res": dataclasses.replace(RESERVE, inventory_x=0.0)})
        assert reserve_quote(state.pools["res"]) == 0.0037

    def test_quote_above_cap_not_clamped(self):
        state = state_with({"res": dataclasses.replace(RESERVE, inventory_x=1e4)})
        assert reserve_quote(state.pools["res"]) > RESERVE.max_price

    def test_conversion_output_and_rate(self):
        after, _ = reserve_convert_x_to_y(self.state, "res", A, 360.0)
        out = after.balance(A, "sUSD")
        assert out == pytest.approx(63812.34236052174, rel=1e-12)
        assert out / 360.0 == pytest.approx(176.62, rel=1e-2)  # observed venue rate

    def test_zero_conversion(self):
        after, _ = reserve_convert_x_to_y(self.state, "res", A, 0.0)
        assert after.balance(A, "sUSD") == 0.0

    def test_price_cap_residual_near_boundary(self):
        after, residuals = reserve_convert_x_to_y(self.state, "res", A, 546.80)
        assert reserve_quote(after.pools["res"]) == pytest.approx(0.014710380503148955, rel=1e-12)
        cap = [r for r in residuals if r.name == "price_cap"][0]
        assert cap.value == pytest.approx(8.961949685104553e-05, rel=1e-9)
        assert cap.value > 0


@settings(max_examples=100, deadline=None)
@given(h=st.floats(1.0, 2000.0), bump=st.floats(1.0, 500.0))
def test_reserve_price_and_output_monotone(h, bump):
    state = state_with({"res": RESERVE})
    small_state, _ = reserve_convert_x_to_y(state, "res", A, h)
    large_state, _ = reserve_convert_x_to_y(state, "res", A, h + bump)
    assert reserve_quote(large_state.pools["res"]) > reserve_quote(small_state.pools["res"])
    small, large = small_state.balance(A, "sUSD"), large_state.balance(A, "sUSD")
    assert large > small
    # decreasing marginal rate: the second tranche converts worse than the first
    first_tranche, _ = reserve_convert_x_to_y(state, "res", A, bump)
    assert large - small < first_tranche.balance(A, "sUSD") + 1e-9


# ---------------------------------------------------------------------------
# lending
# ---------------------------------------------------------------------------

LENDING = LendingPool("ETH", "WBTC", collateral_factor=0.75, available_debt=155.70,
                      exchange_rate=36.48)


class TestLending:
    def setup_method(self):
        self.state = state_with({"lend": LENDING}, {(A, "ETH"): 10000.0})

    def test_drawn_amount(self):
        after, residuals = collateralized_borrow(self.state, "lend", A, 5500.0)
        assert after.balance(A, "WBTC") == pytest.approx(113.08, abs=0.01)
        assert after.balance(A, "WBTC") == pytest.approx(113.07565789473685, rel=1e-12)
        assert residuals[1].value == pytest.approx(155.70 - 113.07565789473685, rel=1e-9)

    def test_zero_collateral(self):
        after, _ = collateralized_borrow(self.state, "lend", A, 0.0)
        assert after.balance(A, "WBTC") == 0.0

    def test_liquidity_boundary(self):
        boundary = 155.70 * 36.48 / 0.75  # collateral that draws exactly the pool
        _, at_cap = collateralized_borrow(self.state, "lend", A, boundary)
        assert at_cap[1].value == pytest.approx(0.0, abs=1e-9)
        _, over = collateralized_borrow(self.state, "lend", A, boundary + 1.0)
        assert over[1].value < 0

    def test_borrow_then_repay_restores_balances(self):
        mid, _ = collateralized_borrow(self.state, "lend", A, 5500.0)
        after, residuals = collateralized_repay(mid, "lend", A)
        assert after.balance(A, "ETH") == pytest.approx(10000.0, rel=1e-12)
        assert after.balance(A, "WBTC") == pytest.approx(0.0, abs=1e-12)
        assert residuals[0].value >= 0
        assert after.pool("lend").positions == ()

    def test_repay_short_balance_residual(self):
        mid, _ = collateralized_borrow(self.state, "lend", A, 5500.0)
        drawn = mid.balance(A, "WBTC")
        poorer = mid.transact(A, (("WBTC", -0.5),))
        _, residuals = collateralized_repay(poorer, "lend", A)
        assert residuals[0].value == pytest.approx(-0.5, abs=1e-9)
        assert drawn > 0

    def test_repay_without_position_errors(self):
        with pytest.raises(ConfigError, match="no open position"):
            collateralized_repay(self.state, "lend", A)

    def test_rate_override(self):
        after, _ = collateralized_borrow(self.state, "lend", A, 100.0, exchange_rate=50.0)
        assert after.balance(A, "WBTC") == pytest.approx(100.0 * 0.75 / 50.0)

    def test_debt_cap_clamps(self):
        after, _ = collateralized_borrow(self.state, "lend", A, 9000.0, debt_cap=10.0)
        assert after.balance(A, "WBTC") == 10.0


# ---------------------------------------------------------------------------
# margin trading
# ---------------------------------------------------------------------------

def margin_state():
    return state_with(
        {
            "amm": ConstantProductAmm("ETH", "WBTC", 2817.77, 77.08),
            "margin": MarginPlatform("ETH", "WBTC", leverage=5.0,
                                     over_collateral_ratio=1.153, available_x=4858.74,
                                     venue="amm"),
        },
        {(A, "ETH"): 3000.0},
    )


class TestMarginShort:
    def test_leveraged_venue_input(self):
        after, residuals = margin_short(margin_state(), "margin", A, 1300.0)
        amm = after.pool("amm")
        pushed = amm.reserve_x - 2817.77
        assert pushed == pytest.approx(5637.467476149176, rel=1e-12)
        assert pushed == pytest.approx(5637.62, rel=1e-3)  # observed on-chain input
        assert after.pool("margin").locked[A] == pytest.approx(77.08 - amm.reserve_y, rel=1e-12)
        assert residuals[1].value == pytest.approx(4858.74 + 1300.0 - pushed, rel=1e-9)

    def test_zero_collateral_noop(self):
        after, _ = margin_short(margin_state(), "margin", A, 0.0)
        amm = after.pool("amm")
        assert (amm.reserve_x, amm.reserve_y) == (2817.77, 77.08)
        assert after.pool("margin").locked[A] == 0.0

    def test_documented_optimum_point(self):
        after, _ = margin_short(margin_state(), "margin", A, 1456.23)
        amm = after.pool("amm")
        assert amm.reserve_x - 2817.77 == pytest.approx(6314.9609713790105, rel=1e-12)
        assert amm.reserve_x == pytest.approx(9132.73, abs=0.01)

    def test_missing_venue_errors(self):
        state = state_with(
            {"margin": MarginPlatform("ETH", "WBTC", 5.0, 1.153, 4858.74)})
        with pytest.raises(ConfigError):
            margin_short(state, "margin", A, 1.0)

    def test_external_price_venue(self):
        state = state_with(
            {"margin": MarginPlatform("ETH", "WBTC", 5.0, 1.153, 4858.74,
                                      external_price=36.48)},
            {(A, "ETH"): 100.0},
        )
        after, _ = margin_short(state, "margin", A, 100.0)
        pushed = 100.0 * 5.0 / 1.153
        assert after.pool("margin").locked[A] == pytest.approx(pushed / 36.48)


# ---------------------------------------------------------------------------
# slippage and shared behavior
# ---------------------------------------------------------------------------

class TestSlippage:
    def test_doubling_is_hundred_percent(self):
        assert compute_slippage(1.0, 2.0) == 1.0

    def test_incident_slippage(self):
        assert compute_slippage(36.55, 109.79) == (109.79 - 36.55) / 36.55
        assert round(compute_slippage(36.55, 109.79), 4) == 2.0038

    def test_no_move_is_zero(self):
        assert compute_slippage(123.4, 123.4) == 0.0

    def test_bad_expected_price(self):
        with pytest.raises(ConfigError):
            compute_slippage(0.0, 1.0)


@pytest.mark.parametrize("name", sorted(vectors._OPS))
def test_operations_are_pure(name, monkeypatch):
    """At every call the built-in chains make at their executed points, the op
    leaves its input state's balances and pools alone and repeats exactly."""
    op = vectors._OPS[name]
    calls = []
    monkeypatch.setitem(vectors._OPS, name, lambda *args, **kwargs: (
        calls.append((copy.deepcopy(args[0]), args, kwargs)) or op(*args, **kwargs)))
    for vector_name, scenario in (("paa", "pump_arbitrage"), ("oracle", "oracle_manipulation")):
        state = builtin_scenario(scenario)[0]
        vector = vectors.BUILTIN_VECTORS[vector_name](state)
        vectors.evaluate(vector, state, vector.reference_points["executed"])
    assert calls
    for before, args, kwargs in calls:
        first = op(*args, **kwargs)
        assert op(*args, **kwargs) == first
        assert (args[0].balances, args[0].pools) == (before.balances, before.pools)


def test_ledger_reads_absent_as_zero():
    state = state_with({"amm": ConstantProductAmm("ETH", "WBTC", 1.0, 1.0)})
    assert state.balance("nobody", "ETH") == 0.0
    after = state.transact("x", (("ETH", 3.0), ("ETH", -1.0)), {"flash": FlashLoanPool("ETH", 5.0)})
    assert after.balance("x", "ETH") == 2.0
    assert list(after.pools) == ["amm", "flash"] and after.pools["amm"] is state.pools["amm"]
    assert state.balance("x", "ETH") == 0.0 and list(state.pools) == ["amm"]  # original untouched


def test_residual_satisfied_at_strict_tolerance(flash_state):
    assert Residual("r", -STRICT_RESIDUAL_TOL).satisfied
    assert not Residual("r", -2 * STRICT_RESIDUAL_TOL).satisfied
    assert Residual("r", 0.0).satisfied and Residual("r", STRICT_RESIDUAL_TOL).satisfied
    _, residuals = flash_loan(flash_state, "flash", A, 10001.0)
    assert not all(r.satisfied for r in residuals)
    _, fine = flash_loan(flash_state, "flash", A, 10.0)
    assert all(r.satisfied for r in fine)
