"""Deterministic DeFi protocol simulator and attack-parameter optimizer."""

import os

# Read once, when numpy or scipy loads OpenBLAS: idle workers then spin 2**4 cycles, not 2**28.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

from .models import (
    AutomatedPriceReserve,
    ConfigError,
    ConstantProductAmm,
    FixedPriceMarket,
    FlashLoanPool,
    InterestModel,
    LendingPool,
    MarginPlatform,
    PositionError,
    Residual,
    WorldState,
    amm_spot_price_y,
    amm_swap_x_for_y,
    amm_swap_y_for_x,
    collateralized_borrow,
    collateralized_repay,
    compute_slippage,
    flash_loan,
    flash_repay,
    margin_short,
    reserve_convert_x_to_y,
    reserve_price_y,
    sell_x_for_y_fixed,
)
from .scenario import builtin_scenario, load_scenario, scenario_from_dict
from .vectors import (
    AttackVector,
    EvaluationError,
    EvaluationTrace,
    build_oracle_vector,
    build_paa_vector,
    describe,
    evaluate,
    list_constraints,
    parse_vector,
    with_bounds,
)
from .optimize import (
    OptimizationResult,
    SolverConfig,
    finite_diff_gradient,
    grid_oracle,
    solve,
)
from .atomicity import (
    ArbOutcome,
    ReplayStream,
    SyntheticStream,
    TradeEvent,
    TwoExchangeMarket,
    atomic_arbitrage,
    non_atomic_arbitrage,
    optimal_trade_size,
    sweep,
)
from .analytics import (
    AddressMap,
    LoanRecord,
    PriceTable,
    UsageTable,
    aggregate,
    classify,
    wash_trading_cost,
)

__version__ = "0.1.0"
