"""Redeemable self-decaying money toolkit.

Exact arithmetic for tokens whose collateral claim decays by a fixed
daily factor, the issuer solvency analysis that motivates the decay,
exact 0-1 selection of currencies for a multi-monetary system, the
money supply/demand equilibrium, and an event-sourced token ledger.
"""

from rsdm.decay import (
    RedemptionQuote,
    RsdmSpec,
    annual_rate_from_daily_factor,
    daily_factor_from_annual_rate,
    epoch_day,
    net_yield,
    purchase_price,
    redeemable_quantity,
    redemption_quote,
    residual_weight,
)
from rsdm.demand import (
    DemandScenario,
    Storability,
    StorabilityResult,
    Unknown,
    UnknownSolution,
    collateral_requirement,
    equilibrium_residual,
    household_storability,
    implied_metal_price,
    money_demand,
    money_supply,
    solve_unknown,
)
from rsdm.errors import (
    BelowMinimumRedemption,
    DomainError,
    ExpiredSeries,
    InsufficientBalance,
    LedgerError,
    MissingQuote,
    NeverBankrupt,
    ReplayError,
    RsdmError,
    SchemaError,
    SequenceGap,
    SizeGuardError,
    UnknownSeries,
)
from rsdm.ledger import (
    EventKind,
    LedgerEvent,
    LedgerState,
    PriceQuote,
    ValuationReport,
    append_event,
    empty_state,
    holdings_valuation,
    issue,
    redeem,
    replay,
    transfer,
)
from rsdm.msp import (
    CoverageReport,
    CurrencyCandidate,
    CurrencyClass,
    FeasibilityVerdict,
    Infeasible,
    MonetaryFunction,
    MspInstance,
    MspSolution,
    ObjectiveKind,
    check_feasible,
    coverage_report,
    default_function_catalog,
    evaluate_linear_objective,
    evaluate_saturating_objective,
    solve_branch_and_bound,
    solve_exhaustive,
    solve_saturating,
    validate_instance,
)
from rsdm.numeric import (
    ACCOUNTING_UNIT,
    DIMENSIONLESS,
    GRAM,
    PER_GRAM,
    Quantity,
    Unit,
    as_decimal,
    exact_add,
    exact_mul,
    exact_pow,
    exact_sub,
    settle,
)
from rsdm.solvency import (
    FeeKind,
    FeeSchedule,
    IssuerBook,
    RedemptionRecord,
    SolvencyTimeline,
    breakeven_horizon,
    case3_insolvent,
    deadline_fee,
    gross_profit,
    is_bankrupt,
    mean_holding_fee,
    simulate_issuer,
    warehouse_cost,
)

__version__ = "0.1.0"
