"""Issuer economics for tokens redeemable at a fixed face value.

A token issuer that charges a one-off fee per token but pays storage on
the vaulted collateral for as long as the token circulates will always
meet a holding duration at which cumulative storage cost overtakes fee
income. This module provides the fee/cost arithmetic, the bankruptcy
condition, the breakeven horizon, the deadline- and mean-holding-based
fee regimes, and a day-by-day solvency replay.

All money amounts are decimals in one stable accounting unit; the
storage rate is per token per day (tokens of other collateral weights
scale the rate linearly).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal, localcontext
from enum import Enum
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from rsdm.errors import DomainError
from rsdm.numeric import (CONTEXT, COUNT_LIMIT, EXACT, as_decimal, bound_violation, bounded_decimal,
                          count_too_wide, count_violation, integer_violation, read_csv_table)

#: Longest span ``simulate_issuer`` replays, in days: a century (the
#: timeline holds one point per day).
MAX_SIMULATED_DAYS = 36_525


@dataclass(frozen=True)
class RedemptionRecord:
    """One customer's token purchase and (optional) redemption timing."""

    customer_id: str
    token_count: int
    purchase_day: int
    redemption_day: int | None = None

    def __post_init__(self) -> None:
        for what, value in (("token count", self.token_count), ("purchase day", self.purchase_day),
                            ("redemption day", self.redemption_day if self.closed else 0)):
            if problem := integer_violation(what, value):
                raise DomainError(problem)
        if problem := count_violation("token count", self.token_count):
            raise DomainError(problem)
        if self.redemption_day is not None and self.redemption_day < self.purchase_day:
            raise DomainError(
                f"redemption day {self.redemption_day} precedes purchase day "
                f"{self.purchase_day}"
            )

    @property
    def closed(self) -> bool:
        return self.redemption_day is not None


class FeeKind(Enum):
    FLAT = "flat"
    DEADLINE_BASED = "deadline"
    MEAN_HOLDING_BASED = "mean-holding"


#: The fee field each kind sets, and its name in errors (None for the
#: integer deadline day).
_KIND_FIELD = {
    FeeKind.FLAT: ("flat_fee_per_token", "flat fee"),
    FeeKind.DEADLINE_BASED: ("deadline_day", None),
    FeeKind.MEAN_HOLDING_BASED: ("mean_holding_days", "mean holding duration"),
}


@dataclass(frozen=True)
class FeeSchedule:
    """The issuer's fee regime plus the storage rate it must outrun.

    Exactly the active kind's fee field is set, and each decimal passes
    ``_nonneg``, or construction raises DomainError. The ``flat`` /
    ``deadline_based`` / ``mean_holding_based`` constructors pick the kind.
    The fields are checked, and a flat or mean-holding fee (no record
    changes it) is fixed, once, here; ``fee_for`` charges from them.
    """

    kind: FeeKind
    warehouse_rate: Decimal
    flat_fee_per_token: Decimal | None = None
    deadline_day: int | None = None
    mean_holding_days: Decimal | None = None
    _fixed_fee: Decimal | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        name, what = _KIND_FIELD[self.kind]
        if [n for n, _ in _KIND_FIELD.values() if getattr(self, n) is not None] != [name]:
            raise DomainError(f"a {self.kind.value} fee schedule sets {name} and no other fee field")
        value = getattr(self, name)
        if what:
            object.__setattr__(self, name, _nonneg(value, what))
        elif problem := integer_violation("deadline day", value):
            raise DomainError(problem)
        elif abs(value) >= COUNT_LIMIT:
            raise DomainError(count_too_wide("deadline day"))
        object.__setattr__(self, "warehouse_rate", _nonneg(self.warehouse_rate, "warehouse rate"))
        if self.kind is FeeKind.FLAT:
            object.__setattr__(self, "_fixed_fee", self.flat_fee_per_token)
        elif self.kind is FeeKind.MEAN_HOLDING_BASED:
            object.__setattr__(self, "_fixed_fee", _mean_holding_fee(self.mean_holding_days, self.warehouse_rate))

    @classmethod
    def flat(cls, fee_per_token: Decimal | str | int, rate: Decimal | str | int) -> "FeeSchedule":
        return cls(FeeKind.FLAT, rate, flat_fee_per_token=fee_per_token)

    @classmethod
    def deadline_based(cls, deadline_day: int, rate: Decimal | str | int) -> "FeeSchedule":
        return cls(FeeKind.DEADLINE_BASED, rate, deadline_day=deadline_day)

    @classmethod
    def mean_holding_based(
        cls, mean_days: Decimal | str | int, rate: Decimal | str | int
    ) -> "FeeSchedule":
        return cls(FeeKind.MEAN_HOLDING_BASED, rate, mean_holding_days=mean_days)

    def fee_for(self, record: RedemptionRecord) -> Decimal:
        """Per-token fee charged to this customer under the active kind;
        only the deadline rules that depend on the record are checked."""
        if self.kind is FeeKind.DEADLINE_BASED:
            return _deadline_fee(record.purchase_day, self.deadline_day, self.warehouse_rate)
        return self._fixed_fee


def _nonneg(value: Decimal | str | int, what: str) -> Decimal:
    """A nonnegative fee, rate or duration, no wider than a series spec
    field may be (a wider one overflows the timeline's sums and builds
    a giant integer in ``breakeven_horizon``)."""
    result = as_decimal(value)
    if result < 0:
        raise DomainError(f"{what} must be nonnegative")
    return bounded_decimal(what, result)


@dataclass(frozen=True)
class IssuerBook:
    """Balance-sheet snapshot for the risky-investment insolvency test."""

    own_reserves: Decimal
    customer_deposits: Decimal
    period_income: Decimal
    period_expenses: Decimal

    def __post_init__(self) -> None:
        for name in ("own_reserves", "customer_deposits", "period_income", "period_expenses"):
            object.__setattr__(self, name, bounded_decimal(name, getattr(self, name)))
        if self.own_reserves < 0:
            raise DomainError("own reserves must be nonnegative")
        if self.customer_deposits < 0:
            raise DomainError("customer deposits must be nonnegative")


# ---------------------------------------------------------------------------
# Core fee/cost arithmetic
# ---------------------------------------------------------------------------


def gross_profit(records: Iterable[RedemptionRecord], flat_fee: Decimal | str | int) -> Decimal:
    """Total fee income: flat fee times token count, summed over customers
    exactly and rounded once, as ``simulate_issuer`` reports it."""
    fee = _nonneg(flat_fee, "flat fee")
    tokens = sum(r.token_count for r in records)
    with localcontext(CONTEXT):
        # the zero seed caps the exponent at 0, as in warehouse_cost
        return +EXACT.add(Decimal(0), EXACT.multiply(fee, tokens))


def warehouse_cost(
    records: Iterable[RedemptionRecord], rate: Decimal | str | int, as_of_day: int
) -> Decimal:
    """Cumulative storage cost up to ``as_of_day``: rate * tokens * days
    held, summed.

    A holding costs from its purchase day through its redemption day or
    ``as_of_day``, whichever comes first, so a record redeemed later is
    charged only for the days already passed (as ``simulate_issuer``
    charges it). The token-days are summed as exact integers and
    multiplied by the rate once.
    """
    alpha = _nonneg(rate, "warehouse rate")
    if problem := integer_violation("as-of day", as_of_day):
        raise DomainError(problem)
    records = list(records)
    if not records:
        return Decimal(0)
    token_days = 0
    for r in records:
        if as_of_day < r.purchase_day:
            raise DomainError(
                f"as-of day {as_of_day} precedes purchase day {r.purchase_day} "
                f"of customer {r.customer_id!r}"
            )
        end = min(r.redemption_day, as_of_day) if r.closed else as_of_day
        token_days += r.token_count * (end - r.purchase_day)
    with localcontext(CONTEXT):
        # one rounding; the zero seed caps the exponent at 0 (rate 1E+1 -> 30, not 3E+1)
        return Decimal(0) + alpha * token_days


def is_bankrupt(profit: Decimal | str | int, cost: Decimal | str | int) -> bool:
    """Bankruptcy condition: fee income strictly below storage cost.

    The boundary (profit == cost) is solvent.
    """
    return as_decimal(profit) < as_decimal(cost)


def breakeven_horizon(flat_fee: Decimal | str | int, rate: Decimal | str | int) -> int | None:
    """First holding duration (days) at which a flat fee stops covering
    storage: the smallest integer strictly greater than fee/rate, or
    None at a zero rate, when no holding duration bankrupts the issuer.

    Exact rational comparison; no floating point.
    """
    fee = _nonneg(flat_fee, "flat fee")
    alpha = _nonneg(rate, "warehouse rate")
    if alpha == 0:
        return None
    ratio = Fraction(fee) / Fraction(alpha)
    return int(ratio) + 1  # floor + 1 == smallest integer strictly above (ratio >= 0)


def deadline_fee(
    purchase_day: int, deadline_day: int, rate: Decimal | str | int
) -> Decimal:
    """Up-front fee prefunding storage from purchase to the token deadline;
    DomainError if a day is not an ``int``, or if the fee breaks the
    width rule of ``bound_violation``, as any other fee does."""
    alpha = _nonneg(rate, "warehouse rate")
    for name, day in (("purchase day", purchase_day), ("deadline day", deadline_day)):
        if problem := integer_violation(name, day):
            raise DomainError(problem)
    return _deadline_fee(purchase_day, deadline_day, alpha)


def _deadline_fee(purchase_day: int, deadline_day: int, alpha: Decimal) -> Decimal:
    """``deadline_fee`` at a checked rate: the rules that depend on the
    purchase day."""
    if deadline_day < purchase_day:
        raise DomainError(
            f"deadline day {deadline_day} precedes purchase day {purchase_day}"
        )
    with localcontext(CONTEXT):
        fee = alpha * (deadline_day - purchase_day)
    if problem := bound_violation("per-token deadline fee", fee):
        raise DomainError(problem)
    return fee


def mean_holding_fee(mean_days: Decimal | str | int, rate: Decimal | str | int) -> Decimal:
    """Up-front fee prefunding storage for the predicted mean holding time."""
    return _mean_holding_fee(_nonneg(mean_days, "mean holding duration"), _nonneg(rate, "warehouse rate"))


def _mean_holding_fee(mean: Decimal, alpha: Decimal) -> Decimal:
    with localcontext(CONTEXT):
        return mean * alpha


def case3_insolvent(book: IssuerBook) -> bool:
    """Insolvency after investing customer collateral: own reserves plus
    (possibly negative) investment income strictly below period expenses."""
    with localcontext(CONTEXT):
        return book.own_reserves + book.period_income < book.period_expenses


# ---------------------------------------------------------------------------
# Day-by-day solvency replay
# ---------------------------------------------------------------------------


class TimelinePoint(NamedTuple):
    """One day of ``simulate_issuer``: an immutable named tuple, the one
    object the replay builds per day."""

    day: int
    cum_profit: Decimal
    cum_cost: Decimal
    bankrupt: bool


class SolvencyTimeline(NamedTuple):
    points: tuple[TimelinePoint, ...]
    first_bankrupt_day: int | None

    def to_csv(self) -> str:
        """One line per point; no field can hold a comma, a quote or a
        line break, so none is quoted."""
        return "day,cum_profit,cum_cost,bankrupt\n" + "".join(
            f"{day},{profit:f},{cost:f},{'true' if bankrupt else 'false'}\n"
            for day, profit, cost, bankrupt in self.points)


def simulate_issuer(
    records: Sequence[RedemptionRecord], schedule: FeeSchedule, horizon_day: int
) -> SolvencyTimeline:
    """Replay fee income and storage cost day by day up to the horizon.

    Fee income is recognized on the purchase day (the flat, deadline,
    and mean-holding fees are all charged up front); storage accrues per
    token per day from purchase until redemption or, for open positions,
    through the evaluation day. The first day on which income strictly
    fails to cover cost is reported.

    One pass over the records fills a difference array of circulating
    tokens; one pass over the days sums it into exact integer token-days,
    and each day's cost is the rate times those, rounded once. Fee income
    is summed exactly, and each day's is rounded once too.
    """
    if problem := integer_violation("horizon day", horizon_day):
        raise DomainError(problem)
    if not records:
        return SolvencyTimeline(points=(), first_bankrupt_day=None)
    ordered = sorted(records, key=lambda r: r.purchase_day)
    start = ordered[0].purchase_day
    if horizon_day < ordered[-1].purchase_day:
        raise DomainError("horizon must reach the last purchase day")
    if horizon_day - start + 1 > MAX_SIMULATED_DAYS:
        raise DomainError(
            f"simulating days {start} to {horizon_day} exceeds the limit of "
            f"{MAX_SIMULATED_DAYS} days"
        )

    income: list[Decimal | None] = [None] * (horizon_day - start + 1)  # exact; None: no purchase
    step = [0] * (horizon_day - start + 2)  # tokens starting (+) and ending (-) storage
    points = []
    append = points.append
    rate = schedule.warehouse_rate
    zero = profit = reported = Decimal(0)
    active = token_days = 0
    for r in ordered:
        offset = r.purchase_day - start
        fees = EXACT.multiply(schedule.fee_for(r), r.token_count)
        income[offset] = fees if income[offset] is None else EXACT.add(income[offset], fees)
        step[offset + 1] += r.token_count
        if r.closed and r.redemption_day < horizon_day:
            step[r.redemption_day - start + 1] -= r.token_count
    with localcontext(CONTEXT):
        for day, fees, delta in zip(range(start, horizon_day + 1), income, step):
            if fees is not None:
                profit = EXACT.add(profit, fees)
                reported = +profit
            active += delta
            token_days += active
            cost = zero + rate * token_days  # as in warehouse_cost
            append(TimelinePoint(day, reported, cost, reported < cost))
    first_bankrupt = next((p.day for p in points if p.bankrupt), None)
    return SolvencyTimeline(points=tuple(points), first_bankrupt_day=first_bankrupt)


# ---------------------------------------------------------------------------
# CSV interchange
# ---------------------------------------------------------------------------

_RECORD_FIELDS = ["customer_id", "token_count", "purchase_day", "redemption_day"]


def _record(row: dict) -> RedemptionRecord:
    redemption = row["redemption_day"].strip()
    return RedemptionRecord(row["customer_id"].strip(), int(row["token_count"]),
                            int(row["purchase_day"]), int(redemption) if redemption else None)


def records_from_csv(text: str) -> list[RedemptionRecord]:
    """Parse records from CSV with header
    ``customer_id,token_count,purchase_day,redemption_day``; an empty
    redemption_day marks an open position."""
    return read_csv_table(text, "records", _RECORD_FIELDS, _record)
