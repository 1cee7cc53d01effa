"""Face-value decay, purchase pricing, and collateral redemption for one
RSDM series.

A series is defined by its issuance parameters (RsdmSpec). The face
value of each token is a claim on ``initial_weight`` grams of collateral
that shrinks by a fixed factor per elapsed day; the redemption payout
further deducts a proportional delivery fee. All of this is exact
integer-exponent decimal arithmetic: nothing is rounded until a
settlement boundary. A spec checks its own parameters when it is built,
so no consumer re-checks one.

Time is modeled as whole UTC days; intraday timing is ignored.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date
from decimal import Decimal, localcontext
from typing import NamedTuple

from rsdm.errors import DomainError, ExpiredSeries
from rsdm.numeric import (
    CONTEXT,
    as_decimal,
    bound_violation,
    bounded_decimal,
    count_violation,
    exact_add,
    exact_mul,
    exact_pow,
    exact_sub,
    integer_violation,
    json_int,
    nth_root,
)

_EPOCH = date(1970, 1, 1)

DAYS_PER_YEAR = 365

#: Default minimum redeemable collateral: one kilogram.
DEFAULT_MIN_REDEMPTION_GRAMS = Decimal(1000)

#: Longest expiry a spec may set, in days: the century
#: ``solvency.MAX_SIMULATED_DAYS`` replays. At the cap the exact power
#: of a 34-digit decay factor has about 1.24 million digits.
MAX_EXPIRY_DAYS = 36_525


def epoch_day(d: date) -> int:
    """Whole UTC days since 1970-01-01."""
    return (d - _EPOCH).days


def date_from_epoch_day(day: int) -> date:
    return date.fromordinal(_EPOCH.toordinal() + day)


#: The spec's decimal fields, each with its name in a width-rule complaint.
_DECIMAL_FIELDS = {
    "initial_weight": "initial weight",
    "daily_decay_factor": "decay factor",
    "redemption_fee_rate": "fee rate",
    "inspection_fee": "inspection fee",
    "min_redemption_grams": "minimum redemption",
}


@dataclass(frozen=True)
class RsdmSpec:
    """Immutable issuance parameters of one RSDM series.

    ``daily_decay_factor`` is the per-day multiplier on the face value
    (1 minus the daily demurrage rate); ``redemption_fee_rate`` is the
    fraction of residual collateral the issuer keeps at redemption.

    A spec is valid by construction: every issuance invariant is
    checked, and every decimal field must obey the width rule of
    ``numeric.bound_violation``; otherwise ``DomainError`` lists each
    violation after ``invalid spec:``.
    """

    issue_date: date
    collateral_id: str
    initial_weight: Decimal
    daily_decay_factor: Decimal
    expiry_days: int
    redemption_fee_rate: Decimal
    issue_size: int = 0
    inspection_fee: Decimal = Decimal(0)
    min_redemption_grams: Decimal = DEFAULT_MIN_REDEMPTION_GRAMS

    def __post_init__(self) -> None:
        for field in _DECIMAL_FIELDS:
            object.__setattr__(self, field, as_decimal(getattr(self, field)))
        violations = []
        if not self.initial_weight > 0:
            violations.append("initial weight must be > 0")
        if not (0 < self.daily_decay_factor <= 1):
            violations.append("decay factor must be in (0, 1]")
        if not (0 <= self.redemption_fee_rate < 1):
            violations.append("fee rate must be in [0, 1)")
        if problem := integer_violation("expiry days", self.expiry_days):
            violations.append(problem)
        elif self.expiry_days <= 0:
            violations.append("expiry must be a positive number of days")
        elif self.expiry_days > MAX_EXPIRY_DAYS:
            violations.append(f"expiry must be at most {MAX_EXPIRY_DAYS} days")
        if problem := integer_violation("issue size", self.issue_size):
            violations.append(problem)
        elif self.issue_size < 0:
            violations.append("issue size must be nonnegative")
        if not self.min_redemption_grams > 0:
            violations.append("minimum redemption must be > 0 grams")
        for field, name in _DECIMAL_FIELDS.items():
            if problem := bound_violation(name, getattr(self, field)):
                violations.append(problem)
        if violations:
            raise DomainError(f"invalid spec: {'; '.join(violations)}")

    def to_json_dict(self) -> dict:
        """JSON form; decimal fields as strings to preserve precision."""
        return {
            "issue_date": self.issue_date.isoformat(),
            "collateral_id": self.collateral_id,
            "initial_weight_g": str(self.initial_weight),
            "daily_decay_factor": str(self.daily_decay_factor),
            "expiry_days": self.expiry_days,
            "redemption_fee_rate": str(self.redemption_fee_rate),
            "issue_size": self.issue_size,
            "inspection_fee": str(self.inspection_fee),
            "min_redemption_g": str(self.min_redemption_grams),
        }

    @classmethod
    def from_json_dict(cls, data: object) -> "RsdmSpec":
        if not isinstance(data, dict):
            raise DomainError(f"malformed series spec: got {type(data).__name__}, not an object")
        try:
            return cls(
                issue_date=date.fromisoformat(data["issue_date"]),
                collateral_id=str(data["collateral_id"]),
                initial_weight=as_decimal(data["initial_weight_g"]),
                daily_decay_factor=as_decimal(data["daily_decay_factor"]),
                expiry_days=json_int(data["expiry_days"], "expiry_days"),
                redemption_fee_rate=as_decimal(data["redemption_fee_rate"]),
                issue_size=json_int(data.get("issue_size", 0), "issue_size"),
                inspection_fee=as_decimal(data.get("inspection_fee", "0")),
                min_redemption_grams=as_decimal(
                    data.get("min_redemption_g", str(DEFAULT_MIN_REDEMPTION_GRAMS))
                ),
            )
        except KeyError as exc:
            raise DomainError(f"series spec is missing field {exc.args[0]!r}") from exc
        except (TypeError, ValueError) as exc:
            raise DomainError(f"malformed series spec: {exc}") from exc


def _check_elapsed(spec: RsdmSpec, elapsed_days: int) -> None:
    if problem := integer_violation("elapsed days", elapsed_days):
        raise DomainError(problem)
    if elapsed_days < 0:
        raise DomainError(f"elapsed days must be nonnegative, got {elapsed_days}")
    if elapsed_days > spec.expiry_days:
        raise ExpiredSeries(
            f"elapsed {elapsed_days} days exceeds expiry at {spec.expiry_days} days"
        )


def residual_weight(spec: RsdmSpec, elapsed_days: int) -> Decimal:
    """Residual collateral grams of one token after ``elapsed_days``.

    Exact value of initial_weight * decay_factor**elapsed_days, computed
    by exponentiation by squaring in numeric's exact decimal context.
    Unrounded: the caller decides if and when to settle.
    """
    _check_elapsed(spec, elapsed_days)
    return exact_mul(spec.initial_weight, exact_pow(spec.daily_decay_factor, elapsed_days))


def purchase_price(spec: RsdmSpec, elapsed_days: int, unit_price: Decimal | str | int) -> Decimal:
    """Price of one token, in accounting units, bought from the issuer
    ``elapsed_days`` after issue.

    ``unit_price`` is the collateral's market price in accounting units
    per gram, within the width rule of ``numeric.bound_violation``; the
    token costs unit_price times its residual weight, exactly.
    """
    price = bounded_decimal("unit price", unit_price)
    if price < 0:
        raise DomainError("unit price must be nonnegative")
    return exact_mul(price, residual_weight(spec, elapsed_days))


class RedemptionQuote(NamedTuple):
    """Split of the residual weight of the tokens redeemed, in grams.

    payout + fee == residual exactly: the issuer's fee take is the
    residual times the fee rate, and the customer receives the rest.
    """

    payout: Decimal
    fee: Decimal
    residual: Decimal


def redemption_quote(spec: RsdmSpec, elapsed_days: int, count: int = 1) -> RedemptionQuote:
    """Customer payout and issuer fee for redeeming ``count`` tokens,
    unrounded: the residual is count * initial_weight *
    decay_factor**elapsed_days grams, and the payout is (1 - fee rate)
    times it. A bad count raises DomainError with ``count_violation``'s
    complaint."""
    if problem := count_violation("token count", count):
        raise DomainError(problem)
    residual = exact_mul(residual_weight(spec, elapsed_days), Decimal(count))
    fee = exact_mul(spec.redemption_fee_rate, residual)
    payout = exact_mul(exact_sub(Decimal(1), spec.redemption_fee_rate), residual)
    return RedemptionQuote(payout=payout, fee=fee, residual=residual)


def daily_factor_from_annual_rate(annual_rate: Decimal | str | int) -> Decimal:
    """Daily decay factor equivalent to a given annual rate.

    Returns (1 + annual_rate)**(1/365) in the 34-digit working precision
    (see numeric.nth_root). An annualized -2% demurrage, for example,
    maps to a daily factor just under 1.
    """
    rate = bounded_decimal("annual rate", annual_rate)
    if rate <= -1:
        raise DomainError(f"annual rate must exceed -1 (total loss), got {rate}")
    return nth_root(exact_add(Decimal(1), rate), DAYS_PER_YEAR)


def annual_rate_from_daily_factor(daily_factor: Decimal | str | int) -> Decimal:
    """Annual rate implied by a daily factor: factor**365 - 1, within the
    width rule the inverse conversion puts on its input."""
    factor = bounded_decimal("daily factor", daily_factor)
    if factor <= 0:
        raise DomainError(f"daily factor must be positive, got {factor}")
    compounded = exact_pow(factor, DAYS_PER_YEAR)
    with localcontext(CONTEXT):
        rate = +compounded - 1
    return bounded_decimal("implied annual rate", rate)


def net_yield(
    annual_decay_rate: Decimal | str | int, annual_interest_rate: Decimal | str | int
) -> Decimal:
    """Depositor's net annual benefit: decay rate plus interest rate.

    Simple-additive convention: a -2% decay plus 3% bank interest paid
    in collateral nets +1% to the depositor. Both rates obey the width
    rule, which keeps the exact sum small.
    """
    decay = bounded_decimal("annual decay rate", annual_decay_rate)
    interest = bounded_decimal("annual interest rate", annual_interest_rate)
    if decay <= -1 or interest <= -1:
        raise DomainError("rates must exceed -1 (total loss)")
    return exact_add(decay, interest)
