#!/usr/bin/env python3
"""Walkthrough: the self-decaying gold token series.

A one-gram gold token issued on 2035-01-01 loses 0.04% of its face
value per day (daily factor 0.99996). The shrinking claim funds the
vault's storage bill; the residual stays redeemable for fifty years.

Run:
    python demos/decay_walkthrough.py
"""

from datetime import date
from decimal import Decimal

from rsdm import decay
from rsdm.numeric import exact_add, settle

spec = decay.RsdmSpec(
    issue_date=date(2035, 1, 1),
    collateral_id="XAU_9999",
    initial_weight=Decimal("1"),
    daily_decay_factor=Decimal("0.99996"),
    expiry_days=18262,                  # through 2084-12-31
    redemption_fee_rate=Decimal("0.003"),
    issue_size=2_000_000_000,
)

print("=" * 64)
print("RESIDUAL WEIGHT OVER TIME  (exact, then settlement-rounded)")
print("=" * 64)
for label, days in [
    ("at issue", 0),
    ("1 day", 1),
    ("30 days", 30),
    ("1 year", 365),
    ("10 years", 3650),
    ("50 years", 18250),
]:
    residual = decay.residual_weight(spec, days)
    print(f"{label:>10}: {settle(residual)} g")

print()
print("=" * 64)
print("BUYING FROM THE ISSUER")
print("=" * 64)
price = Decimal("95")  # accounting units per gram of gold
for days in (0, 365, 3650):
    cost = decay.purchase_price(spec, days, price)
    print(f"day {days:>5}: token costs {settle(cost)} at {price}/g")

print()
print("=" * 64)
print("REDEEMING: CUSTOMER PAYOUT vs ISSUER FEE")
print("=" * 64)
for days in (0, 365, 18250):
    quote = decay.redemption_quote(spec, days)
    print(
        f"day {days:>5}: payout {settle(quote.payout)} g"
        f" + fee {settle(quote.fee)} g"
        f" = residual {settle(quote.residual)} g"
    )
# the split is exact: payout + fee reconstructs the residual to the digit
q = decay.redemption_quote(spec, 18250)
assert exact_add(q.payout, q.fee) == q.residual

print()
print("=" * 64)
print("RATE CONVERSIONS")
print("=" * 64)
annual = decay.annual_rate_from_daily_factor(Decimal("0.99996"))
print(f"daily 0.99996 compounds to {settle(annual * 100)} % per year")
daily = decay.daily_factor_from_annual_rate(Decimal("-0.02"))
print(f"an annualized -2% needs a daily factor of {settle(daily)}")
net = decay.net_yield(Decimal("-0.02"), Decimal("0.03"))
print(f"-2% decay + 3% bank interest in gold nets the depositor {net * 100}%")
