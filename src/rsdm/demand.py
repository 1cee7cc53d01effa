"""Money supply/demand equilibrium with a self-decaying token component.

Broad money supply is base reserves times their money multipliers (one
multiplier for the fiat system, stablecoin effects absorbed into it,
and one for the decaying-token system) plus the other-token supply.
Demand is the Marshallian K times GDP. The module solves the linear
equilibrium for any single unknown and carries two small helpers: the
base reserve needed to support a target broad-money share, and the
collateral price implied by a reserve value over a metal stock.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from decimal import Decimal, localcontext
from enum import Enum
from typing import NamedTuple

from rsdm.errors import DomainError, SchemaError
from rsdm.numeric import CONTEXT, as_decimal, bounded_decimal

#: Troy ounces per metric tonne (31.1034768 g per ozt).
TROY_OUNCES_PER_TONNE = Decimal("32150.7466")

#: The scenario fields that may be zero; every other one must be positive.
_NONNEGATIVE = frozenset({"fiat_reserve", "sdm_reserve", "other_supply"})


@dataclass(frozen=True)
class DemandScenario:
    """Inputs to the supply/demand equilibrium, one accounting unit."""

    marshallian_k: Decimal
    gdp: Decimal
    fiat_multiplier: Decimal
    sdm_multiplier: Decimal
    fiat_reserve: Decimal
    sdm_reserve: Decimal
    other_supply: Decimal

    def __post_init__(self) -> None:
        names = [f.name for f in fields(self)]
        for name in names:
            object.__setattr__(self, name, bounded_decimal(name, getattr(self, name)))
        for name in names:  # the positive fields come first
            if name in _NONNEGATIVE:
                if getattr(self, name) < 0:
                    raise DomainError(f"{name} must be nonnegative")
            elif getattr(self, name) <= 0:
                raise DomainError(f"{name} must be positive")

    def to_json_dict(self) -> dict:
        return {f.name: str(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_json_dict(cls, data: object) -> "DemandScenario":
        if not isinstance(data, dict):
            raise SchemaError(["/: expected a JSON object"])
        problems = []
        values = {}
        for name in (f.name for f in fields(cls)):
            if name not in data:
                problems.append(f"/{name}: missing required field")
                continue
            try:
                values[name] = as_decimal(data[name])
            except DomainError:
                problems.append(f"/{name}: not a decimal string: {data[name]!r}")
        if problems:
            raise SchemaError(problems)
        return cls(**values)


def money_supply(scenario: DemandScenario) -> Decimal:
    """Total supply: fiat_multiplier*fiat_reserve +
    sdm_multiplier*sdm_reserve + other_supply."""
    with localcontext(CONTEXT):
        return (
            scenario.fiat_multiplier * scenario.fiat_reserve
            + scenario.sdm_multiplier * scenario.sdm_reserve
            + scenario.other_supply
        )


def money_demand(marshallian_k: Decimal | str | int, gdp: Decimal | str | int) -> Decimal:
    """Broad money demanded: monetization rate times GDP."""
    k = bounded_decimal("marshallian_k", marshallian_k)
    v = bounded_decimal("gdp", gdp)
    if k <= 0 or v <= 0:
        raise DomainError("marshallian K and GDP must be positive")
    with localcontext(CONTEXT):
        return k * v


def equilibrium_residual(scenario: DemandScenario) -> Decimal:
    """Supply minus demand; zero at equilibrium, positive = oversupply."""
    with localcontext(CONTEXT):
        return money_supply(scenario) - money_demand(scenario.marshallian_k, scenario.gdp)


class Unknown(Enum):
    FIAT_RESERVE = "fiat_reserve"
    SDM_RESERVE = "sdm_reserve"
    OTHER_SUPPLY = "other_supply"
    MARSHALLIAN_K = "marshallian_k"


class UnknownSolution(NamedTuple):
    """Value restoring equilibrium; flagged when it comes out negative
    (economically infeasible but mathematically determined)."""

    unknown: Unknown
    value: Decimal
    negative: bool


def solve_unknown(scenario: DemandScenario, unknown: Unknown | str) -> UnknownSolution:
    """Solve the equilibrium for one field, holding the others fixed.

    The equilibrium is linear in every solvable field, and each field's
    coefficient is a scenario multiplier or GDP, positive by
    construction, so the solution is unique.
    """
    if not isinstance(unknown, Unknown):
        try:
            unknown = Unknown(unknown)
        except ValueError:
            raise DomainError(
                f"cannot solve for {unknown!r}; expected one of "
                f"{[u.value for u in Unknown]}"
            ) from None
    with localcontext(CONTEXT):
        demand = scenario.marshallian_k * scenario.gdp
        fiat_part = scenario.fiat_multiplier * scenario.fiat_reserve
        sdm_part = scenario.sdm_multiplier * scenario.sdm_reserve
        if unknown is Unknown.FIAT_RESERVE:
            value = (demand - sdm_part - scenario.other_supply) / scenario.fiat_multiplier
        elif unknown is Unknown.SDM_RESERVE:
            value = (demand - fiat_part - scenario.other_supply) / scenario.sdm_multiplier
        elif unknown is Unknown.OTHER_SUPPLY:
            value = demand - fiat_part - sdm_part
        else:  # MARSHALLIAN_K
            value = (fiat_part + sdm_part + scenario.other_supply) / scenario.gdp
    return UnknownSolution(unknown=unknown, value=value, negative=value < 0)


def collateral_requirement(
    target_share: Decimal | str | int, multiplier: Decimal | str | int
) -> Decimal:
    """Base reserve needed to support a target broad-money share:
    target divided by the money multiplier."""
    share = bounded_decimal("target share", target_share)
    mult = bounded_decimal("money multiplier", multiplier)
    if mult <= 0:
        raise DomainError("money multiplier must be positive")
    with localcontext(CONTEXT):
        return share / mult


def implied_metal_price(
    reserve_value: Decimal | str | int, metal_mass_tonnes: Decimal | str | int
) -> Decimal:
    """Accounting units per troy ounce implied by a reserve value spread
    over a metal stock in tonnes."""
    value = bounded_decimal("reserve value", reserve_value)
    tonnes = bounded_decimal("metal mass", metal_mass_tonnes)
    if tonnes <= 0:
        raise DomainError("metal mass must be positive")
    with localcontext(CONTEXT):
        return value / (tonnes * TROY_OUNCES_PER_TONNE)


class Storability(Enum):
    STORABLE = "Storable"
    NOT_STORABLE = "NotStorable"


class StorabilityResult(NamedTuple):
    classification: Storability
    mass_kg: Decimal

    @property
    def storable(self) -> bool:
        return self.classification is Storability.STORABLE


def household_storability(
    redeemed_value: Decimal | str | int,
    price_per_kg: Decimal | str | int,
    threshold_kg: Decimal | str | int,
) -> StorabilityResult:
    """Can a household keep the redeemed collateral at home?

    A kilogram of gold fits an ordinary safe; two hundred tonnes of
    steel of the same value does not. Storable iff the implied mass is
    at or under the household threshold.
    """
    value = bounded_decimal("redeemed value", redeemed_value)
    price = bounded_decimal("price per kilogram", price_per_kg)
    threshold = bounded_decimal("storage threshold", threshold_kg)
    if price <= 0:
        raise DomainError("price per kilogram must be positive")
    if threshold <= 0:
        raise DomainError("storage threshold must be positive")
    with localcontext(CONTEXT):
        mass = value / price
    classification = Storability.STORABLE if mass <= threshold else Storability.NOT_STORABLE
    return StorabilityResult(classification=classification, mass_kg=mass)
