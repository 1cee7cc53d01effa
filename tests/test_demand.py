"""Supply/demand equilibrium, reserve arithmetic, and storability."""

from decimal import Decimal

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import check_result_record
from rsdm import demand
from rsdm.demand import DemandScenario, Storability, Unknown
from rsdm.errors import DomainError, SchemaError

D = Decimal


def scenario(**overrides) -> DemandScenario:
    fields = {
        "marshallian_k": D("0.7"),
        "gdp": D("120e12"),
        "fiat_multiplier": D("5"),
        "sdm_multiplier": D("8"),
        "fiat_reserve": D("8e12"),
        "sdm_reserve": D("5e12"),
        "other_supply": D("40e12"),
    }
    fields.update(overrides)
    return DemandScenario(**fields)


class TestMoneySupply:
    def test_worked_sum(self):
        s = DemandScenario(D("0.7"), D("100"), D("5"), D("8"), D("10"), D("5"), D("0"))
        assert demand.money_supply(s) == 90

    def test_zero_reserves(self):
        s = DemandScenario(D("0.7"), D("100"), D("5"), D("8"), D("0"), D("0"), D("0"))
        assert demand.money_supply(s) == 0

    def test_unit_multipliers(self):
        s = DemandScenario(D("0.7"), D("100"), D("1"), D("1"), D("7"), D("0"), D("3"))
        assert demand.money_supply(s) == 10

    @given(extra=st.decimals(min_value=D("0"), max_value=D("1e12"),
                             allow_nan=False, allow_infinity=False, places=2))
    def test_linearity_in_other_supply(self, extra):
        base = scenario()
        bumped = scenario(other_supply=base.other_supply + extra)
        assert demand.money_supply(bumped) - demand.money_supply(base) == extra


class TestMoneyDemand:
    def test_worked_example(self):
        assert demand.money_demand(D("0.7"), D("120e12")) == D("84e12")

    def test_identity_k(self):
        assert demand.money_demand(D("1"), D("123.45")) == D("123.45")

    def test_halving(self):
        assert demand.money_demand(D("0.5"), D("10")) == 5

    def test_nonpositive_rejected(self):
        with pytest.raises(DomainError):
            demand.money_demand(D("0"), D("10"))

    def test_inputs_obey_the_width_rule(self):
        with pytest.raises(DomainError, match="gdp must have at most 34 digits"):
            demand.money_demand(D("1"), D("1E+999999"))


class TestEquilibriumResidual:
    def test_constructed_equilibrium(self):
        # supply 5*8 + 8*5 + 4 = 84 = 0.7 * 120
        s = DemandScenario(D("0.7"), D("120"), D("5"), D("8"), D("8"), D("5"), D("4"))
        assert demand.equilibrium_residual(s) == 0

    def test_supply_minus_demand_sign(self):
        s = DemandScenario(D("0.7"), D("120e12"), D("5"), D("8"), D("10e12"), D("5e12"), D("0"))
        assert demand.equilibrium_residual(s) == D("6e12")

    def test_shipped_global_scenario_is_off_equilibrium(self):
        assert demand.equilibrium_residual(scenario()) == D("36e12")


class TestSolveUnknown:
    def test_sdm_reserve_worked(self):
        s = scenario(other_supply=D("4e12"), sdm_reserve=D("0.001"))
        solution = demand.solve_unknown(s, Unknown.SDM_RESERVE)
        assert solution.value == D("5e12")
        assert not solution.negative

    def test_fixed_point_other_supply(self):
        s = DemandScenario(D("0.7"), D("120"), D("5"), D("8"), D("8"), D("5"), D("4"))
        solution = demand.solve_unknown(s, "other_supply")
        assert solution.value == 4

    def test_negative_solution_flagged(self):
        s = DemandScenario(D("0.1"), D("10"), D("5"), D("8"), D("100"), D("1"), D("0"))
        solution = demand.solve_unknown(s, Unknown.SDM_RESERVE)
        assert solution.negative and solution.value < 0

    def test_all_unknowns_restore_equilibrium(self):
        s = scenario()
        for unknown in Unknown:
            solution = demand.solve_unknown(s, unknown)
            restored = DemandScenario(**{**_fields(s), unknown.value: solution.value}) \
                if solution.value > 0 else None
            if restored is not None:
                residual = demand.equilibrium_residual(restored)
                bound = D("1e-18") * max(demand.money_supply(restored),
                                         demand.money_demand(restored.marshallian_k,
                                                             restored.gdp))
                assert abs(residual) <= bound

    def test_a_solution_is_a_plain_named_tuple(self):
        s = DemandScenario(D("0.7"), D("120"), D("5"), D("8"), D("8"), D("5"), D("4"))
        check_result_record(
            demand.solve_unknown(s, "other_supply"), ("unknown", "value", "negative"),
            "UnknownSolution(unknown=<Unknown.OTHER_SUPPLY: 'other_supply'>, value=Decimal('4.0'), "
            "negative=False)")

    def test_unknown_name_rejected(self):
        with pytest.raises(DomainError, match="cannot solve"):
            demand.solve_unknown(scenario(), "gdp")


def _fields(s: DemandScenario) -> dict:
    return {
        "marshallian_k": s.marshallian_k,
        "gdp": s.gdp,
        "fiat_multiplier": s.fiat_multiplier,
        "sdm_multiplier": s.sdm_multiplier,
        "fiat_reserve": s.fiat_reserve,
        "sdm_reserve": s.sdm_reserve,
        "other_supply": s.other_supply,
    }


class TestCollateralRequirement:
    def test_worked_example(self):
        assert demand.collateral_requirement(D("40e12"), D("8.0")) == D("5e12")

    def test_zero_target(self):
        assert demand.collateral_requirement(D("0"), D("3")) == 0

    def test_unit_multiplier(self):
        assert demand.collateral_requirement(D("40e12"), D("1.0")) == D("40e12")

    def test_zero_multiplier_rejected(self):
        with pytest.raises(DomainError):
            demand.collateral_requirement(D("1"), D("0"))

    @pytest.mark.parametrize("args", [("1E+999999", "1E-999999"), ("1", "1E-999999")])
    def test_inputs_obey_the_width_rule(self, args):
        # unchecked, the quotient overflows the 34-digit context
        with pytest.raises(DomainError, match="must have at most 34 digits"):
            demand.collateral_requirement(*args)

    @given(share=st.decimals(min_value=D("0"), max_value=D("1e14"),
                             allow_nan=False, allow_infinity=False, places=0),
           mult=st.decimals(min_value=D("0.5"), max_value=D("16"),
                            allow_nan=False, allow_infinity=False, places=1))
    def test_multiplier_round_trip(self, share, mult):
        requirement = demand.collateral_requirement(share, mult)
        assert requirement * mult == share


class TestImpliedMetalPrice:
    def test_reserve_over_stock(self):
        price = demand.implied_metal_price(D("5e12"), D("50000"))
        assert abs(price - D("3110.34767696498842736050179314")) < D("1e-20")

    def test_zero_reserve(self):
        assert demand.implied_metal_price(D("0"), D("50000")) == 0

    def test_same_ratio_scaled(self):
        assert (demand.implied_metal_price(D("1e12"), D("10000"))
                == demand.implied_metal_price(D("5e12"), D("50000")))

    def test_nonpositive_mass_rejected(self):
        with pytest.raises(DomainError):
            demand.implied_metal_price(D("1"), D("0"))

    @pytest.mark.parametrize("args", [("1E+999999", "1E-999999"), ("1", "1E-999999")])
    def test_inputs_obey_the_width_rule(self, args):
        with pytest.raises(DomainError, match="must have at most 34 digits"):
            demand.implied_metal_price(*args)

    def test_reconstructs_reserve_value(self):
        price = demand.implied_metal_price(D("5e12"), D("50000"))
        back = price * D("50000") * demand.TROY_OUNCES_PER_TONNE
        assert abs(back / D("5e12") - 1) < D("1e-12")


class TestHouseholdStorability:
    def test_kilogram_of_gold_storable(self):
        result = demand.household_storability(D("100000"), D("100000"), D("2"))
        assert result.classification is Storability.STORABLE
        assert result.mass_kg == 1

    def test_steel_pile_not_storable(self):
        # same value in steel implies two hundred tonnes
        result = demand.household_storability(D("100000"), D("0.5"), D("2"))
        assert result.classification is Storability.NOT_STORABLE
        assert result.mass_kg == 200000

    def test_zero_value_storable(self):
        result = demand.household_storability(D("0"), D("100"), D("2"))
        assert result.storable and result.mass_kg == 0

    def test_a_result_is_a_plain_named_tuple(self):
        check_result_record(
            demand.household_storability(D("100000"), D("100000"), D("2")), ("classification", "mass_kg"),
            "StorabilityResult(classification=<Storability.STORABLE: 'Storable'>, mass_kg=Decimal('1'))")

    def test_zero_price_rejected(self):
        with pytest.raises(DomainError):
            demand.household_storability(D("1"), D("0"), D("2"))

    def test_zero_threshold_rejected(self):
        with pytest.raises(DomainError) as err:
            demand.household_storability(D("1"), D("1"), D("0"))
        assert str(err.value) == "storage threshold must be positive"

    @pytest.mark.parametrize("args", [("1E+999999", "1E-999999", "2"), ("1", "1", "1E+999999")])
    def test_inputs_obey_the_width_rule(self, args):
        with pytest.raises(DomainError, match="must have at most 34 digits"):
            demand.household_storability(*args)

    @given(price=st.decimals(min_value=D("1"), max_value=D("1e6"),
                             allow_nan=False, allow_infinity=False, places=2),
           bump=st.decimals(min_value=D("0"), max_value=D("1e5"),
                            allow_nan=False, allow_infinity=False, places=2))
    def test_monotone_in_price(self, price, bump):
        value, threshold = D("50000"), D("5")
        low = demand.household_storability(value, price, threshold)
        high = demand.household_storability(value, price + bump, threshold)
        if low.storable:
            assert high.storable


class TestScenarioJson:
    def test_round_trip(self):
        s = scenario()
        assert DemandScenario.from_json_dict(s.to_json_dict()) == s

    @pytest.mark.parametrize("field", [
        "marshallian_k", "gdp", "fiat_multiplier", "sdm_multiplier",
        "fiat_reserve", "sdm_reserve", "other_supply",
    ])
    @pytest.mark.parametrize("value", ["1E+999999", "1E-35", "1." + "1" * 34])
    def test_field_wider_than_a_spec_field_rejected(self, field, value):
        with pytest.raises(DomainError, match=f"{field} must have at most 34 digits"):
            scenario(**{field: D(value)})

    def test_missing_field_pointer(self):
        with pytest.raises(SchemaError) as err:
            DemandScenario.from_json_dict({"marshallian_k": "0.7"})
        assert any("/gdp" in p for p in err.value.problems)


class TestRejectionMessages:
    @pytest.mark.parametrize("doc, problems", [
        ([1], ["/: expected a JSON object"]),
        ({**scenario().to_json_dict(), "gdp": "lots", "sdm_reserve": 1.5},
         ["/gdp: not a decimal string: 'lots'", "/sdm_reserve: not a decimal string: 1.5"]),
    ], ids=["not an object", "not decimals"])
    def test_reader(self, doc, problems):
        with pytest.raises(SchemaError) as err:
            DemandScenario.from_json_dict(doc)
        assert err.value.problems == problems

    @pytest.mark.parametrize("field, value, message", [
        ("marshallian_k", "0", "marshallian_k must be positive"),
        ("sdm_multiplier", "0.0", "sdm_multiplier must be positive"),
        ("fiat_reserve", "-1", "fiat_reserve must be nonnegative"),
        ("sdm_reserve", "-0.5", "sdm_reserve must be nonnegative"),
    ])
    def test_field_out_of_range(self, field, value, message):
        with pytest.raises(DomainError) as err:
            scenario(**{field: D(value)})
        assert type(err.value) is DomainError
        assert str(err.value) == message
