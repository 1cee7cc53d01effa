"""Shipped preset files: they load, validate, and behave as documented."""

import json
from decimal import Decimal
from importlib import resources

from rsdm import decay, demand, msp, solvency

D = Decimal


def _preset_text(name: str) -> str:
    return resources.files("rsdm").joinpath("presets", name).read_text(encoding="utf-8")


def _load_instance(name: str) -> msp.MspInstance:
    instance = msp.instance_from_json_dict(json.loads(_preset_text(name)))
    assert [m for m in msp.validate_instance(instance) if not m.startswith("warning:")] == []
    return instance


class TestTripleMonetary:
    def test_linear_optimum_is_the_triple_system(self):
        inst = _load_instance("triple_monetary.json")
        result = msp.solve_branch_and_bound(inst)
        assert result.selection == ("ARS_FIAT", "USD_FIAT", "XAU_RSDM")
        assert result == msp.solve_exhaustive(inst)

    def test_saturating_optimum_drops_the_reserve_currency(self):
        # once every function saturates, the third currency only costs
        # the balance penalty
        inst = _load_instance("triple_monetary.json")
        result = msp.solve_saturating(inst)
        assert result.selection == ("ARS_FIAT", "XAU_RSDM")
        assert result == msp.solve_exhaustive(inst, msp.ObjectiveKind.SATURATING)

    def test_domestic_fiat_is_mandatory(self):
        inst = _load_instance("triple_monetary.json")
        assert not msp.check_feasible(inst, {"USD_FIAT", "XAU_RSDM"}).feasible


class TestIndia:
    def test_optimum_pairs_rupee_with_gold_token(self):
        inst = _load_instance("india.json")
        result = msp.solve_branch_and_bound(inst)
        assert result.selection == ("INR", "XAU_RSDM")
        assert result == msp.solve_exhaustive(inst)

    def test_rupee_alone_fails_store_of_value(self):
        inst = _load_instance("india.json")
        verdict = msp.check_feasible(inst, {"INR"})
        assert any("F4_store_of_value" in v for v in verdict.violations)


class TestEurozone:
    def test_pair_covers_catalog(self):
        inst = _load_instance("eurozone.json")
        report = msp.coverage_report(inst, {"EUR", "XAU_RSDM"})
        assert report.all_covered

    def test_euro_alone_is_infeasible(self):
        inst = _load_instance("eurozone.json")
        assert not msp.check_feasible(inst, {"EUR"}).feasible

    def test_optimum_is_the_pair(self):
        inst = _load_instance("eurozone.json")
        result = msp.solve_branch_and_bound(inst)
        assert result.selection == ("EUR", "XAU_RSDM")


class TestGoldSeries:
    def test_spec_loads_and_validates(self):
        # a spec checks itself on construction: loading it validates it
        spec = decay.RsdmSpec.from_json_dict(json.loads(_preset_text("gold_rsdm_spec.json")))
        assert spec.daily_decay_factor == D("0.99996")
        assert spec.issue_size == 2_000_000_000
        assert spec.min_redemption_grams == 1000

    def test_expiry_reaches_end_of_2084(self):
        spec = decay.RsdmSpec.from_json_dict(json.loads(_preset_text("gold_rsdm_spec.json")))
        expiry_date = decay.date_from_epoch_day(
            decay.epoch_day(spec.issue_date) + spec.expiry_days
        )
        assert expiry_date.year == 2084 and expiry_date.month == 12


class TestJiaoziRecords:
    def test_flat_fee_cannot_outrun_storage(self):
        records = solvency.records_from_csv(_preset_text("jiaozi_solvency.csv"))
        schedule = solvency.FeeSchedule.flat(D("0.03"), D("0.0001"))
        timeline = solvency.simulate_issuer(records, schedule, 1500)
        assert timeline.first_bankrupt_day is not None
        # a 3% flat fee covers 300 days of storage; the long holders sink it
        assert timeline.points[-1].bankrupt


class TestGlobalDemandScenario:
    def test_documented_off_equilibrium(self):
        scenario = demand.DemandScenario.from_json_dict(
            json.loads(_preset_text("global_demand.json"))
        )
        assert demand.money_supply(scenario) == D("120e12")
        assert demand.money_demand(scenario.marshallian_k, scenario.gdp) == D("84e12")
        assert demand.equilibrium_residual(scenario) == D("36e12")

    def test_reserve_share_arithmetic_holds_independently(self):
        scenario = demand.DemandScenario.from_json_dict(
            json.loads(_preset_text("global_demand.json"))
        )
        share = scenario.sdm_multiplier * scenario.sdm_reserve
        assert demand.collateral_requirement(share, scenario.sdm_multiplier) \
            == scenario.sdm_reserve
