"""Multi-monetary selection: objectives, feasibility, and exact solvers.

The desk instance's optimum was computed by brute-force enumeration of
all sixteen subsets before the solvers were written and frozen here.
"""

import json
import random
from dataclasses import is_dataclass, replace
from decimal import Decimal, localcontext

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import brute_force_optimum, check_result_record, make_random_instance
from rsdm import cli, decay, demand, ledger, msp, solvency
from rsdm.errors import DomainError, SchemaError, SizeGuardError
from rsdm.msp import (
    CurrencyCandidate,
    CurrencyClass,
    Infeasible,
    MonetaryFunction,
    MspInstance,
    ObjectiveKind,
)
from rsdm.numeric import CONTEXT, EXACT, bound_violation

D = Decimal


def currency(cid, coverage, mandatory=False, cls=CurrencyClass.FIAT):
    return CurrencyCandidate(cid, cls, {k: D(v) for k, v in coverage.items()}, mandatory)


def desk_instance() -> MspInstance:
    functions = tuple(MonetaryFunction(f"k{i}", D(1), D("0.5")) for i in (1, 2, 3))
    return MspInstance(
        functions=functions,
        currencies=(
            currency("FIAT", {"k1": "1", "k2": "1", "k3": "0"}, mandatory=True),
            currency("GOLD", {"k1": "0", "k2": "0.2", "k3": "1"}, cls=CurrencyClass.COMMODITY),
            currency("RSDM", {"k1": "0.6", "k2": "0.8", "k3": "1"}, cls=CurrencyClass.RSDM),
            currency("BTC", {"k1": "0.2", "k2": "0.9", "k3": "0"}, cls=CurrencyClass.CRYPTO),
        ),
        max_parallel=2,
        balance_penalty=D("0.1"),
    )


def one_function_instance(u: str, penalty: str = "0") -> MspInstance:
    return MspInstance(
        functions=(MonetaryFunction("k1", D(1), D(0)),),
        currencies=(currency("c1", {"k1": u}), currency("c2", {"k1": u})),
        max_parallel=2,
        balance_penalty=D(penalty),
    )


class TestEvaluate:
    def test_empty_selection(self):
        assert msp.evaluate_linear_objective(desk_instance(), set()) == 0
        assert msp.evaluate_saturating_objective(desk_instance(), set()) == 0

    def test_single_currency_with_penalty(self):
        # weighted coverage sums to 2.5; penalty 0.1 leaves 2.4
        inst = MspInstance(
            functions=(MonetaryFunction("k1", D(1), D(0)),
                       MonetaryFunction("k2", D("1.5"), D(0))),
            currencies=(currency("c1", {"k1": "1", "k2": "1"}),),
            max_parallel=1,
            balance_penalty=D("0.1"),
        )
        assert msp.evaluate_linear_objective(inst, {"c1"}) == D("2.4")

    def test_two_identical_currencies(self):
        inst = MspInstance(
            functions=(MonetaryFunction("k1", D(1), D(0)),),
            currencies=(currency("a", {"k1": "1"}), currency("b", {"k1": "1"})),
            max_parallel=2,
            balance_penalty=D("0.3"),
        )
        assert msp.evaluate_linear_objective(inst, {"a", "b"}) == D("1.4")

    def test_saturation_divergence(self):
        inst = one_function_instance("0.8")
        assert msp.evaluate_linear_objective(inst, {"c1", "c2"}) == D("1.6")
        assert msp.evaluate_saturating_objective(inst, {"c1", "c2"}) == D("1.0")

    def test_unknown_currency_rejected(self):
        with pytest.raises(DomainError, match="unknown currency"):
            msp.evaluate_linear_objective(desk_instance(), {"NOPE"})

    def test_currency_lookup_of_an_unknown_id(self):
        with pytest.raises(DomainError) as err:
            desk_instance().currency("nope")
        assert str(err.value) == "unknown currency id 'nope'"

    @settings(max_examples=40)
    @given(seed=st.integers(0, 10**6))
    def test_saturating_never_exceeds_linear_when_sums_small(self, seed):
        rng = random.Random(seed)
        inst = make_random_instance(rng, max_currencies=8)
        ids = [c.id for c in inst.currencies]
        sel = set(rng.sample(ids, rng.randint(0, len(ids))))
        sat = msp.evaluate_saturating_objective(inst, sel)
        lin = msp.evaluate_linear_objective(inst, sel)
        assert sat <= lin
        # equality when no function's weighted sum exceeds 1
        weighted = {
            f.id: sum(f.weight * inst.currency(c).score(f.id) for c in sel)
            for f in inst.functions
        }
        if all(v <= 1 for v in weighted.values()):
            assert sat == lin

    @settings(max_examples=30)
    @given(seed=st.integers(0, 10**6))
    def test_linearized_auxiliaries_reproduce_min(self, seed):
        # max feasible y_k under y_k <= 1, y_k <= weighted sum equals the min
        rng = random.Random(seed)
        inst = make_random_instance(rng, max_currencies=8)
        ids = [c.id for c in inst.currencies]
        sel = set(rng.sample(ids, rng.randint(0, len(ids))))
        for f in inst.functions:
            weighted = sum(f.weight * inst.currency(c).score(f.id) for c in sel)
            y_max = min(D(1), weighted)
            assert y_max == min(D(1), weighted)  # the two ceilings bind exactly
            assert y_max <= 1 and y_max <= weighted


class TestCheckFeasible:
    def test_mandatory_set_with_zero_thresholds(self):
        inst = MspInstance(
            functions=(MonetaryFunction("k1", D(1), D(0)),),
            currencies=(currency("a", {"k1": "1"}, mandatory=True),
                        currency("b", {"k1": "1"})),
            max_parallel=2,
        )
        assert msp.check_feasible(inst, {"a"}).feasible

    def test_missing_mandatory(self):
        verdict = msp.check_feasible(desk_instance(), {"RSDM", "GOLD"})
        assert not verdict.feasible
        assert any("mandatory: FIAT" in v for v in verdict.violations)

    def test_cardinality_violation(self):
        verdict = msp.check_feasible(desk_instance(), {"FIAT", "RSDM", "GOLD"})
        assert any(v.startswith("cardinality") for v in verdict.violations)

    def test_threshold_violation_lists_function(self):
        verdict = msp.check_feasible(desk_instance(), {"FIAT"})
        assert any("threshold k3" in v for v in verdict.violations)


class TestDeskInstance:
    def test_exhaustive_optimum_frozen(self):
        result = msp.solve_exhaustive(desk_instance())
        assert result.selection == ("FIAT", "RSDM")
        assert result.objective == D("4.2")
        assert result.per_function_score == {"k1": D("1.6"), "k2": D("1.8"), "k3": D("1")}

    def test_branch_and_bound_matches(self):
        assert msp.solve_branch_and_bound(desk_instance()) == msp.solve_exhaustive(desk_instance())

    def test_solution_is_feasible(self):
        result = msp.solve_branch_and_bound(desk_instance())
        assert msp.check_feasible(desk_instance(), result.selection).feasible


class TestSolveSaturating:
    def test_two_08_currencies_beta_zero(self):
        # enumeration oracle over 4 subsets: {} 0, {c1} 0.8, {c2} 0.8,
        # {c1,c2} 1.0 -> unique optimum is the pair
        result = msp.solve_saturating(one_function_instance("0.8"))
        assert result.selection == ("c1", "c2")
        assert result.objective == D("1.0")

    def test_two_08_currencies_beta_005(self):
        # enumeration: {c1} 0.75, {c1,c2} 0.90 -> the pair still wins
        result = msp.solve_saturating(one_function_instance("0.8", "0.05"))
        assert result.selection == ("c1", "c2")
        assert result.objective == D("0.90")

    def test_saturated_single_currency_tie_break(self):
        # with u=1 one currency already saturates the only function:
        # {c1} and {c1,c2} tie at 1.0 and the smaller id tuple wins
        result = msp.solve_saturating(one_function_instance("1"))
        assert result.selection == ("c1",)
        assert result.objective == D("1")

    def test_saturated_single_currency_with_penalty(self):
        # beta=0.05 makes {c1} the unique optimum at 0.95
        result = msp.solve_saturating(one_function_instance("1", "0.05"))
        assert result.selection == ("c1",)
        assert result.objective == D("0.95")

    def test_unreachable_threshold_infeasible(self):
        inst = MspInstance(
            functions=(MonetaryFunction("k1", D(1), D("5")),),
            currencies=(currency("c1", {"k1": "1"}), currency("c2", {"k1": "0.5"})),
            max_parallel=2,
        )
        result = msp.solve_saturating(inst)
        assert isinstance(result, Infeasible)
        assert any("unreachable" in r for r in result.reasons)

    def test_matches_exhaustive_on_desk(self):
        assert (msp.solve_saturating(desk_instance())
                == msp.solve_exhaustive(desk_instance(), ObjectiveKind.SATURATING))


class TestSolverEquivalence:
    def test_randomized_oracle_equivalence(self):
        rng = random.Random(20_350_101)
        for _ in range(40):
            inst = make_random_instance(rng, max_currencies=10)
            lin_oracle = msp.solve_exhaustive(inst, ObjectiveKind.LINEAR)
            lin = msp.solve_branch_and_bound(inst)
            sat_oracle = msp.solve_exhaustive(inst, ObjectiveKind.SATURATING)
            sat = msp.solve_saturating(inst)
            assert lin == lin_oracle
            assert sat == sat_oracle
            for result in (lin, sat):
                if not isinstance(result, Infeasible):
                    assert msp.check_feasible(inst, result.selection).feasible

    def test_twenty_currency_instance(self):
        rng = random.Random(7)
        inst = make_random_instance(rng, max_currencies=20)
        while len(inst.currencies) < 20:
            inst = make_random_instance(rng, max_currencies=20)
        assert msp.solve_branch_and_bound(inst) == msp.solve_exhaustive(inst)

    def test_all_mandatory_instance(self):
        inst = MspInstance(
            functions=(MonetaryFunction("k1", D(1), D(0)),),
            currencies=(currency("a", {"k1": "0.5"}, mandatory=True),
                        currency("b", {"k1": "0.5"}, mandatory=True)),
            max_parallel=2,
            balance_penalty=D("0.9"),
        )
        result = msp.solve_branch_and_bound(inst)
        assert result.selection == ("a", "b")
        assert result == msp.solve_exhaustive(inst)

    def test_penalty_dominates_additions(self):
        inst = MspInstance(
            functions=(MonetaryFunction("k1", D(1), D(0)),),
            currencies=(currency("a", {"k1": "0.9"}, mandatory=True),
                        currency("b", {"k1": "0.8"})),
            max_parallel=2,
            balance_penalty=D("2"),
        )
        result = msp.solve_branch_and_bound(inst)
        assert result.selection == ("a",)

    def test_pool_size_guard(self):
        rng = random.Random(1)
        big = MspInstance(
            functions=(MonetaryFunction("k1", D(1), D(0)),),
            currencies=tuple(
                currency(f"c{i:02d}", {"k1": "0.5"}) for i in range(26)
            ),
            max_parallel=3,
        )
        with pytest.raises(SizeGuardError):
            msp.solve_exhaustive(big)


class TestInvalidInstanceRejected:
    # the solvers' cuts assume these invariants, so no instance that
    # breaks one can be built
    RULE = "must have at most 34 digits and an adjusted exponent within ±34"
    INVALID = {
        "negative penalty": (
            lambda inst: replace(inst, balance_penalty=D("-0.1")),
            ["/balance_penalty: must be nonnegative"]),
        "negative weight": (
            lambda inst: replace(
                inst, functions=(MonetaryFunction("k1", D(-1), D(0)),) + inst.functions[1:]),
            ["/functions/0/weight: weight must be nonnegative"]),
        "coverage above one": (
            lambda inst: replace(
                inst, currencies=inst.currencies + (currency("BIG", {"k1": "1.5"}),)),
            ["/currencies/4/coverage/k1: coverage must lie in [0, 1]"]),
        "empty pool": (
            lambda inst: replace(inst, currencies=()),
            ["/currencies: at least one currency candidate is required"]),
        "no parallel currency": (
            lambda inst: replace(inst, max_parallel=0),
            ["/max_parallel: must be a positive integer",
             "/max_parallel: 1 mandatory currencies exceed the cardinality bound 0"]),
        "weight too wide": (
            lambda inst: replace(
                inst,
                functions=(MonetaryFunction("k1", D("1E+999999999"), D(0)),) + inst.functions[1:]),
            [f"/functions/0/weight: weight {RULE}"]),
        "threshold too wide": (
            lambda inst: replace(
                inst,
                functions=(MonetaryFunction("k1", D(1), D("0." + "5" * 35)),) + inst.functions[1:]),
            [f"/functions/0/threshold: threshold {RULE}"]),
        "coverage too wide": (
            lambda inst: replace(
                inst, currencies=inst.currencies + (currency("TINY", {"k1": "1E-999999999"}),)),
            [f"/currencies/4/coverage/k1: coverage {RULE}"]),
        "penalty too wide": (
            lambda inst: replace(inst, balance_penalty=D("1E-999999999")),
            [f"/balance_penalty: balance_penalty {RULE}"]),
    }

    @pytest.mark.parametrize("defect", INVALID)
    def test_construction_raises_schema_error(self, defect):
        build, problems = self.INVALID[defect]
        with pytest.raises(SchemaError) as err:
            build(desk_instance())
        assert err.value.problems == problems

    ROUTES = {
        "reader": None,
        "solve linear bnb": ["solve"],
        "solve linear exhaustive": ["solve", "--method", "exhaustive"],
        "solve saturating bnb": ["solve", "--objective", "saturating"],
        "solve saturating exhaustive": ["solve", "--objective", "saturating",
                                        "--method", "exhaustive"],
        "check": ["check", "--select", "FIAT,RSDM"],
        "report": ["report", "--select", "FIAT,RSDM"],
    }

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("defect", INVALID)
    def test_every_route_refuses_the_document(self, defect, route, monkeypatch,
                                              tmp_path, capsys):
        # the defect cannot be built with the check on: build it once with
        # the check off to write the document a caller could hand in
        build, problems = self.INVALID[defect]
        with monkeypatch.context() as unchecked:
            unchecked.setattr(msp, "_invariant_violations", lambda instance: [])
            doc = msp.instance_to_json_dict(build(desk_instance()))
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(doc), encoding="utf-8")

        argv = self.ROUTES[route]
        if argv is None:
            with pytest.raises(SchemaError) as err:
                msp.instance_from_json_dict(json.loads(path.read_text(encoding="utf-8")))
            assert err.value.problems == problems
            return
        assert cli.main(["msp", argv[0], str(path), *argv[1:]]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "".join(f"error: {problem}\n" for problem in problems)

    def test_a_valid_instance_is_checked_once(self, monkeypatch, tmp_path, capsys):
        original = msp._invariant_violations
        calls = []

        def counted(instance):
            calls.append(instance)
            return original(instance)

        inst = desk_instance()
        monkeypatch.setattr(msp, "_invariant_violations", counted)
        selection = ["FIAT", "RSDM"]
        msp.solve_branch_and_bound(inst)
        for query in (msp.evaluate_linear_objective, msp.evaluate_saturating_objective,
                      msp.raw_function_scores, msp.check_feasible, msp.coverage_report):
            query(inst, selection)
        assert calls == []

        path = tmp_path / "desk.json"
        path.write_text(json.dumps(msp.instance_to_json_dict(inst)), encoding="utf-8")
        assert cli.main(["msp", "solve", str(path)]) == 0
        assert len(calls) == 1
        assert '"selection"' in capsys.readouterr().out


class TestSolverProperties:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_monotone_penalty(self, seed):
        rng = random.Random(seed)
        inst = make_random_instance(rng, max_currencies=8)
        low = msp.solve_branch_and_bound(inst)
        bumped = MspInstance(
            functions=inst.functions,
            currencies=inst.currencies,
            max_parallel=inst.max_parallel,
            balance_penalty=inst.balance_penalty + D("0.5"),
        )
        high = msp.solve_branch_and_bound(bumped)
        if not isinstance(low, Infeasible):
            assert not isinstance(high, Infeasible)  # feasibility unaffected
            assert len(high.selection) <= len(low.selection)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6), scale=st.sampled_from(["2", "0.5", "10"]))
    def test_joint_scaling_invariance(self, seed, scale):
        rng = random.Random(seed)
        inst = make_random_instance(rng, max_currencies=8)
        c = D(scale)
        scaled = MspInstance(
            functions=tuple(
                MonetaryFunction(f.id, f.weight * c, f.threshold) for f in inst.functions
            ),
            currencies=inst.currencies,
            max_parallel=inst.max_parallel,
            balance_penalty=inst.balance_penalty * c,
        )
        base = msp.solve_branch_and_bound(inst)
        result = msp.solve_branch_and_bound(scaled)
        if isinstance(base, Infeasible):
            assert isinstance(result, Infeasible)
        else:
            assert result.selection == base.selection
            assert result.objective == base.objective * c


class TestCoverageReport:
    def test_desk_fiat_only_uncovered(self):
        report = msp.coverage_report(desk_instance(), {"FIAT"})
        rows = {r.function_id: r for r in report.rows}
        assert not rows["k3"].covered
        assert rows["k1"].covered
        assert not report.all_covered

    def test_empty_selection_nothing_covered(self):
        report = msp.coverage_report(desk_instance(), set())
        assert not report.all_covered
        assert all(not r.covered for r in report.rows)

    def test_saturated_value_capped(self):
        inst = one_function_instance("0.8")
        report = msp.coverage_report(inst, {"c1", "c2"})
        assert report.rows[0].saturated_value == 1
        assert report.rows[0].achieved == D("1.6")


class TestValidateInstance:
    def test_well_formed(self):
        assert msp.validate_instance(desk_instance()) == []

    def test_wide_numbers_are_named_by_pointer(self):
        with pytest.raises(SchemaError) as err:
            replace(
                desk_instance(),
                functions=(MonetaryFunction("k1", D("1E+999999999"), D("1E+35")),)
                + desk_instance().functions[1:],
                balance_penalty=D("0." + "1" * 35),
            )
        rule = "must have at most 34 digits and an adjusted exponent within ±34"
        assert err.value.problems == [
            f"/balance_penalty: balance_penalty {rule}",
            f"/functions/0/weight: weight {rule}",
            f"/functions/0/threshold: threshold {rule}",
        ]

    def test_warnings_only_for_an_instance_that_keeps_the_invariants(self):
        unreachable = MspInstance(
            functions=(MonetaryFunction("k1", D(1), D("5")),),
            currencies=(currency("c1", {"k1": "1"}),),
            max_parallel=1,
        )
        assert [m[:9] for m in msp.validate_instance(unreachable)] == ["warning: "]
        with pytest.raises(SchemaError) as err:
            replace(unreachable, max_parallel=0)
        assert err.value.problems == ["/max_parallel: must be a positive integer"]

    def test_coverage_out_of_range(self):
        with pytest.raises(SchemaError) as err:
            MspInstance(
                functions=(MonetaryFunction("k1", D(1), D(0)),),
                currencies=(currency("c1", {"k1": "1.3"}),),
                max_parallel=1,
            )
        assert any("/currencies/0/coverage/k1" in m and "[0, 1]" in m for m in err.value.problems)

    def test_unreachable_threshold_is_warning(self):
        inst = MspInstance(
            functions=(MonetaryFunction("k1", D(1), D("5")),),
            currencies=(currency("c1", {"k1": "1"}), currency("c2", {"k1": "1"})),
            max_parallel=2,
        )
        report = msp.validate_instance(inst)
        assert any(m.startswith("warning:") and "unreachable" in m for m in report)

    def test_mandatory_exceeds_cardinality(self):
        with pytest.raises(SchemaError) as err:
            MspInstance(
                functions=(MonetaryFunction("k1", D(1), D(0)),),
                currencies=(currency("a", {"k1": "1"}, mandatory=True),
                            currency("b", {"k1": "1"}, mandatory=True)),
                max_parallel=1,
            )
        assert any("mandatory" in m for m in err.value.problems)


def instance_doc(**changes) -> dict:
    return {**msp.instance_to_json_dict(one_function_instance("0.5")), **changes}


def currency_doc(**changes) -> dict:
    return {"id": "c1", "class": "Fiat", "coverage": {"k1": "0.5"}, **changes}


class TestRejectionsNamedByPointer:
    # every shape check of the reader and every invariant below, each with
    # its exact JSON-pointer problems
    READER = {
        "document not an object": ([1], ["/: expected a JSON object"]),
        "functions not an array": (instance_doc(functions={"k1": {}}),
                                   ["/functions: expected an array"]),
        "currencies not an array": (instance_doc(currencies="c1"),
                                    ["/currencies: expected an array"]),
        "entries without an id": (
            instance_doc(functions=[{"weight": "1"}], currencies=[{"class": "Fiat"}, "c2"]),
            ["/functions/0: expected an object with an 'id'",
             "/currencies/0: expected an object with an 'id'",
             "/currencies/1: expected an object with an 'id'"]),
        "unknown class": (
            instance_doc(currencies=[currency_doc(**{"class": "Gold"})]),
            ["/currencies/0/class: unknown class 'Gold' (expected one of "
             "['Commodity', 'Crypto', 'Fiat', 'Other', 'RSDM'])"]),
        "coverage not an object": (
            instance_doc(currencies=[currency_doc(coverage=["k1"])]),
            ["/currencies/0/coverage: expected an object"]),
        "float and boolean coverage": (
            instance_doc(currencies=[currency_doc(coverage={"k1": 0.5}),
                                     currency_doc(id="c2", coverage={"k1": True})]),
            ["/currencies/0/coverage/k1: expected a decimal string",
             "/currencies/1/coverage/k1: expected a decimal string"]),
        "max_parallel a string": (instance_doc(max_parallel="2"),
                                  ["/max_parallel: expected an integer"]),
        "max_parallel a boolean": (instance_doc(max_parallel=True),
                                   ["/max_parallel: expected an integer"]),
    }

    @pytest.mark.parametrize("defect", READER)
    def test_reader(self, defect):
        doc, problems = self.READER[defect]
        with pytest.raises(SchemaError) as err:
            msp.instance_from_json_dict(doc)
        assert err.value.problems == problems

    INVARIANTS = {
        "no function": (
            dict(functions=(), currencies=(currency("c1", {}),)),
            ["/functions: at least one monetary function is required"]),
        "duplicate function id": (
            dict(functions=(MonetaryFunction("k1"), MonetaryFunction("k1"))),
            ["/functions/1/id: duplicate function id 'k1'"]),
        "coverage of an unknown function": (
            dict(currencies=(currency("c1", {"k1": "0.5", "k9": "0.5"}),)),
            ["/currencies/0/coverage/k9: unknown function id 'k9'"]),
    }

    @pytest.mark.parametrize("defect", INVARIANTS)
    def test_invariant(self, defect):
        changes, problems = self.INVARIANTS[defect]
        with pytest.raises(SchemaError) as err:
            replace(one_function_instance("0.5"), **changes)
        assert err.value.problems == problems

    @pytest.mark.parametrize("value", ["2", 2.0, True, None], ids=["str", "float", "bool", "none"])
    def test_max_parallel_of_an_instance_built_in_python(self, value):
        # the JSON reader refuses these first; the mandatory-count comparison,
        # which would raise TypeError, is skipped
        with pytest.raises(SchemaError) as err:
            replace(desk_instance(), max_parallel=value)
        assert err.value.problems == ["/max_parallel: expected an integer"]


class TestJsonInterchange:
    def test_round_trip(self):
        inst = desk_instance()
        doc = msp.instance_to_json_dict(inst)
        assert msp.instance_from_json_dict(doc) == inst

    def test_schema_error_pointers(self):
        with pytest.raises(SchemaError) as err:
            msp.instance_from_json_dict(
                {
                    "functions": [{"id": "k1", "weight": "x"}],
                    "currencies": [{"id": "c1", "coverage": {"k1": "0.5"}}],
                    "max_parallel": 1,
                }
            )
        assert any("/functions/0/weight" in p for p in err.value.problems)

    def test_missing_fields_reported(self):
        with pytest.raises(SchemaError) as err:
            msp.instance_from_json_dict({})
        assert any("/functions" in p for p in err.value.problems)
        assert any("/max_parallel" in p for p in err.value.problems)

    @pytest.mark.parametrize("flag", ["false", 1, None], ids=["str", "int", "null"])
    def test_mandatory_must_be_a_boolean(self, flag):
        # bool() would read "false" as mandatory
        doc = msp.instance_to_json_dict(desk_instance())
        doc["currencies"][0]["mandatory"] = flag
        with pytest.raises(SchemaError) as err:
            msp.instance_from_json_dict(doc)
        assert err.value.problems == ["/currencies/0/mandatory: expected a boolean"]

    def test_solution_document(self):
        result = msp.solve_exhaustive(desk_instance())
        doc = msp.solution_to_json_dict(result)
        assert doc["selection"] == ["FIAT", "RSDM"]
        assert doc["objective"] == "4.2"
        assert doc["objective_kind"] == "linear"

    def test_infeasible_document(self):
        doc = msp.solution_to_json_dict(Infeasible(("because",)))
        assert doc == {"infeasible": True, "reasons": ["because"]}


class TestDefaultCatalog:
    def test_twelve_functions(self):
        catalog = msp.default_function_catalog()
        assert len(catalog) == 12
        assert catalog[0].id == "F1_unit_of_account"
        assert all(f.weight == 1 and f.threshold == 0 for f in catalog)

    def test_configurable(self):
        catalog = msp.default_function_catalog(weight="2", threshold="0.5")
        assert all(f.weight == 2 and f.threshold == D("0.5") for f in catalog)


SOLVERS_BY_OBJECTIVE = (
    (msp.evaluate_linear_objective, (
        msp.solve_branch_and_bound,
        lambda inst: msp.solve_exhaustive(inst, ObjectiveKind.LINEAR),
    )),
    (msp.evaluate_saturating_objective, (
        msp.solve_saturating,
        lambda inst: msp.solve_exhaustive(inst, ObjectiveKind.SATURATING),
    )),
)


def assert_solvers_match_brute_force(inst: MspInstance) -> None:
    for evaluate, solvers in SOLVERS_BY_OBJECTIVE:
        best = brute_force_optimum(inst, evaluate)
        for solve in solvers:
            result = solve(inst)
            if best is None:
                assert isinstance(result, Infeasible)
            else:
                assert (result.objective, result.selection) == best


def test_brute_force_reference_matches_solver_on_desk():
    inst = desk_instance()
    assert brute_force_optimum(inst, msp.evaluate_linear_objective) == (D("4.2"), ("FIAT", "RSDM"))
    assert_solvers_match_brute_force(inst)


def test_brute_force_reference_matches_solvers_on_random_instances():
    rng = random.Random(20_351_231)
    for _ in range(60):
        # fewer functions leave more instances feasible (about half overall)
        n_functions = rng.randint(2, 12)
        assert_solvers_match_brute_force(
            make_random_instance(rng, max_currencies=9, n_functions=n_functions))


# ---------------------------------------------------------------------------
# The per-query loops the coverage tally replaced, kept as oracles
# ---------------------------------------------------------------------------


def reference_selection_set(instance, selection):
    sel = set(selection)
    unknown = sel - {c.id for c in instance.currencies}
    if unknown:
        raise DomainError(f"unknown currency ids in selection: {sorted(unknown)}")
    return sel


def reference_linear_objective(instance, selection):
    sel = reference_selection_set(instance, selection)
    with localcontext(EXACT):
        total = D(0)
        for c in instance.currencies:
            if c.id in sel:
                for f in instance.functions:
                    total += f.weight * c.score(f.id)
        return total - instance.balance_penalty * len(sel)


def reference_saturating_objective(instance, selection):
    sel = reference_selection_set(instance, selection)
    with localcontext(EXACT):
        total = D(0)
        for f in instance.functions:
            achieved = sum(
                (f.weight * c.score(f.id) for c in instance.currencies if c.id in sel), D(0))
            total += min(D(1), achieved)
        return total - instance.balance_penalty * len(sel)


def reference_raw_function_scores(instance, selection):
    sel = reference_selection_set(instance, selection)
    with localcontext(EXACT):
        return {
            f.id: sum((c.score(f.id) for c in instance.currencies if c.id in sel), D(0))
            for f in instance.functions
        }


def reference_check_feasible(instance, selection):
    sel = reference_selection_set(instance, selection)
    violations = []
    if len(sel) > instance.max_parallel:
        violations.append(
            f"cardinality: {len(sel)} currencies selected, at most "
            f"{instance.max_parallel} may circulate in parallel"
        )
    scores = reference_raw_function_scores(instance, sel)
    for f in instance.functions:
        if scores[f.id] < f.threshold:
            violations.append(f"threshold {f.id}: achieved {scores[f.id]}, required {f.threshold}")
    for c in instance.currencies:
        if c.mandatory and c.id not in sel:
            violations.append(f"mandatory: {c.id} must be included in the monetary system")
    return msp.FeasibilityVerdict(feasible=not violations, violations=tuple(violations))


def reference_coverage_report(instance, selection):
    sel = reference_selection_set(instance, selection)
    rows = []
    with localcontext(EXACT):
        for f in instance.functions:
            achieved = sum((c.score(f.id) for c in instance.currencies if c.id in sel), D(0))
            weighted = sum(
                (f.weight * c.score(f.id) for c in instance.currencies if c.id in sel), D(0))
            rows.append(msp.FunctionCoverage(
                function_id=f.id, achieved=achieved, threshold=f.threshold,
                saturated_value=min(D(1), weighted), covered=achieved >= f.threshold))
    return msp.CoverageReport(rows=tuple(rows), all_covered=all(r.covered for r in rows))


def reference_validate_instance(instance):
    problems = msp._invariant_violations(instance)
    with localcontext(EXACT):
        for i, f in enumerate(instance.functions):
            total = sum((c.score(f.id) for c in instance.currencies), D(0))
            if total < f.threshold:
                problems.append(
                    f"warning: /functions/{i}/threshold: threshold {f.threshold} "
                    f"unreachable (total coverage across the pool is {total})"
                )
    return problems


def reference_solution(instance, selection, kind):
    """What a solver returns for the selection its search picked."""
    evaluate = (reference_linear_objective if kind is ObjectiveKind.LINEAR
                else reference_saturating_objective)
    return msp.MspSolution(selection, evaluate(instance, selection), kind,
                           reference_raw_function_scores(instance, selection))


def exact(value):
    """*value* with every Decimal spelt out by ``as_tuple()`` and every
    mapping as its item list, so that a different last digit, exponent
    or key order compares unequal."""
    if isinstance(value, Decimal):
        return value.as_tuple()
    if hasattr(value, "_fields"):
        return (type(value).__name__, [exact(v) for v in value])
    if isinstance(value, dict):
        return [(k, exact(v)) for k, v in value.items()]
    if isinstance(value, (list, tuple)):
        return [exact(v) for v in value]
    return value


def outcome(query, *args):
    try:
        return exact(query(*args))
    except DomainError as exc:
        return ("DomainError", str(exc))


def wide_decimals(top_digits: int):
    """Nonnegative decimals below 10**top_digits: two-decimal ones, and
    34-digit mantissas, whose sums and products the 34-digit context
    would round."""
    return st.one_of(
        st.integers(0, 100 * 10**top_digits - 1).map(lambda k: D(k).scaleb(-2)),
        st.lists(st.integers(0, 9), min_size=34, max_size=34).map(
            lambda digits: D((0, tuple(digits), top_digits - 34))),
    )


def near_tie(draw, coverages):
    """A threshold at, or one unit in the 34th digit either side of, the
    pool's summed coverages rounded to 34 digits: where a sum rounded in
    another order would land on the other side."""
    with localcontext(EXACT):
        total = sum(coverages, D(0))
    with localcontext(CONTEXT):
        rounded = +total
        nearby = (rounded.next_minus(), rounded, rounded.next_plus())
    return draw(st.sampled_from(
        [t for t in nearby if t >= 0 and bound_violation("threshold", t) is None]))


@st.composite
def wide_instances(draw):
    n_functions = draw(st.integers(1, 5))
    n = draw(st.integers(1, 7))
    ids = [f"F{k}" for k in range(n_functions)]
    mandatory = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    coverages = [{fid: draw(wide_decimals(0)) for fid in ids if draw(st.booleans())}
                 for _ in range(n)]
    functions = tuple(
        MonetaryFunction(fid, draw(wide_decimals(1)),
                         near_tie(draw, [c.get(fid, D(0)) for c in coverages])
                         if draw(st.booleans()) else draw(wide_decimals(0)))
        for fid in ids)
    currencies = [CurrencyCandidate(f"C{i}", CurrencyClass.OTHER, coverage, mandatory[i])
                  for i, coverage in enumerate(coverages)]
    return MspInstance(
        functions=functions,
        currencies=tuple(draw(st.permutations(currencies))),
        max_parallel=draw(st.integers(max(1, sum(mandatory)), n)),
        balance_penalty=draw(wide_decimals(0)),
    )


def rounds_across_its_threshold() -> MspInstance:
    """Four coverages that sum to 3.0385610787833754995244792280362455,
    just short of the threshold; a 34-digit sum in the wrong order
    rounds up onto it."""
    coverages = ("0.9141777631706690743915000806360838",
                 "0.7835337406812415868344978690736626",
                 "0.8517812865707049996228303883685958",
                 "0.4890682883607598386756508899579033")
    return MspInstance(
        functions=(MonetaryFunction("F", D(1), D("3.038561078783375499524479228036246")),),
        currencies=tuple(currency(f"C{i}", {"F": u}) for i, u in enumerate(coverages)),
        max_parallel=4, balance_penalty=D("0.9"))


class TestSolversAgreeWithTheOracle:
    """Every sum is exact, so the bounded searches, which add in their
    own order, reach the oracle's selection, and ``check_feasible``
    accepts it. The pinned example has no feasible selection, so every
    solver must answer Infeasible."""

    @settings(max_examples=300, deadline=None)
    @given(inst=wide_instances())
    @example(inst=rounds_across_its_threshold())
    def test_every_solver_picks_the_oracle_selection(self, inst):
        for kind, solve in ((ObjectiveKind.LINEAR, msp.solve_branch_and_bound),
                            (ObjectiveKind.SATURATING, msp.solve_saturating)):
            expected = msp.solve_exhaustive(inst, kind)
            result = solve(inst)
            if isinstance(expected, Infeasible):
                assert isinstance(result, Infeasible)
            else:
                assert result.selection == expected.selection
                assert msp.check_feasible(inst, result.selection).feasible


class TestTallyMatchesTheReferenceLoops:
    QUERIES = (
        (msp.evaluate_linear_objective, reference_linear_objective),
        (msp.evaluate_saturating_objective, reference_saturating_objective),
        (msp.raw_function_scores, reference_raw_function_scores),
        (msp.check_feasible, reference_check_feasible),
        (msp.coverage_report, reference_coverage_report),
    )

    @settings(max_examples=200, deadline=None)
    @given(inst=wide_instances(), data=st.data())
    def test_queries_and_solvers(self, inst, data):
        assert msp.validate_instance(inst) == reference_validate_instance(inst)
        ids = [c.id for c in inst.currencies]
        # repeated ids, any order, and now and then an unknown one
        selection = data.draw(st.lists(st.sampled_from(ids + ["NOPE"]), max_size=9))
        for query, reference in self.QUERIES:
            assert outcome(query, inst, iter(selection)) == outcome(reference, inst, selection)
        for kind, solve in (
            (ObjectiveKind.LINEAR, msp.solve_branch_and_bound),
            (ObjectiveKind.LINEAR, lambda i: msp.solve_exhaustive(i, ObjectiveKind.LINEAR)),
            (ObjectiveKind.SATURATING, msp.solve_saturating),
            (ObjectiveKind.SATURATING, lambda i: msp.solve_exhaustive(i, ObjectiveKind.SATURATING)),
        ):
            result = solve(inst)
            if not isinstance(result, Infeasible):
                expected = reference_solution(inst, result.selection, kind)
                assert exact(result) == exact(expected)

    def test_duplicate_pool_ids_count_once(self):
        # a pool that names an id twice breaks an invariant, so no such
        # instance can be built and no id reaches the tally twice
        with pytest.raises(SchemaError) as err:
            replace(desk_instance(), currencies=desk_instance().currencies + (
                currency("GOLD", {"k1": "0.5", "k2": "0.5", "k3": "0.5"}),))
        assert err.value.problems == ["/currencies/4/id: duplicate currency id 'GOLD'"]


# ---------------------------------------------------------------------------
# The decimal search the integer one replaced, kept as an oracle
# ---------------------------------------------------------------------------


def reference_search(instance, kind, bounded):
    """The search the integer one replaced: the same walk, in exact
    decimals, with the bound Σ_f min(1, w_f + all remaining coverage) for
    the saturating kind and no jump at budget 0.

    ``committed`` is the part of the objective linear in the selection:
    the net marginals (linear) or minus the penalty per currency
    (saturating, which adds the per-function min(1, weighted coverage)).
    """
    saturating = kind is ObjectiveKind.SATURATING
    functions = instance.functions

    with localcontext(EXACT):
        penalty = instance.balance_penalty
        thresholds = [f.threshold for f in functions]
        # (candidate, raw scores, weighted scores, net marginal), scores
        # index-aligned with ``functions``
        rows = []
        for c in instance.currencies:
            raw_row = [c.score(f.id) for f in functions]
            weighted_row = [f.weight * u for f, u in zip(functions, raw_row)]
            rows.append((c, raw_row, weighted_row, sum(weighted_row, D(0)) - penalty))
        if bounded:
            rows.sort(key=lambda r: (r[3], r[0].id), reverse=True)
        n = len(rows)
        # sorted rows put the positive net marginals first, so a bound's
        # best picks from row p on are positive[p:p + budget]
        positive = [r[3] for r in rows if r[3] > 0]

        # suffix_raw[p], suffix_weighted[p]: coverage summed over candidates p..n-1
        zeros = [D(0)] * len(functions)
        suffix_raw = [zeros]
        suffix_weighted = [zeros]
        for _, raw_row, weighted_row, _ in reversed(rows):
            suffix_raw.append([s + u for s, u in zip(suffix_raw[-1], raw_row)])
            suffix_weighted.append([s + w for s, w in zip(suffix_weighted[-1], weighted_row)])
        suffix_raw.reverse()
        suffix_weighted.reverse()

        best_obj: Decimal | None = None
        best_sel: tuple[str, ...] | None = None
        chosen: list[str] = []

        def value(weighted: list[Decimal], committed: Decimal) -> Decimal:
            if saturating:
                return sum((min(D(1), w) for w in weighted), D(0)) + committed
            return committed

        def bound(p: int, weighted: list[Decimal], committed: Decimal, budget: int) -> Decimal:
            if not saturating:
                return committed + sum(positive[p:p + budget], D(0))
            if budget == 0:
                return value(weighted, committed)
            reachable = (min(D(1), w + s) for w, s in zip(weighted, suffix_weighted[p]))
            return sum(reachable, D(0)) + committed

        def node(p: int, raw: list[Decimal], weighted: list[Decimal], committed: Decimal) -> None:
            nonlocal best_obj, best_sel
            for total, rest, threshold in zip(raw, suffix_raw[p], thresholds):
                if total + rest < threshold:
                    return
            budget = instance.max_parallel - len(chosen)
            if bounded and best_obj is not None and bound(p, weighted, committed, budget) < best_obj:
                return
            if p == n:
                obj = value(weighted, committed)
                sel = tuple(sorted(chosen))
                # the shared tie-break: on equal objective the smaller sorted id tuple wins
                if best_obj is None or obj > best_obj or (obj == best_obj and sel < best_sel):
                    best_obj, best_sel = obj, sel
                return
            c, raw_row, weighted_row, marginal = rows[p]
            if budget > 0:
                chosen.append(c.id)
                node(
                    p + 1,
                    [a + u for a, u in zip(raw, raw_row)],
                    [a + w for a, w in zip(weighted, weighted_row)] if saturating else weighted,
                    committed - penalty if saturating else committed + marginal,
                )
                chosen.pop()
            if not c.mandatory:
                node(p + 1, raw, weighted, committed)

        node(0, zeros, zeros, D(0))

    if best_sel is None:
        return Infeasible(msp._infeasibility_reasons(instance))
    return msp._solution(instance, best_sel, kind)


#: (solver, objective, whether ``reference_search`` runs it with its bound)
SEARCHES = (
    (msp.solve_branch_and_bound, ObjectiveKind.LINEAR, True),
    (lambda inst: msp.solve_exhaustive(inst, ObjectiveKind.LINEAR), ObjectiveKind.LINEAR, False),
    (msp.solve_saturating, ObjectiveKind.SATURATING, True),
    (lambda inst: msp.solve_exhaustive(inst, ObjectiveKind.SATURATING),
     ObjectiveKind.SATURATING, False),
)

EVALUATE = {ObjectiveKind.LINEAR: msp.evaluate_linear_objective,
            ObjectiveKind.SATURATING: msp.evaluate_saturating_objective}


def solution_bytes(result) -> str:
    return json.dumps(msp.solution_to_json_dict(result))


def assert_every_search_agrees(inst: MspInstance) -> None:
    """Each solver's solution document is, byte for byte, the decimal
    reference search's and the one the brute-force optimum gives."""
    expected = {}
    for kind, evaluate in EVALUATE.items():
        best = brute_force_optimum(inst, evaluate)
        expected[kind] = solution_bytes(Infeasible(msp._infeasibility_reasons(inst)) if best is None
                                        else reference_solution(inst, best[1], kind))
    for solve, kind, bounded in SEARCHES:
        result = solution_bytes(solve(inst))
        assert result == solution_bytes(reference_search(inst, kind, bounded))
        assert result == expected[kind]


@st.composite
def tie_instances(draw):
    """Instances of up to 12 currencies built for ties and near-ties:
    34-digit values, candidates that copy another's coverage, thresholds
    at a pool sum (``near_tie``), and now and then a penalty equal to one
    candidate's weighted coverage, linear or saturated, so that adding
    that candidate alone nets exactly 0."""
    n_functions = draw(st.integers(1, 4))
    n = draw(st.integers(1, 12))
    ids = [f"F{k}" for k in range(n_functions)]
    coverages = []
    for _ in range(n):
        if coverages and draw(st.booleans()):
            coverages.append(draw(st.sampled_from(coverages)))
        else:
            coverages.append({fid: draw(wide_decimals(0)) for fid in ids if draw(st.booleans())})
    weights = {fid: draw(wide_decimals(1)) for fid in ids}
    with localcontext(EXACT):
        weighted = [[weights[fid] * u for fid, u in coverage.items()] for coverage in coverages]
        marginals = [sum(row, D(0)) for row in weighted]
        marginals += [sum((min(D(1), w) for w in row), D(0)) for row in weighted]
    marginals = [m for m in marginals if bound_violation("balance_penalty", m) is None]
    penalty = (draw(st.sampled_from(marginals)) if marginals and draw(st.booleans())
               else draw(wide_decimals(0)))

    def threshold(fid: str) -> Decimal:
        # 0 half the time, so that most instances have a feasible selection
        pick = draw(st.integers(0, 3))
        if pick == 2:
            return draw(wide_decimals(0))
        if pick == 3:
            return near_tie(draw, [c.get(fid, D(0)) for c in coverages])
        return D(0)

    functions = tuple(MonetaryFunction(fid, weights[fid], threshold(fid)) for fid in ids)
    mandatory = [draw(st.integers(0, 5)) == 0 for _ in range(n)]
    currencies = [CurrencyCandidate(f"C{i:02d}", CurrencyClass.OTHER, coverage, mandatory[i])
                  for i, coverage in enumerate(coverages)]
    # in half the draws a cardinality bound of at most 3, which binds
    low = max(1, sum(mandatory))
    return MspInstance(
        functions=functions,
        currencies=tuple(draw(st.permutations(currencies))),
        max_parallel=draw(st.integers(low, draw(st.sampled_from([max(low, 3), n + 2])))),
        balance_penalty=penalty,
    )


class TestIntegerSearchMatchesTheDecimalSearch:
    @settings(max_examples=100, deadline=None)
    @given(inst=tie_instances())
    def test_every_solver_under_both_objectives(self, inst):
        assert_every_search_agrees(inst)

    def test_a_full_selection_with_a_mandatory_candidate_ahead_is_dead(self):
        # including A uses the whole budget while the mandatory M is still
        # ahead, in pool order and in marginal order alike: that node has
        # no feasible completion, so M alone is the optimum
        inst = MspInstance(
            functions=(MonetaryFunction("k1", D(1), D(0)),),
            currencies=(currency("A", {"k1": "0.9"}),
                        currency("M", {"k1": "0.1"}, mandatory=True)),
            max_parallel=1,
        )
        for solve, _, _ in SEARCHES:
            assert solve(inst).selection == ("M",)
        assert_every_search_agrees(inst)

    @pytest.mark.parametrize("threshold, penalty, mandatory, selection", [
        ("0", "0.6", False, ()),
        ("0", "0.6", True, ("c1",)),
        ("0.5", "0.6", False, ("c1",)),
        ("0", "0.1", False, ("c1",)),
        ("0.6", "0", False, None),
    ])
    def test_a_pool_of_one(self, threshold, penalty, mandatory, selection):
        inst = MspInstance(
            functions=(MonetaryFunction("k1", D(1), D(threshold)),),
            currencies=(currency("c1", {"k1": "0.5"}, mandatory=mandatory),),
            max_parallel=1,
            balance_penalty=D(penalty),
        )
        for solve, _, _ in SEARCHES:
            result = solve(inst)
            if selection is None:
                assert isinstance(result, Infeasible)
            else:
                assert result.selection == selection
        assert_every_search_agrees(inst)

    @pytest.mark.parametrize("max_parallel", [3, 4, 9])
    def test_a_cardinality_bound_at_or_past_the_pool(self, max_parallel):
        inst = MspInstance(
            functions=(MonetaryFunction("k1", D(1), D(0)), MonetaryFunction("k2", D("0.5"), D("0.3"))),
            currencies=(currency("a", {"k1": "0.6", "k2": "0.2"}), currency("b", {"k1": "0.7"}),
                        currency("c", {"k2": "0.9"})),
            max_parallel=max_parallel,
            balance_penalty=D("0.05"),
        )
        assert msp.solve_branch_and_bound(inst).selection == ("a", "b", "c")
        assert msp.solve_saturating(inst).selection == ("a", "b", "c")
        assert_every_search_agrees(inst)


@st.composite
def grid_tie_instances(draw):
    """Tie-heavy instances of up to 12 currencies: coverage, weights and
    penalty on a 0.1 grid, candidates that copy another's coverage, every
    threshold 0 and about one candidate in four mandatory, so many
    selections share the optimum and the tie-break decides."""
    n_functions = draw(st.integers(1, 4))
    n = draw(st.integers(1, 12))
    ids = [f"F{k}" for k in range(n_functions)]
    tenths = st.integers(0, 10).map(lambda k: D(k).scaleb(-1))
    coverages = []
    for _ in range(n):
        if coverages and draw(st.integers(0, 2)):
            coverages.append(draw(st.sampled_from(coverages)))
        else:
            coverages.append({fid: draw(tenths) for fid in ids if draw(st.booleans())})
    mandatory = [draw(st.integers(0, 3)) == 0 for _ in range(n)]
    low = max(1, sum(mandatory))
    return MspInstance(
        functions=tuple(MonetaryFunction(fid, draw(st.sampled_from([D(1), D("0.5"), D("1.5")])))
                        for fid in ids),
        currencies=tuple(draw(st.permutations(
            [CurrencyCandidate(f"C{i:02d}", CurrencyClass.OTHER, coverage, mandatory[i])
             for i, coverage in enumerate(coverages)]))),
        max_parallel=draw(st.integers(low, draw(st.sampled_from([max(low, 3), n + 2])))),
        balance_penalty=draw(st.integers(0, 5).map(lambda k: D(k).scaleb(-1))),
    )


class TestTheStackSearch:
    """The search is one loop over an explicit stack: it scores a node
    with one pick left at once and cuts a tied node that cannot reach a
    smaller id tuple than the incumbent's."""

    @settings(max_examples=150, deadline=None)
    @given(inst=grid_tie_instances())
    def test_tie_heavy_instances_match_the_reference_search(self, inst):
        assert_every_search_agrees(inst)

    @pytest.mark.parametrize("solve, selection", [
        (msp.solve_branch_and_bound, tuple(f"C{i:04d}" for i in range(1100))),
        (msp.solve_saturating, tuple(f"C{i:04d}" for i in range(1000))),
    ], ids=["linear", "saturating"])
    def test_a_pool_of_1100_raises_no_recursion_error(self, solve, selection):
        # the recursive search this loop replaced raised RecursionError here
        inst = MspInstance(
            functions=(MonetaryFunction("k1"),),
            currencies=tuple(currency(f"C{i:04d}", {"k1": "0.001"}) for i in range(1100)),
            max_parallel=1100,
        )
        result = solve(inst)
        assert result.selection == selection
        assert result.objective == (D("1.100") if solve is msp.solve_branch_and_bound else 1)

    # Each instance reaches a node with one pick left (B included) while
    # the rows after it hold no, one or two mandatory candidates, in
    # instance order and in net-marginal order alike.
    @pytest.mark.parametrize("mandatory, selection", [
        ((), ("A", "B")),
        (("M1",), ("B", "M1")),
        (("M1", "M2"), ("M1", "M2")),
    ], ids=["none-left", "one-left", "two-left"])
    def test_the_last_pick_obeys_the_mandatory_rule(self, mandatory, selection):
        inst = MspInstance(
            functions=(MonetaryFunction("k1"), MonetaryFunction("k2")),
            currencies=(currency("B", {"k1": "0.9", "k2": "0.4"}),
                        currency("A", {"k1": "0.5", "k2": "0.5"}),
                        currency("M1", {"k1": "0.3"}, mandatory="M1" in mandatory),
                        currency("M2", {"k2": "0.2"}, mandatory="M2" in mandatory)),
            max_parallel=2,
            balance_penalty=D("0.1"),
        )
        for solve, _, _ in SEARCHES:
            assert solve(inst).selection == selection
        assert_every_search_agrees(inst)

    @pytest.mark.parametrize("coverages, selection", [
        # Z alone saturates the function, so the search finds (A, Z)
        # first; the tied subtree that excludes Z holds (A, B)
        ({"B": {"k1": "0.5"}, "Z": {"k1": "1"}, "A": {"k1": "0.5"}}, ("A", "B")),
        # Z, then Y, lead in marginal order, so the search finds (A, Z)
        # first; the tied node that holds Y alone does not sort before
        # it, but adding A from below Y does
        ({"Z": {"k1": "1", "k2": "0.5"}, "Y": {"k1": "1", "k2": "0.4"}, "A": {"k2": "0.6"}},
         ("A", "Y")),
    ], ids=["empty-selection", "lower-id-ahead"])
    def test_a_tied_subtree_holding_a_smaller_tuple_is_searched(self, coverages, selection):
        inst = MspInstance(
            functions=(MonetaryFunction("k1"), MonetaryFunction("k2")),
            currencies=tuple(currency(cid, coverage) for cid, coverage in coverages.items()),
            max_parallel=2,
        )
        assert msp.solve_saturating(inst).selection == selection
        assert msp.solve_exhaustive(inst, ObjectiveKind.SATURATING).selection == selection
        assert_every_search_agrees(inst)


class TestMandatoryRowsFirst:
    """Every walk decides the mandatory candidates first, on one chain of
    include-only nodes, so they are all in before any incumbent exists."""

    @pytest.mark.parametrize("max_parallel, selection", [
        (2, ("Z1", "Z2")),
        (3, ("A", "Z1", "Z2")),
    ], ids=["budget-filled", "one-pick-left"])
    def test_mandatory_rows_with_the_worst_marginals_and_the_last_ids(self, max_parallel, selection):
        # the mandatory rows sort last by marginal and by id, and at
        # max_parallel 2 they leave no budget for a pick
        inst = MspInstance(
            functions=(MonetaryFunction("k1"), MonetaryFunction("k2")),
            currencies=(currency("A", {"k1": "0.9", "k2": "0.8"}),
                        currency("B", {"k1": "0.7", "k2": "0.6"}),
                        currency("Z1", {"k1": "0.1"}, mandatory=True),
                        currency("Z2", {}, mandatory=True)),
            max_parallel=max_parallel,
            balance_penalty=D("0.2"),
        )
        for solve, _, _ in SEARCHES:
            assert solve(inst).selection == selection
        assert_every_search_agrees(inst)

    def test_mandatory_rows_alone_out_of_reach_of_a_threshold(self):
        inst = MspInstance(
            functions=(MonetaryFunction("k1", threshold=D("0.5")),),
            currencies=(currency("A", {"k1": "0.9"}),
                        currency("M", {"k1": "0.1"}, mandatory=True)),
            max_parallel=1,
        )
        for solve, _, _ in SEARCHES:
            assert isinstance(solve(inst), Infeasible)
        assert_every_search_agrees(inst)


class TestEqualScoresSpeltApart:
    """The search converts each distinct score once, keyed by value, so
    equal scores spelt differently share one conversion; every document
    still matches the decimal reference, which keeps each spelling."""

    @pytest.mark.parametrize("max_parallel, penalty", [(1, "0"), (2, "0.1"), (3, "0.50"), (4, "5E-1")])
    def test_every_solver_under_both_objectives(self, max_parallel, penalty):
        inst = MspInstance(
            functions=(MonetaryFunction("k1", D("1"), D("0.50")),
                       MonetaryFunction("k2", D("1.0"), D("5E-1")),
                       MonetaryFunction("k3", D("2"), D("0"))),
            currencies=(currency("A", {"k1": "0.5", "k2": "0.50", "k3": "0.00"}),
                        currency("B", {"k1": "0.50", "k2": "5E-1"}),
                        currency("C", {"k1": "5E-1", "k2": "0.5", "k3": "0E-3"}),
                        currency("D", {"k2": "0.500", "k3": "0.25"}),
                        currency("E", {"k1": "50E-2", "k3": "2.5E-1"})),
            max_parallel=max_parallel,
            balance_penalty=D(penalty),
        )
        assert_every_search_agrees(inst)


class TestMaxParallelIsAnInvariant:
    def test_a_non_integer_max_parallel_is_listed_with_the_other_violations(self):
        doc = instance_doc(max_parallel="2",
                           currencies=[currency_doc(coverage={"k1": "1.5"})])
        with pytest.raises(SchemaError) as err:
            msp.instance_from_json_dict(doc)
        assert err.value.problems == ["/max_parallel: expected an integer",
                                      "/currencies/0/coverage/k1: coverage must lie in [0, 1]"]


class TestResultRecords:
    """A record is a frozen dataclass only when its ``__post_init__``
    checks or coerces it; every other record is a named tuple."""

    def test_only_a_record_that_checks_itself_is_a_dataclass(self):
        unchecked = {cls.__qualname__
                     for module in (decay, demand, ledger, msp, solvency)
                     for cls in vars(module).values()
                     if isinstance(cls, type) and cls.__module__ == module.__name__
                     and is_dataclass(cls) and "__post_init__" not in vars(cls)}
        # ledger.Quantity stays until redeem returns its payout as a bare Decimal
        assert unchecked == {"Quantity"}

    def test_a_solution_is_a_named_tuple(self):
        check_result_record(
            msp.solve_saturating(desk_instance()),
            ("selection", "objective", "objective_kind", "per_function_score"),
            "MspSolution(selection=('FIAT', 'GOLD'), objective=Decimal('2.8'), "
            "objective_kind=<ObjectiveKind.SATURATING: 'saturating'>, "
            "per_function_score={'k1': Decimal('1'), 'k2': Decimal('1.2'), 'k3': Decimal('1')})",
            hashable=False)

    def test_an_infeasible_answer_is_a_named_tuple(self):
        inst = MspInstance(functions=(MonetaryFunction("k1", D(1), D("1.5")),),
                           currencies=(currency("c1", {"k1": "1"}), currency("c2", {"k1": "0.4"})),
                           max_parallel=1, balance_penalty=D(0))
        check_result_record(
            msp.solve_branch_and_bound(inst), ("reasons",),
            "Infeasible(reasons=('threshold k1: 1.5 unreachable even selecting every candidate "
            "(total coverage 1.4)',))")

    def test_a_verdict_is_a_named_tuple(self):
        check_result_record(
            msp.check_feasible(desk_instance(), ("GOLD", "BTC")), ("feasible", "violations"),
            "FeasibilityVerdict(feasible=False, violations=('threshold k1: achieved 0.2, required 0.5', "
            "'mandatory: FIAT must be included in the monetary system'))")

    def test_a_coverage_report_and_its_rows_are_named_tuples(self):
        report = msp.coverage_report(desk_instance(), ("FIAT", "RSDM"))
        rows = [f"FunctionCoverage(function_id='{fid}', achieved=Decimal('{achieved}'), "
                "threshold=Decimal('0.5'), saturated_value=Decimal('1'), covered=True)"
                for fid, achieved in (("k1", "1.6"), ("k2", "1.8"), ("k3", "1"))]
        check_result_record(
            report.rows[0], ("function_id", "achieved", "threshold", "saturated_value", "covered"), rows[0])
        check_result_record(report, ("rows", "all_covered"),
                            f"CoverageReport(rows=({', '.join(rows)}), all_covered=True)")
