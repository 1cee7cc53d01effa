"""Issuer fee-vs-storage economics: profit, cost, bankruptcy, breakeven."""

import csv
import io
from datetime import date
from decimal import Decimal, localcontext
from fractions import Fraction
from importlib import resources
from itertools import zip_longest

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import check_result_record
from rsdm import decay, solvency
from rsdm.errors import DomainError
from rsdm.numeric import CONTEXT, EXACT
from rsdm.solvency import (
    FeeKind,
    FeeSchedule,
    IssuerBook,
    RedemptionRecord,
    SolvencyTimeline,
    TimelinePoint,
)

fees = st.decimals(min_value=Decimal("0"), max_value=Decimal("10"),
                   allow_nan=False, allow_infinity=False, places=4)
rates = st.decimals(min_value=Decimal("0.0001"), max_value=Decimal("1"),
                    allow_nan=False, allow_infinity=False, places=4)


class TestGrossProfit:
    def test_empty(self):
        assert solvency.gross_profit([], Decimal("1")) == 0

    def test_single(self):
        rec = RedemptionRecord("k", 10, 0, 5)
        assert solvency.gross_profit([rec], Decimal("0.5")) == 5

    def test_two_customers(self):
        recs = [RedemptionRecord("a", 3, 0, 1), RedemptionRecord("b", 7, 0, 2)]
        assert solvency.gross_profit(recs, Decimal("1")) == 10

    def test_negative_fee_rejected(self):
        with pytest.raises(DomainError):
            solvency.gross_profit([], Decimal("-1"))

    def test_leaves_the_shared_contexts_unflagged(self):
        # the 41-digit income rounds, and CONTEXT is documented as never mutated
        CONTEXT.clear_flags()
        EXACT.clear_flags()
        fee = "0.1234567890123456789012345678901234"
        profit = solvency.gross_profit([RedemptionRecord("a", 7777777, 0, None)], fee)
        assert profit == _rounded_once(Fraction(fee) * 7777777)
        assert [s for s, on in CONTEXT.flags.items() if on] == []
        assert [s for s, on in EXACT.flags.items() if on] == []

    def test_additive_over_disjoint_lists(self):
        a = [RedemptionRecord("a", 3, 0, 1)]
        b = [RedemptionRecord("b", 2, 5, 9), RedemptionRecord("c", 4, 1, None)]
        fee = Decimal("0.7")
        assert (solvency.gross_profit(a + b, fee)
                == solvency.gross_profit(a, fee) + solvency.gross_profit(b, fee))


class TestWarehouseCost:
    def test_held_thirty_days(self):
        rec = RedemptionRecord("k", 1, 0, 30)
        assert solvency.warehouse_cost([rec], Decimal("0.01"), 30) == Decimal("0.3")

    def test_zero_holding(self):
        rec = RedemptionRecord("k", 5, 10, 10)
        assert solvency.warehouse_cost([rec], Decimal("0.01"), 10) == 0

    def test_two_records(self):
        recs = [RedemptionRecord("a", 2, 0, 10), RedemptionRecord("b", 1, 0, 4)]
        assert solvency.warehouse_cost(recs, Decimal("0.5"), 10) == 12

    def test_open_position_costed_through_as_of(self):
        rec = RedemptionRecord("k", 1, 0, None)
        assert solvency.warehouse_cost([rec], Decimal("0.01"), 100) == 1

    def test_redemption_after_as_of_is_clipped(self):
        # bought day 0, redeemed day 100: by day 50 only 50 days are owed
        rec = RedemptionRecord("k", 1, 0, 100)
        assert solvency.warehouse_cost([rec], Decimal("0.01"), 50) == Decimal("0.5")
        assert solvency.warehouse_cost([rec], Decimal("0.01"), 100) == 1
        assert solvency.warehouse_cost([rec], Decimal("0.01"), 150) == 1

    def test_as_of_before_purchase_rejected(self):
        rec = RedemptionRecord("k", 1, 50, None)
        with pytest.raises(DomainError):
            solvency.warehouse_cost([rec], Decimal("0.01"), 49)


class TestBankruptcy:
    def test_boundary_is_solvent(self):
        assert not solvency.is_bankrupt(Decimal("5"), Decimal("5"))

    def test_strictly_below(self):
        assert solvency.is_bankrupt(Decimal("5"), Decimal("5.01"))

    def test_zero_zero(self):
        assert not solvency.is_bankrupt(Decimal("0"), Decimal("0"))


class TestBreakevenHorizon:
    def test_exact_ratio(self):
        assert solvency.breakeven_horizon(Decimal("0.3"), Decimal("0.01")) == 31

    def test_zero_fee(self):
        assert solvency.breakeven_horizon(Decimal("0"), Decimal("0.01")) == 1

    def test_fractional_ratio(self):
        assert solvency.breakeven_horizon(Decimal("0.295"), Decimal("0.01")) == 30

    def test_zero_rate_never_bankrupt(self):
        assert solvency.breakeven_horizon(Decimal("1"), Decimal("0")) is None

    @pytest.mark.parametrize("fee, rate", [("1", "1E-999999"), ("1E+9999999", "1"),
                                           ("1" * 35, "1"), ("1", "0E-35")])
    def test_breakeven_rejects_values_wider_than_a_spec_field(self, fee, rate):
        # Fraction would build (or print) an integer of millions of digits
        with pytest.raises(DomainError, match="adjusted exponent within"):
            solvency.breakeven_horizon(fee, rate)

    @pytest.mark.parametrize("schedule", [
        lambda: FeeSchedule.flat("1E+999999999", "1"),
        lambda: FeeSchedule.flat("0.03", "1E+999999999"),
        lambda: FeeSchedule.mean_holding_based("1E+999999", "1"),
        lambda: FeeSchedule.deadline_based(10, "1E-99999999"),
    ], ids=["flat-fee", "rate", "mean-days", "deadline-rate"])
    def test_schedule_rejects_values_wider_than_a_spec_field(self, schedule):
        # unchecked, the timeline's context sums overflow
        with pytest.raises(DomainError, match="adjusted exponent within"):
            schedule()

    @given(fee=fees, rate=rates, tokens=st.integers(1, 1000))
    def test_breakeven_consistency(self, fee, rate, tokens):
        horizon = solvency.breakeven_horizon(fee, rate)
        floor_days = int(Fraction(fee) / Fraction(rate))
        rec_before = [RedemptionRecord("k", tokens, 0, floor_days)]
        rec_at = [RedemptionRecord("k", tokens, 0, horizon)]
        assert not solvency.is_bankrupt(
            solvency.gross_profit(rec_before, fee),
            solvency.warehouse_cost(rec_before, rate, floor_days),
        )
        assert solvency.is_bankrupt(
            solvency.gross_profit(rec_at, fee),
            solvency.warehouse_cost(rec_at, rate, horizon),
        )


class TestPrepaidFees:
    def test_deadline_fee(self):
        assert solvency.deadline_fee(0, 100, Decimal("0.01")) == 1

    def test_deadline_at_purchase(self):
        assert solvency.deadline_fee(100, 100, Decimal("0.01")) == 0

    def test_deadline_halfway(self):
        assert solvency.deadline_fee(50, 100, Decimal("0.02")) == 1

    def test_deadline_before_purchase_rejected(self):
        with pytest.raises(DomainError):
            solvency.deadline_fee(100, 50, Decimal("0.01"))

    @pytest.mark.parametrize("args, message", [
        ((True, 10, "0.1"), "purchase day must be an integer, got bool"),
        ((0, 10.5, "0.1"), "deadline day must be an integer, got float"),
        (("0", 10, "0.1"), "purchase day must be an integer, got str"),
        ((0, None, "0.1"), "deadline day must be an integer, got NoneType"),
        ((True, 10.5, "-1"), "warehouse rate must be nonnegative"),
    ])
    def test_deadline_fee_checks_its_days(self, args, message):
        with pytest.raises(DomainError) as err:
            solvency.deadline_fee(*args)
        assert str(err.value) == message

    def test_mean_holding_fee(self):
        assert solvency.mean_holding_fee(Decimal("0"), Decimal("0.01")) == 0
        assert solvency.mean_holding_fee(Decimal("365"), Decimal("0.001")) == Decimal("0.365")
        assert solvency.mean_holding_fee(Decimal("30"), Decimal("0.01")) == Decimal("0.3")

    @given(purchase=st.integers(0, 500), hold=st.integers(0, 500), rate=rates)
    def test_deadline_fee_prefunds_storage_exactly(self, purchase, hold, rate):
        deadline = purchase + hold
        rec = RedemptionRecord("k", 1, purchase, deadline)
        assert (solvency.deadline_fee(purchase, deadline, rate)
                == solvency.warehouse_cost([rec], rate, deadline))


class TestCase3Insolvency:
    def test_failed_investment(self):
        book = IssuerBook(Decimal("10"), Decimal("100"), Decimal("-5"), Decimal("6"))
        assert solvency.case3_insolvent(book)

    def test_boundary_solvent(self):
        book = IssuerBook(Decimal("0"), Decimal("0"), Decimal("0"), Decimal("0"))
        assert not solvency.case3_insolvent(book)

    def test_healthy_book(self):
        book = IssuerBook(Decimal("100"), Decimal("500"), Decimal("1"), Decimal("50"))
        assert not solvency.case3_insolvent(book)

    @pytest.mark.parametrize("field, value", [
        ("own_reserves", "1E+999999999"),
        ("customer_deposits", "0." + "1" * 35),
        ("period_income", "-1E-999999999"),
        ("period_expenses", "1E+35"),
    ])
    def test_each_field_follows_the_width_rule(self, field, value):
        fields = {"own_reserves": "1", "customer_deposits": "0", "period_income": "0",
                  "period_expenses": "5", field: value}
        with pytest.raises(DomainError) as err:
            IssuerBook(**fields)
        assert str(err.value) == (f"{field} must have at most 34 digits and an "
                                  "adjusted exponent within ±34")


class TestSimulateIssuer:
    def test_never_redeeming_customer_matches_breakeven(self):
        recs = [RedemptionRecord("k", 1, 10, None)]
        schedule = FeeSchedule.flat(Decimal("0.3"), Decimal("0.01"))
        timeline = solvency.simulate_issuer(recs, schedule, 60)
        assert timeline.first_bankrupt_day == 10 + 31

    def test_zero_rate_never_bankrupt(self):
        recs = [RedemptionRecord("k", 5, 0, None)]
        schedule = FeeSchedule.flat(Decimal("0.3"), Decimal("0"))
        timeline = solvency.simulate_issuer(recs, schedule, 2000)
        assert timeline.first_bankrupt_day is None

    def test_large_fee_outlasts_horizon(self):
        recs = [RedemptionRecord("k", 2, 0, None)]
        schedule = FeeSchedule.flat(Decimal("100"), Decimal("0.01"))
        timeline = solvency.simulate_issuer(recs, schedule, 500)
        assert timeline.first_bankrupt_day is None
        assert all(not p.bankrupt for p in timeline.points)

    def test_multiple_customers_first_breakeven_wins(self):
        # all share the flat fee: earliest purchase breaks even first
        recs = [
            RedemptionRecord("early", 10, 5, None),
            RedemptionRecord("late", 10, 50, None),
        ]
        schedule = FeeSchedule.flat(Decimal("0.2"), Decimal("0.01"))
        timeline = solvency.simulate_issuer(recs, schedule, 200)
        assert timeline.first_bankrupt_day == 5 + solvency.breakeven_horizon(
            Decimal("0.2"), Decimal("0.01")
        )

    def test_deadline_schedule_prefunds_to_deadline(self):
        # fee prefunds storage exactly to the deadline: solvency holds
        # through it and fails strictly after
        recs = [RedemptionRecord("k", 3, 0, None)]
        schedule = FeeSchedule.deadline_based(40, Decimal("0.01"))
        timeline = solvency.simulate_issuer(recs, schedule, 80)
        by_day = {p.day: p.bankrupt for p in timeline.points}
        assert not by_day[40]
        assert by_day[41]

    def test_timeline_csv_shape(self):
        recs = [RedemptionRecord("k", 1, 0, 2)]
        schedule = FeeSchedule.flat(Decimal("1"), Decimal("0.1"))
        text = solvency.simulate_issuer(recs, schedule, 2).to_csv()
        lines = text.strip().splitlines()
        assert lines[0] == "day,cum_profit,cum_cost,bankrupt"
        assert lines[1].startswith("0,1,0")
        assert len(lines) == 4

    def test_timeline_csv_is_what_a_csv_writer_writes(self):
        # negative days, a 1E-30 rate written out in full, and both bankrupt values
        recs = [RedemptionRecord("a", 3, -5, -2), RedemptionRecord("b", 10**9, -4, None)]
        timeline = solvency.simulate_issuer(recs, FeeSchedule.flat("0", "1E-30"), 3)
        assert {p.bankrupt for p in timeline.points} == {False, True}
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["day", "cum_profit", "cum_cost", "bankrupt"])
        for p in timeline.points:
            writer.writerow([p.day, format(p.cum_profit, "f"), format(p.cum_cost, "f"),
                             str(p.bankrupt).lower()])
        assert timeline.to_csv() == buf.getvalue()
        zero, tiny = format(Decimal("0E-30"), "f"), format(Decimal("3E-30"), "f")
        assert f"\n-5,0,{zero},false\n-4,0,{tiny},true\n" in buf.getvalue()

    def test_span_past_the_limit_is_rejected(self):
        # the span counts from the first purchase day, both ends included
        recs = [RedemptionRecord("k", 1, 100, None)]
        schedule = FeeSchedule.flat(Decimal("1"), Decimal("0.1"))
        with pytest.raises(DomainError, match="exceeds the limit of 36525 days"):
            solvency.simulate_issuer(recs, schedule, 100 + solvency.MAX_SIMULATED_DAYS)


    def test_a_point_is_immutable_and_hashable(self):
        recs = [RedemptionRecord("k", 1, 0, 2)]
        schedule = FeeSchedule.flat(Decimal("1"), Decimal("0.1"))
        point = solvency.simulate_issuer(recs, schedule, 2).points[1]
        with pytest.raises(AttributeError):
            point.bankrupt = True
        assert point == TimelinePoint(1, Decimal("1"), Decimal("0.1"), False)
        assert {point: "day 1"}[TimelinePoint(1, Decimal("1"), Decimal("0.1"), False)] == "day 1"

    def test_a_timeline_is_a_plain_named_tuple(self):
        timeline = solvency.simulate_issuer([RedemptionRecord("k", 1, 0, 2)],
                                            FeeSchedule.flat(Decimal("1"), Decimal("0.1")), 2)
        check_result_record(
            timeline, ("points", "first_bankrupt_day"),
            "SolvencyTimeline(points=(TimelinePoint(day=0, cum_profit=Decimal('1'), cum_cost=Decimal('0.0'), "
            "bankrupt=False), TimelinePoint(day=1, cum_profit=Decimal('1'), cum_cost=Decimal('0.1'), "
            "bankrupt=False), TimelinePoint(day=2, cum_profit=Decimal('1'), cum_cost=Decimal('0.2'), "
            "bankrupt=False)), first_bankrupt_day=None)")


class TestFeeSchedule:
    def test_flat_requires_nonnegative(self):
        with pytest.raises(DomainError):
            FeeSchedule.flat(Decimal("-0.1"), Decimal("0.01"))

    def test_flat_without_a_fee_rejected(self):
        # unchecked, simulate_issuer multiplied None by the token count
        with pytest.raises(DomainError, match="a flat fee schedule sets flat_fee_per_token"):
            FeeSchedule(FeeKind.FLAT, Decimal("0.01"))

    def test_fee_given_as_text_is_coerced(self):
        # unchecked, the timeline added the str to a Decimal
        schedule = FeeSchedule(FeeKind.FLAT, "0.0001", flat_fee_per_token="0.03")
        assert schedule.flat_fee_per_token == Decimal("0.03") and schedule.warehouse_rate == Decimal("0.0001")
        timeline = solvency.simulate_issuer([RedemptionRecord("k", 10, 0, None)], schedule, 2)
        assert timeline.points[0].cum_profit == Decimal("0.30")

    def test_deadline_without_a_day_rejected(self):
        with pytest.raises(DomainError, match="a deadline fee schedule sets deadline_day"):
            FeeSchedule(FeeKind.DEADLINE_BASED, Decimal("0.01"))

    @pytest.mark.parametrize("day", ["10", True, 10.0])
    def test_deadline_day_must_be_an_integer(self, day):
        # unchecked, simulate_issuer compared the str with the purchase day
        with pytest.raises(DomainError, match="deadline day must be an integer"):
            FeeSchedule.deadline_based(day, Decimal("0.01"))

    def test_deadline_day_stops_below_ten_to_the_34(self):
        # a deadline of 10^4000 once printed about 4 KB per timeline line
        for day in (10**34 - 1, -(10**34 - 1)):
            assert FeeSchedule.deadline_based(day, Decimal("0")).deadline_day == day
        for day in (10**34, 10**4000, -(10**34)):
            with pytest.raises(DomainError) as err:
                FeeSchedule.deadline_based(day, Decimal("0.01"))
            assert str(err.value) == "deadline day must have at most 34 digits"

    @pytest.mark.parametrize("deadline, rate", [(10**34 - 1, "100"), (10**6, "1E+30")],
                             ids=["wide-day", "wide-rate"])
    def test_a_deadline_fee_past_the_width_rule_is_refused(self, deadline, rate):
        rec = RedemptionRecord("k", 1, 0, None)
        schedule = FeeSchedule.deadline_based(deadline, rate)
        for compute in (lambda: schedule.fee_for(rec),
                        lambda: solvency.simulate_issuer([rec], schedule, 10)):
            with pytest.raises(DomainError) as err:
                compute()
            assert str(err.value) == ("per-token deadline fee must have at most 34 digits and "
                                      "an adjusted exponent within ±34")

    def test_the_widest_deadline_fee_is_charged(self):
        rec = RedemptionRecord("k", 1, 0, None)
        assert FeeSchedule.deadline_based(10**4, "1E+30").fee_for(rec) == Decimal("1E+34")
        assert FeeSchedule.deadline_based(10**31, "0.001").fee_for(rec) == Decimal("1E+28")

    def test_field_of_another_kind_rejected(self):
        with pytest.raises(DomainError, match="and no other fee field"):
            FeeSchedule(FeeKind.FLAT, Decimal("0.01"), flat_fee_per_token=Decimal("1"), deadline_day=5)

    @pytest.mark.parametrize("fields, what", [
        ({"warehouse_rate": Decimal("-0.01"), "flat_fee_per_token": Decimal("1")}, "warehouse rate"),
        ({"warehouse_rate": Decimal("0.01"), "flat_fee_per_token": Decimal("-1")}, "flat fee"),
    ], ids=["rate", "fee"])
    def test_negative_rate_or_fee_rejected(self, fields, what):
        # unchecked, the timeline's cost ran negative
        with pytest.raises(DomainError, match=f"{what} must be nonnegative"):
            FeeSchedule(FeeKind.FLAT, **fields)

    def test_fee_for_does_not_check_the_schedule_again(self, monkeypatch):
        recs = [RedemptionRecord("a", 3, 0, 4), RedemptionRecord("b", 2, 5, None)]
        schedules = _schedules(Decimal("0.01"), Decimal("1"), 30, Decimal("12.5"))
        checked = []
        real = solvency._nonneg
        monkeypatch.setattr(solvency, "_nonneg", lambda *args: checked.append(args) or real(*args))
        for schedule in schedules:
            solvency.simulate_issuer(recs, schedule, 10)
        assert checked == []

    def test_a_mean_holding_fee_is_computed_when_the_schedule_is_built(self, monkeypatch):
        recs = [RedemptionRecord(f"c{i}", 1 + i, i, None if i % 3 else i + 7) for i in range(120)]
        schedule = FeeSchedule.mean_holding_based(Decimal("12.5"), Decimal("0.0003"))
        calls = []
        real = solvency._mean_holding_fee
        monkeypatch.setattr(solvency, "_mean_holding_fee", lambda *args: calls.append(args) or real(*args))
        solvency.simulate_issuer(recs, schedule, 200)
        assert calls == []
        fee = schedule.fee_for(recs[0])
        assert str(fee) == str(solvency.mean_holding_fee("12.5", "0.0003")) == "0.00375"

    def test_fee_for_dispatch(self):
        rec = RedemptionRecord("k", 1, 10, None)
        assert FeeSchedule.flat(Decimal("2"), Decimal("0")).fee_for(rec) == 2
        assert FeeSchedule.deadline_based(20, Decimal("0.5")).fee_for(rec) == 5
        assert FeeSchedule.mean_holding_based(Decimal("8"), Decimal("0.5")).fee_for(rec) == 4


class TestRecordsCsv:
    def test_round_trip(self):
        text = (
            "customer_id,token_count,purchase_day,redemption_day\n"
            "a,100,0,150\n"
            "b,50,10,\n"
        )
        records = solvency.records_from_csv(text)
        assert records == [
            RedemptionRecord("a", 100, 0, 150),
            RedemptionRecord("b", 50, 10, None),
        ]

    def test_bad_header_rejected(self):
        with pytest.raises(DomainError, match="header"):
            solvency.records_from_csv("x,y\n1,2\n")

    def test_bad_value_reports_line(self):
        text = "customer_id,token_count,purchase_day,redemption_day\na,ten,0,\n"
        with pytest.raises(DomainError, match="line 2"):
            solvency.records_from_csv(text)

    @pytest.mark.parametrize("row, problem", [
        ("b,0,1,", "token count must be positive, got 0"),
        ("b,5,10,3", "redemption day 3 precedes purchase day 10"),
    ])
    def test_rejected_record_reports_line(self, row, problem):
        text = f"customer_id,token_count,purchase_day,redemption_day\na,1,0,\n{row}\n"
        with pytest.raises(DomainError) as err:
            solvency.records_from_csv(text)
        assert str(err.value) == f"records CSV line 3: {problem}"


class TestRecordInvariants:
    def test_redemption_before_purchase_rejected(self):
        with pytest.raises(DomainError):
            RedemptionRecord("k", 1, 10, 9)

    def test_zero_tokens_rejected(self):
        with pytest.raises(DomainError):
            RedemptionRecord("k", 0, 0, 1)

    def test_token_count_stops_below_ten_to_the_34(self):
        # a 601-digit count was once accepted
        assert RedemptionRecord("k", 10**34 - 1, 0).token_count == 10**34 - 1
        for count in (10**34, 10**600):
            with pytest.raises(DomainError) as err:
                RedemptionRecord("k", count, 0)
            assert str(err.value) == "token count must have at most 34 digits"

    @pytest.mark.parametrize("field, what", [("token_count", "token count"),
                                             ("purchase_day", "purchase day"),
                                             ("redemption_day", "redemption day")])
    @pytest.mark.parametrize("value", ["5", 5.0, True], ids=["str", "float", "bool"])
    def test_integer_field_of_a_record_built_in_python(self, field, what, value):
        # the CSV reader parses with int() first; a library caller gets a DomainError
        with pytest.raises(DomainError) as err:
            RedemptionRecord(**{"customer_id": "k", "token_count": 1, "purchase_day": 0,
                                "redemption_day": 5, field: value})
        assert str(err.value) == f"{what} must be an integer, got {type(value).__name__}"

    def test_open_position_passes_the_integer_check(self):
        assert not RedemptionRecord("k", 1, 0).closed


class TestRejectionMessages:
    SCHEDULE = FeeSchedule.flat(Decimal("1"), Decimal("0.1"))
    REJECTIONS = {
        "horizon before the last purchase": (
            lambda: solvency.simulate_issuer(
                [RedemptionRecord("a", 1, 0), RedemptionRecord("b", 1, 30)],
                TestRejectionMessages.SCHEDULE, 29),
            "horizon must reach the last purchase day"),
        "negative reserves": (
            lambda: IssuerBook(Decimal("-1"), Decimal("0"), Decimal("0"), Decimal("0")),
            "own reserves must be nonnegative"),
        "negative deposits": (
            lambda: IssuerBook(Decimal("0"), Decimal("-0.01"), Decimal("0"), Decimal("0")),
            "customer deposits must be nonnegative"),
        "records CSV with the wrong header": (
            lambda: solvency.records_from_csv("customer_id,tokens,purchase_day,redemption_day\n"),
            "records CSV must have header 'customer_id,token_count,purchase_day,redemption_day', "
            "got ['customer_id', 'tokens', 'purchase_day', 'redemption_day']"),
        "records CSV with a short row": (
            lambda: solvency.records_from_csv(
                "customer_id,token_count,purchase_day,redemption_day\na,1,0,\nb,1\n"),
            "records CSV line 3: 'NoneType' object has no attribute 'strip'"),
    }

    @pytest.mark.parametrize("case", REJECTIONS)
    def test_rejection(self, case):
        call, message = self.REJECTIONS[case]
        with pytest.raises(DomainError) as err:
            call()
        assert str(err.value) == message

    def test_no_records_is_an_empty_timeline(self):
        assert solvency.simulate_issuer([], self.SCHEDULE, 10) == SolvencyTimeline((), None)

    def test_records_csv_with_a_padded_header_loads(self):
        # the header check ignores spaces around a name, and so do the rows
        text = "customer_id , token_count, purchase_day, redemption_day\na,1,0,\n"
        assert solvency.records_from_csv(text) == [RedemptionRecord("a", 1, 0)]


# ---------------------------------------------------------------------------
# The day-by-day loop as the oracle for the difference-array sweep
# ---------------------------------------------------------------------------


def reference_simulate_issuer(records, schedule, horizon_day):
    """The O(days x records) replay: every record re-walked on every day,
    its fee and cost summed into the day's totals in list order."""
    if not records:
        return SolvencyTimeline(points=(), first_bankrupt_day=None)
    start = min(r.purchase_day for r in records)
    if horizon_day < max(r.purchase_day for r in records):
        raise DomainError("horizon must reach the last purchase day")

    points = []
    first_bankrupt = None
    with localcontext(CONTEXT):
        for day in range(start, horizon_day + 1):
            profit = Decimal(0)
            cost = Decimal(0)
            for r in records:
                if r.purchase_day > day:
                    continue
                profit += schedule.fee_for(r) * r.token_count
                end = min(r.redemption_day, day) if r.closed else day
                cost += schedule.warehouse_rate * r.token_count * (end - r.purchase_day)
            bankrupt = profit < cost
            if bankrupt and first_bankrupt is None:
                first_bankrupt = day
            points.append(TimelinePoint(day, profit, cost, bankrupt))
    return SolvencyTimeline(points=tuple(points), first_bankrupt_day=first_bankrupt)


def _outcome(simulate, records, schedule, horizon):
    """The timeline as CSV lines plus its first bankrupt day, or the error."""
    try:
        timeline = simulate(records, schedule, horizon)
    except DomainError as exc:
        return [f"error: {exc}"]
    return timeline.to_csv().splitlines() + [f"first bankrupt: {timeline.first_bankrupt_day}"]


def _first_difference(got, want):
    """The first line at which two outcomes differ, or None. Comparing
    whole timelines with ``==`` would make pytest diff thousands of lines
    on every failing example."""
    return next(((i, g, w) for i, (g, w) in enumerate(zip_longest(got, want)) if g != w), None)


def _token_days(records, day):
    return sum(r.token_count * ((min(r.redemption_day, day) if r.closed else day) - r.purchase_day)
               for r in records if r.purchase_day <= day)


def _rounded_once(value: Fraction) -> Decimal:
    """*value* rounded once to ``CONTEXT`` (division is correctly rounded)."""
    with localcontext(CONTEXT):
        return Decimal(value.numerator) / Decimal(value.denominator)


short_decimals = st.builds(lambda m, e: Decimal(f"{m}E{e}"),
                           st.integers(0, 9999), st.integers(-8, 1))


@st.composite
def record_books(draw, max_day=400):
    """1-30 records on days -5..max_day: open positions, same-day
    redemptions, and redemptions anywhere up to max_day."""
    records = []
    for i in range(draw(st.integers(1, 30))):
        purchase = draw(st.integers(-5, max_day))
        redemption = draw(st.one_of(st.none(), st.just(purchase),
                                    st.integers(purchase, max_day)))
        records.append(RedemptionRecord(f"c{i}", draw(st.integers(1, 10**9)),
                                        purchase, redemption))
    return records


def _schedules(rate, flat_fee, deadline, mean_days):
    return [FeeSchedule.flat(flat_fee, rate),
            FeeSchedule.deadline_based(deadline, rate),
            FeeSchedule.mean_holding_based(mean_days, rate)]


class TestSweepMatchesReference:
    @settings(deadline=None)
    @given(records=record_books(), rate=short_decimals, flat_fee=short_decimals,
           deadline=st.integers(-5, 450), mean_days=short_decimals,
           horizon_past_last_purchase=st.integers(-2, 40))
    @example(records=[RedemptionRecord("a", 3, 0, 0), RedemptionRecord("b", 7, 2, None),
                      RedemptionRecord("c", 10**9, -5, 399)],
             rate=Decimal("1E+1"), flat_fee=Decimal("0.5"), deadline=10,
             mean_days=Decimal("2.5E+1"), horizon_past_last_purchase=5)
    def test_same_timeline_under_every_regime(self, records, rate, flat_fee, deadline,
                                              mean_days, horizon_past_last_purchase):
        horizon = max(r.purchase_day for r in records) + horizon_past_last_purchase
        for schedule in _schedules(rate, flat_fee, deadline, mean_days):
            assert _first_difference(
                _outcome(solvency.simulate_issuer, records, schedule, horizon),
                _outcome(reference_simulate_issuer, records, schedule, horizon)) is None

    @pytest.mark.parametrize("schedule", [
        FeeSchedule.flat(Decimal("0.03"), Decimal("0.0001")),
        FeeSchedule.deadline_based(1095, Decimal("0.0001")),
        FeeSchedule.mean_holding_based(Decimal("365"), Decimal("0.0001")),
    ], ids=["flat", "deadline", "mean-holding"])
    def test_jiaozi_preset(self, schedule):
        text = resources.files("rsdm").joinpath("presets", "jiaozi_solvency.csv").read_text()
        records = solvency.records_from_csv(text)
        assert _first_difference(
            _outcome(solvency.simulate_issuer, records, schedule, 1500),
            _outcome(reference_simulate_issuer, records, schedule, 1500)) is None

    def test_deadline_before_a_purchase_names_the_same_record(self):
        records = [RedemptionRecord("a", 1, 0, None), RedemptionRecord("b", 1, 9, None),
                   RedemptionRecord("c", 1, 7, None)]
        schedule = FeeSchedule.deadline_based(5, Decimal("0.01"))
        expected = _outcome(reference_simulate_issuer, records, schedule, 20)
        assert expected == ["error: deadline day 5 precedes purchase day 7"]
        assert _outcome(solvency.simulate_issuer, records, schedule, 20) == expected

    @pytest.mark.parametrize("schedule", _schedules(Decimal("0.0001"), Decimal("0.03"), 40_000,
                                                     Decimal("365")),
                             ids=["flat", "deadline", "mean-holding"])
    def test_the_widest_horizon(self, schedule):
        # first purchase to horizon spans exactly MAX_SIMULATED_DAYS days
        start = -7
        horizon = start + solvency.MAX_SIMULATED_DAYS - 1
        records = [RedemptionRecord("a", 3, start, None),
                   RedemptionRecord("b", 10**9, 500, 20_000),
                   RedemptionRecord("c", 7, horizon, horizon)]
        timeline = solvency.simulate_issuer(records, schedule, horizon)
        assert len(timeline.points) == solvency.MAX_SIMULATED_DAYS
        reference = reference_simulate_issuer(records, schedule, horizon)
        # line by line, ends kept: byte for byte, without a 36k-line diff
        assert _first_difference(timeline.to_csv().splitlines(keepends=True),
                                 reference.to_csv().splitlines(keepends=True)) is None
        assert timeline.first_bankrupt_day == reference.first_bankrupt_day

    def test_long_rate_costs_round_once(self):
        rate = Decimal("0.1234567890123456789012345678901234")  # 34 digits
        records = [RedemptionRecord("a", 987654321, 0, None),
                   RedemptionRecord("b", 123456789, 3, 40),
                   RedemptionRecord("c", 999999999, 5, None)]
        schedule = FeeSchedule.flat("1", rate)
        timeline = solvency.simulate_issuer(records, schedule, 60)
        reference = reference_simulate_issuer(records, schedule, 60)
        # the reference sums per-record roundings, so it drifts here
        assert timeline.to_csv() != reference.to_csv()
        for point in timeline.points:
            token_days = _token_days(records, point.day)
            assert point.cum_cost == _rounded_once(Fraction(rate) * token_days)
            assert point.bankrupt == (point.cum_profit < point.cum_cost)


@st.composite
def closed_by_horizon(draw):
    """A book and a horizon on or after every purchase and redemption."""
    records = draw(record_books(max_day=200))
    horizon = max(r.redemption_day if r.closed else r.purchase_day for r in records)
    return records, horizon + draw(st.integers(0, 20))


long_decimals = st.builds(lambda m, e: Decimal(f"{m}E{e}"),
                          st.integers(10**33, 10**34 - 1), st.integers(-40, -30))


class TestTimelineEndsAtTheTotals:
    """On a book redeemed by the horizon, the timeline's last day is the
    book's total fee income and storage cost."""

    @settings(deadline=None)
    @given(book=closed_by_horizon(), rate=st.one_of(short_decimals, long_decimals),
           fee=st.one_of(short_decimals, long_decimals))
    def test_last_point_is_the_totals(self, book, rate, fee):
        # a 34-digit fee times a token count outgrows the working precision,
        # so fee income summed with a rounding at each step drifts
        records, horizon = book
        last = solvency.simulate_issuer(records, FeeSchedule.flat(fee, rate), horizon).points[-1]
        assert last.day == horizon
        assert last.cum_cost == solvency.warehouse_cost(records, rate, horizon)
        assert last.cum_profit == solvency.gross_profit(records, fee) == _rounded_once(
            sum(Fraction(fee) * r.token_count for r in records))

    @settings(deadline=None)
    @given(records=record_books(max_day=120), rate=st.one_of(short_decimals, long_decimals),
           extra=st.integers(0, 20))
    def test_every_day_is_the_warehouse_cost_to_date(self, records, rate, extra):
        # open records and redemptions after the day included
        horizon = max(r.purchase_day for r in records) + extra
        timeline = solvency.simulate_issuer(records, FeeSchedule.flat("1", rate), horizon)
        for point in timeline.points:
            bought = [r for r in records if r.purchase_day <= point.day]
            assert point.cum_cost == solvency.warehouse_cost(bought, rate, point.day)

    def test_empty_book_costs_plain_zero(self):
        cost = solvency.warehouse_cost([], Decimal("0.01"), 10)
        assert cost == 0 and str(cost) == "0"


class TestFeeForMatchesTheFeeFunctions:
    @settings(deadline=None)
    @given(rate=st.one_of(short_decimals, long_decimals), mean_days=st.one_of(short_decimals, long_decimals),
           purchase=st.integers(-10**6, 10**6), deadline=st.integers(-10**6, 10**6))
    @example(rate=Decimal("1E+30"), mean_days=Decimal("1"), purchase=0, deadline=10**6)
    def test_fee_for_charges_what_the_fee_functions_charge(self, rate, mean_days, purchase, deadline):
        rec = RedemptionRecord("k", 1, purchase, None)
        for schedule, fee in [
            (FeeSchedule.deadline_based(deadline, rate), lambda: solvency.deadline_fee(purchase, deadline, rate)),
            (FeeSchedule.mean_holding_based(mean_days, rate), lambda: solvency.mean_holding_fee(mean_days, rate)),
        ]:
            outcomes = []
            for charge in (lambda: schedule.fee_for(rec), fee):
                try:
                    value = charge()
                    outcomes.append((str(value), value))
                except DomainError as exc:
                    outcomes.append(("error", str(exc)))
            assert outcomes[0] == outcomes[1]


_SPEC = decay.RsdmSpec(issue_date=date(2035, 1, 1), collateral_id="XAU", initial_weight=Decimal("1"),
                       daily_decay_factor=Decimal("0.99996"), expiry_days=100,
                       redemption_fee_rate=Decimal("0.003"))
_BOOK = [RedemptionRecord("k", 1, 0, 5)]


@pytest.mark.parametrize("call, what, day", [
    (lambda day: solvency.simulate_issuer(_BOOK, FeeSchedule.flat("1", "0.1"), day), "horizon day", 10.5),
    (lambda day: solvency.simulate_issuer([], FeeSchedule.flat("1", "0.1"), day), "horizon day", 10.5),
    (lambda day: solvency.simulate_issuer(_BOOK, FeeSchedule.flat("1", "0.1"), day), "horizon day", True),
    (lambda day: solvency.warehouse_cost(_BOOK, "0.1", day), "as-of day", 10.5),
    (lambda day: solvency.warehouse_cost(_BOOK, "0.1", day), "as-of day", True),
    (lambda day: decay.residual_weight(_SPEC, day), "elapsed days", 1.5),
    (lambda day: decay.redemption_quote(_SPEC, day), "elapsed days", "5"),
    (lambda day: decay.redemption_quote(_SPEC, day), "elapsed days", False),
], ids=["simulate-float", "simulate-empty-book", "simulate-bool", "warehouse-float", "warehouse-bool",
        "residual-float", "quote-str", "quote-bool"])
def test_a_day_must_be_an_integer(call, what, day):
    # a float day would reach the day arithmetic, or raise a bare TypeError there
    with pytest.raises(DomainError) as err:
        call(day)
    assert type(err.value) is DomainError
    assert str(err.value) == f"{what} must be an integer, got {type(day).__name__}"
