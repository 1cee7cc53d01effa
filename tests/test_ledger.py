"""Event-sourced ledger: bookkeeping, conservation, replay, valuation."""

import json
import random
from dataclasses import FrozenInstanceError, fields, replace
from datetime import date
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import event as note
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from conftest import check_result_record, make_series_pool
from rsdm import decay, ledger
from rsdm.decay import epoch_day
from rsdm.numeric import CONTEXT, EXACT, exact_add, exact_mul, exact_pow, exact_sub, settle
from rsdm.errors import (
    BelowMinimumRedemption,
    DomainError,
    ExpiredSeries,
    InsufficientBalance,
    LedgerError,
    MissingQuote,
    ReplayError,
    RsdmError,
    SequenceGap,
    UnknownSeries,
)
from rsdm.ledger import EventKind, LedgerEvent, PriceQuote

D = Decimal

GOLD = decay.RsdmSpec(
    issue_date=date(1970, 1, 1),
    collateral_id="XAU",
    initial_weight=D("1"),
    daily_decay_factor=D("0.99996"),
    expiry_days=18262,
    redemption_fee_rate=D("0.003"),
    min_redemption_grams=D("500"),
)


# ---------------------------------------------------------------------------
# Reference: the copy-per-event step the ledger used before its balances
# shared structure. It copies every state dict, then writes the copies,
# and checks a redeem in a function of its own, as the ledger once did.
# ---------------------------------------------------------------------------


def reference_compute_redeem(state, event):
    """Validate a redeem event; return (payout, issuer accrual delta).

    A payout stated on the event must equal the computed one.
    """
    spec = state.specs.get(event.series_id)
    if spec is None:
        raise UnknownSeries(f"series {event.series_id!r} has never been issued")
    held = state.balances.get((event.party, event.series_id), 0)
    if held < event.token_count:
        raise InsufficientBalance(
            f"{event.party!r} holds {held} tokens of {event.series_id!r}, "
            f"cannot redeem {event.token_count}"
        )
    elapsed = event.day - epoch_day(spec.issue_date)
    if elapsed < 0:
        raise DomainError(f"redemption day {event.day} precedes the series issue date")
    if elapsed > spec.expiry_days:
        raise ExpiredSeries(
            f"series {event.series_id!r} expired {elapsed - spec.expiry_days} days "
            f"before the redemption; tokens pay zero"
        )
    quote = decay.redemption_quote(spec, elapsed)
    residual_total = exact_mul(quote.residual, Decimal(event.token_count))
    if residual_total < spec.min_redemption_grams:
        raise BelowMinimumRedemption(
            f"residual {settle(residual_total):f} g is below the series minimum "
            f"of {spec.min_redemption_grams} g"
        )
    payout = settle(exact_mul(quote.payout, Decimal(event.token_count)))
    if event.payout_grams is not None and event.payout_grams != payout:
        raise LedgerError(
            f"redeem event states payout {event.payout_grams} g but the series "
            f"arithmetic yields {payout} g"
        )
    face_total = exact_mul(spec.initial_weight, Decimal(event.token_count))
    accrual = exact_sub(face_total, payout)  # decay plus fee, kept in vault
    return payout, accrual


def reference_apply(state, event, redeemed=None):
    if event.sequence != state.last_sequence + 1:
        raise SequenceGap(
            f"expected sequence {state.last_sequence + 1}, got {event.sequence}"
        )
    if event.token_count <= 0:
        raise LedgerError(f"token count must be positive, got {event.token_count}")

    balances = dict(state.balances)
    vault = dict(state.vault)
    accruals = dict(state.issuer_accrual)
    payouts = dict(state.cumulative_payouts)
    issued = dict(state.issued_tokens)
    specs = dict(state.specs)

    if event.kind is EventKind.ISSUE:
        spec = state.specs.get(event.series_id)
        if spec is None:
            if event.series_spec is None:
                raise LedgerError(
                    f"first issue of series {event.series_id!r} must carry the series spec"
                )
            spec = event.series_spec
            specs[event.series_id] = spec
        elif event.series_spec is not None and event.series_spec != spec:
            raise LedgerError(
                f"series {event.series_id!r} already registered with different parameters"
            )
        if event.day < epoch_day(spec.issue_date):
            raise LedgerError("issue event day precedes the series issue date")
        total_issued = issued.get(event.series_id, 0) + event.token_count
        if spec.issue_size and total_issued > spec.issue_size:
            raise LedgerError(
                f"issuing {event.token_count} tokens would exceed the declared "
                f"issue size {spec.issue_size} of {event.series_id!r}"
            )
        key = (event.party, event.series_id)
        balances[key] = balances.get(key, 0) + event.token_count
        vault[event.series_id] = exact_add(
            vault.get(event.series_id, Decimal(0)),
            exact_mul(spec.initial_weight, Decimal(event.token_count)),
        )
        issued[event.series_id] = total_issued

    elif event.kind is EventKind.TRANSFER:
        if event.series_id not in state.specs:
            raise UnknownSeries(f"series {event.series_id!r} has never been issued")
        if not event.counterparty:
            raise LedgerError("transfer requires a counterparty")
        held = state.balance(event.party, event.series_id)
        if held < event.token_count:
            raise InsufficientBalance(
                f"{event.party!r} holds {held} tokens of {event.series_id!r}, "
                f"cannot transfer {event.token_count}"
            )
        src = (event.party, event.series_id)
        dst = (event.counterparty, event.series_id)
        balances[src] = held - event.token_count
        balances[dst] = balances.get(dst, 0) + event.token_count

    elif event.kind is EventKind.REDEEM:
        payout, accrual = redeemed or reference_compute_redeem(state, event)
        key = (event.party, event.series_id)
        balances[key] = state.balance(event.party, event.series_id) - event.token_count
        vault[event.series_id] = exact_sub(vault[event.series_id], payout)
        payouts[event.series_id] = exact_add(
            payouts.get(event.series_id, Decimal(0)), payout
        )
        accruals[event.series_id] = exact_add(
            accruals.get(event.series_id, Decimal(0)), accrual
        )

    return ledger.LedgerState(
        specs=specs,
        balances=balances,
        vault=vault,
        issuer_accrual=accruals,
        cumulative_payouts=payouts,
        issued_tokens=issued,
        last_sequence=event.sequence,
    )


def snapshot(state) -> str:
    return ledger.state_to_snapshot(state)


def issued_state(count=5000, party="alice"):
    state, _ = ledger.issue(ledger.empty_state(), "AU35", GOLD, party, count, 0)
    return state


class TestIssue:
    def test_vault_and_balance(self):
        state = issued_state(100)
        assert state.vault["AU35"] == 100
        assert state.balance("alice", "AU35") == 100
        assert state.issued_tokens["AU35"] == 100

    def test_first_issue_requires_spec(self):
        event = LedgerEvent(1, 0, EventKind.ISSUE, "AU35", "alice", token_count=10)
        with pytest.raises(LedgerError, match="series spec"):
            ledger.append_event(ledger.empty_state(), event)

    def test_invalid_spec_rejected(self):
        with pytest.raises(DomainError, match="decay factor"):
            decay.RsdmSpec(date(1970, 1, 1), "XAU", D("1"), D("1.1"), 100, D("0"))

    def test_huge_exponent_rejected_before_any_sum(self):
        # accepted, the first vault sum would build a 10^9-digit coefficient
        with pytest.raises(DomainError, match="at most 34 digits"):
            decay.RsdmSpec(date(1970, 1, 1), "XAU", D("1E+999999999"), D("0.99996"),
                           100, D("0"))

    def test_issue_size_cap(self):
        capped = decay.RsdmSpec(date(1970, 1, 1), "XAU", D("1"), D("0.99996"),
                                100, D("0"), issue_size=50)
        state, _ = ledger.issue(ledger.empty_state(), "CAP", capped, "alice", 30, 0)
        with pytest.raises(LedgerError, match="issue size"):
            ledger.issue(state, "CAP", None, "bob", 21, 0)

    def test_second_tranche_same_series(self):
        state = issued_state(100)
        state, _ = ledger.issue(state, "AU35", None, "bob", 50, 3)
        assert state.vault["AU35"] == 150
        assert state.issued_tokens["AU35"] == 150

    @pytest.mark.parametrize("count", [1, 10**34 - 1])
    def test_issued_tokens_stop_below_ten_to_the_34(self, count):
        # two issues of 10**34 - 1 tokens once built a 35-digit balance
        state = issued_state(10**34 - 1)
        event = LedgerEvent(2, 1, EventKind.ISSUE, "AU35", "bob", token_count=count)
        with pytest.raises(LedgerError) as err:
            ledger.append_event(state, event)
        assert type(err.value) is LedgerError
        assert str(err.value) == (f"issuing {count} tokens would take the tokens issued of 'AU35' "
                                  "past 34 digits")


class TestTransfer:
    def test_moves_balance(self):
        state = issued_state(100)
        state, _ = ledger.transfer(state, "alice", "bob", "AU35", 40, 1)
        assert state.balance("alice", "AU35") == 60
        assert state.balance("bob", "AU35") == 40

    def test_underflow_rejected_state_unchanged(self):
        state = issued_state(100)
        with pytest.raises(InsufficientBalance):
            ledger.transfer(state, "alice", "bob", "AU35", 150, 1)
        assert state.balance("alice", "AU35") == 100
        assert state.last_sequence == 1

    def test_unknown_series(self):
        with pytest.raises(UnknownSeries):
            ledger.transfer(issued_state(), "alice", "bob", "NOPE", 1, 1)


class TestRedeem:
    def test_payout_one_day(self):
        # 1000 tokens at one elapsed day: 1000 * (1-0.003) * 0.99996
        state, payout, _ = ledger.redeem(issued_state(), "alice", "AU35", 1000, 1)
        assert payout.value == D("996.960120000")
        assert state.vault["AU35"] == D(5000) - payout.value
        assert state.balance("alice", "AU35") == 4000

    def test_payout_is_a_one_field_quantity_of_settled_grams(self):
        # the benchmark reads redeem(...)[1].value
        _, payout, _ = ledger.redeem(issued_state(), "alice", "AU35", 1000, 365)
        assert type(payout) is ledger.Quantity
        assert [f.name for f in fields(payout)] == ["value"]
        assert type(payout.value) is Decimal and payout.value == settle(payout.value)
        with pytest.raises(FrozenInstanceError):
            payout.value = D(0)

    def test_each_event_is_a_named_tuple(self):
        state, issued = ledger.issue(ledger.empty_state(), "AU35", GOLD, "alice", 5000, 0)
        state, moved = ledger.transfer(state, "alice", "bob", "AU35", 700, 3)
        _, _, redeemed = ledger.redeem(state, "alice", "AU35", 1000, 365)
        names = ("sequence", "day", "kind", "series_id", "party", "counterparty", "token_count",
                 "payout_grams", "series_spec")
        check_result_record(
            issued, names,
            "LedgerEvent(sequence=1, day=0, kind=<EventKind.ISSUE: 'issue'>, series_id='AU35', "
            "party='alice', counterparty=None, token_count=5000, payout_grams=None, "
            "series_spec=RsdmSpec(issue_date=datetime.date(1970, 1, 1), collateral_id='XAU', "
            "initial_weight=Decimal('1'), daily_decay_factor=Decimal('0.99996'), expiry_days=18262, "
            "redemption_fee_rate=Decimal('0.003'), issue_size=0, inspection_fee=Decimal('0'), "
            "min_redemption_grams=Decimal('500')))")
        check_result_record(
            moved, names,
            "LedgerEvent(sequence=2, day=3, kind=<EventKind.TRANSFER: 'transfer'>, series_id='AU35', "
            "party='alice', counterparty='bob', token_count=700, payout_grams=None, series_spec=None)")
        check_result_record(
            redeemed, names,
            "LedgerEvent(sequence=3, day=365, kind=<EventKind.REDEEM: 'redeem'>, series_id='AU35', "
            "party='alice', counterparty=None, token_count=1000, payout_grams=Decimal('982.549258097'), "
            "series_spec=None)")

    def test_conservation_after_redeem(self):
        state, payout, _ = ledger.redeem(issued_state(), "alice", "AU35", 1000, 1)
        assert state.vault["AU35"] + state.cumulative_payouts["AU35"] == 5000

    def test_accrual_is_decay_plus_fee(self):
        state, payout, _ = ledger.redeem(issued_state(), "alice", "AU35", 1000, 1)
        assert state.issuer_accrual["AU35"] == D(1000) - payout.value

    def test_minimum_boundary_accepted(self):
        # at issue day the residual of 500 one-gram tokens is exactly the
        # 500 g minimum
        state, payout, _ = ledger.redeem(issued_state(), "alice", "AU35", 500, 0)
        assert payout.value == D("498.500000000")

    def test_below_minimum_rejected(self):
        with pytest.raises(BelowMinimumRedemption):
            ledger.redeem(issued_state(), "alice", "AU35", 499, 0)

    def test_single_token_below_kilogram_minimum(self):
        kilo = decay.RsdmSpec(date(1970, 1, 1), "XAU", D("1"), D("0.99996"),
                              18262, D("0.003"))
        state, _ = ledger.issue(ledger.empty_state(), "KG", kilo, "alice", 2000, 0)
        with pytest.raises(BelowMinimumRedemption):
            ledger.redeem(state, "alice", "KG", 1, 0)

    def test_exactly_one_kilogram_accepted(self):
        # default minimum is a kilogram; 1000 undecayed one-gram tokens
        # sit exactly on it
        kilo = decay.RsdmSpec(date(1970, 1, 1), "XAU", D("1"), D("0.99996"),
                              18262, D("0.003"))
        state, _ = ledger.issue(ledger.empty_state(), "KG", kilo, "alice", 2000, 0)
        state, payout, _ = ledger.redeem(state, "alice", "KG", 1000, 0)
        assert payout.value == D("997.000000000")

    def test_below_minimum_message_is_bounded(self):
        # 18,000 days in, the exact residual has ~90k digits; the message
        # shows it on the settlement grid
        kilo = decay.RsdmSpec(date(1970, 1, 1), "XAU", D("1"), D("0.99996"),
                              18262, D("0.003"))
        state, _ = ledger.issue(ledger.empty_state(), "KG", kilo, "alice", 2000, 0)
        with pytest.raises(BelowMinimumRedemption) as info:
            ledger.redeem(state, "alice", "KG", 1000, 18000)
        message = str(info.value)
        assert len(message) < 300
        assert "below the series minimum of 1000 g" in message
        residual = exact_mul(decay.residual_weight(kilo, 18000), D(1000))
        assert f"residual {residual.quantize(D('1E-9')):f} g" in message

    def test_redeem_quotes_once(self, monkeypatch):
        calls = []
        settled_claim = ledger._settled_claim

        def counting_claim(spec, elapsed, count, weight):
            calls.append((elapsed, count))
            return settled_claim(spec, elapsed, count, weight)

        monkeypatch.setattr(ledger, "_settled_claim", counting_claim)
        state, payout, event = ledger.redeem(issued_state(), "alice", "AU35", 1000, 365)
        assert calls == [(365, 1000)]
        assert event.payout_grams == payout.value
        # the emitted event replays to the same state
        assert ledger.append_event(issued_state(), event) == state

    def test_expired_redemption_rejected(self):
        short = decay.RsdmSpec(date(1970, 1, 1), "XAU", D("1"), D("0.99996"),
                               30, D("0.003"), min_redemption_grams=D("1"))
        state, _ = ledger.issue(ledger.empty_state(), "SHORT", short, "alice", 100, 0)
        with pytest.raises(ExpiredSeries):
            ledger.redeem(state, "alice", "SHORT", 10, 31)
        # up to expiry still redeems
        state2, payout, _ = ledger.redeem(state, "alice", "SHORT", 10, 30)
        assert payout.value > 0

    def test_insufficient_balance(self):
        with pytest.raises(InsufficientBalance):
            ledger.redeem(issued_state(100), "alice", "AU35", 600, 1)

    @pytest.mark.parametrize("count", [0, -5])
    def test_nonpositive_count_rejected_as_by_append_event(self, count):
        state = issued_state()
        event = LedgerEvent(2, 10, EventKind.REDEEM, "AU35", "alice", token_count=count)
        with pytest.raises(LedgerError) as appended:
            ledger.append_event(state, event)
        with pytest.raises(LedgerError) as redeemed:
            ledger.redeem(state, "alice", "AU35", count, 10)
        assert type(redeemed.value) is type(appended.value) is LedgerError
        assert str(redeemed.value) == str(appended.value) == f"token count must be positive, got {count}"

    @pytest.mark.parametrize("kind", list(EventKind))
    @pytest.mark.parametrize("count", ["5", 5.0, True, None], ids=["str", "float", "bool", "none"])
    def test_token_count_of_an_event_built_in_python(self, kind, count):
        # the JSON reader refuses these first; a library caller gets a LedgerError
        event = LedgerEvent(2, 10, kind, "AU35", "alice", "bob", token_count=count)
        with pytest.raises(LedgerError) as err:
            ledger.append_event(issued_state(), event)
        assert type(err.value) is LedgerError
        assert str(err.value) == f"token count must be an integer, got {type(count).__name__}"

    @pytest.mark.parametrize("kind", list(EventKind))
    @pytest.mark.parametrize("count", [10**34, 10**5000], ids=["35-digit", "5001-digit"])
    def test_token_count_obeys_the_width_rule(self, kind, count):
        # a 10**5000-token issue once let a redeem pay a 5,010-digit payout
        event = LedgerEvent(2, 10, kind, "AU35", "alice", "bob", token_count=count)
        with pytest.raises(LedgerError) as err:
            ledger.append_event(issued_state(), event)
        assert type(err.value) is LedgerError
        assert str(err.value) == "token count must have at most 34 digits"

    def test_widest_token_count_accepted(self):
        count = 10**34 - 1
        state, _ = ledger.issue(ledger.empty_state(), "AU35", GOLD, "alice", count, 0)
        state, _ = ledger.transfer(state, "alice", "bob", "AU35", count, 1)
        state, payout, _ = ledger.redeem(state, "bob", "AU35", count, 1)
        assert Fraction(payout.value) == redeem_payout(count, Fraction("0.003"), 1, Fraction("0.99996"), 1)

    @pytest.mark.parametrize("kind", list(EventKind))
    @pytest.mark.parametrize("cast", [str, float, lambda v: True, lambda v: None],
                             ids=["str", "float", "bool", "none"])
    @pytest.mark.parametrize("field", ["sequence", "day"])
    def test_sequence_and_day_of_an_event_built_in_python(self, field, cast, kind):
        # a LedgerError, not a SequenceGap for "2" nor a logged line that
        # events_from_jsonl refuses
        event = LedgerEvent(2, 10, kind, "AU35", "alice", "bob", token_count=5)
        value = cast(getattr(event, field))
        with pytest.raises(LedgerError) as err:
            ledger.append_event(issued_state(), event._replace(**{field: value}))
        assert type(err.value) is LedgerError
        assert str(err.value) == f"{field} must be an integer, got {type(value).__name__}"

    def test_stated_payout_must_match(self):
        state = issued_state()
        event = LedgerEvent(
            sequence=2, day=1, kind=EventKind.REDEEM, series_id="AU35",
            party="alice", token_count=1000, payout_grams=D("999.999"),
        )
        with pytest.raises(LedgerError, match="payout"):
            ledger.append_event(state, event)


THETA_34 = decay.daily_factor_from_annual_rate("-0.02")  # a 34-digit daily factor
weights = st.one_of(
    st.sampled_from((D("1"), D("10"), D("0.001"))),
    st.builds(lambda m, k: EXACT.scaleb(D(m), -k), st.integers(1, 10**34 - 1), st.integers(0, 34)),
)


class TestSettledClaim:
    """A redeem settles from bounds on the decay factor's power and falls
    back to the exact claim; ``reference_compute_redeem``, which works
    on the exact claim alone, is the oracle."""

    @staticmethod
    def outcomes(spec, count, day):
        """(ledger.redeem's, the oracle's) payout or (class, message) of
        redeeming ``count`` freshly issued tokens of ``spec`` on ``day``."""
        state, _ = ledger.issue(ledger.empty_state(), "S", spec, "alice", count, 0)
        event = LedgerEvent(2, day, EventKind.REDEEM, "S", "alice", token_count=count)
        results = []
        for redeem in (lambda: ledger.redeem(state, "alice", "S", count, day)[1].value,
                       lambda: reference_compute_redeem(state, event)[0]):
            try:
                results.append(redeem())
            except RsdmError as exc:
                results.append((type(exc), str(exc)))
        return tuple(results)

    @staticmethod
    def branches(monkeypatch) -> dict:
        """Counts, per redeem, of the exact-power branch (the rounded-down
        chain rounded nothing), the bracket branch and the exact fallback."""
        seen = {"exact power": 0, "bracket": 0, "fallback": 0}
        bounds, claim = ledger.pow_bounds, ledger.redemption_quote

        def counting_bounds(*args):
            low, high = bounds(*args)
            seen["exact power" if low is high else "bracket"] += 1
            return low, high

        def counting_claim(*args):
            seen["fallback"] += 1
            return claim(*args)

        monkeypatch.setattr(ledger, "pow_bounds", counting_bounds)
        monkeypatch.setattr(ledger, "redemption_quote", counting_claim)
        return seen

    @pytest.mark.parametrize("theta", [D("0.99996"), THETA_34, D("1"), D("0.5")],
                             ids=["6-digit", "34-digit", "one", "half"])
    @settings(max_examples=40, deadline=None)
    @given(day=st.one_of(st.integers(0, 60), st.integers(0, 18262), st.integers(10_000, 18262)),
           count=st.one_of(st.integers(1, 1000), st.integers(1, 10**9)),
           weight=weights,
           fee=st.sampled_from((D("0"), D("0.003"), D("0.5"), D("0." + "9" * 33))),
           minimum=st.sampled_from((D("1E-9"), D("1"), D("1000"))))
    def test_matches_the_exact_claim(self, theta, day, count, weight, fee, minimum):
        spec = decay.RsdmSpec(EPOCH, "XAU", weight, theta, 18262, fee, min_redemption_grams=minimum)
        got, want = self.outcomes(spec, count, day)
        note(f"{'paid' if isinstance(want, Decimal) else 'rejected'}, day {'1001+' if day > 1000 else '0-1000'}")
        assert got == want

    def test_exact_midpoint_rounds_half_even(self, monkeypatch):
        # 0.5**10 = 0.0009765625 exactly: 1 token settles down to the even
        # 0.000976562, 3 tokens (0.0029296875) up to the even 0.002929688
        seen = self.branches(monkeypatch)
        spec = decay.RsdmSpec(EPOCH, "XAU", D("1"), D("0.5"), 100, D("0"), min_redemption_grams=D("1E-9"))
        assert self.outcomes(spec, 1, 10) == (D("0.000976562"),) * 2
        assert self.outcomes(spec, 3, 10) == (D("0.002929688"),) * 2
        assert seen == {"exact power": 2, "bracket": 0, "fallback": 0}

    @pytest.mark.parametrize("theta", [D("0.99996"), THETA_34], ids=["6-digit", "34-digit"])
    def test_bounds_settle_a_deep_redeem(self, monkeypatch, theta):
        # the exact power has 90k (6-digit factor) or 612k digits
        seen = self.branches(monkeypatch)
        spec = decay.RsdmSpec(EPOCH, "XAU", D("1"), theta, 18262, D("0.003"), min_redemption_grams=D("1"))
        got, want = self.outcomes(spec, 1000, 18000)
        assert got == want
        assert seen == {"exact power": 0, "bracket": 1, "fallback": 0}

    def test_near_midpoint_falls_back(self, monkeypatch):
        # a weight whose payout lies within 1E-30 of the grid midpoint
        # 0.5000000005, far inside the bounds' width
        power = exact_pow(D("0.99996"), 1000)
        with localcontext(CONTEXT):
            weight = D("0.5000000005") / power
        assert abs(Fraction(weight) * Fraction(power) - Fraction("0.5000000005")) < Fraction("1E-30")
        spec = decay.RsdmSpec(EPOCH, "XAU", weight, D("0.99996"), 18262, D("0"),
                              min_redemption_grams=D("1E-9"))
        seen = self.branches(monkeypatch)
        state, _ = ledger.issue(ledger.empty_state(), "S", spec, "alice", 1, 0)
        payout = ledger.redeem(state, "alice", "S", 1, 1000)[1].value
        assert seen == {"exact power": 0, "bracket": 1, "fallback": 1}
        assert Fraction(payout) == redeem_payout(1, Fraction(0), Fraction(weight), Fraction("0.99996"), 1000)

    def test_below_minimum_falls_back_for_its_message(self, monkeypatch):
        seen = self.branches(monkeypatch)
        spec = decay.RsdmSpec(EPOCH, "XAU", D("1"), D("0.99996"), 18262, D("0.003"))
        got, want = self.outcomes(spec, 1000, 18000)
        assert got == want == (BelowMinimumRedemption, "residual 486.745246591 g is below the "
                                                       "series minimum of 1000 g")
        assert seen == {"exact power": 0, "bracket": 1, "fallback": 1}


class TestSequencing:
    def test_gap_rejected(self):
        state = issued_state()
        event = LedgerEvent(5, 1, EventKind.TRANSFER, "AU35", "alice",
                            counterparty="bob", token_count=1)
        with pytest.raises(SequenceGap):
            ledger.append_event(state, event)

    def test_replay_aborts_with_sequence(self):
        events = [
            LedgerEvent(1, 0, EventKind.ISSUE, "AU35", "alice",
                        token_count=1000, series_spec=GOLD),
            LedgerEvent(3, 1, EventKind.TRANSFER, "AU35", "alice",
                        counterparty="bob", token_count=10),
        ]
        with pytest.raises(ReplayError) as err:
            ledger.replay(events)
        assert err.value.sequence == 3

    @pytest.mark.parametrize("day, cause", [(50, ExpiredSeries), (9, DomainError)],
                             ids=["after-expiry", "before-issue-date"])
    def test_replay_names_a_redeem_outside_the_series_life(self, day, cause):
        # a 30-day series issued on day 10
        short = decay.RsdmSpec(date(1970, 1, 11), "XAU", D("1"), D("0.99996"),
                               30, D("0.003"), min_redemption_grams=D("1"))
        events = [
            LedgerEvent(1, 10, EventKind.ISSUE, "SHORT", "alice",
                        token_count=100, series_spec=short),
            LedgerEvent(2, day, EventKind.REDEEM, "SHORT", "alice", token_count=10),
        ]
        with pytest.raises(ReplayError) as err:
            ledger.replay(events)
        assert err.value.sequence == 2
        assert isinstance(err.value.__cause__, cause)


class TestReplayAndPersistence:
    def _sample_log(self):
        events = []
        state = ledger.empty_state()
        state, e = ledger.issue(state, "AU35", GOLD, "alice", 5000, 0)
        events.append(e)
        state, e = ledger.transfer(state, "alice", "bob", "AU35", 2000, 0)
        events.append(e)
        state, _, e = ledger.redeem(state, "alice", "AU35", 1000, 1)
        events.append(e)
        state, _, e = ledger.redeem(state, "bob", "AU35", 700, 2)
        events.append(e)
        return state, events

    def test_empty_log(self):
        assert ledger.replay([]) == ledger.empty_state()

    def test_replay_matches_hand_computed(self):
        state, events = self._sample_log()
        replayed = ledger.replay(events)
        assert replayed.balance("alice", "AU35") == 2000
        assert replayed.balance("bob", "AU35") == 1300
        assert replayed.issued_tokens["AU35"] == 5000
        assert replayed == state

    def test_jsonl_round_trip_snapshot_identical(self):
        state, events = self._sample_log()
        text = ledger.events_to_jsonl(events)
        replayed = ledger.replay(ledger.events_from_jsonl(text))
        assert ledger.state_to_snapshot(replayed) == ledger.state_to_snapshot(state)

    def test_snapshot_round_trip(self):
        state, _ = self._sample_log()
        back = ledger.state_from_snapshot(ledger.state_to_snapshot(state))
        assert back.vault == dict(state.vault)
        assert back.balances == {k: v for k, v in state.balances.items()}
        assert back.last_sequence == state.last_sequence

    def test_a_log_that_is_not_utf8_names_its_path(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_bytes(b'{"kind": "issue"\xff}\n')
        with pytest.raises(DomainError, match=f"^{path} is not UTF-8 text: "):
            ledger.read_event_log(path)

    def test_replay_idempotent(self):
        _, events = self._sample_log()
        once = ledger.replay(events)
        twice = ledger.replay(events)
        assert ledger.state_to_snapshot(once) == ledger.state_to_snapshot(twice)

    @pytest.mark.parametrize("head", ["no final newline", "empty", "ending in a newline",
                                      "one blank line"])
    def test_an_appended_event_starts_a_line_of_its_own(self, tmp_path, head):
        _, events = self._sample_log()
        first = ledger.events_to_jsonl(events[:2])
        before = {"no final newline": first[:-1], "empty": "",
                  "ending in a newline": first, "one blank line": "\n"}[head]
        path = tmp_path / "events.jsonl"
        path.write_bytes(before.encode("utf-8"))
        ledger.append_event_line(path, events[2])
        # only an unterminated last line gains a newline
        end = "" if before.endswith("\n") or not before else "\n"
        assert path.read_bytes() == (before + end + ledger.events_to_jsonl(events[2:3])).encode("utf-8")
        kept = events[:2] if before.strip() else []
        assert ledger.read_event_log(path) == [*kept, events[2]]


class TestMalformedDocuments:
    """Malformed events and snapshots raise DomainError, never a raw
    TypeError or AttributeError."""

    EVENT = {"sequence": 1, "day": 0, "kind": "issue", "series_id": "AU35",
             "party": "alice", "token_count": 5}

    @pytest.mark.parametrize("doc", [
        [1],
        "issue",
        {**EVENT, "sequence": None},
        {**EVENT, "day": [0]},
        {**EVENT, "token_count": {}},
        {**EVENT, "series_spec": [1]},
        {**EVENT, "series_spec": {**GOLD.to_json_dict(), "issue_date": 5}},
    ])
    def test_event(self, doc):
        with pytest.raises(DomainError, match="malformed ledger event"):
            LedgerEvent.from_json_dict(doc)

    def test_event_log_line_is_named(self):
        text = '{"sequence": 1, "day": 0, "kind": "issue"}\n'
        with pytest.raises(DomainError, match="event log line 1: malformed"):
            ledger.events_from_jsonl(text)
        first = ledger.events_to_jsonl([LedgerEvent(1, 0, EventKind.ISSUE, "AU35", "alice",
                                                    token_count=5, series_spec=GOLD)])
        with pytest.raises(DomainError, match="event log line 3: malformed"):
            ledger.events_from_jsonl(first + "\n[1]\n")

    def test_counterparty_is_a_string(self):
        doc = {**self.EVENT, "kind": "transfer", "counterparty": 5}
        assert LedgerEvent.from_json_dict(doc).counterparty == "5"

    @pytest.mark.parametrize("text", [
        "[1]",
        "5",
        '{"balances": {"a": 5}}',
        '{"series": {"AU35": [1]}}',
        '{"vault": []}',
        '{"issued_tokens": {"AU35": null}}',
        '{"last_sequence": "x"}',
        '{"last_sequence": true}',
        '{"last_sequence": 2.7}',
        json.dumps({"series": {"AU35": GOLD.to_json_dict()}, "issued_tokens": {"AU35": True}}),
        json.dumps({"series": {"AU35": GOLD.to_json_dict()}, "issued_tokens": {"AU35": 2.7}}),
    ])
    def test_snapshot(self, text):
        with pytest.raises(DomainError, match="malformed snapshot"):
            ledger.state_from_snapshot(text)

    @pytest.mark.parametrize("count", ['"x"', "true", "-1", "1.0", "null"])
    def test_snapshot_balance_must_be_a_nonnegative_int(self, count):
        text = '{"balances": {"a": {"S": %s}}}' % count
        with pytest.raises(DomainError, match=r"malformed snapshot: balance \('a', 'S'\)"):
            ledger.state_from_snapshot(text)

    @pytest.mark.parametrize("field", ["sequence", "day", "token_count"])
    @pytest.mark.parametrize("value", [1.5, True, "3", None], ids=["float", "bool", "str", "null"])
    def test_event_integer_fields_are_strict(self, field, value):
        # int() would read 1.5 as 1, true as 1 and "3" as 3
        with pytest.raises(DomainError, match=f"malformed ledger event: {field} must be an integer"):
            LedgerEvent.from_json_dict({**self.EVENT, field: value})

    def test_snapshot_balance_of_an_unknown_series(self):
        doc = {"series": {"AU35": GOLD.to_json_dict()},
               "balances": {"alice": {"AU35": 5}, "bob": {"AU35": 1, "XX": 3}}}
        with pytest.raises(DomainError, match=r"malformed snapshot: balance \('bob', 'XX'\) "
                                              r"names series 'XX', missing from \"series\""):
            ledger.state_from_snapshot(json.dumps(doc))

    @pytest.mark.parametrize("field", ["vault", "issuer_accrual", "cumulative_payouts",
                                       "issued_tokens"])
    def test_snapshot_series_entry_of_an_unknown_series(self, field):
        doc = {"series": {"AU35": GOLD.to_json_dict()}, field: {"AU35": 1, "XX": 1}}
        with pytest.raises(DomainError, match=f"malformed snapshot: {field} entry 'XX' names a series"):
            ledger.state_from_snapshot(json.dumps(doc))

    @pytest.mark.parametrize("change, problem", [
        ({"vault": {"AU35": "0"}},
         "vault + cumulative_payouts of 'AU35' is not the weight of the 5000 tokens issued"),
        ({"vault": {"AU35": "1E+999999999"}},
         "vault + cumulative_payouts of 'AU35' is not the weight of the 5000 tokens issued"),
        ({"cumulative_payouts": {"AU35": "1E-999999999"}},
         "vault + cumulative_payouts of 'AU35' is not the weight of the 5000 tokens issued"),
        ({"issuer_accrual": {"AU35": "5"}},
         "issuer_accrual + cumulative_payouts of 'AU35' is not the weight of the 1700 tokens redeemed"),
        ({"issued_tokens": {"AU35": 3000}},
         "balances of 'AU35' hold 3300 tokens, more than the 3000 issued"),
        ({"balances": {"alice": {"AU35": 2000}, "bob": {"AU35": 99999999}}},
         "balances of 'AU35' hold 100001999 tokens, more than the 5000 issued"),
    ], ids=["empty-vault", "wide-vault", "wide-payouts", "accrual", "issued-below-held",
            "balance-above-issued"])
    def test_snapshot_breaking_conservation(self, change, problem):
        # a redeem from either of the first and last used to drive the vault negative
        state, _ = TestReplayAndPersistence()._sample_log()
        doc = {**json.loads(ledger.state_to_snapshot(state)), **change}
        with pytest.raises(DomainError) as err:
            ledger.state_from_snapshot(json.dumps(doc))
        assert str(err.value) == f"malformed snapshot: {problem}"

    @pytest.mark.parametrize("issued", [10**34, 10**600], ids=["35-digit", "601-digit"])
    def test_snapshot_issued_tokens_stop_below_ten_to_the_34(self, issued):
        # a snapshot holding 10**600 issued tokens, balance and vault once loaded
        doc = {"series": {"AU35": GOLD.to_json_dict()}, "balances": {"alice": {"AU35": issued}},
               "vault": {"AU35": str(issued)}, "issued_tokens": {"AU35": issued}}
        with pytest.raises(DomainError) as err:
            ledger.state_from_snapshot(json.dumps(doc))
        assert str(err.value) == "malformed snapshot: issued_tokens 'AU35' must have at most 34 digits"

    def test_snapshot_widest_issued_tokens_load(self):
        state = issued_state(10**34 - 1)
        loaded = ledger.state_from_snapshot(ledger.state_to_snapshot(state))
        assert loaded.issued_tokens["AU35"] == 10**34 - 1
        assert loaded.balance("alice", "AU35") == 10**34 - 1

    def test_snapshot_keeping_conservation_loads(self):
        # a series with no payouts or accrual entries, as a book opened
        # from a snapshot starts, and one that has paid out
        state, _ = TestReplayAndPersistence()._sample_log()
        state, _ = ledger.issue(state, "AG", replace(GOLD, initial_weight=D("10.5")), "carol", 7, 3)
        text = ledger.state_to_snapshot(state)
        assert ledger.state_to_snapshot(ledger.state_from_snapshot(text)) == text
        assert ledger.state_from_snapshot(text).vault["AG"] == D("73.5")

    def test_snapshot_zero_balance_loads(self):
        state = ledger.state_from_snapshot('{"balances": {"a": {"S": 0}}}')
        assert state.balances == {("a", "S"): 0}

    ONE_GRAM = decay.RsdmSpec(date(1970, 1, 1), "XAU", D("1"), D("0.99996"), 18262, D("0.003"),
                              min_redemption_grams=D("1"))

    def one_gram_snapshot(self, issued):
        """The snapshot document of series AU, 1 g a token, with ``issued``
        tokens issued to alice."""
        if not issued:
            return {"series": {"AU": self.ONE_GRAM.to_json_dict()}}
        state, _ = ledger.issue(ledger.empty_state(), "AU", self.ONE_GRAM, "alice", issued, 0)
        return json.loads(ledger.state_to_snapshot(state))

    @pytest.mark.parametrize("issued, change, problem", [
        (10, {"last_sequence": -1}, "last_sequence must be nonnegative"),
        (10, {"vault": {"AU": "11"}, "cumulative_payouts": {"AU": "-1"}, "issuer_accrual": {"AU": "1"}},
         "cumulative_payouts 'AU' must be nonnegative"),
        (0, {"vault": {"AU": "-1"}, "cumulative_payouts": {"AU": "1"}, "issuer_accrual": {"AU": "-1"}},
         "vault 'AU' must be nonnegative"),
        (0, {"vault": {"AU": "0"}, "cumulative_payouts": {"AU": "1"}, "issuer_accrual": {"AU": "-1"}},
         "issuer_accrual 'AU' must be nonnegative"),
        (0, {"issued_tokens": {"AU": -1}}, "issued_tokens 'AU' must be nonnegative"),
    ], ids=["last-sequence", "payouts", "vault", "accrual", "issued"])
    def test_snapshot_holding_a_negative_figure(self, issued, change, problem):
        # each once loaded: a sequence-0 transfer appended after -1, a
        # negative payout, or a vault and accrual below zero
        doc = {**self.one_gram_snapshot(issued), **change}
        with pytest.raises(DomainError) as err:
            ledger.state_from_snapshot(json.dumps(doc))
        assert type(err.value) is DomainError
        assert str(err.value) == f"malformed snapshot: {problem}"

    def test_snapshot_negative_zero_amounts_load(self):
        doc = {**self.one_gram_snapshot(0),
               **{field: {"AU": "-0"} for field in ("vault", "issuer_accrual", "cumulative_payouts")}}
        assert ledger.state_from_snapshot(json.dumps(doc)).vault == {"AU": D("-0")}

    def test_snapshot_of_a_zero_fee_series_redeemed_to_the_last_token_loads(self):
        spec = replace(self.ONE_GRAM, daily_decay_factor=D("1"), redemption_fee_rate=D("0"))
        state, _ = ledger.issue(ledger.empty_state(), "AU", spec, "alice", 10, 0)
        state, _, _ = ledger.redeem(state, "alice", "AU", 10, 5)
        text = ledger.state_to_snapshot(state)
        doc = json.loads(text)
        assert doc["vault"] == doc["issuer_accrual"] == {"AU": "0E-9"}
        assert ledger.state_to_snapshot(ledger.state_from_snapshot(text)) == text

    INVALID_SPEC = "invalid spec: decay factor must be in (0, 1]"

    def test_invalid_spec_in_an_event(self):
        spec = {**GOLD.to_json_dict(), "daily_decay_factor": "1.5"}
        with pytest.raises(DomainError) as err:
            LedgerEvent.from_json_dict({**self.EVENT, "series_spec": spec})
        assert str(err.value) == f"malformed ledger event: {self.INVALID_SPEC}"

    def test_invalid_spec_in_a_log_names_its_line(self):
        first = ledger.events_to_jsonl([LedgerEvent(1, 0, EventKind.ISSUE, "AU35", "alice",
                                                    token_count=5, series_spec=GOLD)])
        spec = {**GOLD.to_json_dict(), "daily_decay_factor": "1.5"}
        second = json.dumps({**self.EVENT, "sequence": 2, "series_id": "BAD",
                             "series_spec": spec})
        with pytest.raises(DomainError) as err:
            ledger.events_from_jsonl(first + second + "\n")
        assert str(err.value) == f"event log line 2: malformed ledger event: {self.INVALID_SPEC}"

    def test_snapshot_with_an_invalid_spec_does_not_load(self):
        # loaded, a 100-token book with a 100 g vault paid 19,117,580.6 g
        # to a redeem of its 100 tokens on day 30
        spec = replace(GOLD, min_redemption_grams=D("1"))
        state, _ = ledger.issue(ledger.empty_state(), "AU", spec, "a", 100, 0)
        doc = json.loads(ledger.state_to_snapshot(state))
        assert doc["vault"] == {"AU": "100"}
        doc["series"]["AU"]["daily_decay_factor"] = "1.5"
        with pytest.raises(DomainError) as err:
            ledger.state_from_snapshot(json.dumps(doc))
        assert str(err.value) == f"malformed snapshot: {self.INVALID_SPEC}"

    @pytest.mark.parametrize("spec", [
        {**GOLD.to_json_dict(), "expiry_days": None},
        {**GOLD.to_json_dict(), "issue_date": "2020-13-01"},
    ])
    def test_malformed_series_spec_keeps_the_prefixes(self, spec):
        with pytest.raises(DomainError, match="malformed ledger event: malformed series spec"):
            LedgerEvent.from_json_dict({**self.EVENT, "series_spec": spec})
        with pytest.raises(DomainError, match="malformed snapshot: malformed series spec"):
            ledger.state_from_snapshot(json.dumps({"series": {"AU35": spec}}))


def _first_issue_line() -> str:
    return ledger.events_to_jsonl([LedgerEvent(1, 0, EventKind.ISSUE, "AU35", "alice",
                                               token_count=5, series_spec=GOLD)])


class TestRejectionMessages:
    # each rejection below, with its exact type and message
    REJECTIONS = {
        "re-issue with a different spec": (
            lambda: ledger.append_event(issued_state(), LedgerEvent(
                2, 1, EventKind.ISSUE, "AU35", "bob", token_count=1,
                series_spec=replace(GOLD, redemption_fee_rate=D("0.01")))),
            LedgerError, "series 'AU35' already registered with different parameters"),
        "issue before the series issue date": (
            lambda: ledger.append_event(ledger.empty_state(), LedgerEvent(
                1, 5, EventKind.ISSUE, "LATE", "alice", token_count=1,
                series_spec=replace(GOLD, issue_date=date(1970, 1, 10)))),
            LedgerError, "issue event day precedes the series issue date"),
        "transfer without a counterparty": (
            lambda: ledger.append_event(issued_state(), LedgerEvent(
                2, 1, EventKind.TRANSFER, "AU35", "alice", token_count=1)),
            LedgerError, "transfer requires a counterparty"),
        "invalid JSON on a log line": (
            lambda: ledger.events_from_jsonl(_first_issue_line() + "\n{oops\n"),
            DomainError, "event log line 3: invalid JSON: Expecting property name enclosed in "
                         "double quotes: line 1 column 2 (char 1)"),
        "invalid snapshot JSON": (
            lambda: ledger.state_from_snapshot('{"last_sequence": 1,}'),
            DomainError, "invalid snapshot JSON: Expecting property name enclosed in double "
                         "quotes: line 1 column 21 (char 20)"),
        "quotes CSV with the wrong header": (
            lambda: ledger.quotes_from_csv("day,asset,price\n0,XAU,100\n"),
            DomainError, "quotes CSV must have header 'day,asset_id,price', "
                         "got ['day', 'asset', 'price']"),
        "quote day given as a string": (
            lambda: PriceQuote("0", "XAU", D(100)),
            DomainError, "quote day must be an integer, got str"),
    }

    @pytest.mark.parametrize("case", REJECTIONS)
    def test_rejection(self, case):
        call, error, message = self.REJECTIONS[case]
        with pytest.raises(error) as err:
            call()
        assert type(err.value) is error
        assert str(err.value) == message

    def test_quotes_csv_with_a_padded_header_loads(self):
        # the header check ignores spaces around a name, and so do the rows
        quotes = ledger.quotes_from_csv("day, asset_id, price\n0,XAU,100\n")
        assert quotes == [PriceQuote(0, "XAU", D(100))]


class TestHoldingsOf:
    def test_one_party_in_series_order(self):
        state = ledger.empty_state()
        for series, party, count in [("ZN", "alice", 3), ("AU35", "bob", 7),
                                     ("AG", "alice", 2), ("PT", "alice", 4)]:
            state, _ = ledger.issue(state, series, GOLD, party, count, 0)
        state, _ = ledger.transfer(state, "alice", "bob", "PT", 4, 0)
        holdings = state.holdings_of("alice")
        assert list(holdings.items()) == [("AG", 2), ("ZN", 3)]
        assert list(state.holdings_of("bob").items()) == [("AU35", 7), ("PT", 4)]
        assert state.holdings_of("carol") == {}
        report = ledger.holdings_valuation(state, [PriceQuote(0, "XAU", D("100"))],
                                           "alice", 0)
        assert [h.series_id for h in report.holdings] == ["AG", "ZN"]


class TestValuation:
    def test_quote_price_obeys_the_width_rule(self):
        with pytest.raises(DomainError, match="quote price must have at most 34 digits"):
            PriceQuote(0, "XAU", "1E+1000000")

    @pytest.mark.parametrize("row, problem", [
        ("5,XAU,-2", "quote price must be nonnegative, got -2"),
        ("5,XAU,1E+1000000", "quote price must have at most 34 digits"),
        ("5,XAU,abc", "not a decimal number: 'abc'"),
    ])
    def test_quotes_csv_names_the_rejected_line(self, row, problem):
        text = f"day,asset_id,price\n0,XAU,100\n{row}\n"
        with pytest.raises(DomainError) as err:
            ledger.quotes_from_csv(text)
        assert str(err.value).startswith(f"quotes CSV line 3: {problem}")

    def test_residual_value_at_issue(self):
        state, _ = ledger.issue(ledger.empty_state(), "AU35", GOLD, "alice", 10, 0)
        report = ledger.holdings_valuation(state, [PriceQuote(0, "XAU", D("100"))],
                                           "alice", 0)
        assert report.holdings[0].residual_value == 1000

    def test_residual_value_one_day(self):
        state, _ = ledger.issue(ledger.empty_state(), "AU35", GOLD, "alice", 10, 0)
        report = ledger.holdings_valuation(state, [PriceQuote(0, "XAU", D("100"))],
                                           "alice", 1)
        assert report.holdings[0].residual_value == D("999.96")

    def test_missing_quote_lists_series(self):
        state, _ = ledger.issue(ledger.empty_state(), "AU35", GOLD, "alice", 10, 0)
        with pytest.raises(MissingQuote) as err:
            ledger.holdings_valuation(state, [PriceQuote(0, "XAG", D("1"))], "alice", 0)
        assert err.value.uncovered == ["AU35"]

    def test_missing_quote_wins_over_a_series_not_yet_issued(self):
        # "AG" sorts first and is quoted, but issued after the valuation
        # day; "ZN" is live and unquoted
        later = decay.RsdmSpec(date(1970, 1, 31), "XAU", D("1"), D("0.99996"), 18262, D("0.003"))
        state, _ = ledger.issue(ledger.empty_state(), "AG", later, "alice", 10, 30)
        state, _ = ledger.issue(state, "ZN", replace(GOLD, collateral_id="XZN"), "alice", 10, 30)
        quotes = [PriceQuote(0, "XAU", D("100"))]
        with pytest.raises(MissingQuote) as err:
            ledger.holdings_valuation(state, quotes, "alice", 5)
        assert err.value.uncovered == ["ZN"]
        with pytest.raises(DomainError, match="valuation day 5 precedes the issue date of 'AG'"):
            ledger.holdings_valuation(state, quotes + [PriceQuote(0, "XZN", D("1"))], "alice", 5)

    def test_most_recent_prior_quote_used(self):
        state, _ = ledger.issue(ledger.empty_state(), "AU35", GOLD, "alice", 10, 0)
        quotes = [
            PriceQuote(0, "XAU", D("90")),
            PriceQuote(5, "XAU", D("110")),
            PriceQuote(9, "XAU", D("130")),  # after the valuation day
        ]
        report = ledger.holdings_valuation(state, quotes, "alice", 7)
        assert report.holdings[0].price_per_gram == 110

    def test_expired_holding_valued_at_zero(self):
        short = decay.RsdmSpec(date(1970, 1, 1), "XAU", D("1"), D("0.99996"),
                               30, D("0.003"), min_redemption_grams=D("1"))
        state, _ = ledger.issue(ledger.empty_state(), "SHORT", short, "alice", 10, 0)
        report = ledger.holdings_valuation(state, [PriceQuote(0, "XAU", D("100"))],
                                           "alice", 60)
        row = report.holdings[0]
        assert row.expired and row.residual_value == 0

    def test_a_report_and_its_rows_are_plain_named_tuples(self):
        short = decay.RsdmSpec(date(1970, 1, 1), "XAU", D("1"), D("0.99996"), 1, D("0.003"),
                               min_redemption_grams=D("1"))
        state, _ = ledger.issue(ledger.empty_state(), "AU35", GOLD, "alice", 10, 0)
        state, _ = ledger.issue(state, "SHORT", short, "alice", 2, 0)
        report = ledger.holdings_valuation(state, [PriceQuote(0, "XAU", D("100"))], "alice", 2)
        live = ("HoldingValuation(series_id='AU35', token_count=10, residual_grams=Decimal('9.9992000160'), "
                "redeemable_grams=Decimal('9.9692024159520'), quote_day=0, price_per_gram=Decimal('100'), "
                "residual_value=Decimal('999.9200016000'), redeemable_value=Decimal('996.9202415952000'), "
                "expired=False)")
        expired = ("HoldingValuation(series_id='SHORT', token_count=2, residual_grams=Decimal('0'), "
                   "redeemable_grams=Decimal('0'), quote_day=None, price_per_gram=None, "
                   "residual_value=Decimal('0'), redeemable_value=Decimal('0'), expired=True)")
        row_fields = ("series_id", "token_count", "residual_grams", "redeemable_grams", "quote_day",
                      "price_per_gram", "residual_value", "redeemable_value", "expired")
        check_result_record(report.holdings[0], row_fields, live)
        check_result_record(report.holdings[1], row_fields, expired)
        check_result_record(
            report, ("party", "day", "holdings", "total_residual_value", "total_redeemable_value"),
            f"ValuationReport(party='alice', day=2, holdings=({live}, {expired}), "
            "total_residual_value=Decimal('999.9200016000'), "
            "total_redeemable_value=Decimal('996.9202415952000'))")

    @pytest.mark.parametrize("day, kind", [(True, "bool"), (10.0, "float"), ("10", "str"),
                                           (None, "NoneType")])
    def test_valuation_day_must_be_an_integer(self, day, kind):
        with pytest.raises(DomainError) as err:
            ledger.holdings_valuation(issued_state(), [PriceQuote(0, "XAU", D("100"))], "alice", day)
        assert str(err.value) == f"valuation day must be an integer, got {kind}"


class TestRandomizedConservation:
    """Seeded random event mix with an independent rational mirror."""

    def test_conservation_and_claims(self):
        rng = random.Random(1_9700_101)
        pool = make_series_pool()
        state = ledger.empty_state()
        parties = [f"p{i}" for i in range(6)]

        issued_mirror: dict[str, Fraction] = {}
        vault_mirror: dict[str, Fraction] = {}
        events_applied = 0
        residual_cache: dict[tuple[str, int], Fraction] = {}

        def residual_frac(series_id: str, spec, day: int) -> Fraction:
            key = (series_id, day)
            if key not in residual_cache:
                residual_cache[key] = (
                    Fraction(spec.initial_weight) * Fraction(spec.daily_decay_factor) ** day
                )
            return residual_cache[key]

        prev_accruals: dict[str, Decimal] = {}
        for step in range(600):
            day = step // 4
            action = rng.choice(["issue", "transfer", "redeem", "redeem"])
            try:
                if action == "issue":
                    series_id, spec = rng.choice(pool)
                    count = rng.randint(1, 400)
                    state, _ = ledger.issue(
                        state, series_id,
                        spec if series_id not in state.specs else None,
                        rng.choice(parties), count, day,
                    )
                    issued_mirror[series_id] = issued_mirror.get(series_id, Fraction(0)) \
                        + Fraction(spec.initial_weight) * count
                    vault_mirror[series_id] = vault_mirror.get(series_id, Fraction(0)) \
                        + Fraction(spec.initial_weight) * count
                elif action == "transfer":
                    holders = [(p, s) for (p, s), c in state.balances.items() if c > 0]
                    if not holders:
                        continue
                    party, series_id = rng.choice(holders)
                    count = rng.randint(1, state.balance(party, series_id))
                    state, _ = ledger.transfer(
                        state, party, rng.choice(parties), series_id, count, day
                    )
                else:
                    holders = [(p, s) for (p, s), c in state.balances.items() if c > 0]
                    if not holders:
                        continue
                    party, series_id = rng.choice(holders)
                    count = rng.randint(1, state.balance(party, series_id))
                    state, payout, _ = ledger.redeem(state, party, series_id, count, day)
                    vault_mirror[series_id] -= Fraction(payout.value)
            except (BelowMinimumRedemption, LedgerError):
                continue
            events_applied += 1

            # conservation vs the independent mirror
            for series_id, frac_vault in vault_mirror.items():
                lib_vault = Fraction(state.vault[series_id])
                assert abs(lib_vault - frac_vault) == 0
                paid = Fraction(state.cumulative_payouts.get(series_id, D(0)))
                drift = abs(lib_vault + paid - issued_mirror[series_id])
                assert drift <= Fraction(1, 10**9) * events_applied

            # issuer accrual never decreases
            for series_id, accrued in state.issuer_accrual.items():
                assert accrued >= prev_accruals.get(series_id, D(0))
                prev_accruals[series_id] = accrued

            # claim dominance: outstanding decayed claims fit in the vault
            outstanding: dict[str, int] = {}
            for (p, s), c in state.balances.items():
                outstanding[s] = outstanding.get(s, 0) + c
            for series_id, tokens in outstanding.items():
                spec = state.specs[series_id]
                claims = residual_frac(series_id, spec, day) * tokens
                slack = Fraction(1, 10**9) * events_applied
                assert claims <= Fraction(state.vault[series_id]) + slack

        assert events_applied > 300  # the mix actually exercised the ledger


class TestSharedBalances:
    """Successor states share their balances' storage; every state keeps
    reading its own values, and reads never change anything."""

    def book(self, holders=400):
        doc = {"last_sequence": holders, "series": {"AU35": GOLD.to_json_dict()},
               "balances": {f"p{i:03d}": {"AU35": 1000} for i in range(holders)},
               "vault": {"AU35": str(1000 * holders)}, "issued_tokens": {"AU35": 1000 * holders}}
        return ledger.state_from_snapshot(json.dumps(doc))

    def test_chain_and_branches_match_the_reference(self):
        rng = random.Random(6)
        state = ref = self.book()
        seen = [(state, snapshot(state))]
        for step in range(300):
            a, b = rng.sample(range(400), 2)
            if step % 7 == 0:  # a branch: a second successor of the same state
                side = ledger.transfer(state, f"p{b:03d}", f"p{a:03d}", "AU35", 1, 1)[0]
                seen.append((side, snapshot(side)))
            event = LedgerEvent(state.last_sequence + 1, 1, EventKind.TRANSFER, "AU35",
                                f"p{a:03d}", counterparty=f"n{b:03d}", token_count=rng.randint(1, 5))
            state, ref = ledger.append_event(state, event), reference_apply(ref, event)
            assert snapshot(state) == snapshot(ref)
            seen.append((state, snapshot(state)))
        for old, text in seen:
            assert snapshot(old) == text
        assert state.balances == ref.balances
        assert len(state.balances) == len(ref.balances) == 400 + len(
            {k for k in ref.balances if k[0].startswith("n")})

    def test_mapping_reads(self):
        state = self.book(100)
        state, _ = ledger.transfer(state, "p000", "new", "AU35", 10, 1)
        state, _ = ledger.transfer(state, "p001", "p000", "AU35", 5, 1)
        balances = state.balances
        want = {**{(f"p{i:03d}", "AU35"): 1000 for i in range(100)},
                ("p000", "AU35"): 995, ("p001", "AU35"): 995, ("new", "AU35"): 10}
        inner = (balances._base, balances._delta, dict(balances._delta))
        assert balances == want and want == balances and balances != {}
        assert len(balances) == 101 and list(balances) == list(want)
        assert balances[("p000", "AU35")] == 995 and balances.get(("x", "AU35"), 0) == 0
        assert ("new", "AU35") in balances and ("x", "AU35") not in balances
        assert dict(balances.items()) == want and sorted(balances.values()) == sorted(want.values())
        assert repr(balances).startswith("_Balances({")
        with pytest.raises(KeyError):
            balances[("x", "AU35")]
        with pytest.raises(TypeError):
            balances[("x", "AU35")] = 1
        assert state.holdings_of("new") == {"AU35": 10}
        snapshot(state)
        # no read folded, rebuilt or wrote the storage
        assert balances._base is inner[0] and len(balances._base) == 100
        assert balances._delta is inner[1] and balances._delta == inner[2]

    def test_plain_mapping_is_copied_in(self):
        mine = {("alice", "AU35"): 5}
        state = ledger.LedgerState(specs={"AU35": GOLD}, balances=mine, vault={}, issuer_accrual={},
                                   cumulative_payouts={}, issued_tokens={})
        mine[("alice", "AU35")] = 0
        assert state.balance("alice", "AU35") == 5
        state, _ = ledger.transfer(state, "alice", "bob", "AU35", 2, 0)
        assert state.balances == {("alice", "AU35"): 3, ("bob", "AU35"): 2}

    def test_replay_equals_the_reference_chain(self):
        _, events = TestReplayAndPersistence()._sample_log()
        ref = ledger.empty_state()
        for event in events:
            ref = reference_apply(ref, event)
        assert snapshot(ledger.replay(events)) == snapshot(ref)

    def test_self_transfer_keeps_the_balance(self):
        state, _ = ledger.transfer(issued_state(100), "alice", "alice", "AU35", 60, 1)
        assert state.balance("alice", "AU35") == 100 and state.last_sequence == 2


# ---------------------------------------------------------------------------
# Fraction mirror of a book (copied from the benchmark's oracles, which do
# not import rsdm): token counts per (party, series), and each series'
# vault, payouts and issuer accrual as exact Fractions.
# ---------------------------------------------------------------------------

SETTLE_SCALE = 10**9  # the 9-decimal settlement grid


def settle_units(x: Fraction) -> int:
    """x on the 9-decimal grid, half-even, as an integer count of 1e-9."""
    q, r = divmod(x.numerator * SETTLE_SCALE, x.denominator)
    twice = 2 * r
    if twice > x.denominator or (twice == x.denominator and q % 2):
        q += 1
    return q


def redeem_payout(count: int, fee: Fraction, weight: Fraction, theta: Fraction, days: int) -> Fraction:
    """Settled grams paid for redeeming ``count`` tokens after ``days``."""
    return Fraction(settle_units(count * (1 - fee) * weight * theta**days), SETTLE_SCALE)


class BookMirror:
    def __init__(self):
        self.terms: dict[str, tuple[Fraction, Fraction, Fraction]] = {}  # weight, theta, fee
        self.balances: dict[tuple[str, str], int] = {}
        self.vault: dict[str, Fraction] = {}
        self.payouts: dict[str, Fraction] = {}
        self.accrual: dict[str, Fraction] = {}
        self.issued: dict[str, int] = {}
        self.last_sequence = 0

    def issue(self, series: str, party: str, count: int) -> None:
        key = (party, series)
        self.balances[key] = self.balances.get(key, 0) + count
        self.vault[series] = self.vault.get(series, Fraction(0)) + count * self.terms[series][0]
        self.issued[series] = self.issued.get(series, 0) + count
        self.last_sequence += 1

    def transfer(self, series: str, party: str, counterparty: str, count: int) -> None:
        self.balances[(party, series)] -= count
        key = (counterparty, series)
        self.balances[key] = self.balances.get(key, 0) + count
        self.last_sequence += 1

    def redeem_payout(self, series: str, count: int, days: int) -> Fraction:
        weight, theta, fee = self.terms[series]
        return redeem_payout(count, fee, weight, theta, days)

    def redeem(self, series: str, party: str, count: int, payout: Fraction) -> None:
        self.balances[(party, series)] -= count
        self.vault[series] -= payout
        self.payouts[series] = self.payouts.get(series, Fraction(0)) + payout
        face = count * self.terms[series][0]
        self.accrual[series] = self.accrual.get(series, Fraction(0)) + face - payout
        self.last_sequence += 1

    def matches(self, state) -> bool:
        return (
            {k: v for k, v in state.balances.items() if v} == {k: v for k, v in self.balances.items() if v}
            and {s: Fraction(v) for s, v in state.vault.items()} == self.vault
            and {s: Fraction(v) for s, v in state.cumulative_payouts.items()} == self.payouts
            and {s: Fraction(v) for s, v in state.issuer_accrual.items()} == self.accrual
            and dict(state.issued_tokens) == self.issued
            and state.last_sequence == self.last_sequence
        )


# ---------------------------------------------------------------------------
# Stateful differential test
# ---------------------------------------------------------------------------

EPOCH = date(1970, 1, 1)
MACHINE_SERIES = {
    # 50-year gold: a redeem on day 18,000 works on a ~90k-digit residual
    "AU": decay.RsdmSpec(EPOCH, "XAU", D("1"), D("0.99996"), 18262, D("0.003"),
                         min_redemption_grams=D("50")),
    # 10-year platinum with a capped issue: day 3,651 is past expiry
    "PT": decay.RsdmSpec(EPOCH, "XPT", D("1"), D("0.9997"), 3650, D("0.005"),
                         issue_size=1500, min_redemption_grams=D("5")),
    "CT": decay.RsdmSpec(EPOCH, "CTL", D("10"), D("1"), 18262, D("0.002"),
                         min_redemption_grams=D("1")),
}
PARTIES = ("a", "b", "c", "d")
parties = st.sampled_from(PARTIES)
series_ids = st.sampled_from(("AU", "AU", "PT", "CT", "CT", "ZZ"))  # ZZ is never issued
days = st.sampled_from((0, 1, 30, 365, 3000, 3651, 18000))
counts = st.integers(1, 600)


class LedgerMachine(RuleBasedStateMachine):
    """Drives ``append_event``, ``redeem``, ``replay`` and snapshots, and
    after every step compares the state with the copy-per-event
    reference (snapshot bytes) and with a Fraction mirror. Every state
    the run passes through, including abandoned branches, must still
    read as it did when it was made."""

    def __init__(self):
        super().__init__()
        self.state = self.ref = ledger.empty_state()
        self.mirror = BookMirror()
        self.log: list[LedgerEvent] = []
        self.seen: list[tuple] = []  # (state, its snapshot, its balances)

    def _keep(self, state) -> None:
        self.seen.append((state, snapshot(state), dict(state.balances.items())))

    def _derive(self, event, stated: bool = False):
        """Both successors of the current state under ``event``, checked
        against each other, or None when both reject it alike. With
        ``stated``, a redeem also goes through ``ledger.redeem``, which
        puts the payout on the event, or must reject it alike."""
        before = snapshot(self.state)
        try:
            want = reference_apply(self.ref, event)
        except RsdmError as exc:
            note(f"{event.kind.value} rejected: {type(exc).__name__}")
            attempts = [lambda: ledger.append_event(self.state, event)]
            if stated:
                attempts.append(lambda: ledger.redeem(self.state, event.party, event.series_id,
                                                      event.token_count, event.day))
            for attempt in attempts:
                with pytest.raises(RsdmError) as info:
                    attempt()
                assert type(info.value) is type(exc) and str(info.value) == str(exc)
            assert snapshot(self.state) == before
            return None
        if stated:
            got, _, event = ledger.redeem(self.state, event.party, event.series_id,
                                          event.token_count, event.day)
        else:
            got = ledger.append_event(self.state, event)
        note(f"{event.kind.value} applied" + (" on day 18000" if event.day == 18000 else ""))
        assert snapshot(got) == snapshot(want)
        assert snapshot(self.state) == before
        return got, want, event

    def _advance(self, derived) -> None:
        got, want, event = derived
        self._keep(self.state)
        self.state, self.ref = got, want
        self.log.append(event)
        sid, count = event.series_id, event.token_count
        if event.kind is EventKind.ISSUE:
            if event.series_spec is not None and sid not in self.mirror.terms:
                spec = event.series_spec
                self.mirror.terms[sid] = (Fraction(spec.initial_weight),
                                          Fraction(spec.daily_decay_factor),
                                          Fraction(spec.redemption_fee_rate))
            self.mirror.issue(sid, event.party, count)
        elif event.kind is EventKind.TRANSFER:
            self.mirror.transfer(sid, event.party, event.counterparty, count)
        else:
            payout = self.mirror.redeem_payout(sid, count, event.day)
            assert Fraction(self.state.cumulative_payouts[sid]) - self.mirror.payouts.get(sid, 0) == payout
            self.mirror.redeem(sid, event.party, count, payout)
        assert self.mirror.matches(self.state)

    def _event(self, kind, sid, party, count, day, **extra):
        return LedgerEvent(self.state.last_sequence + 1, day, kind, sid, party,
                           token_count=count, **extra)

    @initialize(holders=st.lists(st.tuples(parties, st.integers(200, 1000)), min_size=3, max_size=3))
    def open_book(self, holders):
        for (party, count), sid in zip(holders, MACHINE_SERIES):
            self._advance(self._derive(self._event(EventKind.ISSUE, sid, party, count, 0,
                                                   series_spec=MACHINE_SERIES[sid])))

    @rule(sid=series_ids, party=parties, count=counts, day=days, with_spec=st.booleans())
    def issue(self, sid, party, count, day, with_spec):
        spec = MACHINE_SERIES.get(sid) if with_spec else None
        derived = self._derive(self._event(EventKind.ISSUE, sid, party, count, day, series_spec=spec))
        if derived:
            self._advance(derived)

    @rule(sid=series_ids, party=parties, counterparty=parties, count=counts, day=days)
    def transfer(self, sid, party, counterparty, count, day):
        # counterparty may be the party itself, and count may overdraw
        derived = self._derive(self._event(EventKind.TRANSFER, sid, party, count, day,
                                           counterparty=counterparty))
        if derived:
            self._advance(derived)

    @rule(sid=series_ids, party=parties, count=counts, day=days, stated=st.booleans())
    def redeem(self, sid, party, count, day, stated):
        # deep-decay, expired and below-minimum redeems all come up here
        derived = self._derive(self._event(EventKind.REDEEM, sid, party, count, day), stated)
        if derived:
            self._advance(derived)

    @rule(skip=st.sampled_from((-1, 0, 2, 5)), party=parties)
    def sequence_gap(self, skip, party):
        event = LedgerEvent(self.state.last_sequence + skip, 0, EventKind.TRANSFER, "AU", party,
                            counterparty="b", token_count=1)
        assert self._derive(event) is None

    @rule(first=st.tuples(parties, parties, counts), second=st.tuples(parties, counts, days),
          sid=st.sampled_from(("AU", "CT")), keep_first=st.booleans())
    def branch(self, first, second, sid, keep_first):
        """Two successors of one state: a transfer and a redeem; carry on
        with one and keep the other only to check it later."""
        a = self._derive(self._event(EventKind.TRANSFER, sid, first[0], first[2], 1,
                                     counterparty=first[1]))
        b = self._derive(self._event(EventKind.REDEEM, sid, second[0], second[1], second[2]))
        kept, dropped = (a, b) if keep_first else (b, a)
        if dropped:
            self._keep(dropped[0])
        if kept:
            self._advance(kept)

    @rule(adopt=st.booleans())
    def replay(self, adopt):
        replayed = ledger.replay(self.log)
        assert snapshot(replayed) == snapshot(self.state)
        if adopt:  # carry on from the replayed state
            self._keep(self.state)
            self.state = replayed

    @rule()
    def snapshot_round_trip(self):
        text = snapshot(self.state)
        reloaded = ledger.state_from_snapshot(text)
        assert snapshot(reloaded) == text
        self._keep(self.state)
        self.state = reloaded

    @invariant()
    def earlier_states_read_their_own_balances(self):
        for state, text, balances in self.seen:
            assert snapshot(state) == text
            assert all(state.balance(p, s) == n for (p, s), n in balances.items())

    @invariant()
    def holdings_are_the_positive_balances_in_series_order(self):
        for party in PARTIES:
            want = {s: n for (p, s), n in sorted(self.state.balances.items()) if p == party and n > 0}
            assert list(self.state.holdings_of(party).items()) == list(want.items())


TestLedgerMachine = LedgerMachine.TestCase
TestLedgerMachine.settings = settings(max_examples=40, stateful_step_count=40, deadline=None)
