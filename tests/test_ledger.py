"""Event-sourced ledger: bookkeeping, conservation, replay, valuation."""

import json
import random
from datetime import date
from decimal import Decimal
from fractions import Fraction

import pytest

from conftest import make_series_pool
from rsdm import decay, ledger
from rsdm.errors import (
    BelowMinimumRedemption,
    DomainError,
    ExpiredSeries,
    InsufficientBalance,
    LedgerError,
    MissingQuote,
    ReplayError,
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
        bad = decay.RsdmSpec(date(1970, 1, 1), "XAU", D("1"), D("1.1"), 100, D("0"))
        with pytest.raises(LedgerError, match="decay factor"):
            ledger.issue(ledger.empty_state(), "BAD", bad, "alice", 1, 0)

    def test_huge_exponent_rejected_before_any_sum(self):
        # accepted, the first vault sum would build a 10^9-digit coefficient
        bad = decay.RsdmSpec(date(1970, 1, 1), "XAU", D("1E+999999999"), D("0.99996"),
                             100, D("0"))
        with pytest.raises(LedgerError, match="at most 34 digits"):
            ledger.issue(ledger.empty_state(), "BAD", bad, "alice", 1, 0)

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
        residual = decay.residual_weight(kilo, 18000).value * 1000
        assert f"residual {residual.quantize(D('1E-9')):f} g" in message

    def test_redeem_quotes_once(self, monkeypatch):
        calls = []

        def counting_quote(spec, elapsed):
            calls.append(elapsed)
            return decay.redemption_quote(spec, elapsed)

        monkeypatch.setattr(ledger, "redemption_quote", counting_quote)
        state, payout, event = ledger.redeem(issued_state(), "alice", "AU35", 1000, 365)
        assert calls == [365]
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

    def test_stated_payout_must_match(self):
        state = issued_state()
        event = LedgerEvent(
            sequence=2, day=1, kind=EventKind.REDEEM, series_id="AU35",
            party="alice", token_count=1000, payout_grams=D("999.999"),
        )
        with pytest.raises(LedgerError, match="payout"):
            ledger.append_event(state, event)


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

    def test_replay_idempotent(self):
        _, events = self._sample_log()
        once = ledger.replay(events)
        twice = ledger.replay(events)
        assert ledger.state_to_snapshot(once) == ledger.state_to_snapshot(twice)


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
    ])
    def test_snapshot(self, text):
        with pytest.raises(DomainError, match="malformed snapshot"):
            ledger.state_from_snapshot(text)

    @pytest.mark.parametrize("count", ['"x"', "true", "-1", "1.0", "null"])
    def test_snapshot_balance_must_be_a_nonnegative_int(self, count):
        text = '{"balances": {"a": {"S": %s}}}' % count
        with pytest.raises(DomainError, match=r"malformed snapshot: balance \('a', 'S'\)"):
            ledger.state_from_snapshot(text)

    def test_snapshot_zero_balance_loads(self):
        state = ledger.state_from_snapshot('{"balances": {"a": {"S": 0}}}')
        assert state.balances == {("a", "S"): 0}

    @pytest.mark.parametrize("spec", [
        {**GOLD.to_json_dict(), "expiry_days": None},
        {**GOLD.to_json_dict(), "issue_date": "2020-13-01"},
    ])
    def test_malformed_series_spec_keeps_the_prefixes(self, spec):
        with pytest.raises(DomainError, match="malformed ledger event: malformed series spec"):
            LedgerEvent.from_json_dict({**self.EVENT, "series_spec": spec})
        with pytest.raises(DomainError, match="malformed snapshot: malformed series spec"):
            ledger.state_from_snapshot(json.dumps({"series": {"AU35": spec}}))


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
