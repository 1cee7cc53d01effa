"""Ledger workloads: a custodian's deep-decay book and an exchange's wide book.

Both drive the public ``rsdm.ledger`` API through whole rounds of
events, check every payout and valuation against the Fraction oracles,
and finish with a JSONL round trip and a full ``replay`` whose snapshot
must equal the live state's.

* deep-decay: tens of holders of three series (0.99996/day for 50
  years, a faster 0.9997/day for 10 years, and theta = 1 as a control).
  Traffic is mostly redemptions at elapsed days spread log-uniformly
  from 1 day to near expiry, plus valuations of multi-series parties on
  late days, in passes that each start from the opening book and each
  cover the whole grid. The exact mantissas grow with elapsed days; the
  state stays small.
* wide-book: at least 10k holders loaded from a snapshot the benchmark
  writes. Traffic is mostly transfers, plus issues and redemptions under
  100 days after issue, and a fixed share of rejected events (overdraft,
  unknown series, sequence gap), in sessions of rounds that each start
  from the opening book. Decay arithmetic is cheap; per-event state
  handling, validation, replay and persistence dominate.
"""

from __future__ import annotations

import copy
import json
import math
import random
from dataclasses import dataclass, replace
from datetime import date
from decimal import Decimal
from fractions import Fraction

import oracles
from harness import FAILED, WORK, Run, median, over_rounds, percentile, settle
from rsdm import decay, ledger
from rsdm.errors import InsufficientBalance, SequenceGap, UnknownSeries

ISSUE_DATE = date(2035, 1, 1)
ISSUE_DAY = (ISSUE_DATE - date(1970, 1, 1)).days


def spec_doc(collateral: str, weight: str, theta: str, expiry: int, fee: str) -> dict:
    return {
        "issue_date": ISSUE_DATE.isoformat(),
        "collateral_id": collateral,
        "initial_weight_g": weight,
        "daily_decay_factor": theta,
        "expiry_days": expiry,
        "redemption_fee_rate": fee,
        "issue_size": 0,
        "inspection_fee": "0",
        "min_redemption_g": "1",
    }


GOLD = spec_doc("XAU", "1", "0.99996", 18262, "0.003")
FAST = spec_doc("XPT", "1", "0.9997", 3650, "0.005")
FLAT = spec_doc("CTL", "1", "1", 18262, "0.002")
SILVER = spec_doc("XAG", "10", "0.9999", 7300, "0.01")
PRICES = {"XAU": "61.25", "XPT": "29.5", "CTL": "1", "XAG": "0.85"}


def _jsonl_line(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _price_quotes():
    return [ledger.PriceQuote(day=ISSUE_DAY, asset_id=a, price=Decimal(p)) for a, p in PRICES.items()]


@dataclass
class Opening:
    """The opening book: its event log text, its snapshot text, and the
    generator's mirror of it."""

    log_text: str
    snapshot_text: str | None
    mirror: oracles.BookMirror
    specs: dict
    parties: list[str]


def build_opening(rng: random.Random, series: dict[str, dict], holders: int, tokens, share: float,
                  snapshot: bool, transfers: int = 0) -> Opening:
    """Issue the first series to each of ``holders`` parties and every other
    series to a ``share`` of them, then make ``transfers`` transfers in the
    first year. Returns the log as JSONL and (optionally) the canonical
    snapshot the ledger would write for that state."""
    mirror = oracles.BookMirror()
    lines = []
    parties = [f"p{i:05d}" for i in range(holders)]
    for sid, doc in series.items():
        mirror.terms[sid] = oracles.SeriesTerms(doc, ISSUE_DAY)
    first = set()
    for party in parties:
        held = [sid for sid in series if sid == next(iter(series)) or rng.random() < share]
        for sid in held:
            count = tokens(rng)
            mirror.issue(sid, party, count)
            event = {"day": ISSUE_DAY, "kind": "issue", "party": party,
                     "sequence": mirror.last_sequence, "series_id": sid, "token_count": count}
            if sid not in first:
                event["series_spec"] = series[sid]
                first.add(sid)
            lines.append(_jsonl_line(event))
    for _ in range(transfers):
        a, b = rng.sample(parties, 2)
        sid = rng.choice([s for s in series if mirror.balance(a, s) > 0])
        count = rng.randint(1, min(1000, mirror.balance(a, sid)))
        mirror.transfer(sid, a, b, count)
        lines.append(_jsonl_line({"counterparty": b, "day": ISSUE_DAY + rng.randint(1, 365), "kind": "transfer",
                                  "party": a, "sequence": mirror.last_sequence, "series_id": sid,
                                  "token_count": count}))
    snapshot_text = None
    if snapshot:
        balances: dict[str, dict[str, int]] = {}
        for (party, sid), count in mirror.balances.items():
            balances.setdefault(party, {})[sid] = count
        doc = {
            "last_sequence": mirror.last_sequence,
            "series": {sid: series[sid] for sid in mirror.issued},
            "balances": balances,
            "vault": {sid: str(v.numerator) for sid, v in mirror.vault.items()},
            "issuer_accrual": {},
            "cumulative_payouts": {},
            "issued_tokens": dict(mirror.issued),
        }
        snapshot_text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    return Opening("".join(lines), snapshot_text, mirror, series, parties)


class Book:
    """The live ledger state, the generator's mirror of it, and the
    events it has accepted."""

    def __init__(self, run: Run, opening: Opening, state):
        self.run = run
        self.state = state
        self.mirror = opening.mirror
        self.opening = opening
        self.specs = {sid: decay.RsdmSpec.from_json_dict(doc) for sid, doc in opening.specs.items()}
        self.events: list = []
        self.quotes = _price_quotes()
        self.prices = {a: Fraction(p) for a, p in PRICES.items()}

    def _accept(self, result):
        if result is FAILED:
            return None
        self.state = result[0]
        self.events.append(result[-1])
        return result

    def issue(self, sid: str, party: str, count: int, day: int) -> None:
        spec = self.specs[sid] if sid not in self.mirror.issued else None
        if self._accept(self.run.call("issue", ledger.issue, self.state, sid, spec, party, count, day)):
            self.mirror.issue(sid, party, count)

    def transfer(self, sid: str, party: str, counterparty: str, count: int, day: int) -> None:
        if self._accept(self.run.call("transfer", ledger.transfer, self.state, party, counterparty, sid, count, day)):
            self.mirror.transfer(sid, party, counterparty, count)

    def redeem(self, sid: str, party: str, count: int, day: int) -> None:
        result = self._accept(self.run.call("redeem", ledger.redeem, self.state, party, sid, count, day))
        if result is None:
            return
        expected = self.mirror.redeem_payout(sid, count, day)
        self.run.check(
            Fraction(result[1].value) == expected and result[2].payout_grams == result[1].value,
            f"redeem {sid} x{count} on day {day}: payout {result[1].value} != {expected}",
        )
        self.mirror.redeem(sid, party, count, expected)

    def value(self, party: str, day: int) -> None:
        report = self.run.call("valuation", ledger.holdings_valuation, self.state, self.quotes, party, day)
        if report is FAILED:
            return
        want = self.mirror.valuation(party, day, self.prices)
        check = self.run.check
        check([h.series_id for h in report.holdings] == sorted(want["rows"]),
              f"valuation of {party} on day {day}: series {[h.series_id for h in report.holdings]}")
        for h in report.holdings:
            row = want["rows"].get(h.series_id)
            if row is None:
                check(h.expired and h.residual_value == 0, f"valuation {party}/{h.series_id}: not expired")
                continue
            got = (h.residual_grams, h.redeemable_grams, h.residual_value, h.redeemable_value)
            check(all(oracles.decimal_equals(g, w) for g, w in zip(got, row)) and not h.expired,
                  f"valuation {party}/{h.series_id} on day {day} differs from the oracle")
        check(oracles.decimal_equals(report.total_residual_value, want["total_residual"])
              and oracles.decimal_equals(report.total_redeemable_value, want["total_redeemable"]),
              f"valuation totals of {party} on day {day} differ from the oracle")

    def reject(self, kind: str, error_type: type, fn, *args) -> None:
        """An event the ledger must refuse with ``error_type``, leaving the
        state's snapshot bytes unchanged."""
        before = ledger.state_to_snapshot(self.state)
        if self.run.expect_error(kind, error_type, fn, *args):
            self.run.check(ledger.state_to_snapshot(self.state) == before,
                           f"rejected {kind} changed the state snapshot")

    def finish(self) -> dict:
        """JSONL round trip, full replay, snapshot round trip and the
        mirror comparison. Returns the log and snapshot sizes."""
        run, check = self.run, self.run.check
        tail = run.call("jsonl", ledger.events_to_jsonl, self.events)
        if tail is FAILED:
            return {}
        text = self.opening.log_text + tail
        parsed = run.call("jsonl", ledger.events_from_jsonl, text)
        if parsed is FAILED:
            return {}
        check(len(parsed) == self.mirror.last_sequence, "event log length differs from the events accepted")
        check(ledger.events_to_jsonl(parsed) == text, "JSONL round trip changed the log bytes")
        replayed = run.call("replay", ledger.replay, parsed)
        if replayed is FAILED:
            return {}
        live = run.call("snapshot", ledger.state_to_snapshot, self.state)
        check(ledger.state_to_snapshot(replayed) == live, "replayed snapshot differs from the live state")
        reloaded = run.call("snapshot", ledger.state_from_snapshot, live)
        check(reloaded is not FAILED and ledger.state_to_snapshot(reloaded) == live,
              "snapshot round trip changed the bytes")
        self.check_mirror()
        return {"log_bytes": len(text.encode()), "snapshot_bytes": len(live.encode())}

    def check_mirror(self) -> None:
        m, s, check = self.mirror, self.state, self.run.check
        live = {k: v for k, v in s.balances.items() if v}
        want = {k: v for k, v in m.balances.items() if v}
        check(live == want, f"balances differ from the generator's counts ({len(live)} vs {len(want)} positions)")
        for sid in m.issued:
            check(Fraction(s.vault[sid]) == m.vault[sid], f"vault of {sid} differs from the mirror")
            check(Fraction(s.cumulative_payouts.get(sid, 0)) == m.payouts.get(sid, 0),
                  f"payouts of {sid} differ from the mirror")
            check(Fraction(s.issuer_accrual.get(sid, 0)) == m.accrual.get(sid, 0),
                  f"issuer accrual of {sid} differs from the mirror")
            check(s.issued_tokens[sid] == m.issued[sid], f"issued tokens of {sid} differ")
        check(s.last_sequence == m.last_sequence, "last sequence differs")


def _ledger_metrics(run: Run, op: str) -> dict:
    """``op`` is the workload's request (redeem or transfer); ``batch`` is
    ``holdings_valuation``."""
    return {
        "op_ms_p50": over_rounds(run, lambda r: median(r[op])) * 1e3,
        "op_ms_p90": over_rounds(run, lambda r: percentile(r[op], 0.90)) * 1e3,
        "batch_ms_p50": over_rounds(run, lambda r: median(r["valuation"])) * 1e3,
    }


# ---------------------------------------------------------------------------
# deep-decay
# ---------------------------------------------------------------------------

DEEP_SERIES = {"AU": GOLD, "PT": FAST, "CT": FLAT}
DEEP_HOLDERS = 24
DEEP_REDEEMS_PER_SERIES = 8  # a pass: one redeem per log-uniform stratum
DEEP_VALUATIONS = 2
DEEP_TRANSFERS = 6
DEEP_OPENING_TRANSFERS = 2000
DEEP_HORIZON = {"AU": 18000, "PT": 3600, "CT": 18000}  # near each expiry


def deep_prepare(seed: int):
    """Generate and write the custodian's opening log."""
    rng = random.Random(seed)
    opening = build_opening(rng, DEEP_SERIES, DEEP_HOLDERS, lambda r: r.randint(900_000, 1_100_000),
                            share=1.0, snapshot=False, transfers=DEEP_OPENING_TRANSFERS)
    path = WORK / "deep-opening.jsonl"
    path.write_text(opening.log_text, encoding="utf-8")
    return opening, path


def deep_load(prepared):
    """The custodian's set-up: read the opening log back and replay it."""
    opening, path = prepared
    return opening, ledger.replay(ledger.read_event_log(path))


def _log_grid(count: int, top: int, rng: random.Random) -> list[int]:
    """``count`` elapsed days log-uniform on [1, top]: one per stratum,
    jittered by a fiftieth of a stratum."""
    return [
        max(1, min(top, round(top ** ((i + 0.5 + rng.uniform(-0.02, 0.02)) / count))))
        for i in range(count)
    ]


def deep_pass_plan(parties: list[str], rng: random.Random) -> list[tuple]:
    """One pass's events in day order: a redeem in each of the
    DEEP_REDEEMS_PER_SERIES log-uniform strata of each series' 1 day to
    near expiry, DEEP_TRANSFERS transfers, and DEEP_VALUATIONS valuations
    of three-series parties on late days (900 to 18000 elapsed)."""
    plan = []
    for sid, top in DEEP_HORIZON.items():
        for elapsed in _log_grid(DEEP_REDEEMS_PER_SERIES, top, rng):
            plan.append((elapsed, "redeem", sid, rng.choice(parties), rng.randint(10, 5000)))
    for _ in range(DEEP_TRANSFERS):
        a, b = rng.sample(parties, 2)
        plan.append((rng.randint(1, 18000), "transfer", rng.choice(list(DEEP_SERIES)), (a, b), rng.randint(1, 500)))
    lo = math.log(900)
    for i in range(DEEP_VALUATIONS):
        u = (i + 0.5 + rng.uniform(-0.02, 0.02)) / DEEP_VALUATIONS
        plan.append((round(math.exp(lo + u * (math.log(18000) - lo))), "value", None, rng.choice(parties), 0))
    plan.sort(key=lambda p: (p[0], p[1]))
    return plan


def deep_pass(book: Book, plan: list[tuple]) -> None:
    for elapsed, kind, sid, who, count in plan:
        day = ISSUE_DAY + elapsed
        if kind == "redeem":
            book.redeem(sid, who, count, day)
        elif kind == "transfer":
            book.transfer(sid, who[0], who[1], count, day)
        else:
            book.value(who, day)


def deep_native(run: Run, seed: int, opened, stop) -> dict:
    """Whole passes until ``stop(passes done)``, then the end phase on
    the last pass's book. Each pass starts a fresh book from the opening
    state and samples the whole grid, so every pass is a round with the
    same make-up."""
    opening, state = opened
    passes = 0
    book = None
    while not stop(passes):
        if book is not None:
            book.check_mirror()
        book = Book(run, replace(opening, mirror=copy.deepcopy(opening.mirror)), state)
        settle()
        deep_pass(book, deep_pass_plan(opening.parties, random.Random(f"{seed}/deep/{passes}")))
        run.end_round()
        passes += 1
    end = book.finish()
    return {"rounds": passes, "metrics": _ledger_metrics(run, "redeem"), "facts": end}


# ---------------------------------------------------------------------------
# wide-book
# ---------------------------------------------------------------------------

WIDE_SERIES = {"AU": GOLD, "AG": SILVER}


@dataclass(frozen=True)
class WideShape:
    holders: int
    transfers: int
    redeems: int
    issues: int
    valuations: int


WIDE = WideShape(holders=10_000, transfers=1_850, redeems=100, issues=35, valuations=12)
WIDE_SESSION_ROUNDS = 4  # rounds on one book; a run stops after a whole session (see wide_native)


def wide_prepare(seed: int):
    """Generate the exchange's opening book and write its snapshot."""
    rng = random.Random(seed)
    opening = build_opening(rng, WIDE_SERIES, WIDE.holders, lambda r: r.randint(100, 1000),
                            share=0.6, snapshot=True)
    path = WORK / "wide-opening-snapshot.json"
    path.write_text(opening.snapshot_text, encoding="utf-8")
    return opening, path


def wide_load(prepared):
    """The exchange's set-up: load the book from the snapshot file."""
    opening, path = prepared
    return opening, ledger.state_from_snapshot(path.read_text(encoding="utf-8"))


def wide_round(book: Book, rng: random.Random, new_party: str) -> None:
    """One round: transfers, issues, redemptions under 100 days,
    valuations of multi-series parties and one rejection of each kind,
    shuffled, on increasing days."""
    kinds = (["transfer"] * WIDE.transfers + ["redeem"] * WIDE.redeems + ["issue"] * WIDE.issues
             + ["value"] * WIDE.valuations + ["overdraft", "unknown", "gap"])
    rng.shuffle(kinds)
    parties = book.opening.parties
    mirror = book.mirror
    series = list(WIDE_SERIES)
    for i, kind in enumerate(kinds):
        day = ISSUE_DAY + 1 + (99 * i) // len(kinds)
        wanted = len(series) if kind == "value" else 1
        while True:
            party = rng.choice(parties)
            held = [sid for sid in series if mirror.balance(party, sid) >= 50]
            if len(held) >= wanted:
                break
        sid = rng.choice(held)
        balance = mirror.balance(party, sid)
        if kind == "transfer":
            other = rng.choice(parties)
            book.transfer(sid, party, other if other != party else new_party, rng.randint(1, min(50, balance)), day)
        elif kind == "redeem":
            book.redeem(sid, party, rng.randint(5, 20), day)
        elif kind == "issue":
            book.issue(rng.choice(series), rng.choice((party, new_party)), rng.randint(100, 1000), day)
        elif kind == "value":
            book.value(party, day)
        elif kind == "overdraft":
            book.reject("overdraft", InsufficientBalance, ledger.transfer, book.state, party, new_party, sid, balance + 1, day)
        elif kind == "unknown":
            book.reject("unknown-series", UnknownSeries, ledger.transfer, book.state, party, new_party, "ZZ", 1, day)
        else:
            gap = ledger.LedgerEvent(sequence=book.state.last_sequence + 2, day=day, kind=ledger.EventKind.TRANSFER,
                                     series_id=sid, party=party, counterparty=new_party, token_count=1)
            book.reject("sequence-gap", SequenceGap, ledger.append_event, book.state, gap)


def wide_native(run: Run, seed: int, opened, stop) -> dict:
    """Whole sessions of WIDE_SESSION_ROUNDS rounds until ``stop(sessions
    done)``, then the end phase on the last session's book. Each session
    starts a fresh book from the loaded opening state, so the log the end
    phase replays, and the memory the run peaks at, do not grow with the
    number of sessions that fit in the run."""
    opening, state = opened
    run.check(ledger.state_to_snapshot(state) == opening.snapshot_text,
              "opening snapshot does not round-trip byte for byte")
    sessions = 0
    book = None
    while not stop(sessions):
        if book is not None:
            book.check_mirror()
        book = Book(run, replace(opening, mirror=copy.deepcopy(opening.mirror)), state)
        for r in range(WIDE_SESSION_ROUNDS):
            settle()
            wide_round(book, random.Random(f"{seed}/wide/{sessions}/{r}"), f"n{r:04d}")
            run.end_round()
        sessions += 1
    end = book.finish()
    return {"rounds": sessions, "metrics": _ledger_metrics(run, "transfer"), "facts": end}
