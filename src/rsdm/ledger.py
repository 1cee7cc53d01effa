"""Append-only event-sourced ledger for decaying-token series.

Three event kinds (issue, transfer, redeem) are folded into an
immutable holdings state. Issue events carry the full series
parameters, so replaying a log from the empty state is self-contained
and deterministic. Redemption payouts are decay-aware: the customer
receives the settlement-rounded redeemable quantity, the fee and decay
portions accrue to the issuer but stay in the vault (physical metal
only moves at redemption).

Conservation invariants maintained per series:

* vault grams + cumulative payout grams == issued tokens * initial
  weight (exactly, because the vault is debited by the same rounded
  payout the customer receives);
* issuer accrual is nondecreasing;
* outstanding decayed claims never exceed the vault.

Persistence: one JSON object per line for the event log (append-only),
a canonical sorted-keys JSON document for state snapshots, and a
``day,asset_id,price`` CSV for valuation quotes.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, replace
from decimal import Decimal
from enum import Enum
from typing import Iterable, Mapping, Sequence

from rsdm.decay import RsdmSpec, epoch_day, redemption_quote, validate_spec
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
from rsdm.numeric import GRAM, Quantity, as_decimal, exact_add, exact_mul, exact_sub, settle

_ZERO = Decimal(0)


class EventKind(Enum):
    ISSUE = "issue"
    TRANSFER = "transfer"
    REDEEM = "redeem"


@dataclass(frozen=True)
class LedgerEvent:
    """One ledger entry. ``payout_grams`` is set on redeem events only;
    ``series_spec`` on the first issue event of a series."""

    sequence: int
    day: int
    kind: EventKind
    series_id: str
    party: str
    counterparty: str | None = None
    token_count: int = 0
    payout_grams: Decimal | None = None
    series_spec: RsdmSpec | None = None

    def to_json_dict(self) -> dict:
        data = {
            "sequence": self.sequence,
            "day": self.day,
            "kind": self.kind.value,
            "series_id": self.series_id,
            "party": self.party,
            "token_count": self.token_count,
        }
        if self.counterparty is not None:
            data["counterparty"] = self.counterparty
        if self.payout_grams is not None:
            data["payout_grams"] = str(self.payout_grams)
        if self.series_spec is not None:
            data["series_spec"] = self.series_spec.to_json_dict()
        return data

    @classmethod
    def from_json_dict(cls, data: object) -> "LedgerEvent":
        if not isinstance(data, dict):
            raise DomainError(f"malformed ledger event: got {type(data).__name__}, not an object")
        try:
            payout = data.get("payout_grams")
            spec = data.get("series_spec")
            counterparty = data.get("counterparty")
            return cls(
                sequence=int(data["sequence"]),
                day=int(data["day"]),
                kind=EventKind(data["kind"]),
                series_id=str(data["series_id"]),
                party=str(data["party"]),
                counterparty=str(counterparty) if counterparty is not None else None,
                token_count=int(data.get("token_count", 0)),
                payout_grams=as_decimal(payout) if payout is not None else None,
                series_spec=RsdmSpec.from_json_dict(spec) if spec is not None else None,
            )
        except (DomainError, KeyError, ValueError, TypeError, AttributeError) as exc:
            raise DomainError(f"malformed ledger event: {exc}") from exc


@dataclass(frozen=True)
class PriceQuote:
    day: int
    asset_id: str
    price: Decimal  # accounting units per gram

    def __post_init__(self) -> None:
        object.__setattr__(self, "price", as_decimal(self.price))
        if self.price < 0:
            raise DomainError(f"quote price must be nonnegative, got {self.price}")


@dataclass(frozen=True)
class LedgerState:
    """Replayed holdings state. Treated as an immutable value: every
    transition returns a fresh state and never mutates its input."""

    specs: Mapping[str, RsdmSpec]
    balances: Mapping[tuple[str, str], int]  # (party, series_id) -> tokens
    vault: Mapping[str, Decimal]  # series_id -> physical grams held
    issuer_accrual: Mapping[str, Decimal]  # series_id -> grams accrued to issuer
    cumulative_payouts: Mapping[str, Decimal]  # series_id -> grams paid out
    issued_tokens: Mapping[str, int]  # series_id -> tokens issued to date
    last_sequence: int = 0

    def balance(self, party: str, series_id: str) -> int:
        return self.balances.get((party, series_id), 0)

    def holdings_of(self, party: str) -> dict[str, int]:
        """The party's positive balances, in series-id order."""
        held = [(series, count) for (p, series), count in self.balances.items() if p == party]
        return {series: count for series, count in sorted(held) if count > 0}


def empty_state() -> LedgerState:
    return LedgerState(
        specs={},
        balances={},
        vault={},
        issuer_accrual={},
        cumulative_payouts={},
        issued_tokens={},
        last_sequence=0,
    )


# ---------------------------------------------------------------------------
# Event application
# ---------------------------------------------------------------------------


def _compute_redeem(state: LedgerState, event: LedgerEvent) -> tuple[Decimal, Decimal]:
    """Validate a redeem event; return (payout, issuer accrual delta).

    A payout stated on the event must equal the computed one.
    """
    spec = state.specs.get(event.series_id)
    if spec is None:
        raise UnknownSeries(f"series {event.series_id!r} has never been issued")
    held = state.balance(event.party, event.series_id)
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
    quote = redemption_quote(spec, elapsed)
    residual_total = exact_mul(quote.residual.value, Decimal(event.token_count))
    if residual_total < spec.min_redemption_grams:
        raise BelowMinimumRedemption(
            f"residual {settle(residual_total):f} g is below the series minimum "
            f"of {spec.min_redemption_grams} g"
        )
    payout = settle(exact_mul(quote.payout.value, Decimal(event.token_count)))
    if event.payout_grams is not None and event.payout_grams != payout:
        raise LedgerError(
            f"redeem event states payout {event.payout_grams} g but the series "
            f"arithmetic yields {payout} g"
        )
    face_total = exact_mul(spec.initial_weight, Decimal(event.token_count))
    accrual = exact_sub(face_total, payout)  # decay plus fee, kept in vault
    return payout, accrual


def append_event(state: LedgerState, event: LedgerEvent) -> LedgerState:
    """Apply one event, returning the successor state.

    Any rejection raises a LedgerError subclass and leaves the input
    state untouched (value semantics: the input is never mutated).
    """
    return _apply(state, event, None)


def _apply(
    state: LedgerState, event: LedgerEvent, redeemed: tuple[Decimal, Decimal] | None
) -> LedgerState:
    """The event step behind ``append_event`` and ``redeem``. ``redeemed``
    is a redeem event's (payout, accrual) from ``_compute_redeem`` on this
    state, or None to compute it here."""
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
            violations = validate_spec(event.series_spec)
            if violations:
                raise LedgerError(
                    f"invalid series spec for {event.series_id!r}: {'; '.join(violations)}"
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
            vault.get(event.series_id, _ZERO),
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
        payout, accrual = redeemed or _compute_redeem(state, event)
        key = (event.party, event.series_id)
        balances[key] = state.balance(event.party, event.series_id) - event.token_count
        vault[event.series_id] = exact_sub(vault[event.series_id], payout)
        payouts[event.series_id] = exact_add(
            payouts.get(event.series_id, _ZERO), payout
        )
        accruals[event.series_id] = exact_add(
            accruals.get(event.series_id, _ZERO), accrual
        )

    else:  # pragma: no cover - enum is closed
        raise LedgerError(f"unknown event kind {event.kind!r}")

    return LedgerState(
        specs=specs,
        balances=balances,
        vault=vault,
        issuer_accrual=accruals,
        cumulative_payouts=payouts,
        issued_tokens=issued,
        last_sequence=event.sequence,
    )


# ---------------------------------------------------------------------------
# Convenience constructors (build the event, then append it)
# ---------------------------------------------------------------------------


def issue(
    state: LedgerState,
    series_id: str,
    spec: RsdmSpec | None,
    party: str,
    token_count: int,
    day: int,
) -> tuple[LedgerState, LedgerEvent]:
    """Issue tokens to a party; the first issue must carry the series spec."""
    event = LedgerEvent(
        sequence=state.last_sequence + 1,
        day=day,
        kind=EventKind.ISSUE,
        series_id=series_id,
        party=party,
        token_count=token_count,
        series_spec=spec if series_id not in state.specs else None,
    )
    return append_event(state, event), event


def transfer(
    state: LedgerState,
    party: str,
    counterparty: str,
    series_id: str,
    token_count: int,
    day: int,
) -> tuple[LedgerState, LedgerEvent]:
    event = LedgerEvent(
        sequence=state.last_sequence + 1,
        day=day,
        kind=EventKind.TRANSFER,
        series_id=series_id,
        party=party,
        counterparty=counterparty,
        token_count=token_count,
    )
    return append_event(state, event), event


def redeem(
    state: LedgerState, party: str, series_id: str, token_count: int, day: int
) -> tuple[LedgerState, Quantity, LedgerEvent]:
    """Redeem tokens for collateral; returns the settled payout in grams
    along with the emitted event."""
    probe = LedgerEvent(
        sequence=state.last_sequence + 1,
        day=day,
        kind=EventKind.REDEEM,
        series_id=series_id,
        party=party,
        token_count=token_count,
    )
    payout, accrual = _compute_redeem(state, probe)
    event = replace(probe, payout_grams=payout)
    return _apply(state, event, (payout, accrual)), Quantity(payout, GRAM), event


# ---------------------------------------------------------------------------
# Replay and valuation
# ---------------------------------------------------------------------------


def replay(events: Iterable[LedgerEvent]) -> LedgerState:
    """Fold events from the empty state; deterministic and idempotent.

    The first invalid event aborts with a ReplayError carrying its
    sequence number.
    """
    state = empty_state()
    for event in events:
        try:
            state = append_event(state, event)
        except LedgerError as exc:
            raise ReplayError(event.sequence, str(exc)) from exc
    return state


@dataclass(frozen=True)
class HoldingValuation:
    series_id: str
    token_count: int
    residual_grams: Decimal
    redeemable_grams: Decimal
    quote_day: int | None
    price_per_gram: Decimal | None
    residual_value: Decimal
    redeemable_value: Decimal
    expired: bool = False


@dataclass(frozen=True)
class ValuationReport:
    party: str
    day: int
    holdings: tuple[HoldingValuation, ...]
    total_residual_value: Decimal
    total_redeemable_value: Decimal


def holdings_valuation(
    state: LedgerState, quotes: Sequence[PriceQuote], party: str, day: int
) -> ValuationReport:
    """Mark a party's holdings to market at the most recent quote on or
    before ``day`` for each held series' collateral.

    Expired series are reported at zero residual/redeemable value. A
    series with no applicable quote raises MissingQuote listing every
    uncovered series.
    """
    holdings = state.holdings_of(party)
    latest: dict[str, PriceQuote] = {}
    for q in quotes:
        if q.day <= day and (q.asset_id not in latest or q.day >= latest[q.asset_id].day):
            latest[q.asset_id] = q

    uncovered = [
        series
        for series in holdings
        if not _is_expired(state.specs[series], day) and state.specs[series].collateral_id not in latest
    ]
    if uncovered:
        raise MissingQuote(uncovered)

    rows = []
    total_residual = _ZERO
    total_redeemable = _ZERO
    for series, count in holdings.items():
        spec = state.specs[series]
        if _is_expired(spec, day):
            rows.append(
                HoldingValuation(
                    series_id=series,
                    token_count=count,
                    residual_grams=_ZERO,
                    redeemable_grams=_ZERO,
                    quote_day=None,
                    price_per_gram=None,
                    residual_value=_ZERO,
                    redeemable_value=_ZERO,
                    expired=True,
                )
            )
            continue
        elapsed = day - epoch_day(spec.issue_date)
        if elapsed < 0:
            raise DomainError(f"valuation day {day} precedes the issue date of {series!r}")
        quote = latest[spec.collateral_id]
        per_token = redemption_quote(spec, elapsed)
        residual_g = exact_mul(per_token.residual.value, Decimal(count))
        redeemable_g = exact_mul(per_token.payout.value, Decimal(count))
        residual_v = exact_mul(residual_g, quote.price)
        redeemable_v = exact_mul(redeemable_g, quote.price)
        rows.append(
            HoldingValuation(
                series_id=series,
                token_count=count,
                residual_grams=residual_g,
                redeemable_grams=redeemable_g,
                quote_day=quote.day,
                price_per_gram=quote.price,
                residual_value=residual_v,
                redeemable_value=redeemable_v,
            )
        )
        total_residual = exact_add(total_residual, residual_v)
        total_redeemable = exact_add(total_redeemable, redeemable_v)
    return ValuationReport(
        party=party,
        day=day,
        holdings=tuple(rows),
        total_residual_value=total_residual,
        total_redeemable_value=total_redeemable,
    )


def _is_expired(spec: RsdmSpec, day: int) -> bool:
    return day - epoch_day(spec.issue_date) > spec.expiry_days


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def events_to_jsonl(events: Iterable[LedgerEvent]) -> str:
    return "".join(
        json.dumps(e.to_json_dict(), sort_keys=True, separators=(",", ":")) + "\n"
        for e in events
    )


def events_from_jsonl(text: str) -> list[LedgerEvent]:
    events = []
    for i, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            events.append(LedgerEvent.from_json_dict(json.loads(line)))
        except json.JSONDecodeError as exc:
            raise DomainError(f"event log line {i}: invalid JSON: {exc}") from exc
        except DomainError as exc:
            raise DomainError(f"event log line {i}: {exc}") from exc
    return events


def read_event_log(path) -> list[LedgerEvent]:
    with open(path, encoding="utf-8") as fh:
        return events_from_jsonl(fh.read())


def append_event_line(path, event: LedgerEvent) -> None:
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(event.to_json_dict(), sort_keys=True, separators=(",", ":")) + "\n")


def state_to_snapshot(state: LedgerState) -> str:
    """Canonical JSON snapshot: sorted keys, decimals as strings.

    Replaying the same log always produces the same snapshot bytes.
    """
    doc = {
        "last_sequence": state.last_sequence,
        "series": {sid: spec.to_json_dict() for sid, spec in state.specs.items()},
        "balances": _nest_balances(state.balances),
        "vault": {sid: str(v) for sid, v in state.vault.items()},
        "issuer_accrual": {sid: str(v) for sid, v in state.issuer_accrual.items()},
        "cumulative_payouts": {sid: str(v) for sid, v in state.cumulative_payouts.items()},
        "issued_tokens": dict(state.issued_tokens),
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _nest_balances(balances: Mapping[tuple[str, str], int]) -> dict:
    nested: dict[str, dict[str, int]] = {}
    for (party, series), count in balances.items():
        if count:
            nested.setdefault(party, {})[series] = count
    return nested


def state_from_snapshot(text: str) -> LedgerState:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"invalid snapshot JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DomainError(f"malformed snapshot: got {type(doc).__name__}, not an object")
    try:
        balances = {
            (party, series): count
            for party, series_map in doc.get("balances", {}).items()
            for series, count in series_map.items()
        }
        bad = [key for key, count in balances.items() if type(count) is not int or count < 0]
        if bad:
            raise DomainError(
                f"balance {bad[0]} must be a nonnegative integer, got {balances[bad[0]]!r}")
        return LedgerState(
            specs={sid: RsdmSpec.from_json_dict(s) for sid, s in doc.get("series", {}).items()},
            balances=balances,
            vault={sid: as_decimal(v) for sid, v in doc.get("vault", {}).items()},
            issuer_accrual={
                sid: as_decimal(v) for sid, v in doc.get("issuer_accrual", {}).items()
            },
            cumulative_payouts={
                sid: as_decimal(v) for sid, v in doc.get("cumulative_payouts", {}).items()
            },
            issued_tokens={sid: int(v) for sid, v in doc.get("issued_tokens", {}).items()},
            last_sequence=int(doc.get("last_sequence", 0)),
        )
    except (DomainError, ValueError, TypeError, AttributeError) as exc:
        raise DomainError(f"malformed snapshot: {exc}") from exc


def quotes_from_csv(text: str) -> list[PriceQuote]:
    """Parse quotes from CSV with header ``day,asset_id,price``."""
    reader = csv.DictReader(io.StringIO(text))
    expected = ["day", "asset_id", "price"]
    if reader.fieldnames is None or [f.strip() for f in reader.fieldnames] != expected:
        raise DomainError(
            f"quotes CSV must have header {','.join(expected)!r}, got {reader.fieldnames}"
        )
    quotes = []
    for i, row in enumerate(reader, start=2):
        try:
            quotes.append(
                PriceQuote(
                    day=int(row["day"]),
                    asset_id=row["asset_id"].strip(),
                    price=as_decimal(row["price"].strip()),
                )
            )
        except (ValueError, AttributeError) as exc:
            raise DomainError(f"quotes CSV line {i}: {exc}") from exc
    return quotes


def load_quotes_csv(path) -> list[PriceQuote]:
    with open(path, encoding="utf-8") as fh:
        return quotes_from_csv(fh.read())
