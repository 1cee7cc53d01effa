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
from math import isqrt
from typing import Iterable, Mapping, Sequence

from rsdm.decay import RsdmSpec, _json_int, epoch_day, redemption_quote, validate_spec
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
                sequence=_json_int(data["sequence"], "sequence"),
                day=_json_int(data["day"], "day"),
                kind=EventKind(data["kind"]),
                series_id=str(data["series_id"]),
                party=str(data["party"]),
                counterparty=str(counterparty) if counterparty is not None else None,
                token_count=_json_int(data.get("token_count", 0), "token_count"),
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


class _Balances(Mapping):
    """(party, series_id) -> tokens, as an immutable mapping that shares
    structure with the state it was derived from.

    A ``base`` dict that is never mutated once built, shared by every
    successor, plus a small ``delta`` dict of the keys written since
    (its values win). A successor copies the delta alone; when the
    delta outgrows the square root of the base, the two are folded into
    a fresh base. A write therefore copies O(√n) keys amortized instead
    of the whole book, and a lookup is two dict probes. No read writes
    anything, so any number of readers may share a state.
    """

    __slots__ = ("_base", "_delta", "_limit")

    def __init__(self, base: dict, delta: dict | None = None, limit: int | None = None):
        self._base = base
        self._delta = {} if delta is None else delta
        self._limit = isqrt(len(base)) if limit is None else limit

    def _with(self, writes: dict) -> "_Balances":
        """The successor with ``writes`` applied; ``self`` is unchanged."""
        delta = {**self._delta, **writes}
        if len(delta) > self._limit:
            return _Balances({**self._base, **delta})
        return _Balances(self._base, delta, self._limit)

    def _merged(self) -> dict:
        """Every entry as one dict; callers must not mutate it."""
        return {**self._base, **self._delta} if self._delta else self._base

    def __getitem__(self, key):
        if key in self._delta:
            return self._delta[key]
        return self._base[key]

    def get(self, key, default=None):
        if key in self._delta:
            return self._delta[key]
        return self._base.get(key, default)

    def __len__(self) -> int:
        return len(self._base) + len(self._delta.keys() - self._base.keys())

    def __iter__(self):
        return iter(self._merged())

    def keys(self):
        return self._merged().keys()

    def items(self):
        return self._merged().items()

    def values(self):
        return self._merged().values()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._merged()!r})"


@dataclass(frozen=True)
class LedgerState:
    """Replayed holdings state. Treated as an immutable value: every
    transition returns a fresh state and never mutates its input.

    ``balances`` is always a private read-only mapping that shares its
    storage with the states it was derived from; a mapping passed in is
    copied into one."""

    specs: Mapping[str, RsdmSpec]
    balances: Mapping[tuple[str, str], int]  # (party, series_id) -> tokens
    vault: Mapping[str, Decimal]  # series_id -> physical grams held
    issuer_accrual: Mapping[str, Decimal]  # series_id -> grams accrued to issuer
    cumulative_payouts: Mapping[str, Decimal]  # series_id -> grams paid out
    issued_tokens: Mapping[str, int]  # series_id -> tokens issued to date
    last_sequence: int = 0

    def __post_init__(self) -> None:
        if type(self.balances) is not _Balances:
            object.__setattr__(self, "balances", _Balances(dict(self.balances)))

    def balance(self, party: str, series_id: str) -> int:
        return self.balances.get((party, series_id), 0)

    def holdings_of(self, party: str) -> dict[str, int]:
        """The party's positive balances, in series-id order: one lookup
        per known series (every balance belongs to a known series)."""
        held = {}
        for series in sorted(self.specs):
            count = self.balances.get((party, series), 0)
            if count > 0:
                held[series] = count
        return held


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


def _effects(state, event: LedgerEvent, redeemed: tuple[Decimal, Decimal] | None):
    """Check ``event`` against ``state`` and return what it writes, without
    writing: ``(balances, series)``, the new balance of each (party,
    series_id) key it touches and the new value of each per-series field
    (``specs``, ``vault``, ...) it changes for ``event.series_id``.

    ``state`` is a LedgerState or ``replay``'s private fold; ``redeemed``
    is a redeem event's (payout, accrual) from ``_compute_redeem`` on this
    state, or None to compute it here.
    """
    if event.sequence != state.last_sequence + 1:
        raise SequenceGap(
            f"expected sequence {state.last_sequence + 1}, got {event.sequence}"
        )
    count = event.token_count
    if count <= 0:
        raise LedgerError(f"token count must be positive, got {count}")
    sid = event.series_id
    key = (event.party, sid)

    if event.kind is EventKind.ISSUE:
        series = {}
        spec = state.specs.get(sid)
        if spec is None:
            if event.series_spec is None:
                raise LedgerError(f"first issue of series {sid!r} must carry the series spec")
            violations = validate_spec(event.series_spec)
            if violations:
                raise LedgerError(f"invalid series spec for {sid!r}: {'; '.join(violations)}")
            spec = series["specs"] = event.series_spec
        elif event.series_spec is not None and event.series_spec != spec:
            raise LedgerError(f"series {sid!r} already registered with different parameters")
        if event.day < epoch_day(spec.issue_date):
            raise LedgerError("issue event day precedes the series issue date")
        total_issued = state.issued_tokens.get(sid, 0) + count
        if spec.issue_size and total_issued > spec.issue_size:
            raise LedgerError(
                f"issuing {count} tokens would exceed the declared "
                f"issue size {spec.issue_size} of {sid!r}"
            )
        series["vault"] = exact_add(
            state.vault.get(sid, _ZERO), exact_mul(spec.initial_weight, Decimal(count))
        )
        series["issued_tokens"] = total_issued
        return {key: state.balances.get(key, 0) + count}, series

    if event.kind is EventKind.TRANSFER:
        if sid not in state.specs:
            raise UnknownSeries(f"series {sid!r} has never been issued")
        if not event.counterparty:
            raise LedgerError("transfer requires a counterparty")
        held = state.balances.get(key, 0)
        if held < count:
            raise InsufficientBalance(
                f"{event.party!r} holds {held} tokens of {sid!r}, cannot transfer {count}"
            )
        if event.counterparty == event.party:
            return {key: held}, {}
        dst = (event.counterparty, sid)
        return {key: held - count, dst: state.balances.get(dst, 0) + count}, {}

    if event.kind is EventKind.REDEEM:
        payout, accrual = redeemed or _compute_redeem(state, event)
        return {key: state.balances.get(key, 0) - count}, {
            "vault": exact_sub(state.vault[sid], payout),
            "cumulative_payouts": exact_add(state.cumulative_payouts.get(sid, _ZERO), payout),
            "issuer_accrual": exact_add(state.issuer_accrual.get(sid, _ZERO), accrual),
        }

    raise LedgerError(f"unknown event kind {event.kind!r}")  # pragma: no cover - enum is closed


def _apply(
    state: LedgerState, event: LedgerEvent, redeemed: tuple[Decimal, Decimal] | None
) -> LedgerState:
    """The event step behind ``append_event`` and ``redeem``: check, then
    build the successor. Balances share storage with ``state``, and a
    per-series dict is copied only when the event changes it."""
    writes, series = _effects(state, event, redeemed)
    # Filled in directly: every field is already in final form, and the
    # frozen dataclass __init__ would set the seven one object.__setattr__
    # at a time, a cost that shows on every small-book event.
    successor = object.__new__(LedgerState)
    fields = vars(successor)
    fields.update(vars(state))
    for name, value in series.items():
        fields[name] = {**fields[name], event.series_id: value}
    fields["balances"] = state.balances._with(writes)
    fields["last_sequence"] = event.sequence
    return successor


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
    sequence number. Events are checked exactly as by ``append_event``,
    but written in place into one private fold that becomes the
    returned state's storage once the log is done.
    """
    fold = _Fold()
    for event in events:
        try:
            writes, series = _effects(fold, event, None)
        except RsdmError as exc:
            raise ReplayError(event.sequence, str(exc)) from exc
        fold.balances.update(writes)
        for name, value in series.items():
            getattr(fold, name)[event.series_id] = value
        fold.last_sequence = event.sequence
    return LedgerState(
        specs=fold.specs,
        balances=_Balances(fold.balances),
        vault=fold.vault,
        issuer_accrual=fold.issuer_accrual,
        cumulative_payouts=fold.cumulative_payouts,
        issued_tokens=fold.issued_tokens,
        last_sequence=fold.last_sequence,
    )


class _Fold:
    """``replay``'s working state: a LedgerState's fields as plain dicts,
    written in place. Nothing outside ``replay`` ever sees one."""

    __slots__ = ("specs", "balances", "vault", "issuer_accrual", "cumulative_payouts",
                 "issued_tokens", "last_sequence")

    def __init__(self) -> None:
        self.specs, self.balances, self.vault = {}, {}, {}
        self.issuer_accrual, self.cumulative_payouts, self.issued_tokens = {}, {}, {}
        self.last_sequence = 0


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
        by_party = doc.get("balances", {})
        balances = {
            (party, series): count
            for party, series_map in by_party.items()
            for series, count in series_map.items()
        }
        bad = [key for key, count in balances.items() if type(count) is not int or count < 0]
        if bad:
            raise DomainError(
                f"balance {bad[0]} must be a nonnegative integer, got {balances[bad[0]]!r}")
        specs = {sid: RsdmSpec.from_json_dict(s) for sid, s in doc.get("series", {}).items()}
        _check_known_series(specs, by_party, balances, doc)
        return LedgerState(
            specs=specs,
            balances=_Balances(balances),
            vault={sid: as_decimal(v) for sid, v in doc.get("vault", {}).items()},
            issuer_accrual={
                sid: as_decimal(v) for sid, v in doc.get("issuer_accrual", {}).items()
            },
            cumulative_payouts={
                sid: as_decimal(v) for sid, v in doc.get("cumulative_payouts", {}).items()
            },
            issued_tokens={
                sid: _json_int(v, f"issued_tokens {sid!r}")
                for sid, v in doc.get("issued_tokens", {}).items()
            },
            last_sequence=_json_int(doc.get("last_sequence", 0), "last_sequence"),
        )
    except (DomainError, ValueError, TypeError, AttributeError) as exc:
        raise DomainError(f"malformed snapshot: {exc}") from exc


def _check_known_series(specs: dict, by_party: dict, balances: dict, doc: dict) -> None:
    """Every held balance and every per-series entry of a snapshot must
    name a series of its ``"series"`` object, as ``append_event`` ensures.
    A zero balance holds nothing and is let through. The common case is
    set arithmetic over the keys; the offender is looked up only on error.
    """
    stray = set().union(*by_party.values()) - specs.keys()
    if stray:
        for key in sorted(balances):
            if key[1] in stray and balances[key]:
                raise DomainError(f"balance {key} names series {key[1]!r}, missing from \"series\"")
    for field in ("vault", "issuer_accrual", "cumulative_payouts", "issued_tokens"):
        stray = doc.get(field, {}).keys() - specs.keys()
        if stray:
            raise DomainError(
                f"{field} entry {min(stray)!r} names a series missing from \"series\"")


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
