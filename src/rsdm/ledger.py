"""Append-only event-sourced ledger for decaying-token series.

Three event kinds (issue, transfer, redeem) are folded into an
immutable holdings state. Issue events carry the full series
parameters, so replaying a log from the empty state is self-contained
and deterministic. Redemption payouts are decay-aware: the customer
receives the settlement-rounded redeemable quantity, the fee and decay
portions accrue to the issuer but stay in the vault (physical metal
only moves at redemption).

One function, ``_effects``, checks every event (appended, redeemed or
replayed) and computes what it writes, a redeem's settled payout
included. A redeem settles from bounds on the decay factor's power; it
falls back to the exact claim, which valuation uses, only where the
bounds cannot decide. A series spec is valid by construction
(``RsdmSpec`` checks itself), so an event, a log line or a snapshot
carrying an invalid one fails where it is read, and no event check
repeats the spec's.

Conservation invariants maintained per series:

* vault grams + cumulative payout grams == issued tokens * initial
  weight (exactly, because the vault is debited by the same rounded
  payout the customer receives);
* issuer accrual + cumulative payout grams == redeemed tokens * initial
  weight, and the balances hold at most the tokens issued;
* issuer accrual is nondecreasing;
* outstanding decayed claims never exceed the vault.

Persistence: one JSON object per line for the event log (append-only),
a canonical sorted-keys JSON document for state snapshots (checked on
load against the first two invariants), and a ``day,asset_id,price``
CSV for valuation quotes.
"""

from __future__ import annotations

import decimal
import json
from dataclasses import dataclass
from decimal import Decimal, localcontext
from enum import Enum
from math import isqrt
from typing import Iterable, Mapping, NamedTuple, Sequence

from rsdm.decay import RsdmSpec, epoch_day, redemption_quote
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
from rsdm.numeric import (
    COUNT_LIMIT, DEFAULT_PRECISION, SETTLEMENT_DECIMALS, as_decimal, bounded_decimal, count_too_wide,
    count_violation, exact_add, exact_mul, exact_sub, integer_violation, json_int, pow_bounds, read_csv_table,
    read_text, settle,
)

_ZERO = Decimal(0)

#: Digits a redeem's bounds on the decay factor's power carry past the
#: payout's integer and grid digits. The bounds' relative width is about
#: 4 * elapsed * 10**(1 - digits), so below 10^10 elapsed days the payout
#: bounds lie under 4E-18 g apart and settle alike unless the payout is
#: that close to a rounding midpoint.
_GUARD_DIGITS = 20

#: The per-series amounts in grams a state and its snapshot hold.
_AMOUNTS = ("vault", "issuer_accrual", "cumulative_payouts")

#: Context for a snapshot's conservation sums: exact for any amount a
#: ledger writes (34 weight digits times a token count Python parses),
#: and it traps, so 1E+999999999 fails at once, not as a 10^9-digit sum.
_SNAPSHOT_SUMS = decimal.Context(prec=5_000, traps=[decimal.Inexact, decimal.Rounded])


@dataclass(frozen=True)
class Quantity:
    """The settled payout of a redeem, in grams."""

    value: Decimal


class EventKind(Enum):
    ISSUE = "issue"
    TRANSFER = "transfer"
    REDEEM = "redeem"


class LedgerEvent(NamedTuple):
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
                sequence=json_int(data["sequence"], "sequence"),
                day=json_int(data["day"], "day"),
                kind=EventKind(data["kind"]),
                series_id=str(data["series_id"]),
                party=str(data["party"]),
                counterparty=str(counterparty) if counterparty is not None else None,
                token_count=json_int(data.get("token_count", 0), "token_count"),
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
        if problem := integer_violation("quote day", self.day):
            raise DomainError(problem)
        object.__setattr__(self, "price", bounded_decimal("quote price", self.price))
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
    return replay(())


# ---------------------------------------------------------------------------
# Event application
# ---------------------------------------------------------------------------


def append_event(state: LedgerState, event: LedgerEvent) -> LedgerState:
    """Apply one event, returning the successor state.

    Any rejection raises a LedgerError subclass and leaves the input
    state untouched (value semantics: the input is never mutated).
    """
    writes, series, _ = _effects(state, event)
    return _successor(state, event, writes, series)


def _effects(state, event: LedgerEvent):
    """Check ``event`` against ``state`` and return what it writes, without
    writing: ``(balances, series, payout)``, the new balance of each
    (party, series_id) key it touches, the new value of each per-series
    field (``specs``, ``vault``, ...) it changes for ``event.series_id``,
    and a redeem's settled payout (None for the other kinds), which must
    equal a payout stated on the event.
    """
    if problem := integer_violation("sequence", event.sequence) or integer_violation("day", event.day):
        raise LedgerError(problem)
    if event.sequence != state.last_sequence + 1:
        raise SequenceGap(
            f"expected sequence {state.last_sequence + 1}, got {event.sequence}"
        )
    count = event.token_count
    if problem := count_violation("token count", count):
        raise LedgerError(problem)
    sid = event.series_id
    key = (event.party, sid)

    if event.kind is EventKind.ISSUE:
        series = {}
        spec = state.specs.get(sid)
        if spec is None:
            if event.series_spec is None:
                raise LedgerError(f"first issue of series {sid!r} must carry the series spec")
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
        if total_issued >= COUNT_LIMIT:
            raise LedgerError(f"issuing {count} tokens would take the tokens issued of {sid!r} "
                              f"past {DEFAULT_PRECISION} digits")
        series["vault"] = exact_add(
            state.vault.get(sid, _ZERO), exact_mul(spec.initial_weight, Decimal(count))
        )
        series["issued_tokens"] = total_issued
        return {key: state.balances.get(key, 0) + count}, series, None

    # a transfer or a redeem
    if sid not in state.specs:
        raise UnknownSeries(f"series {sid!r} has never been issued")
    transfer = event.kind is EventKind.TRANSFER
    if transfer and not event.counterparty:
        raise LedgerError("transfer requires a counterparty")
    held = state.balances.get(key, 0)
    if held < count:
        raise InsufficientBalance(
            f"{event.party!r} holds {held} tokens of {sid!r}, cannot {event.kind.value} {count}"
        )
    if transfer:
        if event.counterparty == event.party:
            return {key: held}, {}, None
        dst = (event.counterparty, sid)
        return {key: held - count, dst: state.balances.get(dst, 0) + count}, {}, None

    spec = state.specs[sid]
    elapsed = event.day - epoch_day(spec.issue_date)
    if elapsed < 0:
        raise DomainError(f"redemption day {event.day} precedes the series issue date")
    if elapsed > spec.expiry_days:
        raise ExpiredSeries(
            f"series {sid!r} expired {elapsed - spec.expiry_days} days "
            f"before the redemption; tokens pay zero"
        )
    weight = exact_mul(spec.initial_weight, Decimal(count))
    payout = _settled_claim(spec, elapsed, count, weight)
    if event.payout_grams is not None and event.payout_grams != payout:
        raise LedgerError(
            f"redeem event states payout {event.payout_grams} g but the series "
            f"arithmetic yields {payout} g"
        )
    accrual = exact_sub(weight, payout)  # decay plus fee
    return {key: held - count}, {
        "vault": exact_sub(state.vault[sid], payout),
        "cumulative_payouts": exact_add(state.cumulative_payouts.get(sid, _ZERO), payout),
        "issuer_accrual": exact_add(state.issuer_accrual.get(sid, _ZERO), accrual),
    }, payout


def _settled_claim(spec: RsdmSpec, elapsed: int, count: int, weight: Decimal) -> Decimal:
    """The settled payout of redeeming ``count`` tokens of initial
    ``weight`` grams in all ``elapsed`` days after issue; raises
    BelowMinimumRedemption if their residual is below the series minimum.

    Decided from bounds on the decay factor's power (``pow_bounds``),
    each multiplied exactly by the weight: ``settle`` is monotone, so
    payout bounds that settle alike give the settled payout, and a
    residual bound at or above the minimum clears it. Where the bounds
    cannot decide (a payout near a rounding midpoint, a residual near or
    below the minimum), the exact claim decides and words the rejection.
    """
    digits = max(1, weight.adjusted() + 1 + SETTLEMENT_DECIMALS + _GUARD_DIGITS)
    low, high = pow_bounds(spec.daily_decay_factor, elapsed, digits)
    if exact_mul(weight, low) >= spec.min_redemption_grams:
        net = exact_mul(weight, exact_sub(Decimal(1), spec.redemption_fee_rate))
        payout = settle(exact_mul(net, low))
        if payout == settle(exact_mul(net, high)):
            return payout
    claim = redemption_quote(spec, elapsed, count)
    if claim.residual < spec.min_redemption_grams:
        raise BelowMinimumRedemption(
            f"residual {settle(claim.residual):f} g is below the series minimum "
            f"of {spec.min_redemption_grams} g"
        )
    return settle(claim.payout)


def _successor(state: LedgerState, event: LedgerEvent, writes: dict, series: dict) -> LedgerState:
    """The state after ``event``, from the writes ``_effects`` returned.
    Balances share storage with ``state``, and a per-series dict is
    copied only when the event changes it."""
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
    state: LedgerState, series_id: str, spec: RsdmSpec | None, party: str, token_count: int, day: int
) -> tuple[LedgerState, LedgerEvent]:
    """Issue tokens to a party; the first issue must carry the series spec."""
    event = LedgerEvent(state.last_sequence + 1, day, EventKind.ISSUE, series_id, party,
                        token_count=token_count,
                        series_spec=spec if series_id not in state.specs else None)
    return append_event(state, event), event


def transfer(
    state: LedgerState, party: str, counterparty: str, series_id: str, token_count: int, day: int
) -> tuple[LedgerState, LedgerEvent]:
    event = LedgerEvent(state.last_sequence + 1, day, EventKind.TRANSFER, series_id, party,
                        counterparty, token_count)
    return append_event(state, event), event


def redeem(
    state: LedgerState, party: str, series_id: str, token_count: int, day: int
) -> tuple[LedgerState, Quantity, LedgerEvent]:
    """Redeem tokens for collateral; returns the settled payout in grams,
    as a ``Quantity``, and the emitted event. The payout comes from
    checking the event, so a redeem is checked and settled once."""
    probe = LedgerEvent(state.last_sequence + 1, day, EventKind.REDEEM, series_id, party,
                        token_count=token_count)
    writes, series, payout = _effects(state, probe)
    event = probe._replace(payout_grams=payout)
    return _successor(state, event, writes, series), Quantity(payout), event


# ---------------------------------------------------------------------------
# Replay and valuation
# ---------------------------------------------------------------------------


def replay(events: Iterable[LedgerEvent]) -> LedgerState:
    """Fold events from the empty state; deterministic and idempotent.

    The first invalid event aborts with a ReplayError carrying its
    sequence number. Events are checked exactly as by ``append_event``,
    but written in place into one state whose fields stay plain dicts
    until the log is done; no caller sees it before.
    """
    # Built without __init__: once vars() takes an __init__-built
    # instance's dict, _effects reads its fields slower (19k events, +6%).
    fold = object.__new__(LedgerState)
    fields = vars(fold)
    balances = {}
    fields.update(specs={}, balances=balances, vault={}, issuer_accrual={}, cumulative_payouts={},
                  issued_tokens={}, last_sequence=0)
    for event in events:
        try:
            writes, series, _ = _effects(fold, event)
        except RsdmError as exc:
            raise ReplayError(event.sequence, str(exc)) from exc
        balances.update(writes)
        for name, value in series.items():
            fields[name][event.series_id] = value
        fields["last_sequence"] = event.sequence
    fields["balances"] = _Balances(balances)
    return fold


class HoldingValuation(NamedTuple):
    series_id: str
    token_count: int
    residual_grams: Decimal
    redeemable_grams: Decimal
    quote_day: int | None
    price_per_gram: Decimal | None
    residual_value: Decimal
    redeemable_value: Decimal
    expired: bool = False


class ValuationReport(NamedTuple):
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
    if problem := integer_violation("valuation day", day):
        raise DomainError(problem)
    holdings = state.holdings_of(party)
    latest: dict[str, PriceQuote] = {}
    for q in quotes:
        if q.day <= day and (q.asset_id not in latest or q.day >= latest[q.asset_id].day):
            latest[q.asset_id] = q

    elapsed = {series: day - epoch_day(state.specs[series].issue_date) for series in holdings}
    uncovered = [
        series
        for series, days in elapsed.items()
        if days <= state.specs[series].expiry_days and state.specs[series].collateral_id not in latest
    ]
    if uncovered:
        raise MissingQuote(uncovered)

    rows = []
    total_residual = _ZERO
    total_redeemable = _ZERO
    for series, count in holdings.items():
        spec = state.specs[series]
        days = elapsed[series]
        if days > spec.expiry_days:
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
        if days < 0:
            raise DomainError(f"valuation day {day} precedes the issue date of {series!r}")
        quote = latest[spec.collateral_id]
        claim = redemption_quote(spec, days, count)
        residual_v = exact_mul(claim.residual, quote.price)
        redeemable_v = exact_mul(claim.payout, quote.price)
        rows.append(
            HoldingValuation(
                series_id=series,
                token_count=count,
                residual_grams=claim.residual,
                redeemable_grams=claim.payout,
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
    """The events of the JSONL log at *path*, read by ``read_text``."""
    return events_from_jsonl(read_text(path))


def append_event_line(path, event: LedgerEvent) -> None:
    """Append *event* to the JSONL log at *path* on a line of its own,
    ending the log's last line first if it has no newline."""
    with open(path, "a+b") as fh:
        if fh.tell():
            fh.seek(-1, 2)  # from the end
            if fh.read(1) != b"\n":
                fh.write(b"\n")
        fh.write(events_to_jsonl([event]).encode("utf-8"))


def state_to_snapshot(state: LedgerState) -> str:
    """Canonical JSON snapshot: sorted keys, decimals as strings.

    Replaying the same log always produces the same snapshot bytes.
    """
    doc = {
        "last_sequence": state.last_sequence,
        "series": {sid: spec.to_json_dict() for sid, spec in state.specs.items()},
        "balances": _nest_balances(state.balances),
        **{field: {sid: str(v) for sid, v in getattr(state, field).items()} for field in _AMOUNTS},
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
        held: dict[str, int] = {}  # series_id -> tokens in all balances
        for key, count in balances.items():
            if type(count) is not int or count < 0:
                raise DomainError(f"balance {key} must be a nonnegative integer, got {count!r}")
            held[key[1]] = held.get(key[1], 0) + count
        state = LedgerState(
            specs={sid: RsdmSpec.from_json_dict(s) for sid, s in doc.get("series", {}).items()},
            balances=_Balances(balances),
            **{field: {sid: as_decimal(v) for sid, v in doc.get(field, {}).items()}
               for field in _AMOUNTS},
            issued_tokens={
                sid: json_int(v, f"issued_tokens {sid!r}")
                for sid, v in doc.get("issued_tokens", {}).items()
            },
            last_sequence=json_int(doc.get("last_sequence", 0), "last_sequence"),
        )
        if state.last_sequence < 0:
            raise DomainError("last_sequence must be nonnegative")
        _check_series(state, held)
        return state
    except (DomainError, ValueError, TypeError, AttributeError) as exc:
        raise DomainError(f"malformed snapshot: {exc}") from exc


def _check_series(state: LedgerState, held: Mapping[str, int]) -> None:
    """A snapshot's series must be as ``append_event`` leaves them. Every
    held balance (``held``: tokens per series) and per-series entry names
    one of them; a zero balance holds nothing and is let through, and the
    offending balance is looked up only on error. No amount or count is
    negative, each series has issued fewer than 10^34 tokens, its balances
    hold at most the tokens issued, vault plus payouts weigh every token
    issued, and issuer accrual plus payouts every token redeemed."""
    stray = {sid for sid, tokens in held.items() if tokens} - state.specs.keys()
    if stray:
        key = min(key for key, count in state.balances.items() if key[1] in stray and count)
        raise DomainError(f"balance {key} names series {key[1]!r}, missing from \"series\"")
    for field in (*_AMOUNTS, "issued_tokens"):
        entries = getattr(state, field)
        stray = entries.keys() - state.specs.keys()
        if stray:
            raise DomainError(f"{field} entry {min(stray)!r} names a series missing from \"series\"")
        for sid, value in entries.items():
            if value < 0:
                raise DomainError(f"{field} {sid!r} must be nonnegative")
    for sid, spec in state.specs.items():
        issued = state.issued_tokens.get(sid, 0)
        if issued >= COUNT_LIMIT:
            raise DomainError(count_too_wide(f"issued_tokens {sid!r}"))
        redeemed = issued - held.get(sid, 0)
        if redeemed < 0:
            raise DomainError(
                f"balances of {sid!r} hold {issued - redeemed} tokens, more than the {issued} issued")
        payouts = state.cumulative_payouts.get(sid, _ZERO)
        for field, tokens, fate in (("vault", issued, "issued"), ("issuer_accrual", redeemed, "redeemed")):
            try:
                with localcontext(_SNAPSHOT_SUMS):
                    kept = getattr(state, field).get(sid, _ZERO) + payouts == spec.initial_weight * tokens
            except decimal.DecimalException:  # wider than any amount a ledger writes
                kept = False
            if not kept:
                raise DomainError(f"{field} + cumulative_payouts of {sid!r} is not the weight of "
                                  f"the {tokens} tokens {fate}")


def quotes_from_csv(text: str) -> list[PriceQuote]:
    """Parse quotes from CSV with header ``day,asset_id,price``."""
    return read_csv_table(text, "quotes", ["day", "asset_id", "price"], lambda row: PriceQuote(
        day=int(row["day"]), asset_id=row["asset_id"].strip(), price=row["price"].strip()))
