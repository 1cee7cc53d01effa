"""Exception hierarchy shared by all rsdm modules."""

from __future__ import annotations


class RsdmError(Exception):
    """Base class for every error raised by this package."""


class DomainError(RsdmError):
    """An argument is outside the mathematical domain of the operation."""


class ExpiredSeries(RsdmError):
    """The requested elapsed time lies past the series' expiry day.

    Tokens past expiry are non-redeemable; the collateral escheats to
    the issuer.
    """


class SizeGuardError(RsdmError):
    """The currency pool is too large for exhaustive subset enumeration."""


class SchemaError(DomainError):
    """A JSON document does not match the expected shape.

    ``problems`` lists every violation with a JSON-pointer path.
    """

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class LedgerError(RsdmError):
    """Base class for ledger event rejections; the state is left unchanged."""


class UnknownSeries(LedgerError):
    """The event references a series never issued on this ledger."""


class InsufficientBalance(LedgerError):
    """The party's token balance cannot cover the event's token count."""


class SequenceGap(LedgerError):
    """The event's sequence number is not last_sequence + 1."""


class BelowMinimumRedemption(LedgerError):
    """The redemption's residual collateral is under the series minimum."""


class MissingQuote(LedgerError):
    """No price quote covers one or more held series at the valuation day."""

    def __init__(self, uncovered: list[str]):
        self.uncovered = list(uncovered)
        super().__init__(f"no applicable quote for: {', '.join(self.uncovered)}")


class ReplayError(LedgerError):
    """Replay aborted at the first invalid event."""

    def __init__(self, sequence: int, reason: str):
        self.sequence = sequence
        super().__init__(f"event {sequence}: {reason}")
