"""Spans and counts at the rsdm layer boundaries, from outside the package.

``Tracer.install()`` replaces each traced public function with a
wrapper everywhere a loaded ``rsdm`` module binds it (``rsdm.ledger``
binds ``redemption_quote`` and ``exact_mul`` at import, ``rsdm.decay``
binds ``exact_pow``, and so on), plus the methods
``CurrencyCandidate.score`` and ``FeeSchedule.fee_for``. ``restore()``
puts every original back.

A timed wrapper records a span (id, parent id, name, start, duration)
and adds the call's duration, minus the time its traced children took,
to the name's self time. Hot leaf methods (``score``, ``fee_for``) are
counted only. Spans stay in memory, up to a cap, and are written out at
the end of the run.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from pathlib import Path

TIMED = {
    "numeric": ["exact_pow", "exact_mul", "settle"],
    "decay": ["redemption_quote", "residual_weight"],
    "ledger": ["append_event", "issue", "transfer", "redeem", "replay", "holdings_valuation",
               "events_to_jsonl", "events_from_jsonl", "state_to_snapshot", "state_from_snapshot"],
    "solvency": ["simulate_issuer"],
    "msp": ["solve_branch_and_bound", "solve_saturating", "solve_exhaustive"],
    "demand": ["solve_unknown"],
}
COUNTED_METHODS = [("msp", "CurrencyCandidate", "score"), ("solvency", "FeeSchedule", "fee_for")]
SPAN_CAP = 200_000


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.rejected: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.max_digits = 0
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self._stack: list[list] = []  # [span id, child ns]
        self._next_id = 1
        self._redeem_depth = 0  # > 0 while a ledger.redeem call is open
        self._patched: list[tuple] = []

    # -- wrappers ------------------------------------------------------------

    def _timed(self, name: str, fn):
        stack, clock = self._stack, time.perf_counter_ns
        digits = name in ("numeric.exact_pow", "numeric.settle")
        in_redeem = name == "decay.redemption_quote"
        is_redeem = name == "ledger.redeem"
        is_simulate = name == "solvency.simulate_issuer"
        ledger_error = sys.modules["rsdm.errors"].LedgerError

        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else 0
            frame = [span_id, 0]
            stack.append(frame)
            if in_redeem and self._redeem_depth:
                self.counts["quotes_in_redeem"] += 1
            if is_redeem:
                self._redeem_depth += 1
            if is_simulate:
                self.counts["simulated_records"] += len(args[0])
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except ledger_error:
                self.rejected[name] += 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                self.calls[name] += 1
                self.total_ns[name] += elapsed
                self.self_ns[name] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                if len(self.spans) < SPAN_CAP:
                    self.spans.append((span_id, parent, name, start, elapsed))
                else:
                    self.dropped_spans += 1
                if is_redeem:
                    self._redeem_depth -= 1
            if digits:
                value = args[0] if name == "numeric.settle" else result
                self.max_digits = max(self.max_digits, len(value.as_tuple().digits))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- install / restore ---------------------------------------------------

    def install(self) -> "Tracer":
        modules = [m for n, m in sorted(sys.modules.items()) if n == "rsdm" or n.startswith("rsdm.")]
        for layer, names in TIMED.items():
            home = sys.modules[f"rsdm.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._timed(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, attr, original))
                            setattr(module, attr, wrapper)
        for layer, cls_name, method in COUNTED_METHODS:
            cls = getattr(sys.modules[f"rsdm.{layer}"], cls_name)
            original = cls.__dict__[method]
            self._patched.append((cls, method, original))
            setattr(cls, method, self._counted(f"{layer}.{method}", original))
        return self

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def self_ms(self, *names: str) -> float:
        return sum(self.self_ns[n] for n in names) / 1e6

    def write(self, path: Path) -> None:
        doc = {
            "calls": dict(self.calls),
            "self_ns": dict(self.self_ns),
            "total_ns": dict(self.total_ns),
            "rejected": dict(self.rejected),
            "counts": dict(self.counts),
            "max_mantissa_digits": self.max_digits,
            "dropped_spans": self.dropped_spans,
            "span_fields": ["id", "parent", "name", "start_ns", "duration_ns"],
        }
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
