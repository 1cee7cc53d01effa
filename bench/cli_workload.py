"""CLI session: ``python -m rsdm.cli`` against ``src/``, one process at a
time, as a command-line user pays for it.

Each round is the same list of commands: ``ledger append`` of new
events (each append replays the whole log first), ``ledger replay``,
``ledger value``, ``decay redeem-quote`` at a multi-year horizon,
``solvency simulate`` under each fee regime on a generated records
file, ``msp solve``/``check``/``report`` on the shipped presets and
``demand solve``. The log starts from a few hundred events the
benchmark writes. Every output is parsed and checked against the
oracles.

The same command lists can run in-process through ``rsdm.cli.main``;
the traced run does that to attribute time to layers.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random
import shutil
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import oracles
from harness import FAILED, SRC, Run, median, over_rounds, percentile, run_child, settle
from ledger_workloads import GOLD, ISSUE_DAY, PRICES, SILVER, _jsonl_line
from policy_workload import records_csv

PRESETS = SRC / "rsdm" / "presets"
SERIES = {"AU": GOLD, "AG": SILVER}
MODULE = [sys.executable, "-m", "rsdm.cli"]


@dataclass(frozen=True)
class SessionShape:
    holders: int
    opening_transfers: int
    appends: int


SESSION = SessionShape(holders=40, opening_transfers=220, appends=5)


@dataclass
class Command:
    name: str  # "<group> <command>"
    argv: list[str]
    check: object  # (stdout, stderr) -> problem or None


class Session:
    """A session directory, the generator's mirror of its ledger log, and
    the command lists of its rounds."""

    def __init__(self, seed: int, directory: Path):
        self.dir = directory
        self.rng = random.Random(f"{seed}/cli")
        self.mirror = oracles.BookMirror()
        self.parties = [f"h{i:03d}" for i in range(SESSION.holders)]
        self.log = directory / "session.jsonl"
        self.opening_log = directory / "opening.jsonl"  # the log as written, replayed by each set-up
        self.quotes = directory / "quotes.csv"
        self.records = directory / "records.csv"
        self.records_rows = []
        self.horizon = 500

    def write_inputs(self) -> None:
        """The opening log, quotes and records files."""
        if self.dir.exists():
            shutil.rmtree(self.dir)
        self.dir.mkdir(parents=True)
        rng, m = self.rng, self.mirror
        lines = []
        for sid, doc in SERIES.items():
            m.terms[sid] = oracles.SeriesTerms(doc, ISSUE_DAY)
        for party in self.parties:
            for sid in SERIES:
                count = rng.randint(5_000, 20_000)
                m.issue(sid, party, count)
                event = {"day": ISSUE_DAY, "kind": "issue", "party": party, "sequence": m.last_sequence,
                         "series_id": sid, "token_count": count}
                if m.issued[sid] == count:
                    event["series_spec"] = SERIES[sid]
                lines.append(_jsonl_line(event))
        for _ in range(SESSION.opening_transfers):
            lines.append(_jsonl_line(self._transfer_event(rng.randint(1, 365))))
        self.log.write_text("".join(lines), encoding="utf-8")
        self.opening_log.write_text("".join(lines), encoding="utf-8")
        self.quotes.write_text(
            "day,asset_id,price\n" + "".join(f"{ISSUE_DAY},{a},{p}\n" for a, p in PRICES.items()), encoding="utf-8"
        )
        text = records_csv(rng, 200, self.horizon)
        self.records.write_text(text, encoding="utf-8")
        for row in list(csv.reader(io.StringIO(text)))[1:]:
            self.records_rows.append((int(row[1]), int(row[2]), int(row[3]) if row[3] else None))

    def _transfer_event(self, elapsed: int) -> dict:
        rng, m = self.rng, self.mirror
        a, b = rng.sample(self.parties, 2)
        sid = rng.choice(list(SERIES))
        count = rng.randint(1, 200)
        m.transfer(sid, a, b, count)
        return {"counterparty": b, "day": ISSUE_DAY + elapsed, "kind": "transfer", "party": a,
                "sequence": m.last_sequence, "series_id": sid, "token_count": count}

    # -- commands ----------------------------------------------------------

    def round_commands(self) -> list[Command]:
        rng, m = self.rng, self.mirror
        cmds = []
        for i in range(SESSION.appends):
            if i == SESSION.appends - 1:
                party, sid = rng.choice(self.parties), rng.choice(list(SERIES))
                count, elapsed = rng.randint(100, 1000), rng.randint(200, 2000)
                m.redeem(sid, party, count, m.redeem_payout(sid, count, ISSUE_DAY + elapsed))
                event = {"day": ISSUE_DAY + elapsed, "kind": "redeem", "party": party,
                         "sequence": m.last_sequence, "series_id": sid, "token_count": count}
            else:
                event = self._transfer_event(rng.randint(1, 2000))
            expected = f"appended event {event['sequence']} ({event['kind']})\n"
            cmds.append(Command("ledger append",
                                ["ledger", "append", "--log", str(self.log), "--event", json.dumps(event)],
                                lambda out, err, want=expected: None if out == want else f"append printed {out!r}"))
        cmds.append(Command("ledger replay", ["ledger", "replay", "--log", str(self.log)],
                            self._snapshot_check(self._expected_snapshot())))
        party, day = rng.choice(self.parties), ISSUE_DAY + rng.randint(365, 1800)
        cmds.append(Command("ledger value",
                            ["--format", "json", "ledger", "value", "--log", str(self.log), "--quotes",
                             str(self.quotes), "--party", party, "--day", str(day)],
                            self._value_check(m.valuation(party, day, {a: Fraction(p) for a, p in PRICES.items()}))))
        days, count = rng.randint(1500, 2200), rng.randint(1, 10_000)
        cmds.append(Command("decay redeem-quote",
                            ["--format", "json", "decay", "redeem-quote", "--theta", "0.99996", "--w", "1",
                             "--days", str(days), "--fee-rate", "0.003", "--count", str(count)],
                            self._quote_check(days, count)))
        regimes = [("--flat-fee", "0.05", lambda p: Fraction("0.05")),
                   ("--deadline-day", "900", lambda p: Fraction("0.0002") * (900 - p)),
                   ("--mean-days", "250", lambda p: Fraction("0.0002") * 250)]
        for flag, value, fee_of in regimes:
            cmds.append(Command("solvency simulate",
                                ["solvency", "simulate", "--records", str(self.records), flag, value,
                                 "--rate", "0.0002", "--horizon", str(self.horizon)],
                                self._timeline_check(fee_of)))
        for preset, objective in (("triple_monetary.json", "saturating"), ("eurozone.json", "linear")):
            cmds.append(Command("msp solve", ["msp", "solve", preset, "--objective", objective],
                                self._solve_check(preset, objective == "saturating")))
        cmds.append(Command("msp check", ["--format", "json", "msp", "check", "india.json", "--select", "INR"],
                            self._feasibility_check("india.json", ["INR"])))
        cmds.append(Command("msp report",
                            ["--format", "json", "msp", "report", "eurozone.json", "--select", "EUR,XAU_RSDM"],
                            self._report_check("eurozone.json", ["EUR", "XAU_RSDM"])))
        cmds.append(Command("demand solve", ["--format", "json", "demand", "solve", "global_demand.json",
                                             "--unknown", "sdm_reserve"], self._demand_check("sdm_reserve")))
        return cmds

    def _expected_snapshot(self) -> dict:
        m = self.mirror
        return {
            "balances": {(p, s): n for (p, s), n in m.balances.items() if n},
            "vault": dict(m.vault), "payouts": dict(m.payouts), "accrual": dict(m.accrual),
            "issued": dict(m.issued), "last_sequence": m.last_sequence,
        }

    @staticmethod
    def _snapshot_check(want: dict):
        def check(out: str, err: str):
            doc = json.loads(out)
            got = {
                "balances": {(p, s): n for p, series in doc["balances"].items() for s, n in series.items()},
                "vault": {s: oracles.frac(v) for s, v in doc["vault"].items()},
                "payouts": {s: oracles.frac(v) for s, v in doc["cumulative_payouts"].items()},
                "accrual": {s: oracles.frac(v) for s, v in doc["issuer_accrual"].items()},
                "issued": doc["issued_tokens"], "last_sequence": doc["last_sequence"],
            }
            return None if got == want else "replayed snapshot differs from the generator's mirror"
        return check

    @staticmethod
    def _value_check(want: dict):
        def check(out: str, err: str):
            doc = json.loads(out)
            for h in doc["holdings"]:
                row = want["rows"][h["series_id"]]
                got = [oracles.frac(h[k]) for k in ("residual_g", "redeemable_g", "residual_value", "redeemable_value")]
                if got != [oracles.settle(x) for x in row]:
                    return f"value of {h['series_id']} differs from the oracle"
            totals = (oracles.frac(doc["total_residual_value"]), oracles.frac(doc["total_redeemable_value"]))
            if totals != (oracles.settle(want["total_residual"]), oracles.settle(want["total_redeemable"])):
                return "valuation totals differ from the oracle"
            return None
        return check

    @staticmethod
    def _quote_check(days: int, count: int):
        res = count * oracles.residual(Fraction("0.99996"), Fraction(1), days)
        fee = Fraction("0.003")
        want = {"payout_g": (1 - fee) * res, "fee_g": fee * res, "residual_g": res}

        def check(out: str, err: str):
            doc = json.loads(out)
            bad = [k for k, v in want.items() if oracles.frac(doc[k]) != oracles.settle(v)]
            return f"redeem-quote {bad} differ from the oracle" if bad else None
        return check

    def _timeline_check(self, fee_of):
        points, first = oracles.solvency_sweep(self.records_rows, fee_of, Fraction("0.0002"), self.horizon)

        def check(out: str, err: str):
            rows = list(csv.reader(io.StringIO(out)))[1:]
            got = [(int(d), oracles.frac(p), oracles.frac(c), b == "true") for d, p, c, b in rows]
            note = f"first bankrupt day: {first}\n" if first is not None else ""
            return None if got == points and err == note else "simulate timeline differs from the sweep"
        return check

    @staticmethod
    def _preset_model(name: str) -> oracles.SelectionModel:
        return oracles.SelectionModel(json.loads((PRESETS / name).read_text(encoding="utf-8")))

    def _solve_check(self, preset: str, saturating: bool):
        model = self._preset_model(preset)
        best = oracles.msp_brute_force(model, saturating)

        def check(out: str, err: str):
            doc = json.loads(out)
            if best is None:
                return None if doc.get("infeasible") else "solve found a selection; brute force finds none"
            ok = (tuple(doc["selection"]) == best[0] and oracles.frac(doc["objective"]) == oracles.settle(best[1])
                  and [oracles.frac(doc["per_function_score"][f]) for f in model.fids] == [oracles.settle(x) for x in best[2]])
            return None if ok else f"msp solve {preset} differs from brute force {best[:2]}"
        return check

    def _feasibility_check(self, preset: str, ids: list[str]):
        model = self._preset_model(preset)
        want = model.feasible([model.ids.index(c) for c in ids])
        return lambda out, err: None if json.loads(out)["feasible"] == want else "msp check verdict differs"

    def _report_check(self, preset: str, ids: list[str]):
        model = self._preset_model(preset)
        raw, weighted = model.sums([model.ids.index(c) for c in ids])
        want = [(model.as_fraction(r), model.as_fraction(min(model.scale, w)), r >= t)
                for r, w, t in zip(raw, weighted, model.thresholds)]

        def check(out: str, err: str):
            rows = json.loads(out)["functions"]
            got = [(oracles.frac(r["achieved"]), oracles.frac(r["saturated_value"]), r["covered"]) for r in rows]
            return None if got == want else "msp report differs from the oracle"
        return check

    @staticmethod
    def _demand_check(unknown: str):
        doc = json.loads((PRESETS / "global_demand.json").read_text(encoding="utf-8"))

        def check(out: str, err: str):
            value = oracles.frac(json.loads(out)["value"])
            gap, _ = oracles.demand_gap(doc, unknown, value)
            # the printed value is on the 9-decimal grid
            slack = abs(oracles.demand_coefficient(doc, unknown)) * Fraction(1, 2 * 10**9)
            return None if abs(gap) <= slack else f"demand {unknown}: printed value leaves a gap"
        return check


# ---------------------------------------------------------------------------
# Running sessions
# ---------------------------------------------------------------------------


def subprocess_runner(argv: list[str], cwd: Path):
    proc, seconds = run_child(MODULE + argv, cwd)
    return proc.returncode, proc.stdout, proc.stderr, seconds


def inprocess_runner(argv: list[str], cwd: Path):
    from rsdm import cli

    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - t0


def session_prepare(seed: int, directory: Path) -> Session:
    """Write the session's opening log, quotes and records files."""
    session = Session(seed, directory)
    session.write_inputs()
    return session


def session_load(session: Session) -> Session:
    """The session's set-up: load the opening log by replaying it through
    the CLI once."""
    proc, _ = run_child(MODULE + ["ledger", "replay", "--log", str(session.opening_log)], session.dir)
    if proc.returncode != 0:
        raise RuntimeError(f"opening log does not replay: {proc.stderr[:300]}")
    return session


def run_rounds(run: Run, session: Session, runner, stop) -> int:
    """Run whole rounds of the session's commands until ``stop(rounds
    done)``; return how many ran."""
    done = 0
    while not stop(done):
        settle()
        waited = 0.0  # the session's time is what its user waits for the commands
        for cmd in session.round_commands():
            result = run.call(None, runner, cmd.argv, session.dir)
            if result is FAILED:
                continue
            code, out, err, seconds_taken = result
            if code != 0:
                run.fail(f"{cmd.name} exited {code}: {err[:300]}")
                continue
            waited += seconds_taken
            run.samples[f"cli:{cmd.name}"].append(seconds_taken)
            run.samples["cli:command"].append(seconds_taken)
            try:
                problem = cmd.check(out, err)
            except (ValueError, KeyError, TypeError) as exc:
                problem = f"unreadable output ({type(exc).__name__}: {exc})"
            run.check(problem is None, f"{cmd.name}: {problem}")
        run.samples["cli:round"].append(waited)
        run.end_round()
        done += 1
    return done


def cli_metrics(run: Run) -> dict:
    """``op`` is one command's process, ``batch`` one round's commands."""
    return {
        "op_ms_p50": over_rounds(run, lambda r: median(r["cli:command"])) * 1e3,
        "op_ms_p90": over_rounds(run, lambda r: percentile(r["cli:command"], 0.90)) * 1e3,
        "batch_ms_p50": over_rounds(run, lambda r: median(r["cli:round"])) * 1e3,
    }


def cli_native(run: Run, seed: int, session: Session, stop, runner=subprocess_runner) -> dict:
    rounds = run_rounds(run, session, runner, stop)
    appends = run.samples["cli:ledger append"]
    tenth = max(1, len(appends) // 10)
    facts = {
        "log_bytes": session.log.stat().st_size,
        "append_ms_first": median(appends[:tenth]) * 1e3,
        "append_ms_last": median(appends[-tenth:]) * 1e3,
    }
    return {"rounds": rounds, "metrics": cli_metrics(run), "facts": facts}

