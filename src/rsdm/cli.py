"""Command-line entry point.

Subcommand map::

    decay residual | redeem-quote | convert-rate
    solvency breakeven | simulate
    msp solve | check | report        (--objective, --method)
    demand supply | solve --unknown <field>
    ledger init | append | replay | value

Each handler imports the one library module it runs, so a command loads
that module, ``demand`` (the parser reads its ``Unknown`` choices) and
what they import, never the other groups' modules. It reads its files
through ``numeric.read_text`` and the library's text parsers, computes,
and hands the result to ``emit``, which prints it in the ``--format``
(table, JSON or CSV). A file's content (timeline, snapshot) and status
lines print the same in every format. A file argument not found in the
working directory is looked up in ``RSDM_DATA_DIR`` or the shipped
presets.

Exit status: 0 success, 1 domain/validation error, 2 usage error
(argparse's, which also enforces each either-or flag group).
``main`` is the one error boundary: an ``RsdmError``, a path that cannot
be read or written, or a file that is not UTF-8 prints ``error: ...`` on
stderr and exits 1, never with a traceback. A reader that closes stdout
early (``| head``) ends the run with exit 1 and nothing on stderr.
Decimal flags are parsed as exact decimal strings, never through binary
floating point; numeric output is rendered as decimal strings at the
settlement precision (9 decimal places).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from datetime import date
from decimal import Decimal
from pathlib import Path
from typing import TYPE_CHECKING

from rsdm import numeric
from rsdm.errors import DomainError, RsdmError, SchemaError

if TYPE_CHECKING:
    from rsdm import decay, demand, ledger, msp, solvency


def resolve_path(name: str) -> Path:
    """A file argument resolves against the working directory first,
    then the data directory: ``RSDM_DATA_DIR`` if set and nonempty, else
    the shipped presets."""
    p = Path(name)
    if p.exists():
        return p
    data_dir = os.environ.get("RSDM_DATA_DIR") or Path(__file__).with_name("presets")
    candidate = Path(data_dir) / name
    if candidate.exists():
        return candidate
    raise DomainError(f"no such file: {name!r} (also tried {candidate})")


def parse_json(text: str, source: object) -> object:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"parse error in {source}: {exc}") from exc


def load_instance(name: str) -> msp.MspInstance:
    """Load an msp instance and print its reachability warnings on stderr.

    A parse failure and every schema or invariant violation (each with
    its JSON-pointer path) raise; the instance checks its invariants
    once, when ``instance_from_json_dict`` builds it.
    """
    from rsdm import msp
    path = resolve_path(name)
    instance = msp.instance_from_json_dict(parse_json(numeric.read_text(path), path))
    for warning in msp.validate_instance(instance):
        print(f"{path}: {warning}", file=sys.stderr)
    return instance


def load_scenario(name: str) -> demand.DemandScenario:
    from rsdm import demand
    path = resolve_path(name)
    return demand.DemandScenario.from_json_dict(parse_json(numeric.read_text(path), path))


def replay_log(name: str) -> ledger.LedgerState:
    from rsdm import ledger
    return ledger.replay(ledger.read_event_log(Path(name)))


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def fmt(value: Decimal) -> str:
    """Plain decimal-string rendering on the settlement grid (never
    E-notation, which ``str`` picks below 1E-6)."""
    return format(numeric.settle(value), "f")


def emit(output_format: str, doc: dict, table_lines: list[str] | None,
         csv_rows: list[list] | None = None) -> None:
    """Print one result in *output_format*: *doc* as JSON,
    *csv_rows* (header first) as CSV with booleans spelt as in JSON, and
    *table_lines* otherwise. A result without CSV rows prints its table
    in CSV format; one without table lines prints its JSON."""
    if output_format == "json" or table_lines is None:
        print(json.dumps(doc, indent=2, sort_keys=True))
    elif output_format == "csv" and csv_rows is not None:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        for row in csv_rows:
            writer.writerow([str(v).lower() if isinstance(v, bool) else v for v in row])
    else:
        for line in table_lines:
            print(line)


def write_or_print(text: str, out: str | None, what: str) -> None:
    """Write *text* to the file *out*, or to stdout when there is none."""
    if out:
        Path(out).write_text(text, encoding="utf-8")
        print(f"{what} written to {out}")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# decay subcommands
# ---------------------------------------------------------------------------


def _adhoc_spec(args) -> decay.RsdmSpec:
    from rsdm import decay
    expiry = args.expiry_days if args.expiry_days is not None else max(args.days, 1)
    return decay.RsdmSpec(
        issue_date=date(1970, 1, 1),
        collateral_id="adhoc",
        initial_weight=numeric.as_decimal(args.w),
        daily_decay_factor=numeric.as_decimal(args.theta),
        expiry_days=expiry,
        redemption_fee_rate=numeric.as_decimal(args.fee_rate),
    )


def cmd_decay_residual(args) -> int:
    from rsdm import decay
    residual = fmt(decay.residual_weight(_adhoc_spec(args), args.days))
    emit(args.format, {"residual_g": residual}, [residual])
    return 0


def cmd_decay_redeem_quote(args) -> int:
    from rsdm import decay
    quote = decay.redemption_quote(_adhoc_spec(args), args.days, args.count)
    doc = {"payout_g": fmt(quote.payout), "fee_g": fmt(quote.fee), "residual_g": fmt(quote.residual)}
    emit(args.format, doc, [f"{key}: {value}" for key, value in doc.items()])
    return 0


def cmd_decay_convert_rate(args) -> int:
    from rsdm import decay
    if args.annual is not None:
        value = fmt(decay.daily_factor_from_annual_rate(args.annual))
        label = "daily_factor"
    else:
        value = fmt(decay.annual_rate_from_daily_factor(args.daily))
        label = "annual_rate"
    emit(args.format, {label: value}, [value])
    return 0


# ---------------------------------------------------------------------------
# solvency subcommands
# ---------------------------------------------------------------------------


def cmd_solvency_breakeven(args) -> int:
    from rsdm import solvency
    days = solvency.breakeven_horizon(args.beta, args.alpha)
    emit(args.format, {"breakeven_days": days}, ["never" if days is None else str(days)])
    return 0


def _schedule_from_args(args) -> solvency.FeeSchedule:
    from rsdm import solvency
    if args.flat_fee is not None:
        return solvency.FeeSchedule.flat(args.flat_fee, args.rate)
    if args.deadline_day is not None:
        return solvency.FeeSchedule.deadline_based(args.deadline_day, args.rate)
    return solvency.FeeSchedule.mean_holding_based(args.mean_days, args.rate)


def cmd_solvency_simulate(args) -> int:
    from rsdm import solvency
    records = solvency.records_from_csv(numeric.read_text(resolve_path(args.records)))
    timeline = solvency.simulate_issuer(records, _schedule_from_args(args), args.horizon)
    write_or_print(timeline.to_csv(), args.out, "timeline")
    if timeline.first_bankrupt_day is not None:
        print(f"first bankrupt day: {timeline.first_bankrupt_day}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# msp subcommands
# ---------------------------------------------------------------------------


def cmd_msp_solve(args) -> int:
    from rsdm import msp
    instance = load_instance(args.instance)
    kind = msp.ObjectiveKind(args.objective)
    if args.method == "exhaustive":
        result = msp.solve_exhaustive(instance, kind)
    elif kind is msp.ObjectiveKind.SATURATING:
        result = msp.solve_saturating(instance)
    else:
        result = msp.solve_branch_and_bound(instance)
    doc = msp.solution_to_json_dict(result)
    if not isinstance(result, msp.Infeasible):
        doc["objective"] = fmt(result.objective)
        doc["per_function_score"] = {k: fmt(v) for k, v in result.per_function_score.items()}
    emit(args.format, doc, None)
    return 0


def _parse_selection(text: str) -> list[str]:
    return [s.strip() for s in text.split(",") if s.strip()]


def cmd_msp_check(args) -> int:
    from rsdm import msp
    instance = load_instance(args.instance)
    verdict = msp.check_feasible(instance, _parse_selection(args.select))
    emit(
        args.format,
        {"feasible": verdict.feasible, "violations": list(verdict.violations)},
        [f"feasible: {'yes' if verdict.feasible else 'no'}",
         *(f"  violated - {v}" for v in verdict.violations)],
    )
    return 0


def cmd_msp_report(args) -> int:
    from rsdm import msp
    instance = load_instance(args.instance)
    report = msp.coverage_report(instance, _parse_selection(args.select))
    functions = [
        {"id": r.function_id, "achieved": fmt(r.achieved), "threshold": fmt(r.threshold),
         "saturated_value": fmt(r.saturated_value), "covered": r.covered}
        for r in report.rows
    ]
    width = max((len(f["id"]) for f in functions), default=0)
    table = [
        f"{f['id']:<{width}}  achieved={f['achieved']}  threshold={f['threshold']}  "
        f"saturated={f['saturated_value']}  {'covered' if f['covered'] else 'UNCOVERED'}"
        for f in functions
    ]
    table.append(f"all functions covered: {'yes' if report.all_covered else 'no'}")
    emit(
        args.format,
        {"all_covered": report.all_covered, "functions": functions},
        table,
        [["function_id", "achieved", "threshold", "saturated_value", "covered"],
         *(list(f.values()) for f in functions)],
    )
    return 0


# ---------------------------------------------------------------------------
# demand subcommands
# ---------------------------------------------------------------------------


def cmd_demand_supply(args) -> int:
    from rsdm import demand
    scenario = load_scenario(args.scenario)
    supply = fmt(demand.money_supply(scenario))
    residual = fmt(demand.equilibrium_residual(scenario))
    emit(args.format, {"supply": supply, "equilibrium_residual": residual}, [supply])
    return 0


def cmd_demand_solve(args) -> int:
    from rsdm import demand
    solution = demand.solve_unknown(load_scenario(args.scenario), args.unknown)
    doc = {"unknown": solution.unknown.value, "value": fmt(solution.value),
           "negative": solution.negative}
    emit(args.format, doc, [doc["value"]])
    if solution.negative:
        print("note: negative solution (economically infeasible)", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# ledger subcommands
# ---------------------------------------------------------------------------


def cmd_ledger_init(args) -> int:
    path = Path(args.log)
    if path.exists():
        raise DomainError(f"refusing to overwrite existing log {path}")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.touch()
    print(f"initialized empty event log at {path}")
    return 0


def cmd_ledger_append(args) -> int:
    from rsdm import ledger
    path = Path(args.log)
    if not path.exists():
        raise DomainError(f"no such event log: {path} (run 'ledger init' first)")
    if args.event is not None:
        doc = parse_json(args.event, "--event")
    else:
        doc = parse_json(numeric.read_text(Path(args.event_file)), args.event_file)
    event = ledger.LedgerEvent.from_json_dict(doc)
    ledger.append_event(replay_log(args.log), event)  # raises on any rejection
    ledger.append_event_line(path, event)
    print(f"appended event {event.sequence} ({event.kind.value})")
    return 0


def cmd_ledger_replay(args) -> int:
    from rsdm import ledger
    write_or_print(ledger.state_to_snapshot(replay_log(args.log)), args.snapshot, "snapshot")
    return 0


_HOLDING_FIELDS = ["series_id", "token_count", "residual_g", "redeemable_g",
                   "price_per_gram", "residual_value", "redeemable_value", "expired"]


def cmd_ledger_value(args) -> int:
    from rsdm import ledger
    state = replay_log(args.log)
    quotes = ledger.quotes_from_csv(numeric.read_text(resolve_path(args.quotes)))
    report = ledger.holdings_valuation(state, quotes, args.party, args.day)
    holdings = [
        dict(zip(_HOLDING_FIELDS, (
            h.series_id, h.token_count, fmt(h.residual_grams), fmt(h.redeemable_grams),
            None if h.price_per_gram is None else fmt(h.price_per_gram),
            fmt(h.residual_value), fmt(h.redeemable_value), h.expired,
        )))
        for h in report.holdings
    ]
    doc = {
        "party": report.party,
        "day": report.day,
        "holdings": holdings,
        "total_residual_value": fmt(report.total_residual_value),
        "total_redeemable_value": fmt(report.total_redeemable_value),
    }
    table = [
        f"{h['series_id']}: {h['token_count']} tokens, residual {h['residual_g']} g, "
        f"redeemable {h['redeemable_g']} g, value {h['residual_value']}"
        f"{' (expired)' if h['expired'] else ''}"
        for h in holdings
    ]
    table.append(f"total residual value: {doc['total_residual_value']}")
    table.append(f"total redeemable value: {doc['total_redeemable_value']}")
    emit(args.format, doc, table, [_HOLDING_FIELDS, *(list(h.values()) for h in holdings)])
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    from rsdm import demand
    parser = argparse.ArgumentParser(
        prog="rsdm",
        description="Redeemable self-decaying money toolkit",
    )
    parser.add_argument("--format", choices=["table", "json", "csv"], default="table",
                        help="output format")
    top = parser.add_subparsers(dest="group", required=True)

    # decay ------------------------------------------------------------
    decay_p = top.add_parser("decay", help="face-value decay arithmetic")
    decay_sub = decay_p.add_subparsers(dest="command", required=True)

    residual = decay_sub.add_parser("residual", help="residual weight after N days")
    residual.add_argument("--theta", required=True, help="daily decay factor")
    residual.add_argument("--w", required=True, help="initial weight in grams")
    residual.add_argument("--days", type=int, required=True)
    residual.add_argument("--expiry-days", type=int, default=None)
    residual.set_defaults(handler=cmd_decay_residual, fee_rate="0")

    quote = decay_sub.add_parser("redeem-quote", help="payout/fee split at redemption")
    quote.add_argument("--theta", required=True)
    quote.add_argument("--w", required=True)
    quote.add_argument("--days", type=int, required=True)
    quote.add_argument("--fee-rate", required=True, help="delivery fee rate")
    quote.add_argument("--count", type=int, default=1, help="tokens redeemed")
    quote.add_argument("--expiry-days", type=int, default=None)
    quote.set_defaults(handler=cmd_decay_redeem_quote)

    convert = decay_sub.add_parser("convert-rate", help="annual rate <-> daily factor")
    group = convert.add_mutually_exclusive_group(required=True)
    group.add_argument("--annual", type=str, help="annual rate, e.g. -0.02")
    group.add_argument("--daily", type=str, help="daily factor, e.g. 0.99996")
    convert.set_defaults(handler=cmd_decay_convert_rate)

    # solvency ----------------------------------------------------------
    solv_p = top.add_parser("solvency", help="issuer fee-vs-storage economics")
    solv_sub = solv_p.add_subparsers(dest="command", required=True)

    breakeven = solv_sub.add_parser("breakeven", help="first bankrupt holding duration")
    breakeven.add_argument("--beta", required=True, help="flat fee per token")
    breakeven.add_argument("--alpha", required=True, help="storage cost per token-day")
    breakeven.set_defaults(handler=cmd_solvency_breakeven)

    simulate = solv_sub.add_parser("simulate", help="day-by-day solvency timeline")
    simulate.add_argument("--records", required=True, help="redemption records CSV")
    simulate.add_argument("--horizon", type=int, required=True)
    simulate.add_argument("--rate", required=True, help="storage cost per token-day")
    schedule = simulate.add_mutually_exclusive_group(required=True)
    schedule.add_argument("--flat-fee")
    schedule.add_argument("--deadline-day", type=int)
    schedule.add_argument("--mean-days")
    simulate.add_argument("--out", default=None, help="write timeline CSV here")
    simulate.set_defaults(handler=cmd_solvency_simulate)

    # msp ----------------------------------------------------------------
    msp_p = top.add_parser("msp", help="multi-monetary system selection")
    msp_sub = msp_p.add_subparsers(dest="command", required=True)

    solve = msp_sub.add_parser("solve", help="find the optimal currency selection")
    solve.add_argument("instance", help="instance JSON (path or preset name)")
    solve.add_argument("--objective", choices=["linear", "saturating"], default="linear")
    solve.add_argument("--method", choices=["bnb", "exhaustive"], default="bnb")
    solve.set_defaults(handler=cmd_msp_solve)

    check = msp_sub.add_parser("check", help="feasibility of a given selection")
    check.add_argument("instance")
    check.add_argument("--select", required=True, help="comma-separated currency ids")
    check.set_defaults(handler=cmd_msp_check)

    report = msp_sub.add_parser("report", help="per-function coverage of a selection")
    report.add_argument("instance")
    report.add_argument("--select", required=True)
    report.set_defaults(handler=cmd_msp_report)

    # demand --------------------------------------------------------------
    demand_p = top.add_parser("demand", help="money supply/demand equilibrium")
    demand_sub = demand_p.add_subparsers(dest="command", required=True)

    supply = demand_sub.add_parser("supply", help="total money supply of a scenario")
    supply.add_argument("scenario")
    supply.set_defaults(handler=cmd_demand_supply)

    dsolve = demand_sub.add_parser("solve", help="solve the equilibrium for one field")
    dsolve.add_argument("scenario")
    dsolve.add_argument(
        "--unknown",
        required=True,
        choices=[u.value for u in demand.Unknown],
    )
    dsolve.set_defaults(handler=cmd_demand_solve)

    # ledger ----------------------------------------------------------------
    ledger_p = top.add_parser("ledger", help="event-sourced token ledger")
    ledger_sub = ledger_p.add_subparsers(dest="command", required=True)

    init = ledger_sub.add_parser("init", help="create an empty event log")
    init.add_argument("--log", required=True)
    init.set_defaults(handler=cmd_ledger_init)

    append = ledger_sub.add_parser("append", help="validate and append one event")
    append.add_argument("--log", required=True)
    source = append.add_mutually_exclusive_group(required=True)
    source.add_argument("--event", help="event JSON inline")
    source.add_argument("--event-file")
    append.set_defaults(handler=cmd_ledger_append)

    rep = ledger_sub.add_parser("replay", help="replay the log into a state snapshot")
    rep.add_argument("--log", required=True)
    rep.add_argument("--snapshot", default=None, help="write snapshot JSON here")
    rep.set_defaults(handler=cmd_ledger_replay)

    value = ledger_sub.add_parser("value", help="mark holdings to market")
    value.add_argument("--log", required=True)
    value.add_argument("--quotes", required=True, help="quotes CSV")
    value.add_argument("--party", required=True)
    value.add_argument("--day", type=int, required=True)
    value.set_defaults(handler=cmd_ledger_value)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        status = args.handler(args)
        sys.stdout.flush()  # so a closed pipe raises here, not at interpreter exit
        return status
    except BrokenPipeError:
        # Python's SIGPIPE recipe: the exit flush goes to devnull, and cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except SchemaError as exc:
        for problem in exc.problems:
            print(f"error: {problem}", file=sys.stderr)
    except (RsdmError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
