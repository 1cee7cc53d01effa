"""Run one rsdm benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ledger-deep-decay, ledger-wide-book, policy-analysis,
cli-session (see README.md). With ``--trace 0`` the run measures whole
rounds of the workload for about S seconds with tracing off and reports
every end-to-end metric of BENCHMARK.json, each measured on the
workload's own traffic (see README.md for what ``op`` and ``batch`` time
on each workload). With ``--trace 1`` it runs a fixed number of rounds
twice, untraced and traced, and reports every per-layer metric.

Every output is checked against the oracles in oracles.py. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; a fuller record, with the
commit, Python version and CPU count, goes to bench/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import shutil
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from harness import (OUT, SRC, WORK, Run, children_peak_rss_mib, environment, load_metric_table, median, run_child,
                     self_peak_rss_mib)

SETUP_REPEATS = 11
CLI_COMMANDS = ("ledger append", "ledger replay", "ledger value", "decay redeem-quote", "solvency simulate",
                "msp solve", "msp check", "msp report", "demand solve")


@dataclass(frozen=True)
class Workload:
    prepare: object  # seed -> generated and written inputs (not timed)
    load: object  # prepared inputs -> opened inputs: the program's set-up, timed as setup_s
    native: object  # (run, seed, opened, stop) -> {"rounds", "metrics", "facts"}
    trace_rounds: int
    rss: object  # () -> peak resident MiB of the process(es) doing the work


def workloads() -> dict[str, Workload]:
    import cli_workload as cw
    import ledger_workloads as lw
    import policy_workload as pw

    return {
        "ledger-deep-decay": Workload(lw.deep_prepare, lw.deep_load, lw.deep_native, 3, self_peak_rss_mib),
        "ledger-wide-book": Workload(lw.wide_prepare, lw.wide_load, lw.wide_native, 1, self_peak_rss_mib),
        "policy-analysis": Workload(pw.policy_prepare, pw.policy_load, pw.policy_native, 1, self_peak_rss_mib),
        "cli-session": Workload(lambda seed: cw.session_prepare(seed, WORK / "session"), cw.session_load,
                                cw.cli_native, 3, children_peak_rss_mib),
    }


def timed_load(workload: Workload, prepared, times: list[float]):
    """Load the prepared inputs through the package once, timed."""
    gc.collect()
    t0 = time.perf_counter()
    opened = workload.load(prepared)
    times.append(time.perf_counter() - t0)
    return opened


def measure(name: str, seed: int, seconds: float, run: Run) -> dict:
    """Whole rounds of the workload for about ``seconds`` (at least one).

    The inputs are generated and written once, untimed, then loaded
    SETUP_REPEATS times, and once more, discarded, before each round, so
    that set-up is sampled across the run like the rounds. ``setup_s`` is
    the median of those loads; a CLI load, a child process, has a long
    tail that a high percentile would pick up."""
    workload = workloads()[name]
    prepared = workload.prepare(seed)
    loads: list[float] = []
    opened = None
    for _ in range(SETUP_REPEATS):
        opened = None  # free the previous load outside the timer
        opened = timed_load(workload, prepared, loads)
    start = time.perf_counter()

    def stop(rounds: int) -> bool:
        if rounds > 0 and time.perf_counter() - start >= seconds:
            return True
        timed_load(workload, prepared, loads)
        return False

    out = workload.native(run, seed, opened, stop)
    metrics = dict(out["metrics"], setup_s=median(loads), peak_rss_mib=workload.rss())
    print(f"{name}: {out['rounds']} round(s) in {time.perf_counter() - start:.1f} s", file=sys.stderr)
    return metrics


def trace(name: str, seed: int, run: Run) -> dict:
    """Per-layer figures: the same fixed rounds untraced, then traced."""
    from tracer import Tracer

    workload = workloads()[name]
    rounds = workload.trace_rounds
    stop = lambda done: done >= rounds  # noqa: E731
    facts = {}
    if name == "cli-session":
        import cli_workload as cw

        facts.update(cli_floor())
        session = workload.load(workload.prepare(seed))
        sub = Run()
        out = cw.cli_native(sub, seed, session, stop)
        run.absorb(sub, "subprocess")
        facts.update(out["facts"])
        facts["cli_p50"] = {c: median(sub.samples[f"cli:{c}"]) * 1e3 for c in CLI_COMMANDS if sub.samples[f"cli:{c}"]}
        native = lambda r: cw.cli_native(r, seed, cw.session_prepare(seed, WORK / "inproc"),  # noqa: E731
                                         stop, cw.inprocess_runner)
    else:
        native = lambda r: workload.native(r, seed, workload.load(workload.prepare(seed)), stop)  # noqa: E731

    plain = Run()
    native(plain)
    run.absorb(plain, "untraced")
    traced_run = Run()
    tracer = Tracer().install()
    try:
        out = native(traced_run)
    finally:
        tracer.restore()
    run.absorb(traced_run, "traced")
    if name != "cli-session":
        facts.update(out["facts"])
    elif (WORK / "inproc" / "session.jsonl").exists():
        facts["snapshot_bytes"] = len(snapshot_of_log(WORK / "inproc" / "session.jsonl"))
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"{name}-seed{seed}-spans.jsonl")
    overhead = 100 * (op_seconds(traced_run) / op_seconds(plain) - 1)
    return layer_metrics(tracer, facts, overhead)


def cli_floor() -> dict:
    """Interpreter start-up and the import of rsdm.cli, from outside."""
    floor = [run_child([sys.executable, "-c", "pass"], WORK)[1] for _ in range(5)]
    imported = [run_child([sys.executable, "-c", "import rsdm.cli"], WORK)[1] for _ in range(5)]
    return {"python_floor_ms": median(floor) * 1e3, "import_ms": (median(imported) - median(floor)) * 1e3}


def snapshot_of_log(log: Path) -> str:
    from rsdm import ledger

    return ledger.state_to_snapshot(ledger.replay(ledger.read_event_log(log)))


def op_seconds(run: Run) -> float:
    return sum(sum(v) for k, v in run.samples.items() if not k.endswith((":command", ":round")))


def layer_metrics(t, facts: dict, overhead: float) -> dict:
    calls, counts = t.calls, t.counts
    redeems = calls["ledger.redeem"]
    appends = calls["ledger.append_event"]
    metrics = {
        "numeric.exact_pow.calls": calls["numeric.exact_pow"],
        "numeric.exact_pow.self_ms": t.self_ms("numeric.exact_pow"),
        "numeric.exact_mul.calls": calls["numeric.exact_mul"],
        "numeric.exact_mul.self_ms": t.self_ms("numeric.exact_mul"),
        "numeric.settle.calls": calls["numeric.settle"],
        "numeric.settle.self_ms": t.self_ms("numeric.settle"),
        "numeric.max_mantissa_digits": t.max_digits,
        "decay.redemption_quote.calls": calls["decay.redemption_quote"],
        "decay.redemption_quote.self_ms": t.self_ms("decay.redemption_quote"),
        "decay.residual_weight.self_ms": t.self_ms("decay.residual_weight"),
        "ledger.quotes_per_redeem": counts["quotes_in_redeem"] / redeems if redeems else 0,
        "ledger.append_event.calls": appends,
        "ledger.append_event.rejected": t.rejected["ledger.append_event"],
        "ledger.append_event.self_us_per_event": t.self_ns["ledger.append_event"] / appends / 1e3 if appends else 0,
        "ledger.replay.self_ms": t.self_ms("ledger.replay"),
        "ledger.holdings_valuation.self_ms": t.self_ms("ledger.holdings_valuation"),
        "ledger.jsonl.self_ms": t.self_ms("ledger.events_to_jsonl", "ledger.events_from_jsonl"),
        "ledger.snapshot.self_ms": t.self_ms("ledger.state_to_snapshot", "ledger.state_from_snapshot"),
        "ledger.log_bytes": facts.get("log_bytes", 0),
        "ledger.snapshot_bytes": facts.get("snapshot_bytes", 0),
        "solvency.simulate_issuer.self_ms": t.self_ms("solvency.simulate_issuer"),
        "solvency.fee_for.calls_per_record": (counts["solvency.fee_for"] / counts["simulated_records"]
                                              if counts["simulated_records"] else 0),
        "msp.solve_branch_and_bound.self_ms": t.self_ms("msp.solve_branch_and_bound"),
        "msp.solve_saturating.self_ms": t.self_ms("msp.solve_saturating"),
        "msp.solve_exhaustive.self_ms": t.self_ms("msp.solve_exhaustive"),
        "msp.score.calls": counts["msp.score"],
        "demand.solve_unknown.self_us": (t.self_ns["demand.solve_unknown"] / calls["demand.solve_unknown"] / 1e3
                                         if calls["demand.solve_unknown"] else 0),
        "cli.python_floor_ms": facts.get("python_floor_ms", 0),
        "cli.import_ms": facts.get("import_ms", 0),
        "cli.ledger.append.ms_first": facts.get("append_ms_first", 0),
        "cli.ledger.append.ms_last": facts.get("append_ms_last", 0),
        "trace.overhead_pct": overhead,
    }
    for command in CLI_COMMANDS:
        metrics[f"cli.{command.replace(' ', '.')}.ms_p50"] = facts.get("cli_p50", {}).get(command, 0)
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["ledger-deep-decay", "ledger-wide-book", "policy-analysis", "cli-session"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rsdm" / "__init__.py").is_file():
        print(f"error: no rsdm package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import oracles

    failures = oracles.self_test()
    if failures:
        print(f"error: oracle self-test failed: {failures}", file=sys.stderr)
        return 2
    end_to_end, per_layer = load_metric_table()

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    run = Run()
    try:
        if args.trace:
            values = trace(args.workload, args.seed, run)
            units = per_layer
        else:
            values = measure(args.workload, args.seed, args.seconds, run)
            units = end_to_end
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    run.check(set(values) == set(units), f"metrics {sorted(set(units) ^ set(values))} missing or unexpected")
    correct = not run.problems
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units if name in values}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(), "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": metrics, "errors": run.errors[:50], "problems": run.problems,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for line in run.problems + run.errors[:20]:
        print(f"  {line}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
