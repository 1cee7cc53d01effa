"""Reference sweep: how each layer's cost grows with the input size that
drives it. Not gated; it reproduces the scaling table of the README.

    python3 bench/sweep.py

Each point runs in its own child process, one at a time. A point that
runs past 30 s is killed and reported as capped.
Results go to standard output as a table and to bench/out/sweep.json.
"""

from __future__ import annotations

import argparse
import json
import random
import subprocess
import sys
import time
from pathlib import Path

from harness import OUT, SRC, WORK, environment, median, run_child

GOLD_DAYS = (1, 365, 3650, 18250)
HOLDERS = (10, 1_000, 10_000, 100_000)
REDEEM_DAYS = (100, 1_000, 5_000, 18_000)
LOG_LENGTHS = (10_000, 100_000)
SIMULATE = ((100, 1_000), (1_000, 1_000), (1_000, 3_000))
POOLS = (15, 25, 40, 80)
CAP_S = 30.0  # a point still running after this long is killed and reported as capped


def points() -> list[tuple[str, dict]]:
    pts = [(f"numeric.exact_pow days={d}", {"kind": "pow", "days": d}) for d in GOLD_DAYS]
    pts += [(f"decay.redemption_quote days={d}", {"kind": "quote", "days": d}) for d in GOLD_DAYS]
    pts += [(f"ledger.transfer holders={h}", {"kind": "transfer", "holders": h}) for h in HOLDERS]
    pts += [(f"ledger.redeem elapsed={d}", {"kind": "redeem", "days": d}) for d in REDEEM_DAYS]
    pts += [(f"ledger.replay events={n}", {"kind": "replay", "events": n}) for n in LOG_LENGTHS]
    pts += [(f"solvency.simulate_issuer records={r} days={d}", {"kind": "simulate", "records": r, "days": d})
            for r, d in SIMULATE]
    for solver in ("branch_and_bound", "saturating", "exhaustive"):
        pts += [(f"msp.solve_{solver} pool={p}", {"kind": "msp", "solver": solver, "pool": p}) for p in POOLS]
    return pts


# ---------------------------------------------------------------------------
# One point, in a child process
# ---------------------------------------------------------------------------


def _gold():
    import ledger_workloads as lw
    from rsdm import decay

    return decay.RsdmSpec.from_json_dict(lw.GOLD)


def _book(holders: int):
    """A state with ``holders`` parties of one series, loaded from a snapshot."""
    import ledger_workloads as lw
    from rsdm import ledger

    opening = lw.build_opening(random.Random(holders), {"AU": lw.GOLD}, holders, lambda r: 1_000_000,
                               share=0.0, snapshot=True)
    return ledger.state_from_snapshot(opening.snapshot_text), opening


def run_point(spec: dict) -> dict:
    """Time one point; returns seconds per operation and the operation count."""
    from decimal import Decimal

    import ledger_workloads as lw
    import policy_workload as pw
    from rsdm import decay, ledger, msp, numeric, solvency

    kind = spec["kind"]
    if kind == "pow":
        theta = Decimal("0.99996")
        return _repeat(lambda: numeric.exact_pow(theta, spec["days"]))
    if kind == "quote":
        gold = _gold()
        return _repeat(lambda: decay.redemption_quote(gold, spec["days"]))
    if kind == "transfer":
        state, opening = _book(spec["holders"])
        parties = opening.parties
        ops = min(2_000, max(50, 2_000_000 // spec["holders"]))
        t0 = time.perf_counter()
        for i in range(ops):
            state, _ = ledger.transfer(state, parties[i % len(parties)], parties[(i + 1) % len(parties)], "AU", 1,
                                       lw.ISSUE_DAY + 1)
        return {"per_op_s": (time.perf_counter() - t0) / ops, "ops": ops}
    if kind == "redeem":
        state, opening = _book(8)
        ops = 3 if spec["days"] > 4_000 else 20
        t0 = time.perf_counter()
        for i in range(ops):
            state, _, _ = ledger.redeem(state, opening.parties[i % 8], "AU", 10, lw.ISSUE_DAY + spec["days"])
        return {"per_op_s": (time.perf_counter() - t0) / ops, "ops": ops}
    if kind == "replay":
        state, opening = _book(1_000)
        rng, events = random.Random(7), []
        for i in range(spec["events"] - len(opening.parties)):
            a, b = rng.sample(opening.parties, 2)
            state, event = ledger.transfer(state, a, b, "AU", 1, lw.ISSUE_DAY + 1)
            events.append(event)
        log = ledger.events_from_jsonl(opening.log_text + ledger.events_to_jsonl(events))
        t0 = time.perf_counter()
        ledger.replay(log)
        return {"per_op_s": (time.perf_counter() - t0) / len(log), "ops": len(log), "seconds": time.perf_counter() - t0}
    if kind == "simulate":
        rng = random.Random(spec["records"])
        records = solvency.records_from_csv(pw.records_csv(rng, spec["records"], spec["days"]))
        schedule = solvency.FeeSchedule.flat("0.03", "0.0001")
        return _repeat(lambda: solvency.simulate_issuer(records, schedule, spec["days"]), limit=1)
    if kind == "msp":
        doc = pw.instance_doc(random.Random(spec["pool"]), spec["pool"])
        instance = msp.instance_from_json_dict(doc)
        solver = {"branch_and_bound": msp.solve_branch_and_bound, "saturating": msp.solve_saturating,
                  "exhaustive": msp.solve_exhaustive}[spec["solver"]]
        if spec["solver"] == "exhaustive" and spec["pool"] > msp.EXHAUSTIVE_POOL_LIMIT:
            return {"guarded": f"pool above the exhaustive limit of {msp.EXHAUSTIVE_POOL_LIMIT}"}
        return _repeat(lambda: solver(instance), limit=1)
    raise ValueError(f"unknown point kind {kind!r}")


def _repeat(fn, limit: int = 5, budget: float = 2.0) -> dict:
    times = []
    while len(times) < limit and sum(times) < budget:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return {"per_op_s": median(times), "ops": len(times)}


# ---------------------------------------------------------------------------
# Running the points
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--point", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    if args.point:
        print(json.dumps(run_point(json.loads(args.point))))
        return 0

    WORK.mkdir(parents=True, exist_ok=True)
    rows = []
    for name, spec in points():
        try:
            proc, _ = run_child([sys.executable, str(Path(__file__)), "--point", json.dumps(spec)], WORK, CAP_S)
            row = {"point": name, **json.loads(proc.stdout.splitlines()[-1])} if proc.returncode == 0 else {
                "point": name, "error": proc.stderr.strip().splitlines()[-1:]}
        except subprocess.TimeoutExpired:
            row = {"point": name, "capped": f"over {CAP_S:g} s"}
        rows.append(row)
        print(_format(row), flush=True)
    OUT.mkdir(exist_ok=True)
    (OUT / "sweep.json").write_text(json.dumps({"environment": environment(), "cap_s": CAP_S, "points": rows},
                                               indent=2) + "\n", encoding="utf-8")
    return 0


def _format(row: dict) -> str:
    if "per_op_s" in row:
        value = row["per_op_s"]
        shown = f"{value * 1e6:.1f} us" if value < 1e-3 else f"{value * 1e3:.1f} ms" if value < 1 else f"{value:.2f} s"
        return f"| {row['point']} | {shown} |"
    return f"| {row['point']} | {row.get('capped') or row.get('guarded') or row.get('error')} |"


if __name__ == "__main__":
    sys.exit(main())
