"""Policy analysis: currency selection, issuer solvency and the demand
equilibrium, in one analyst's process. No ledger or deep-decay work.

Each round, in a shuffled order, runs
* the fixed currency-selection instance set, generated from a constant
  so solve times compare like with like across seeds: linear
  branch-and-bound on pools of 20 to 80, saturating on pools of 22 to 28,
  and the exhaustive oracle with both objectives on pools of 8 to 12;
* seeded instances (pools of 8 to 12) with every method, checked by
  brute force but not counted in the ``op`` figures;
* ``simulate_issuer`` on a seeded 120-record book over 1000 days
  under the flat, deadline and mean-holding fee regimes, checked point
  by point by a difference-array sweep;
* seeded demand scenarios solved for each unknown, checked by
  substitution.

Instances and records go through the package's own JSON/CSV readers, as
an analyst's files would.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

import oracles
from harness import FAILED, Run, median, over_rounds, percentile, settle
from rsdm import demand, msp, solvency

FIXED_INSTANCE_SEED = 20351
# Selections of 3 or 4 currencies keep every fixed solve under about a
# second, so a round is short and each instance is timed several times a
# run; selections of up to 6, where single solves take seconds, are left
# to the sweep and the seeded checked instances.
FIXED_PARALLEL = (3, 4)
BRUTE_FORCE_LIMIT = 12


@dataclass(frozen=True)
class SolveGroup:
    pools: tuple[int, ...]
    objectives: tuple[str, ...]
    method: str  # "bnb" (solve_branch_and_bound / solve_saturating) or "exhaustive"


@dataclass(frozen=True)
class PolicyShape:
    groups: tuple[SolveGroup, ...]  # the fixed instance set
    per_pool: int
    checked_pools: tuple[int, ...]  # seeded, every method, brute-forced
    books: int
    book_records: int
    horizon: int
    scenarios: int


POLICY = PolicyShape(
    groups=(SolveGroup((20, 30, 40, 50, 60, 70, 80), ("linear",), "bnb"),
            SolveGroup((22, 24, 26, 28), ("saturating",), "bnb"),
            SolveGroup((8, 10, 12), ("linear", "saturating"), "exhaustive")),
    per_pool=2, checked_pools=(8, 9, 10, 11, 12), books=1, book_records=120, horizon=1000, scenarios=8)


def instance_doc(rng: random.Random, pool: int, functions: int = 12, parallel: tuple[int, int] = (3, 6)) -> dict:
    """A random selection instance with a planted feasible selection, so
    an Infeasible answer is always wrong."""
    fids = [f"F{k + 1}" for k in range(functions)]
    max_parallel = rng.randint(*parallel)
    currencies = []
    for i in range(pool):
        coverage = {f: f"{rng.randint(0, 100) / 100:.2f}" for f in fids if rng.random() < 0.7}
        currencies.append({"id": f"C{i:03d}", "class": rng.choice(["Fiat", "Commodity", "Crypto", "RSDM", "Other"]),
                           "mandatory": False, "coverage": coverage})
    planted = rng.sample(range(pool), max_parallel)
    currencies[planted[0]]["mandatory"] = rng.random() < 0.5
    functions_doc = []
    for f in fids:
        reach = sum(Fraction(currencies[i]["coverage"].get(f, "0")) for i in planted)
        tenths = int(reach * 10 * Fraction(rng.randint(20, 90), 100)) if rng.random() < 0.4 else 0
        functions_doc.append({"id": f, "weight": f"{rng.randint(5, 15) / 10:.1f}",
                              "threshold": f"{tenths // 10}.{tenths % 10}"})
    rng.shuffle(currencies)
    return {"functions": functions_doc, "currencies": currencies, "max_parallel": max_parallel,
            "balance_penalty": f"{rng.randint(0, 30) / 100:.2f}"}


def records_csv(rng: random.Random, count: int, horizon: int) -> str:
    """Seeded redemption records: purchases in the first half of the
    horizon, three in four redeemed after an exponential holding time."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["customer_id", "token_count", "purchase_day", "redemption_day"])
    for i in range(count):
        purchase = rng.randint(0, horizon // 2)
        held = int(rng.expovariate(1 / 300))
        closed = rng.random() < 0.75 and purchase + held <= horizon
        writer.writerow([f"c{i:05d}", rng.randint(1, 200), purchase, purchase + held if closed else ""])
    return buf.getvalue()


def scenario_doc(rng: random.Random) -> dict:
    return {
        "marshallian_k": f"{rng.randint(30, 120) / 100:.2f}",
        "gdp": f"{rng.randint(10, 200)}e12",
        "fiat_multiplier": f"{rng.randint(20, 120) / 10:.1f}",
        "sdm_multiplier": f"{rng.randint(10, 80) / 10:.1f}",
        "fiat_reserve": f"{rng.randint(1, 90) / 10:.1f}e12",
        "sdm_reserve": f"{rng.randint(1, 90) / 10:.1f}e12",
        "other_supply": f"{rng.randint(0, 400) / 10:.1f}e12",
    }


@dataclass
class Book:
    """One issuer's records under the three fee regimes."""

    records: list
    schedules: list  # (regime, FeeSchedule, per-token fee oracle of the purchase day)
    rate: Fraction
    horizon: int


@dataclass
class PolicyInputs:
    timed: list  # (doc, instance, objective, method): the fixed instance set
    checked: list  # (doc, instance): seeded instances, solved by every method
    books: list
    scenarios: list  # (doc, DemandScenario)
    known_optima: dict = field(default_factory=dict)


@dataclass
class PolicyFiles:
    """The analyst's input files, as text, with the documents they encode."""

    timed: list  # (doc, JSON text, objective, method)
    checked: list  # (doc, JSON text)
    books: list  # (records CSV text, fee terms)
    scenarios: list  # (doc, JSON text)
    horizon: int


def policy_prepare(seed: int) -> PolicyFiles:
    """Generate the analyst's instance, records and scenario files."""
    shape = POLICY
    fixed_rng = random.Random(FIXED_INSTANCE_SEED)
    timed = []
    for group in shape.groups:
        for pool in group.pools:
            for _ in range(shape.per_pool):
                doc = instance_doc(fixed_rng, pool, parallel=FIXED_PARALLEL)
                text = json.dumps(doc)
                timed += [(doc, text, objective, group.method) for objective in group.objectives]
    rng = random.Random(seed)
    checked = [(doc, json.dumps(doc)) for doc in (instance_doc(rng, pool) for pool in shape.checked_pools)]
    books = []
    for _ in range(shape.books):
        text = records_csv(rng, shape.book_records, shape.horizon)
        terms = {"rate": f"0.000{rng.randint(1, 9)}", "deadline": shape.horizon + rng.randint(0, 365),
                 "mean": rng.randint(100, 600), "flat": f"0.0{rng.randint(1, 9)}"}
        books.append((text, terms))
    scenarios = [(doc, json.dumps(doc)) for doc in (scenario_doc(rng) for _ in range(shape.scenarios))]
    return PolicyFiles(timed, checked, books, scenarios, shape.horizon)


def policy_load(files: PolicyFiles) -> PolicyInputs:
    """The analyst's set-up: load every file through the package's JSON
    and CSV readers."""
    timed = [(doc, _load_instance(text), objective, method) for doc, text, objective, method in files.timed]
    checked = [(doc, _load_instance(text)) for doc, text in files.checked]
    books = [_book(text, terms, files.horizon) for text, terms in files.books]
    scenarios = [(doc, demand.DemandScenario.from_json_dict(json.loads(text))) for doc, text in files.scenarios]
    return PolicyInputs(timed, checked, books, scenarios)


def _book(text: str, terms: dict, horizon: int) -> Book:
    rate_text, deadline, mean, flat = terms["rate"], terms["deadline"], terms["mean"], terms["flat"]
    rate = Fraction(rate_text)
    schedules = [
        ("flat", solvency.FeeSchedule.flat(flat, rate_text), lambda p, f=Fraction(flat): f),
        ("deadline", solvency.FeeSchedule.deadline_based(deadline, rate_text), lambda p: rate * (deadline - p)),
        ("mean-holding", solvency.FeeSchedule.mean_holding_based(str(mean), rate_text), lambda p: rate * mean),
    ]
    return Book(solvency.records_from_csv(text), schedules, rate, horizon)


def _load_instance(text: str):
    instance = msp.instance_from_json_dict(json.loads(text))
    problems = [p for p in msp.validate_instance(instance) if not p.startswith("warning:")]
    if problems:
        raise ValueError(f"generated instance is invalid: {problems}")
    return instance


def _check_solution(run: Run, result, doc: dict, saturating: bool, label: str, known: dict) -> None:
    """Brute force on small pools (each answer computed once, kept in
    ``known``); feasibility, recomputation and local optimality on larger
    ones."""
    model = oracles.SelectionModel(doc)
    if isinstance(result, msp.Infeasible):
        run.check(False, f"{label}: Infeasible on an instance with a planted feasible selection")
        return
    kind = "saturating" if saturating else "linear"
    run.check(result.objective_kind.value == kind, f"{label}: objective kind {result.objective_kind}")
    if len(model.ids) <= BRUTE_FORCE_LIMIT:
        key = (id(doc), saturating)
        if key not in known:
            known[key] = oracles.msp_brute_force(model, saturating)
        best = known[key]
        run.check(best is not None and tuple(result.selection) == best[0]
                  and Fraction(result.objective) == best[1]
                  and [Fraction(result.per_function_score[f]) for f in model.fids] == best[2],
                  f"{label}: {result.selection} / {result.objective} differs from brute force {best and best[:2]}")
        return
    index = {c: i for i, c in enumerate(model.ids)}
    chosen = [index[c] for c in result.selection]
    raw, _ = model.sums(chosen)
    run.check(Fraction(result.objective) == model.as_fraction(model.objective(chosen, saturating))
              and [Fraction(result.per_function_score[f]) for f in model.fids] == [model.as_fraction(r) for r in raw],
              f"{label}: reported objective or coverage differs from recomputation")
    problem = oracles.msp_local_check(model, tuple(result.selection), saturating)
    run.check(problem is None, f"{label}: {problem}")


def _solve(run: Run, inputs: PolicyInputs, doc, instance, objective: str, method: str, kind: str) -> None:
    saturating = objective == "saturating"
    if method == "exhaustive":
        result = run.call(kind, msp.solve_exhaustive, instance, msp.ObjectiveKind(objective))
    else:
        result = run.call(kind, msp.solve_saturating if saturating else msp.solve_branch_and_bound, instance)
    if result is not FAILED:
        _check_solution(run, result, doc, saturating, f"{method} {objective} pool {len(doc['currencies'])}",
                        inputs.known_optima)


def _simulate(run: Run, book: Book, regime: str, schedule, fee_of) -> None:
    timeline = run.call("simulate", solvency.simulate_issuer, book.records, schedule, book.horizon)
    if timeline is not FAILED:
        _check_timeline(run, timeline, book, fee_of, regime)


def _demand(run: Run, doc: dict, scenario, unknown) -> None:
    solution = run.call("demand", demand.solve_unknown, scenario, unknown)
    if solution is not FAILED:
        _check_demand(run, solution, doc, unknown.value)


def policy_round(run: Run, inputs: PolicyInputs, rng: random.Random) -> None:
    """One round: the fixed instance set, every method on the
    seeded instances, each book under each regime and every demand
    unknown, in a shuffled order so each figure samples the whole round."""
    steps = []
    for doc, instance, objective, method in inputs.timed:
        steps.append((_solve, inputs, doc, instance, objective, method, "msp"))
    for doc, instance in inputs.checked:
        steps += [(_solve, inputs, doc, instance, objective, method, "msp-checked")
                  for objective in ("linear", "saturating") for method in ("bnb", "exhaustive")]
    steps += [(_simulate, book, *schedule) for book in inputs.books for schedule in book.schedules]
    steps += [(_demand, doc, scenario, unknown) for doc, scenario in inputs.scenarios for unknown in demand.Unknown]
    rng.shuffle(steps)
    for step, *args in steps:
        step(run, *args)


def _check_timeline(run: Run, timeline, book: Book, fee_of, name: str) -> None:
    recs = [(r.token_count, r.purchase_day, r.redemption_day) for r in book.records]
    want, first = oracles.solvency_sweep(recs, fee_of, book.rate, book.horizon)
    got = [(p.day, Fraction(p.cum_profit), Fraction(p.cum_cost), p.bankrupt) for p in timeline.points]
    run.check(got == want and timeline.first_bankrupt_day == first,
              f"simulate_issuer ({name}) differs from the difference-array sweep")


def _check_demand(run: Run, solution, doc: dict, unknown: str) -> None:
    gap, scale = oracles.demand_gap(doc, unknown, Fraction(solution.value))
    # the solved value is rounded to 34 significant digits
    run.check(abs(gap) <= scale * Fraction(1, 10**30) and solution.negative == (solution.value < 0),
              f"demand {unknown}: substituting {solution.value} leaves a gap of {float(gap):.3e}")


def policy_metrics(run: Run) -> dict:
    """``op`` is one solve of the fixed instance set; ``batch`` is one
    ``simulate_issuer`` call."""
    return {
        "op_ms_p50": over_rounds(run, lambda r: median(r["msp"])) * 1e3,
        "op_ms_p90": over_rounds(run, lambda r: percentile(r["msp"], 0.90)) * 1e3,
        "batch_ms_p50": over_rounds(run, lambda r: median(r["simulate"])) * 1e3,
    }


def policy_native(run: Run, seed: int, inputs: PolicyInputs, stop) -> dict:
    """Whole rounds until ``stop(rounds done)``."""
    rounds = 0
    while not stop(rounds):
        settle()
        policy_round(run, inputs, random.Random(f"{seed}/policy/{rounds}"))
        run.end_round()
        rounds += 1
    return {"rounds": rounds, "metrics": policy_metrics(run), "facts": {}}

