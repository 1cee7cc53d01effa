"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines.
Every tolerance is pinned here; the randomized criteria use fixed seeds
so the suite is deterministic.
"""

import json
import random
import time
from datetime import date
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from importlib import resources

from conftest import make_random_instance, make_series_pool
from rsdm import decay, demand, ledger, msp, solvency
from rsdm.numeric import exact_add

D = Decimal


def _report(number: int, description: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {description}")


def _preset(name: str):
    return resources.files("rsdm").joinpath("presets", name).read_text(encoding="utf-8")


def test_criterion_1_decay_arithmetic():
    ok = False
    try:
        spec = decay.RsdmSpec(date(2035, 1, 1), "XAU_9999", D("1"), D("0.99996"),
                              18262, D("0.003"))
        start = time.perf_counter()
        assert decay.residual_weight(spec, 1) == D("0.99996")
        fifty_years = decay.residual_weight(spec, 18250)
        elapsed = time.perf_counter() - start
        with localcontext(Context(prec=50)):
            oracle = (D(18250) * D("0.99996").ln()).exp()  # ~0.4819 g
            assert abs(fifty_years / oracle - 1) < D("1e-12")
        assert elapsed < 1.0, f"took {elapsed:.3f}s"
        ok = True
    finally:
        _report(1, "daily decay exact at 1 day; 50-year power matches exp/ln "
                   "oracle within 1e-12 in under a second", ok)


def test_criterion_2_redemption_identity():
    ok = False
    try:
        rng = random.Random(42)
        for _ in range(1000):
            theta = D(rng.randint(90000, 99999)) / 100000
            lam = D(rng.randint(0, 500)) / 10000
            elapsed = rng.randint(0, 800)
            weight = D(rng.randint(1, 1000)) / 100
            spec = decay.RsdmSpec(date(2035, 1, 1), "XAU", weight, theta, 1000, lam)
            quote = decay.redemption_quote(spec, elapsed)
            oracle = (1 - Fraction(lam)) * Fraction(theta) ** elapsed * Fraction(weight)
            assert Fraction(quote.payout) == oracle
            assert exact_add(quote.payout, quote.fee) == quote.residual
        ok = True
    finally:
        _report(2, "redemption payout matches the rational oracle exactly for "
                   "1000 random tuples; payout + fee = residual exactly", ok)


def test_criterion_3_breakeven_property():
    ok = False
    try:
        rng = random.Random(43)
        for _ in range(1000):
            beta = D(rng.randint(0, 100000)) / 1000
            alpha = D(rng.randint(1, 10000)) / 10000
            tokens = rng.randint(1, 1000)
            horizon = solvency.breakeven_horizon(beta, alpha)
            floor_days = int(Fraction(beta) / Fraction(alpha))
            solvent = [solvency.RedemptionRecord("k", tokens, 0, floor_days)]
            broke = [solvency.RedemptionRecord("k", tokens, 0, horizon)]
            assert not solvency.is_bankrupt(
                solvency.gross_profit(solvent, beta),
                solvency.warehouse_cost(solvent, alpha, floor_days),
            )
            assert solvency.is_bankrupt(
                solvency.gross_profit(broke, beta),
                solvency.warehouse_cost(broke, alpha, horizon),
            )
        ok = True
    finally:
        _report(3, "for 1000 random fee/rate pairs, holding floor(fee/rate) days "
                   "is solvent and the breakeven horizon is bankrupt (exact "
                   "rationals, zero tolerance)", ok)


def test_criterion_4_msp_oracle_equivalence():
    ok = False
    try:
        rng = random.Random(44)
        start = time.perf_counter()
        infeasible_seen = 0
        for _ in range(200):
            inst = make_random_instance(rng, max_currencies=15, n_functions=12)
            lin = msp.solve_branch_and_bound(inst)
            lin_oracle = msp.solve_exhaustive(inst, msp.ObjectiveKind.LINEAR)
            sat = msp.solve_saturating(inst)
            sat_oracle = msp.solve_exhaustive(inst, msp.ObjectiveKind.SATURATING)
            if isinstance(lin_oracle, msp.Infeasible):
                infeasible_seen += 1
                assert isinstance(lin, msp.Infeasible)
                assert isinstance(sat, msp.Infeasible)
            else:
                assert lin.objective == lin_oracle.objective  # exact decimal equality
                assert lin.selection == lin_oracle.selection
                assert sat.objective == sat_oracle.objective
                assert sat.selection == sat_oracle.selection
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s"
        assert infeasible_seen < 200  # the mix includes solvable instances
        ok = True
    finally:
        _report(4, "branch-and-bound (linear) and linearized solver (saturating) "
                   "match exhaustive enumeration on 200 random instances within "
                   "60 s", ok)


def test_criterion_5_saturation_divergence():
    ok = False
    try:
        inst = msp.MspInstance(
            functions=(msp.MonetaryFunction("F1", D(1), D(0)),),
            currencies=(
                msp.CurrencyCandidate("c1", msp.CurrencyClass.FIAT, {"F1": D("0.8")}),
                msp.CurrencyCandidate("c2", msp.CurrencyClass.FIAT, {"F1": D("0.8")}),
            ),
            max_parallel=2,
            balance_penalty=D(0),
        )
        assert msp.evaluate_linear_objective(inst, {"c1", "c2"}) == D("1.6")
        assert msp.evaluate_saturating_objective(inst, {"c1", "c2"}) == D("1.0")
        ok = True
    finally:
        _report(5, "two 0.8-coverage currencies on one function: linear "
                   "objective 1.6 vs saturating 1.0", ok)


def test_criterion_6_equilibrium_worked_numbers():
    ok = False
    try:
        assert demand.collateral_requirement(D("40e12"), D("8.0")) == D("5e12")
        assert demand.money_demand(D("0.7"), D("120e12")) == D("84e12")
        scenario = demand.DemandScenario.from_json_dict(
            json.loads(_preset("global_demand.json"))
        )
        assert demand.equilibrium_residual(scenario) != 0  # the documented gap
        assert demand.equilibrium_residual(scenario) == D("36e12")
        ok = True
    finally:
        _report(6, "reserve of 5e12 supports the 40e12 share at multiplier 8; "
                   "demand 0.7 x 120e12 = 84e12; the shipped scenario is "
                   "off-equilibrium as documented", ok)


def test_criterion_7_net_yield():
    ok = False
    try:
        assert decay.net_yield(D("-0.02"), D("0.03")) == D("0.01")
        ok = True
    finally:
        _report(7, "net yield of -2% decay plus 3% interest is exactly +1%", ok)


def test_criterion_8_ledger_conservation(tmp_path):
    ok = False
    try:
        rng = random.Random(48)
        pool = make_series_pool()
        parties = [f"p{i}" for i in range(8)]
        state = ledger.empty_state()
        events: list[ledger.LedgerEvent] = []

        issued_mirror: dict[str, Fraction] = {}
        vault_mirror: dict[str, Fraction] = {}
        residual_cache: dict[tuple[str, int], Fraction] = {}

        def residual_frac(series_id, spec, day):
            key = (series_id, day)
            if key not in residual_cache:
                residual_cache[key] = (
                    Fraction(spec.initial_weight)
                    * Fraction(spec.daily_decay_factor) ** day
                )
            return residual_cache[key]

        applied = 0
        attempts = 0
        while applied < 10_000 and attempts < 60_000:
            attempts += 1
            day = applied // 20
            action = rng.choice(("issue", "transfer", "redeem", "redeem"))
            try:
                if action == "issue":
                    series_id, spec = rng.choice(pool)
                    count = rng.randint(1, 500)
                    state, event = ledger.issue(
                        state, series_id,
                        spec if series_id not in state.specs else None,
                        rng.choice(parties), count, day,
                    )
                    issued_mirror[series_id] = issued_mirror.get(series_id, Fraction(0)) \
                        + Fraction(spec.initial_weight) * count
                    vault_mirror[series_id] = vault_mirror.get(series_id, Fraction(0)) \
                        + Fraction(spec.initial_weight) * count
                elif action == "transfer":
                    holders = [(p, s) for (p, s), c in state.balances.items() if c > 0]
                    if not holders:
                        continue
                    party, series_id = rng.choice(holders)
                    count = rng.randint(1, state.balance(party, series_id))
                    state, event = ledger.transfer(
                        state, party, rng.choice(parties), series_id, count, day
                    )
                else:
                    holders = [(p, s) for (p, s), c in state.balances.items() if c > 0]
                    if not holders:
                        continue
                    party, series_id = rng.choice(holders)
                    count = rng.randint(1, state.balance(party, series_id))
                    state, payout, event = ledger.redeem(
                        state, party, series_id, count, day
                    )
                    vault_mirror[series_id] -= Fraction(payout.value)
            except ledger.LedgerError:
                continue
            events.append(event)
            applied += 1

            slack = Fraction(1, 10**9) * applied
            for series_id, issued_grams in issued_mirror.items():
                lib_vault = Fraction(state.vault[series_id])
                assert lib_vault == vault_mirror[series_id]
                paid = Fraction(state.cumulative_payouts.get(series_id, D(0)))
                assert abs(lib_vault + paid - issued_grams) <= slack

            outstanding: dict[str, int] = {}
            for (p, s), c in state.balances.items():
                outstanding[s] = outstanding.get(s, 0) + c
            for series_id, tokens in outstanding.items():
                claims = residual_frac(series_id, state.specs[series_id], day) * tokens
                assert claims <= Fraction(state.vault[series_id]) + slack

        assert applied == 10_000

        log_path = tmp_path / "events.jsonl"
        log_path.write_text(ledger.events_to_jsonl(events), encoding="utf-8")
        replayed = ledger.replay(ledger.read_event_log(log_path))
        assert ledger.state_to_snapshot(replayed) == ledger.state_to_snapshot(state)
        ok = True
    finally:
        _report(8, "10,000 random events keep vault + payouts = issued within "
                   "1e-9 g per event, claims never exceed the vault, and the "
                   "persisted log replays to a byte-identical snapshot", ok)


def test_criterion_9_eurozone_coverage():
    ok = False
    try:
        instance = msp.instance_from_json_dict(json.loads(_preset("eurozone.json")))
        report = msp.coverage_report(instance, {"EUR", "XAU_RSDM"})
        assert len(report.rows) == 12
        assert report.all_covered
        assert all(r.covered for r in report.rows)
        ok = True
    finally:
        _report(9, "the euro-plus-gold-token preset covers all 12 monetary "
                   "functions in union", ok)
