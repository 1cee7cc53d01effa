"""Command-line interface: subcommands, exit codes, file handling."""

import json
import os
import subprocess
import sys
from decimal import ROUND_HALF_EVEN, Decimal
from pathlib import Path

import pytest

from rsdm import numeric
from rsdm.cli import fmt, main
from rsdm.numeric import exact_pow


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDecayCommands:
    def test_residual_worked_example(self, capsys):
        code, out, _ = run(capsys, "decay", "residual", "--theta", "0.99996",
                           "--w", "1", "--days", "1")
        assert code == 0
        assert out == "0.999960000\n"

    def test_redeem_quote(self, capsys):
        code, out, _ = run(capsys, "decay", "redeem-quote", "--theta", "0.99996",
                           "--w", "1", "--days", "1", "--fee-rate", "0.003",
                           "--count", "1000")
        assert code == 0
        assert "payout_g: 996.960120000" in out
        assert "fee_g: 2.999880000" in out

    def test_convert_rate_annual(self, capsys):
        code, out, _ = run(capsys, "decay", "convert-rate", "--annual", "-0.02")
        assert code == 0
        assert out == "0.999944652\n"

    def test_convert_rate_daily(self, capsys):
        code, out, _ = run(capsys, "decay", "convert-rate", "--daily", "0.99996")
        assert code == 0
        assert out == "-0.014494225\n"

    @pytest.mark.parametrize("days, text", [("30", "0.000000001"), ("21", "0.000000477")])
    def test_small_residual_in_plain_notation(self, days, text, capsys):
        code, out, _ = run(capsys, "decay", "residual", "--theta", "0.5", "--w", "1",
                           "--days", days)
        assert (code, out) == (0, text + "\n")

    @pytest.mark.parametrize("fmt_args, fee_text", [
        ((), "fee_g: 0.000000000"),
        (("--format", "json"), '"fee_g": "0.000000000"'),
    ])
    def test_zero_fee_in_plain_notation(self, fmt_args, fee_text, capsys):
        code, out, _ = run(capsys, *fmt_args, "decay", "redeem-quote", "--theta", "0.99996",
                           "--w", "1", "--days", "1", "--fee-rate", "0")
        assert code == 0
        assert fee_text in out and "E" not in out

    @pytest.mark.parametrize("count", ["0", "-5"])
    def test_redeem_quote_count_below_one_rejected(self, count, capsys):
        code, out, err = run(capsys, "decay", "redeem-quote", "--theta", "0.99996",
                             "--w", "1", "--days", "1", "--fee-rate", "0.003",
                             "--count", count)
        assert (code, out) == (1, "")
        assert err == f"error: token count must be positive, got {count}\n"

    def test_redeem_quote_count_obeys_the_ledger_count_rule(self, capsys):
        args = ["decay", "redeem-quote", "--theta", "0.99996", "--w", "1", "--days", "1",
                "--fee-rate", "0.003", "--count"]
        code, out, err = run(capsys, *args, "1" + "0" * 34)
        assert (code, out) == (1, "")
        assert err == "error: token count must have at most 34 digits\n"
        code, out, _ = run(capsys, *args, "9" * 34)
        assert code == 0
        # 0.99696012 g a token, times 10^34 - 1 tokens
        assert out.startswith("payout_g: 9969601199999999999999999999999999.003039880\n")

    def test_an_empty_fee_rate_is_malformed(self, capsys):
        code, out, err = run(capsys, "decay", "redeem-quote", "--theta", "0.99996",
                             "--w", "1", "--days", "1", "--fee-rate", "")
        assert (code, out) == (1, "")
        assert err == "error: not a decimal number: ''\n"

    def test_a_horizon_past_a_century_is_refused(self, capsys):
        # unrefused, this exact power took seconds and hundreds of MiB
        code, out, err = run(capsys, "decay", "residual", "--theta", "0.99996",
                             "--w", "1", "--days", "16000000")
        assert (code, out) == (1, "")
        assert err == "error: invalid spec: expiry must be at most 36525 days\n"

    @pytest.mark.parametrize("flag, what", [("--daily", "daily factor"),
                                            ("--annual", "annual rate")])
    def test_convert_rate_rejects_wide_input(self, flag, what, capsys):
        code, out, err = run(capsys, "decay", "convert-rate", flag, "1E+999999")
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {what} must have at most 34 digits")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("factor", ["1.5", "1E+34"])
    def test_convert_rate_rejects_a_wide_implied_rate(self, factor, capsys):
        code, out, err = run(capsys, "decay", "convert-rate", "--daily", factor)
        assert (code, out) == (1, "")
        assert err == ("error: implied annual rate must have at most 34 digits and an "
                       "adjusted exponent within ±34\n")

    def test_convert_rate_prints_an_implied_rate_at_the_width_rule(self, capsys):
        code, out, _ = run(capsys, "decay", "convert-rate", "--daily", "1.2")
        assert code == 0 and "E" not in out
        assert out.startswith("79644319771494430769549456383.") and len(out.split(".")[0]) == 29

    def test_expired_is_domain_error(self, capsys):
        code, _, err = run(capsys, "decay", "residual", "--theta", "0.99996",
                           "--w", "1", "--days", "10", "--expiry-days", "5")
        assert code == 1
        assert "error:" in err

    def test_float_garbage_rejected(self, capsys):
        code, _, err = run(capsys, "decay", "residual", "--theta", "zzz",
                           "--w", "1", "--days", "1")
        assert code == 1

    @pytest.mark.parametrize("command, flag, value, problem", [
        ("residual", "--theta", "1.5", "decay factor must be in (0, 1]"),
        ("residual", "--w", "-3", "initial weight must be > 0"),
        ("residual", "--w", "1E+99999999", "initial weight must have at most 34 digits"),
        ("residual", "--expiry-days", "0", "expiry must be a positive number of days"),
        ("redeem-quote", "--fee-rate", "1.5", "fee rate must be in [0, 1)"),
        ("redeem-quote", "--theta", "0", "decay factor must be in (0, 1]"),
    ])
    def test_adhoc_spec_is_validated(self, command, flag, value, problem, capsys):
        args = {"--theta": "0.99996", "--w": "1", "--days": "0"}
        if command == "redeem-quote":
            args["--fee-rate"] = "0.003"
        args[flag] = value
        code, out, err = run(capsys, "decay", command, *(x for kv in args.items() for x in kv))
        assert (code, out) == (1, "")
        assert err.startswith("error: invalid spec: ") and problem in err


class TestSolvencyCommands:
    def test_breakeven(self, capsys):
        code, out, _ = run(capsys, "solvency", "breakeven", "--beta", "0.3",
                           "--alpha", "0.01")
        assert code == 0
        assert out == "31\n"

    @pytest.mark.parametrize("beta, alpha", [("1", "1E-999999"), ("1E+9999999", "1")])
    def test_breakeven_rejects_values_wider_than_a_spec_field(self, beta, alpha, capsys):
        code, out, err = run(capsys, "solvency", "breakeven", "--beta", beta, "--alpha", alpha)
        assert (code, out) == (1, "")
        assert err.startswith("error:") and "adjusted exponent within" in err

    def test_breakeven_never(self, capsys):
        code, out, _ = run(capsys, "solvency", "breakeven", "--beta", "1",
                           "--alpha", "0")
        assert code == 0
        assert out == "never\n"

    @pytest.mark.parametrize("alpha, days", [("0.01", 31), ("0", None)], ids=["day", "never"])
    def test_breakeven_json(self, alpha, days, capsys):
        code, out, err = run(capsys, "--format", "json", "solvency", "breakeven",
                             "--beta", "0.3", "--alpha", alpha)
        assert (code, err) == (0, "")
        assert json.loads(out) == {"breakeven_days": days}

    def test_simulate_jiaozi_preset(self, capsys):
        code, out, err = run(capsys, "solvency", "simulate",
                             "--records", "jiaozi_solvency.csv",
                             "--flat-fee", "0.03", "--rate", "0.0001",
                             "--horizon", "400")
        assert code == 0
        assert out.splitlines()[0] == "day,cum_profit,cum_cost,bankrupt"
        assert "first bankrupt day:" in err

    def test_simulate_a_mean_holding_schedule(self, capsys):
        from rsdm import solvency
        code, out, err = run(capsys, "solvency", "simulate", "--mean-days", "250",
                             "--rate", "0.0002", "--horizon", "400",
                             "--records", "jiaozi_solvency.csv")
        records = solvency.records_from_csv(
            numeric.read_text(Path(solvency.__file__).with_name("presets") / "jiaozi_solvency.csv"))
        timeline = solvency.simulate_issuer(
            records, solvency.FeeSchedule.mean_holding_based("250", "0.0002"), 400)
        assert (code, err) == (0, "first bankrupt day: 302\n")
        assert out == timeline.to_csv()

    def test_simulate_prints_the_timeline_in_plain_notation(self, capsys):
        code, out, err = run(capsys, "solvency", "simulate",
                             "--records", "jiaozi_solvency.csv",
                             "--flat-fee", "0", "--rate", "1E-30", "--horizon", "1500")
        assert code == 0 and err == "first bankrupt day: 1\n"
        assert "E" not in out
        assert out.splitlines()[1:3] == ["0,0,0.000000000000000000000000000000,false",
                                          "1,0,0.000000000000000000000000000100,true"]

    def test_simulate_rejects_a_span_past_the_limit(self, capsys):
        code, out, err = run(capsys, "solvency", "simulate",
                             "--records", "jiaozi_solvency.csv",
                             "--flat-fee", "0.03", "--rate", "0.0001",
                             "--horizon", "1000000000")
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "exceeds the limit of 36525 days" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("rate, day, line", [
        ("0.0001", "10000000000000000000000000000000000",
         "error: deadline day must have at most 34 digits\n"),
        ("1E+30", "100000000",
         "error: per-token deadline fee must have at most 34 digits and an adjusted "
         "exponent within ±34\n"),
    ], ids=["day", "fee"])
    def test_simulate_refuses_a_deadline_past_the_width_rule(self, rate, day, line, capsys):
        # a deadline day of 10^4000 once printed about 4 KB per timeline line
        code, out, err = run(capsys, "solvency", "simulate", "--records", "jiaozi_solvency.csv",
                             "--rate", rate, "--horizon", "1500", "--deadline-day", day)
        assert (code, out, err) == (1, "", line)

    def test_simulate_names_the_line_of_a_rejected_record(self, tmp_path, capsys):
        records = tmp_path / "records.csv"
        records.write_text("customer_id,token_count,purchase_day,redemption_day\n"
                           "a,1,0,\nb,0,1,\n", encoding="utf-8")
        code, out, err = run(capsys, "solvency", "simulate", "--records", str(records),
                             "--flat-fee", "0.03", "--rate", "0.0001", "--horizon", "10")
        assert (code, out) == (1, "")
        assert err == "error: records CSV line 3: token count must be positive, got 0\n"

    @pytest.mark.parametrize("flags, line", [
        ((), "one of the arguments --flat-fee --deadline-day --mean-days is required"),
        (("--flat-fee", "0.03", "--mean-days", "30"),
         "argument --mean-days: not allowed with argument --flat-fee"),
    ], ids=["neither", "both"])
    def test_simulate_requires_one_schedule(self, flags, line, capsys):
        code, out, err = run(capsys, "solvency", "simulate",
                             "--records", "jiaozi_solvency.csv",
                             "--rate", "0.0001", "--horizon", "100", *flags)
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == f"rsdm solvency simulate: error: {line}"


class TestMspCommands:
    def test_solve_preset_solution_json(self, capsys):
        code, out, _ = run(capsys, "msp", "solve", "triple_monetary.json")
        assert code == 0
        doc = json.loads(out)
        assert doc["selection"] == ["ARS_FIAT", "USD_FIAT", "XAU_RSDM"]
        assert doc["objective_kind"] == "linear"

    def test_methods_byte_identical(self, capsys):
        _, bnb_out, _ = run(capsys, "msp", "solve", "triple_monetary.json",
                            "--method", "bnb")
        _, ex_out, _ = run(capsys, "msp", "solve", "triple_monetary.json",
                           "--method", "exhaustive")
        assert bnb_out == ex_out

    def test_methods_byte_identical_saturating(self, capsys):
        _, bnb_out, _ = run(capsys, "msp", "solve", "triple_monetary.json",
                            "--objective", "saturating", "--method", "bnb")
        _, ex_out, _ = run(capsys, "msp", "solve", "triple_monetary.json",
                           "--objective", "saturating", "--method", "exhaustive")
        assert bnb_out == ex_out

    def test_saturating_prefers_pair_on_triple_preset(self, capsys):
        # saturation makes the third currency redundant on this preset
        code, out, _ = run(capsys, "msp", "solve", "triple_monetary.json",
                           "--objective", "saturating")
        assert code == 0
        doc = json.loads(out)
        assert doc["selection"] == ["ARS_FIAT", "XAU_RSDM"]

    def test_check_selection(self, capsys):
        code, out, _ = run(capsys, "msp", "check", "eurozone.json",
                           "--select", "EUR,XAU_RSDM")
        assert code == 0
        assert "feasible: yes" in out

    def test_report_eurozone_all_covered(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "msp", "report",
                           "eurozone.json", "--select", "EUR,XAU_RSDM")
        assert code == 0
        doc = json.loads(out)
        assert doc["all_covered"] is True
        assert len(doc["functions"]) == 12

    def test_invalid_coverage_pointer(self, tmp_path, capsys):
        bad = {
            "functions": [{"id": "F1", "weight": "1", "threshold": "0"}],
            "currencies": [{"id": "c1", "class": "Fiat",
                            "coverage": {"F1": "1.5"}}],
            "max_parallel": 1,
            "balance_penalty": "0",
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad), encoding="utf-8")
        code, _, err = run(capsys, "msp", "solve", str(path))
        assert code == 1
        assert "/currencies/0/coverage/F1" in err

    @pytest.mark.parametrize("argv", [("solve",), ("report", "--select", "EUR,XAU_RSDM"),
                                      ("check", "--select", "EUR")])
    def test_wide_weight_is_a_validation_error(self, argv, tmp_path, capsys):
        preset = Path(numeric.__file__).parent / "presets" / "eurozone.json"
        doc = json.loads(preset.read_text(encoding="utf-8"))
        doc["functions"][0]["weight"] = "1E+999999999"
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, "msp", argv[0], str(path), *argv[1:])
        assert (code, out) == (1, "")
        assert err.startswith("error: /functions/0/weight: weight must have")
        assert len(err.splitlines()) == 1

    def test_truncated_file_is_parse_error(self, tmp_path, capsys):
        path = tmp_path / "trunc.json"
        path.write_text('{"functions": [', encoding="utf-8")
        code, _, err = run(capsys, "msp", "solve", str(path))
        assert code == 1
        assert "parse error" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "msp", "solve", "no_such_instance.json")
        assert code == 1
        assert "no such file" in err


class TestDemandCommands:
    def test_supply_shipped_scenario(self, capsys):
        code, out, _ = run(capsys, "demand", "supply", "global_demand.json")
        assert code == 0
        assert out.strip() == "120000000000000.000000000"

    def test_solve_sdm_reserve(self, tmp_path, capsys):
        scenario = {
            "marshallian_k": "0.7",
            "gdp": "120000000000000",
            "fiat_multiplier": "5.0",
            "sdm_multiplier": "8.0",
            "fiat_reserve": "8000000000000",
            "sdm_reserve": "1",
            "other_supply": "4000000000000",
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario), encoding="utf-8")
        code, out, _ = run(capsys, "demand", "solve", str(path),
                           "--unknown", "sdm_reserve")
        assert code == 0
        assert out.strip() == "5000000000000.000000000"

    def test_wide_scenario_field_rejected(self, tmp_path, capsys):
        preset = Path(numeric.__file__).parent / "presets" / "global_demand.json"
        doc = json.loads(preset.read_text(encoding="utf-8"))
        doc["gdp"] = "1E+999999"
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, "demand", "solve", str(path), "--unknown", "sdm_reserve")
        assert (code, out) == (1, "")
        assert err.startswith("error: gdp must have at most 34 digits")
        assert len(err.splitlines()) == 1

    def test_unknown_field_usage_error(self, capsys):
        code, _, _ = run(capsys, "demand", "solve", "global_demand.json",
                         "--unknown", "gdp")
        assert code == 2  # argparse rejects the choice


class TestLedgerCommands:
    def _gold_spec_doc(self):
        return {
            "issue_date": "1970-01-01",
            "collateral_id": "XAU",
            "initial_weight_g": "1",
            "daily_decay_factor": "0.99996",
            "expiry_days": 18262,
            "redemption_fee_rate": "0.003",
            "issue_size": 0,
            "inspection_fee": "0",
            "min_redemption_g": "500",
        }

    def test_full_flow(self, tmp_path, capsys):
        log = tmp_path / "events.jsonl"
        code, out, _ = run(capsys, "ledger", "init", "--log", str(log))
        assert code == 0

        issue_event = {
            "sequence": 1, "day": 0, "kind": "issue", "series_id": "AU35",
            "party": "alice", "token_count": 5000,
            "series_spec": self._gold_spec_doc(),
        }
        code, out, _ = run(capsys, "ledger", "append", "--log", str(log),
                           "--event", json.dumps(issue_event))
        assert code == 0

        redeem_event = {
            "sequence": 2, "day": 1, "kind": "redeem", "series_id": "AU35",
            "party": "alice", "token_count": 1000,
            "payout_grams": "996.960120000",
        }
        code, out, _ = run(capsys, "ledger", "append", "--log", str(log),
                           "--event", json.dumps(redeem_event))
        assert code == 0

        code, out, _ = run(capsys, "ledger", "replay", "--log", str(log))
        assert code == 0
        snapshot = json.loads(out)
        assert snapshot["last_sequence"] == 2
        assert snapshot["vault"]["AU35"] == "4003.039880000"

        quotes = tmp_path / "quotes.csv"
        quotes.write_text("day,asset_id,price\n0,XAU,100\n", encoding="utf-8")
        code, out, _ = run(capsys, "--format", "json", "ledger", "value",
                           "--log", str(log), "--quotes", str(quotes),
                           "--party", "alice", "--day", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["holdings"][0]["residual_g"] == "3999.840000000"

    def test_expired_holding_values_in_plain_notation(self, tmp_path, capsys):
        log = tmp_path / "events.jsonl"
        issue_event = {
            "sequence": 1, "day": 0, "kind": "issue", "series_id": "AU10",
            "party": "alice", "token_count": 5,
            "series_spec": {**self._gold_spec_doc(), "expiry_days": 10},
        }
        log.write_text(json.dumps(issue_event) + "\n", encoding="utf-8")
        quotes = tmp_path / "quotes.csv"
        quotes.write_text("day,asset_id,price\n0,XAU,100\n", encoding="utf-8")
        code, out, _ = run(capsys, "ledger", "value", "--log", str(log),
                           "--quotes", str(quotes), "--party", "alice", "--day", "20")
        assert code == 0
        assert out.splitlines()[0] == (
            "AU10: 5 tokens, residual 0.000000000 g, redeemable 0.000000000 g, "
            "value 0.000000000 (expired)")

    def test_append_rejects_wrong_payout(self, tmp_path, capsys):
        log = tmp_path / "events.jsonl"
        run(capsys, "ledger", "init", "--log", str(log))
        issue_event = {
            "sequence": 1, "day": 0, "kind": "issue", "series_id": "AU35",
            "party": "alice", "token_count": 5000,
            "series_spec": self._gold_spec_doc(),
        }
        run(capsys, "ledger", "append", "--log", str(log),
            "--event", json.dumps(issue_event))
        bad_redeem = {
            "sequence": 2, "day": 1, "kind": "redeem", "series_id": "AU35",
            "party": "alice", "token_count": 1000, "payout_grams": "1000",
        }
        code, _, err = run(capsys, "ledger", "append", "--log", str(log),
                           "--event", json.dumps(bad_redeem))
        assert code == 1
        # the rejected event must not have been written
        code, out, _ = run(capsys, "ledger", "replay", "--log", str(log))
        assert json.loads(out)["last_sequence"] == 1

    def test_init_refuses_overwrite(self, tmp_path, capsys):
        log = tmp_path / "events.jsonl"
        log.write_text("", encoding="utf-8")
        code, _, err = run(capsys, "ledger", "init", "--log", str(log))
        assert code == 1

    @pytest.mark.parametrize("event", [
        "[1]",
        '{"sequence": null, "day": 0, "kind": "issue", "series_id": "S", "party": "a"}',
        '{"sequence": 1, "day": 0, "kind": "issue", "series_id": "S", "party": "a", '
        '"token_count": 1, "series_spec": [1]}',
    ])
    def test_append_malformed_event(self, event, tmp_path, capsys):
        log = tmp_path / "events.jsonl"
        run(capsys, "ledger", "init", "--log", str(log))
        code, _, err = run(capsys, "ledger", "append", "--log", str(log), "--event", event)
        assert code == 1
        assert err.startswith("error: malformed ledger event")
        assert log.read_text(encoding="utf-8") == ""

    def test_append_rejects_an_invalid_spec(self, tmp_path, capsys):
        log = tmp_path / "events.jsonl"
        run(capsys, "ledger", "init", "--log", str(log))
        issue_event = {
            "sequence": 1, "day": 0, "kind": "issue", "series_id": "AU35",
            "party": "alice", "token_count": 5,
            "series_spec": {**self._gold_spec_doc(), "daily_decay_factor": "1.5"},
        }
        code, out, err = run(capsys, "ledger", "append", "--log", str(log),
                             "--event", json.dumps(issue_event))
        assert (code, out) == (1, "")
        assert err == "error: malformed ledger event: invalid spec: decay factor must be in (0, 1]\n"
        assert log.read_text(encoding="utf-8") == ""

    def test_value_rejects_a_quote_too_wide(self, tmp_path, capsys):
        log = tmp_path / "events.jsonl"
        issue_event = {
            "sequence": 1, "day": 0, "kind": "issue", "series_id": "AU35",
            "party": "alice", "token_count": 5000, "series_spec": self._gold_spec_doc(),
        }
        log.write_text(json.dumps(issue_event) + "\n", encoding="utf-8")
        quotes = tmp_path / "quotes.csv"
        quotes.write_text("day,asset_id,price\n0,XAU,1E+1000000\n", encoding="utf-8")
        code, out, err = run(capsys, "ledger", "value", "--log", str(log),
                             "--quotes", str(quotes), "--party", "alice", "--day", "1")
        assert (code, out) == (1, "")
        assert err.startswith("error: quotes CSV line 2: quote price must have at most 34 digits")
        assert len(err.splitlines()) == 1

    def test_replay_names_the_malformed_line(self, tmp_path, capsys):
        log = tmp_path / "events.jsonl"
        issue_event = {
            "sequence": 1, "day": 0, "kind": "issue", "series_id": "AU35",
            "party": "alice", "token_count": 5000,
            "series_spec": self._gold_spec_doc(),
        }
        log.write_text(json.dumps(issue_event) + "\n[1]\n", encoding="utf-8")
        code, _, err = run(capsys, "ledger", "replay", "--log", str(log))
        assert code == 1
        assert err.startswith("error: event log line 2: malformed ledger event")

    def test_non_string_counterparty_replays(self, tmp_path, capsys):
        # read as a string, a numeric counterparty leaves the snapshot's
        # party keys sortable
        log = tmp_path / "events.jsonl"
        run(capsys, "ledger", "init", "--log", str(log))
        for event in (
            {"sequence": 1, "day": 0, "kind": "issue", "series_id": "AU35",
             "party": "alice", "token_count": 5000, "series_spec": self._gold_spec_doc()},
            {"sequence": 2, "day": 0, "kind": "transfer", "series_id": "AU35",
             "party": "alice", "counterparty": 5, "token_count": 10},
        ):
            code, _, _ = run(capsys, "ledger", "append", "--log", str(log),
                             "--event", json.dumps(event))
            assert code == 0
        code, out, _ = run(capsys, "ledger", "replay", "--log", str(log))
        assert code == 0
        assert json.loads(out)["balances"]["5"] == {"AU35": 10}


SIMULATE = ["solvency", "simulate", "--flat-fee", "0.03", "--rate", "0.0001", "--horizon", "400"]

#: One command per file argument; ``PATH`` marks the argument under test.
FILE_ARGUMENTS = {
    "--log": ["ledger", "value", "--log", "PATH", "--quotes", "quotes.csv",
              "--party", "alice", "--day", "1"],
    "--event-file": ["ledger", "append", "--log", "events.jsonl", "--event-file", "PATH"],
    "--records": [*SIMULATE, "--records", "PATH"],
    "--quotes": ["ledger", "value", "--log", "events.jsonl", "--quotes", "PATH",
                 "--party", "alice", "--day", "1"],
    "instance": ["msp", "solve", "PATH"],
    "scenario": ["demand", "supply", "PATH"],
    "--snapshot": ["ledger", "replay", "--log", "events.jsonl", "--snapshot", "PATH"],
    "--out": [*SIMULATE, "--records", "jiaozi_solvency.csv", "--out", "PATH"],
}


class TestUnusablePaths:
    """A path that is missing, a directory, or not UTF-8 text gives exit 1
    and one ``error:`` line, never a traceback, for reads and writes."""

    @pytest.fixture(autouse=True)
    def workdir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("RSDM_DATA_DIR", raising=False)
        (tmp_path / "events.jsonl").write_text("", encoding="utf-8")
        (tmp_path / "quotes.csv").write_text("day,asset_id,price\n0,XAU,100\n", encoding="utf-8")
        (tmp_path / "a_directory").mkdir()
        (tmp_path / "latin1.txt").write_bytes(b"caf\xe9\n")

    @pytest.mark.parametrize("path", ["no_such_dir/no_such_file", "a_directory"])
    @pytest.mark.parametrize("argument", FILE_ARGUMENTS)
    def test_unusable_path(self, argument, path, capsys):
        argv = [path if a == "PATH" else a for a in FILE_ARGUMENTS[argument]]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("argument", ["--log", "--event-file", "--records", "--quotes",
                                          "instance", "scenario"])
    def test_input_that_is_not_utf8(self, argument, capsys):
        argv = ["latin1.txt" if a == "PATH" else a for a in FILE_ARGUMENTS[argument]]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == "error: latin1.txt is not UTF-8 text: 'utf-8' codec can't decode " \
                      "byte 0xe9 in position 3: invalid continuation byte\n"

    @pytest.mark.parametrize("argv", [
        ["ledger", "init", "--log", "events.jsonl/new.jsonl"],
        ["ledger", "replay", "--log", "no_such_log.jsonl"],
        ["ledger", "append", "--log", "a_directory", "--event",
         '{"sequence": 1, "day": 0, "kind": "transfer", "series_id": "S", '
         '"party": "a", "counterparty": "b", "token_count": 1}'],
    ], ids=["init-under-a-file", "replay-missing-log", "append-to-a-directory"])
    def test_ledger_log_paths(self, argv, capsys):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error:") and err.count("\n") == 1


class TestConfigAndDispatch:
    def test_unknown_subcommand_usage_error(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_no_arguments_usage_error(self, capsys):
        assert run(capsys)[0] == 2

    def test_config_file_is_not_an_option(self, capsys):
        code, out, _ = run(capsys, "--config", "x.json", "demand", "supply",
                           "global_demand.json")
        assert (code, out) == (2, "")

    def test_data_dir_env_applies_and_leaves_the_context_alone(self, tmp_path, capsys,
                                                                monkeypatch):
        data = tmp_path / "data"
        data.mkdir()
        (data / "only_in_data_dir.json").write_text(
            json.dumps({"marshallian_k": "0.7", "gdp": "100", "fiat_multiplier": "2",
                        "sdm_multiplier": "3", "fiat_reserve": "4", "sdm_reserve": "5",
                        "other_supply": "6"}), encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("RSDM_DATA_DIR", str(data))
        code, out, _ = run(capsys, "--format", "json", "demand", "supply",
                           "only_in_data_dir.json")
        assert code == 0
        assert json.loads(out)["supply"] == "29.000000000"
        assert numeric.CONTEXT.prec == 34
        assert numeric.CONTEXT.rounding == ROUND_HALF_EVEN

    def test_empty_data_dir_env_is_ignored(self, capsys, monkeypatch):
        monkeypatch.setenv("RSDM_DATA_DIR", "")
        code, out, _ = run(capsys, "demand", "supply", "global_demand.json")
        assert (code, out) == (0, "120000000000000.000000000\n")

    def test_data_dir_env_override(self, tmp_path, capsys, monkeypatch):
        # an empty data dir hides the shipped presets
        monkeypatch.setenv("RSDM_DATA_DIR", str(tmp_path))
        code, _, err = run(capsys, "msp", "solve", "triple_monetary.json")
        assert code == 1
        assert "no such file" in err

    def test_format_json_residual(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "decay", "residual",
                           "--theta", "0.99996", "--w", "1", "--days", "1")
        assert code == 0
        assert json.loads(out) == {"residual_g": "0.999960000"}

    def test_format_csv_report(self, capsys):
        code, out, _ = run(capsys, "--format", "csv", "msp", "report",
                           "eurozone.json", "--select", "EUR,XAU_RSDM")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "function_id,achieved,threshold,saturated_value,covered"
        assert len(lines) == 13 and all(line.endswith("true") for line in lines[1:])


class TestModulesLoaded:
    """A command loads its own group's modules and none of the others'."""

    SCRIPT = ("import json, sys\n"
              "from rsdm import cli\n"
              "code = cli.main(sys.argv[1:])\n"
              "print(json.dumps([code, sorted(n for n in sys.modules if n.startswith('rsdm.'))]))\n")

    CASES = {
        "decay": (["residual", "--theta", "0.99996", "--w", "1", "--days", "1"],
                  ["cli", "decay", "demand", "errors", "numeric"]),
        "solvency": (["breakeven", "--beta", "1", "--alpha", "0.01"],
                     ["cli", "demand", "errors", "numeric", "solvency"]),
        "msp": (["solve", "triple_monetary.json"],
                ["cli", "demand", "errors", "msp", "numeric"]),
        "demand": (["supply", "global_demand.json"],
                   ["cli", "demand", "errors", "numeric"]),
        "ledger": (["replay", "--log", "{log}"],
                   ["cli", "decay", "demand", "errors", "ledger", "numeric"]),
    }

    @pytest.mark.parametrize("group", CASES)
    def test_one_group_loads_only_its_closure(self, group, tmp_path):
        argv, closure = self.CASES[group]
        log = tmp_path / "events.jsonl"
        log.touch()
        env = {k: v for k, v in os.environ.items() if k != "RSDM_DATA_DIR"}
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", self.SCRIPT, group,
                               *(a.format(log=log) for a in argv)],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        code, loaded = json.loads(proc.stdout.splitlines()[-1])
        assert code == 0
        assert loaded == [f"rsdm.{m}" for m in closure]


class TestClosedPipe:
    """A reader that closes stdout first ends the run with exit 1 and a
    silent stderr, whether each write flushes or only the last does."""

    ISSUE = {"sequence": 1, "day": 0, "kind": "issue", "series_id": "AU35", "party": "alice",
             "token_count": 5000,
             "series_spec": {"issue_date": "1970-01-01", "collateral_id": "XAU",
                             "initial_weight_g": "1", "daily_decay_factor": "0.99996",
                             "expiry_days": 18262, "redemption_fee_rate": "0.003"}}

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("command", ["msp-solve", "ledger-replay"])
    def test_a_closed_pipe_exits_1_quietly(self, command, unbuffered, tmp_path):
        log = tmp_path / "events.jsonl"
        log.write_text(json.dumps(self.ISSUE) + "\n", encoding="utf-8")
        argv = {"msp-solve": ["msp", "solve", "triple_monetary.json", "--objective", "saturating"],
                "ledger-replay": ["ledger", "replay", "--log", str(log)]}[command]
        env = {k: v for k, v in os.environ.items() if k != "RSDM_DATA_DIR"}
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        env["PYTHONUNBUFFERED"] = unbuffered
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "rsdm.cli", *argv], stdout=write_end,
                                  stderr=subprocess.PIPE, text=True, env=env, timeout=60)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (1, "")


class TestStderrLines:
    # warnings, notes and refusals no other test prints, each exactly
    def test_solve_warns_of_an_unreachable_threshold_and_succeeds(self, tmp_path, capsys):
        doc = {"functions": [{"id": "F1", "weight": "1", "threshold": "5"}],
               "currencies": [{"id": "c1", "class": "Fiat", "coverage": {"F1": "1"}}],
               "max_parallel": 1, "balance_penalty": "0"}
        path = tmp_path / "unreachable.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, "msp", "solve", str(path))
        assert code == 0
        assert err == (f"{path}: warning: /functions/0/threshold: threshold 5 unreachable "
                       "(total coverage across the pool is 1)\n")
        assert json.loads(out) == {"infeasible": True, "reasons": [
            "threshold F1: 5 unreachable even selecting every candidate (total coverage 1)"]}

    def test_append_to_a_missing_log(self, tmp_path, capsys):
        log = tmp_path / "events.jsonl"
        code, out, err = run(capsys, "ledger", "append", "--log", str(log), "--event", "{}")
        assert (code, out) == (1, "")
        assert err == f"error: no such event log: {log} (run 'ledger init' first)\n"
        assert not log.exists()

    @pytest.mark.parametrize("flags, line", [
        ((), "one of the arguments --event --event-file is required"),
        (("--event", "{}", "--event-file", "event.json"),
         "argument --event-file: not allowed with argument --event"),
    ], ids=["neither", "both"])
    def test_append_needs_exactly_one_event_source(self, flags, line, tmp_path, capsys):
        log = tmp_path / "events.jsonl"
        log.write_text("", encoding="utf-8")
        code, out, err = run(capsys, "ledger", "append", "--log", str(log), *flags)
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == f"rsdm ledger append: error: {line}"
        assert log.read_text(encoding="utf-8") == ""

    def test_demand_solve_notes_a_negative_solution(self, tmp_path, capsys):
        scenario = {"marshallian_k": "0.7", "gdp": "100", "fiat_multiplier": "5",
                    "sdm_multiplier": "8", "fiat_reserve": "20", "sdm_reserve": "1",
                    "other_supply": "0"}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario), encoding="utf-8")
        code, out, err = run(capsys, "demand", "solve", str(path), "--unknown", "sdm_reserve")
        assert (code, out) == (0, "-3.750000000\n")
        assert err == "note: negative solution (economically infeasible)\n"


class TestFmt:
    def test_long_integer_part(self):
        value = Decimal("123456789012345678901234567890.1234567895")
        assert fmt(value) == "123456789012345678901234567890.123456790"

    def test_carry_into_a_new_digit(self):
        assert fmt(Decimal("9" * 30 + ".9999999995")) == "1" + "0" * 30 + ".000000000"

    def test_deep_residual(self):
        assert fmt(exact_pow(Decimal("0.99996"), 18262)) == "0.481670692"

    @pytest.mark.parametrize("value, text", [
        ("1E-9", "0.000000001"),
        ("4.77E-7", "0.000000477"),
        ("0E-9", "0.000000000"),
        ("0", "0.000000000"),
        ("4E-10", "0.000000000"),
        ("1E+3", "1000.000000000"),
    ])
    def test_plain_notation(self, value, text):
        assert fmt(Decimal(value)) == text


GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"


def write_golden_inputs(directory: Path) -> None:
    """The files the recorded commands read, besides the shipped presets."""
    (directory / "quotes.csv").write_text(
        "day,asset_id,price\n0,XAU,100\n5,XAU,104.5\n", encoding="utf-8"
    )


class TestGoldenOutput:
    """Every README example, the json and csv variants of the commands that
    print numbers, and a three-event ledger session print exactly the
    recorded exit codes, stdout and stderr. The commands run in file order
    in one working directory, with relative paths only."""

    def test_recorded_output(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("RSDM_DATA_DIR", raising=False)
        write_golden_inputs(tmp_path)
        for case in json.loads(GOLDEN.read_text(encoding="utf-8")):
            code, out, err = run(capsys, *case["argv"])
            assert (code, out, err) == (case["exit"], case["stdout"], case["stderr"]), case["argv"]
