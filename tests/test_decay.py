"""Face-value decay, redemption quotes, and rate conversions.

Expected values tagged as oracle-derived were computed with independent
oracles (exact rational arithmetic, or exp/ln evaluation at precision
50) before the implementation and frozen here.
"""

from dataclasses import replace
from datetime import date
from decimal import Context, Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import check_result_record, fraction_residual
from rsdm import decay, solvency
from rsdm.errors import DomainError, ExpiredSeries
from rsdm.ledger import Quantity
from rsdm.numeric import EXACT, count_violation, exact_add, exact_mul, exact_sub, settle

GOLD = decay.RsdmSpec(
    issue_date=date(2035, 1, 1),
    collateral_id="XAU_9999",
    initial_weight=Decimal("1"),
    daily_decay_factor=Decimal("0.99996"),
    expiry_days=18262,
    redemption_fee_rate=Decimal("0.003"),
    issue_size=2_000_000_000,
)

thetas = st.decimals(min_value=Decimal("0.9"), max_value=Decimal("0.999999"),
                     allow_nan=False, allow_infinity=False, places=6)
fee_rates = st.decimals(min_value=Decimal("0"), max_value=Decimal("0.05"),
                        allow_nan=False, allow_infinity=False, places=4)


class TestResidualWeight:
    def test_zero_elapsed(self):
        assert decay.residual_weight(GOLD, 0) == 1

    def test_one_day(self):
        assert decay.residual_weight(GOLD, 1) == Decimal("0.99996")

    def test_fifty_years_frozen_oracle(self):
        # exp/ln oracle at precision 60 (precomputed):
        # 0.99996^18250 = 0.481901954082682597286993320504...
        value = decay.residual_weight(GOLD, 18250)
        with localcontext(Context(prec=50)):
            got = +value
        assert got == Decimal("0.48190195408268259728699332050418285055496562073778")

    def test_exact_against_rational_oracle(self):
        value = decay.residual_weight(GOLD, 365)
        assert Fraction(value) == fraction_residual(Decimal("0.99996"), 365, Decimal(1))

    def test_expired_rejected(self):
        with pytest.raises(ExpiredSeries):
            decay.residual_weight(GOLD, 18263)

    def test_negative_elapsed_rejected(self):
        with pytest.raises(DomainError):
            decay.residual_weight(GOLD, -1)

    @given(theta=thetas, d1=st.integers(0, 400), d2=st.integers(0, 400))
    def test_multiplicative_composition(self, theta, d1, d2):
        spec = decay.RsdmSpec(date(2035, 1, 1), "XAU", Decimal("1"), theta, 1000,
                              Decimal("0"))
        combined = decay.residual_weight(spec, d1 + d2)
        stepped = Fraction(decay.residual_weight(spec, d1)) * Fraction(theta) ** d2
        assert Fraction(combined) == stepped

    @given(theta=thetas, d1=st.integers(0, 500))
    def test_monotone_decay(self, theta, d1):
        spec = decay.RsdmSpec(date(2035, 1, 1), "XAU", Decimal("1"), theta, 1000,
                              Decimal("0"))
        assert decay.residual_weight(spec, d1) > decay.residual_weight(spec, d1 + 1)

    def test_no_decay_factor_is_constant(self):
        spec = decay.RsdmSpec(date(2035, 1, 1), "XAU", Decimal("1"), Decimal("1"),
                              1000, Decimal("0"))
        assert decay.residual_weight(spec, 1000) == 1

    @settings(max_examples=30)
    @given(theta=thetas, elapsed=st.integers(0, 3000))
    def test_against_exp_ln_oracle(self, theta, elapsed):
        spec = decay.RsdmSpec(date(2035, 1, 1), "XAU", Decimal("1"), theta, 3000,
                              Decimal("0"))
        value = decay.residual_weight(spec, elapsed)
        with localcontext(Context(prec=50)):
            oracle = (Decimal(elapsed) * theta.ln()).exp()
            assert abs(value / oracle - 1) < Decimal("1e-12")


class TestPurchasePrice:
    def test_no_decay_yet(self):
        price = decay.purchase_price(GOLD, 0, Decimal("100"))
        assert price == 100

    def test_one_day(self):
        assert decay.purchase_price(GOLD, 1, Decimal("100")) == Decimal("99.996")

    def test_zero_price(self):
        assert decay.purchase_price(GOLD, 10, Decimal("0")) == 0

    def test_negative_price_rejected(self):
        with pytest.raises(DomainError):
            decay.purchase_price(GOLD, 0, Decimal("-1"))

    def test_expired_rejected(self):
        with pytest.raises(ExpiredSeries):
            decay.purchase_price(GOLD, 20000, Decimal("100"))

    @pytest.mark.parametrize("price", ["1" * 5001, "1E+35"], ids=["5001-digit", "wide-exponent"])
    def test_price_obeys_the_width_rule(self, price):
        # a 5,001-digit price once gave a 5,051-character price
        with pytest.raises(DomainError) as err:
            decay.purchase_price(GOLD, 1, price)
        assert str(err.value) == "unit price must have at most 34 digits and an adjusted exponent within ±34"

    def test_widest_price_accepted(self):
        price = Decimal("9" * 34)
        assert Fraction(decay.purchase_price(GOLD, 1, price)) == Fraction(price) * Fraction("0.99996")

    @pytest.mark.parametrize("price", [100.0, Quantity(Decimal(100))], ids=["float", "quantity"])
    def test_price_other_than_decimal_str_int_rejected(self, price):
        # a price is read by as_decimal alone: no float, and no wrapped quantity
        with pytest.raises(DomainError, match="float|cannot interpret"):
            decay.purchase_price(GOLD, 1, price)


class TestRedemption:
    def test_results_are_plain_decimals(self):
        quote = decay.redemption_quote(GOLD, 30)
        results = [decay.residual_weight(GOLD, 30), decay.purchase_price(GOLD, 30, 95),
                   quote.payout, quote.fee, quote.residual]
        assert [type(r) for r in results] == [Decimal] * 5

    def test_a_quote_is_a_plain_named_tuple(self):
        check_result_record(
            decay.redemption_quote(GOLD, 1), ("payout", "fee", "residual"),
            "RedemptionQuote(payout=Decimal('0.99696012'), fee=Decimal('0.00299988'), "
            "residual=Decimal('0.99996'))")

    def test_day_zero_fee_applied(self):
        assert decay.redemption_quote(GOLD, 0).payout == Decimal("0.997")

    def test_one_day_frozen(self):
        # (1 - 0.003) * 0.99996 * 1 (rational oracle): 0.99696012
        assert decay.redemption_quote(GOLD, 1).payout == Decimal("0.99696012")

    def test_zero_fee_equals_residual(self):
        spec = decay.RsdmSpec(date(2035, 1, 1), "XAU", Decimal("1"),
                              Decimal("0.99996"), 18262, Decimal("0"))
        for elapsed in (0, 1, 500):
            assert decay.redemption_quote(spec, elapsed).payout == decay.residual_weight(spec, elapsed)

    @given(theta=thetas, lam=fee_rates, elapsed=st.integers(0, 800))
    def test_payout_plus_fee_is_residual(self, theta, lam, elapsed):
        spec = decay.RsdmSpec(date(2035, 1, 1), "XAU", Decimal("1"), theta, 1000, lam)
        quote = decay.redemption_quote(spec, elapsed)
        assert exact_add(quote.payout, quote.fee) == quote.residual
        assert quote.payout <= quote.residual
        if lam > 0:
            assert quote.payout < quote.residual

    @given(theta=thetas, lam=fee_rates, elapsed=st.integers(0, 800))
    def test_payout_matches_rational_oracle(self, theta, lam, elapsed):
        spec = decay.RsdmSpec(date(2035, 1, 1), "XAU", Decimal("1"), theta, 1000, lam)
        payout = decay.redemption_quote(spec, elapsed).payout
        oracle = (1 - Fraction(lam)) * Fraction(theta) ** elapsed
        assert Fraction(payout) == oracle


def one_token_times_count(spec, elapsed, count):
    """Payout, fee and residual of ``count`` tokens as each one-token
    figure times the count: the formula before ``redemption_quote`` took
    a count, kept as its oracle."""
    residual = decay.residual_weight(spec, elapsed)
    one_token = (exact_mul(exact_sub(Decimal(1), spec.redemption_fee_rate), residual),
                 exact_mul(spec.redemption_fee_rate, residual), residual)
    return [exact_mul(figure, Decimal(count)) for figure in one_token]


class TestRedemptionOfManyTokens:
    THETA_34 = decay.daily_factor_from_annual_rate("-0.02")  # a 34-digit daily factor

    @settings(max_examples=60, deadline=None)
    @given(theta=st.sampled_from((Decimal("0.99996"), THETA_34, Decimal("1"), Decimal("0.5"))),
           elapsed=st.one_of(st.integers(0, 60), st.integers(0, decay.MAX_EXPIRY_DAYS)),
           count=st.one_of(st.integers(1, 1000), st.integers(1, 10**33)),
           weight=st.one_of(
               st.sampled_from((Decimal("1"), Decimal("1.0"), Decimal("1.000"), Decimal("31.1034768"))),
               st.builds(lambda m, k: EXACT.scaleb(Decimal(m), -k),
                         st.integers(1, 10**34 - 1), st.integers(0, 34))),
           fee=st.sampled_from((Decimal("0"), Decimal("0.000"), Decimal("0.5"), Decimal("0." + "9" * 33))))
    @example(theta=THETA_34, elapsed=decay.MAX_EXPIRY_DAYS, count=10**33, weight=Decimal("1.000"),
             fee=Decimal("0." + "9" * 33))  # the deepest claim: 1.24 million digits
    def test_equals_one_token_times_the_count(self, theta, elapsed, count, weight, fee):
        spec = decay.RsdmSpec(date(2035, 1, 1), "XAU", weight, theta, decay.MAX_EXPIRY_DAYS, fee)
        quote = decay.redemption_quote(spec, elapsed, count)
        got = [quote.payout, quote.fee, quote.residual]
        want = one_token_times_count(spec, elapsed, count)
        assert got == want
        assert exact_add(quote.payout, quote.fee) == quote.residual
        assert [str(settle(g)) for g in got] == [str(settle(w)) for w in want]
        if count == 1:
            # one token is spelt as before, trailing zeros included
            assert [str(g) for g in got] == [str(w) for w in want]

    def test_a_product_of_one_may_drop_trailing_zeros(self):
        # exact_mul returns the other factor of a product by 1 as it is spelt:
        # here the residual of 2 tokens is 1.0, so the payout is 0.997 * 1.0 =
        # 0.997, where the one-token payout 0.4985 times 2 is spelt 0.9970
        spec = decay.RsdmSpec(date(2035, 1, 1), "XAU", Decimal("1.000"), Decimal("0.5"), 10,
                              Decimal("0.003"))
        assert str(decay.redemption_quote(spec, 1, 2).payout) == "0.997"
        assert str(one_token_times_count(spec, 1, 2)[0]) == "0.9970"

    @pytest.mark.parametrize("count", [0, -1, 10**34, True, 1.5])
    def test_a_bad_count_is_refused(self, count):
        with pytest.raises(DomainError) as err:
            decay.redemption_quote(GOLD, 1, count)
        assert str(err.value) == count_violation("token count", count)


class TestRateConversions:
    def test_zero_rate(self):
        assert decay.daily_factor_from_annual_rate(Decimal("0")) == 1

    def test_minus_two_percent_frozen(self):
        # 365th-root oracle: 0.98^(1/365) = 0.99994465164871481900547784...
        factor = decay.daily_factor_from_annual_rate(Decimal("-0.02"))
        assert abs(factor / Decimal("0.999944651648714819005477844133") - 1) < Decimal("1e-28")

    def test_annual_from_daily_frozen(self):
        # power oracle: 0.99996^365 - 1 = -0.0144942245770345086817607779...
        rate = decay.annual_rate_from_daily_factor(Decimal("0.99996"))
        assert abs(rate - Decimal("-0.014494224577034508681760777946")) < Decimal("1e-28")

    @pytest.mark.parametrize("convert, what", [
        (decay.daily_factor_from_annual_rate, "annual rate"),
        (decay.annual_rate_from_daily_factor, "daily factor"),
    ])
    @pytest.mark.parametrize("value", ["1E+999999", "1E-999999", "0." + "1" * 35])
    def test_input_wider_than_a_spec_field_rejected(self, convert, what, value):
        with pytest.raises(DomainError, match=f"{what} must have at most 34 digits"):
            convert(Decimal(value))

    @pytest.mark.parametrize("factor", ["1.5", "1E+34"])
    def test_implied_rate_wider_than_a_spec_field_rejected(self, factor):
        with pytest.raises(DomainError, match="implied annual rate must have at most 34 digits"):
            decay.annual_rate_from_daily_factor(Decimal(factor))

    def test_implied_rate_at_the_width_rule_kept(self):
        rate = decay.annual_rate_from_daily_factor(Decimal("1.2"))
        assert rate.adjusted() == 28
        assert decay.daily_factor_from_annual_rate(rate) > 1

    def test_a_daily_factor_of_zero_is_refused(self):
        with pytest.raises(DomainError) as err:
            decay.annual_rate_from_daily_factor("0")
        assert str(err.value) == "daily factor must be positive, got 0"

    def test_rate_below_total_loss_rejected(self):
        with pytest.raises(DomainError):
            decay.daily_factor_from_annual_rate(Decimal("-1"))

    @given(rate=st.decimals(min_value=Decimal("-0.499"), max_value=Decimal("0.499"),
                            allow_nan=False, allow_infinity=False, places=6))
    def test_round_trip(self, rate):
        back = decay.annual_rate_from_daily_factor(decay.daily_factor_from_annual_rate(rate))
        if rate == 0:
            assert back == 0
        else:
            assert abs(back / rate - 1) < Decimal("1e-12")


class TestNetYield:
    def test_worked_example(self):
        assert decay.net_yield(Decimal("-0.02"), Decimal("0.03")) == Decimal("0.01")

    def test_zero(self):
        assert decay.net_yield(Decimal("0"), Decimal("0")) == 0

    def test_no_interest(self):
        assert decay.net_yield(Decimal("-0.02"), Decimal("0")) == Decimal("-0.02")

    def test_total_loss_rejected(self):
        with pytest.raises(DomainError):
            decay.net_yield(Decimal("-1"), Decimal("0.03"))

    @pytest.mark.parametrize("rates", [("1E+10000000", "0"), ("0", "1E-35")])
    def test_rates_obey_the_width_rule(self, rates):
        # unchecked, the exact sum of the first pair has 10,000,001 digits
        with pytest.raises(DomainError, match="must have at most 34 digits"):
            decay.net_yield(*rates)


class TestValidateSpec:
    # a spec checks itself on construction
    def test_worked_parameters_valid(self):
        assert replace(GOLD) == GOLD

    def test_decay_factor_above_one(self):
        with pytest.raises(DomainError) as err:
            decay.RsdmSpec(date(2035, 1, 1), "XAU", Decimal("1"), Decimal("1.1"),
                           100, Decimal("0"))
        assert str(err.value) == "invalid spec: decay factor must be in (0, 1]"

    def test_fee_rate_at_one(self):
        with pytest.raises(DomainError, match=r"invalid spec: fee rate must be in \[0, 1\)"):
            decay.RsdmSpec(date(2035, 1, 1), "XAU", Decimal("1"), Decimal("0.99996"),
                           100, Decimal("1.0"))

    def test_every_violation_in_order(self):
        with pytest.raises(DomainError) as err:
            decay.RsdmSpec(date(2035, 1, 1), "XAU", Decimal("0"), Decimal("0"), 0,
                           Decimal("1"), issue_size=-1, min_redemption_grams=Decimal("1E+35"))
        assert str(err.value) == (
            "invalid spec: initial weight must be > 0; decay factor must be in (0, 1]; "
            "fee rate must be in [0, 1); expiry must be a positive number of days; "
            "issue size must be nonnegative; minimum redemption must have at most 34 "
            "digits and an adjusted exponent within ±34")

    @pytest.mark.parametrize("field, value", [
        ("initial_weight", "1E+999999999"),
        ("initial_weight", "1" * 35),
        ("daily_decay_factor", "0.999999999999999999999999999999999999"),
        ("redemption_fee_rate", "1E-999999999"),
        ("inspection_fee", "0E-1000"),
        ("min_redemption_grams", "1E+35"),
    ])
    def test_decimal_beyond_working_precision(self, field, value):
        with pytest.raises(DomainError, match="at most 34 digits"):
            replace(GOLD, **{field: Decimal(value)})

    @pytest.mark.parametrize("field, what", [("expiry_days", "expiry days"),
                                             ("issue_size", "issue size")])
    @pytest.mark.parametrize("value", ["5", 5.0, True, None], ids=["str", "float", "bool", "none"])
    def test_integer_field_of_a_spec_built_in_python(self, field, what, value):
        # the JSON reader refuses these first; a library caller gets the same DomainError
        with pytest.raises(DomainError) as err:
            replace(GOLD, **{field: value})
        assert str(err.value) == f"invalid spec: {what} must be an integer, got {type(value).__name__}"

    def test_integer_field_listed_with_the_other_violations(self):
        with pytest.raises(DomainError) as err:
            replace(GOLD, redemption_fee_rate=Decimal(1), expiry_days="100", issue_size=-1)
        assert str(err.value) == ("invalid spec: fee rate must be in [0, 1); expiry days must be "
                                  "an integer, got str; issue size must be nonnegative")

    def test_a_minimum_redemption_of_zero_is_refused(self):
        with pytest.raises(DomainError) as err:
            replace(GOLD, min_redemption_grams=Decimal(0))
        assert str(err.value) == "invalid spec: minimum redemption must be > 0 grams"

    def test_the_longest_expiry_is_the_century_solvency_replays(self):
        assert decay.MAX_EXPIRY_DAYS == solvency.MAX_SIMULATED_DAYS

    def test_expiry_past_a_century_is_refused(self):
        with pytest.raises(DomainError) as err:
            replace(GOLD, expiry_days=decay.MAX_EXPIRY_DAYS + 1)
        assert str(err.value) == "invalid spec: expiry must be at most 36525 days"

    def test_the_widest_expiry_is_accepted_and_decays(self):
        theta = Decimal("0." + "9" * 33 + "7")
        spec = replace(GOLD, initial_weight=Decimal(1), daily_decay_factor=theta,
                       expiry_days=36_525)
        with localcontext(Context(prec=10**7)):
            expected = theta ** 36_525
        assert decay.residual_weight(spec, 36_525) == expected
        with pytest.raises(ExpiredSeries):
            decay.residual_weight(spec, 36_526)

    def test_decimal_at_working_precision_accepted(self):
        spec = replace(GOLD, initial_weight=Decimal("1" * 34),
                       daily_decay_factor=Decimal("0." + "9" * 33),
                       min_redemption_grams=Decimal("1E-34"))
        assert spec.initial_weight == Decimal("1" * 34)


class TestSpecJson:
    def test_round_trip(self):
        doc = GOLD.to_json_dict()
        assert doc["initial_weight_g"] == "1"
        assert doc["daily_decay_factor"] == "0.99996"
        assert decay.RsdmSpec.from_json_dict(doc) == GOLD

    def test_missing_field(self):
        with pytest.raises(DomainError, match="missing field"):
            decay.RsdmSpec.from_json_dict({"issue_date": "2035-01-01"})

    @pytest.mark.parametrize("field, value", [
        ("issue_date", 5),
        ("issue_date", "2020-13-01"),
        ("expiry_days", None),
        ("expiry_days", "ten"),
        ("issue_size", [1]),
    ])
    def test_malformed_field(self, field, value):
        with pytest.raises(DomainError, match="malformed series spec"):
            decay.RsdmSpec.from_json_dict({**GOLD.to_json_dict(), field: value})

    @pytest.mark.parametrize("field", ["expiry_days", "issue_size"])
    @pytest.mark.parametrize("value", [1.5, True, "3", None], ids=["float", "bool", "str", "null"])
    def test_integer_fields_are_strict(self, field, value):
        # int() would read 1.5 as 1, true as 1 and "3" as 3
        with pytest.raises(DomainError, match=f"malformed series spec: {field} must be an integer"):
            decay.RsdmSpec.from_json_dict({**GOLD.to_json_dict(), field: value})

    @pytest.mark.parametrize("doc", [[1], "spec", None])
    def test_not_an_object(self, doc):
        with pytest.raises(DomainError, match="malformed series spec: got"):
            decay.RsdmSpec.from_json_dict(doc)
