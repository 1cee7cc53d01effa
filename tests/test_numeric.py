"""Exact-arithmetic primitives, settlement and the input parsers."""

import decimal
import random
from decimal import Decimal, localcontext
from enum import IntEnum
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rsdm.errors import DomainError
from rsdm.numeric import (
    CONTEXT,
    DEFAULT_PRECISION,
    EXACT,
    as_decimal,
    bound_violation,
    count_violation,
    exact_add,
    exact_mul,
    exact_pow,
    exact_sub,
    integer_violation,
    json_int,
    nth_root,
    pow_bounds,
    read_csv_table,
    settle,
)

decimals = st.decimals(
    min_value=Decimal("-1e6"), max_value=Decimal("1e6"), allow_nan=False,
    allow_infinity=False, places=6,
)


class TestAsDecimal:
    def test_string_exact(self):
        assert as_decimal("0.99996") == Decimal("0.99996")

    def test_int(self):
        assert as_decimal(7) == Decimal(7)

    def test_float_rejected(self):
        with pytest.raises(DomainError, match="float"):
            as_decimal(0.1)

    def test_bool_rejected(self):
        with pytest.raises(DomainError) as err:
            as_decimal(True)
        assert str(err.value) == "cannot interpret True as a decimal"

    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            as_decimal("NaN")

    def test_garbage_rejected(self):
        with pytest.raises(DomainError):
            as_decimal("not-a-number")


class TestBoundViolation:
    @settings(max_examples=300)
    @given(sign=st.integers(0, 1), digits=st.lists(st.integers(0, 9), min_size=1, max_size=40),
           exponent=st.integers(-80, 40))
    @example(sign=0, digits=[1] + [0] * 34, exponent=-34)  # 35 digits, all but one zero
    @example(sign=1, digits=[0], exponent=-35)  # -0E-35
    def test_matches_the_digit_tuple(self, sign, digits, exponent):
        value = Decimal((sign, tuple(digits), exponent))
        wide = (len(value.as_tuple().digits) > DEFAULT_PRECISION
                or abs(value.adjusted()) > DEFAULT_PRECISION)
        assert (bound_violation("x", value) is not None) == wide


class TestExactOps:
    @given(a=decimals, b=decimals)
    def test_mul_matches_fractions(self, a, b):
        assert Fraction(exact_mul(a, b)) == Fraction(a) * Fraction(b)

    @given(a=decimals, b=decimals)
    def test_add_sub_match_fractions(self, a, b):
        assert Fraction(exact_add(a, b)) == Fraction(a) + Fraction(b)
        assert Fraction(exact_sub(a, b)) == Fraction(a) - Fraction(b)

    @given(
        base=st.decimals(min_value=Decimal("0.5"), max_value=Decimal("1"),
                         allow_nan=False, allow_infinity=False, places=6),
        exponent=st.integers(min_value=0, max_value=400),
    )
    def test_pow_matches_fractions(self, base, exponent):
        assert Fraction(exact_pow(base, exponent)) == Fraction(base) ** exponent

    def test_pow_zero_exponent(self):
        assert exact_pow(Decimal("0.5"), 0) == 1

    def test_pow_negative_exponent_rejected(self):
        with pytest.raises(DomainError):
            exact_pow(Decimal("0.5"), -1)

    def test_long_exact_power_no_digit_limit(self):
        # 5-digit mantissa to the 18250th: tens of thousands of digits
        value = exact_pow(Decimal("0.99996"), 18250)
        assert Fraction(value) == Fraction(99996, 100000) ** 18250


class TestPowBounds:
    # a short θ, and the 34-digit θ of a -2% annual rate
    THETAS = [Decimal("0.99996"), Decimal("0.9999446516487148190054778441331853")]

    @settings(max_examples=200, deadline=None)
    @given(theta=st.sampled_from(THETAS), exponent=st.integers(min_value=0, max_value=2_000),
           digits=st.integers(min_value=1, max_value=60))
    @example(theta=THETAS[1], exponent=1, digits=3)
    @example(theta=THETAS[0], exponent=2, digits=10)
    def test_brackets_the_exact_power_in_digits_digits(self, theta, exponent, digits):
        exact = exact_pow(theta, exponent)
        low, high = pow_bounds(theta, exponent, digits)
        assert low <= exact <= high  # Decimal comparison is exact
        assert len(low.as_tuple().digits) <= digits and len(high.as_tuple().digits) <= digits
        if len(exact.as_tuple().digits) <= digits:
            assert low is high and low == exact

    def test_negative_exponent_rejected(self):
        with pytest.raises(DomainError, match="^pow_bounds requires a nonnegative integer exponent$"):
            pow_bounds(Decimal("0.5"), -1, 10)


class TestCountViolation:
    @pytest.mark.parametrize("count, problem", [
        (True, "token count must be an integer, got bool"),
        (5.0, "token count must be an integer, got float"),
        ("5", "token count must be an integer, got str"),
        (None, "token count must be an integer, got NoneType"),
        (0, "token count must be positive, got 0"),
        (-1, "token count must be positive, got -1"),
        (10**34, "token count must have at most 34 digits"),
        (10**50, "token count must have at most 34 digits"),
        (1, None),
        (10**34 - 1, None),
    ])
    def test_each_branch(self, count, problem):
        assert count_violation("token count", count) == problem

    def test_names_its_field(self):
        assert count_violation("issued", 0) == "issued must be positive, got 0"

    @pytest.mark.parametrize("count", [0, -1, 10**34])
    def test_ledger_record_and_cli_say_the_same(self, count, capsys):
        from rsdm import cli, ledger, solvency
        from rsdm.errors import LedgerError
        event = ledger.LedgerEvent(1, 0, ledger.EventKind.TRANSFER, "AU35", "alice", "bob",
                                   token_count=count)
        with pytest.raises(LedgerError) as from_ledger:
            ledger.append_event(ledger.empty_state(), event)
        with pytest.raises(DomainError) as from_record:
            solvency.RedemptionRecord("k", count, 0, None)
        code = cli.main(["decay", "redeem-quote", "--theta", "0.99996", "--w", "1", "--days", "1",
                         "--fee-rate", "0", "--count", str(count)])
        printed = capsys.readouterr()
        problem = count_violation("token count", count)
        assert type(from_ledger.value) is LedgerError and type(from_record.value) is DomainError
        assert str(from_ledger.value) == str(from_record.value) == problem
        assert (code, printed.out, printed.err) == (1, "", f"error: {problem}\n")


class _Days(IntEnum):
    ONE = 1


class TestIntegerViolation:
    @pytest.mark.parametrize("value, problem", [
        (0, None),
        (-7, None),
        (10**50, None),
        (True, "day must be an integer, got bool"),
        (1.5, "day must be an integer, got float"),
        ("5", "day must be an integer, got str"),
        (None, "day must be an integer, got NoneType"),
        (_Days.ONE, "day must be an integer, got _Days"),
    ])
    def test_only_an_int_passes(self, value, problem):
        assert integer_violation("day", value) == problem

    @pytest.mark.parametrize("value", [True, 1.5, "5", None, _Days.ONE])
    def test_json_int_raises_the_same_text_as_a_type_error(self, value):
        with pytest.raises(TypeError) as raised:
            json_int(value, "day")
        assert type(raised.value) is TypeError and str(raised.value) == integer_violation("day", value)

    def test_a_numpy_integer_is_refused(self):
        # numpy is no dependency of rsdm; an int64 is an integer that is
        # not an int subclass, which the stdlib cases above do not cover
        numpy = pytest.importorskip("numpy")
        assert integer_violation("day", numpy.int64(5)) == "day must be an integer, got int64"
        with pytest.raises(TypeError, match="^day must be an integer, got int64$"):
            json_int(numpy.int64(5), "day")


_POWERS_AND_ROOTS = [
    (lambda n: exact_pow(Decimal("0.9"), n), "exact_pow requires a nonnegative integer exponent"),
    (lambda n: pow_bounds(Decimal("0.9"), n, 10), "pow_bounds requires a nonnegative integer exponent"),
    (lambda n: nth_root(Decimal(2), n), "root order must be a positive integer"),
]


@pytest.mark.parametrize("call, message", _POWERS_AND_ROOTS, ids=["exact_pow", "pow_bounds", "nth_root"])
class TestExponentsMustBeIntegers:
    @pytest.mark.parametrize("bad", [2.5, True, False, "2", _Days.ONE],
                             ids=["float", "True", "False", "str", "IntEnum"])
    def test_a_non_int_is_refused_with_the_domain_message(self, call, message, bad):
        with pytest.raises(DomainError) as raised:
            call(bad)
        assert type(raised.value) is DomainError and str(raised.value) == message

    def test_a_numpy_integer_is_refused(self, call, message):
        numpy = pytest.importorskip("numpy")  # see TestIntegerViolation
        with pytest.raises(DomainError, match=f"^{message}$"):
            call(numpy.int64(2))


# ---------------------------------------------------------------------------
# Reference: the int-mantissa exact path. The native Decimal path replaced
# it; it stays here as the oracle for value *and* representation (sign,
# coefficient digits, exponent), which snapshot and CLI bytes depend on.
# ---------------------------------------------------------------------------

_REF_CONTEXT = decimal.Context(prec=34, rounding=decimal.ROUND_HALF_EVEN)


def _ref_scaled(value: Decimal) -> tuple[int, int]:
    exponent = value.as_tuple().exponent
    if exponent == 0:
        return int(value), 0
    with localcontext(_REF_CONTEXT) as ctx:
        ctx.prec = max(34, len(value.as_tuple().digits) + 2)
        return int(value.scaleb(-exponent)), exponent


def _ref_from_scaled(mantissa: int, exponent: int) -> Decimal:
    d = Decimal(mantissa)
    if exponent == 0:
        return d
    with localcontext(_REF_CONTEXT) as ctx:
        ctx.prec = max(34, d.adjusted() + 2)
        return d.scaleb(exponent)


def ref_exact_mul(a: Decimal, b: Decimal) -> Decimal:
    if a == 1:
        return b
    if b == 1:
        return a
    ma, ea = _ref_scaled(a)
    mb, eb = _ref_scaled(b)
    return _ref_from_scaled(ma * mb, ea + eb)


def ref_exact_add(a: Decimal, b: Decimal) -> Decimal:
    ma, ea = _ref_scaled(a)
    mb, eb = _ref_scaled(b)
    if ea > eb:
        ma *= 10 ** (ea - eb)
        ea = eb
    elif eb > ea:
        mb *= 10 ** (eb - ea)
    return _ref_from_scaled(ma + mb, ea)


def ref_exact_sub(a: Decimal, b: Decimal) -> Decimal:
    # ``-b`` would round b to the caller's context precision (28 digits by
    # default), as the int-mantissa path once did; negating the sign is exact
    return ref_exact_add(a, b.copy_negate())


def ref_exact_pow(base: Decimal, exponent: int) -> Decimal:
    if exponent == 0:
        return Decimal(1)
    mantissa, exp10 = _ref_scaled(base)
    return _ref_from_scaled(mantissa**exponent, exp10 * exponent)


def ref_settle(value: Decimal) -> Decimal:
    with localcontext(_REF_CONTEXT) as ctx:
        ctx.prec = max(34, len(value.as_tuple().digits) + 2)
        return value.quantize(Decimal("1E-9"), rounding=decimal.ROUND_HALF_EVEN)


@st.composite
def representations(draw, max_digits=30):
    """Finite decimals by representation: either sign (zeros included),
    coefficients with trailing zeros, and exponents on both sides of 0."""
    sign = draw(st.integers(0, 1))
    coefficient = draw(st.one_of(st.just(0), st.integers(1, 10**max_digits)))
    coefficient *= 10 ** draw(st.integers(0, 6))
    exponent = draw(st.integers(-40, 12))
    return Decimal((sign, tuple(map(int, str(coefficient))), exponent))


SIGNED_ZEROS = [Decimal("-0"), Decimal("-0.00"), Decimal("0E+3"), Decimal("-0E-12")]
THETAS = [Decimal("0.99996"), Decimal("0.9997"), Decimal("1")]
EXPIRY_DAYS = 18262


def same(a: Decimal, b: Decimal) -> bool:
    return a.as_tuple() == b.as_tuple()


class TestAgainstReference:
    @given(a=representations(), b=representations())
    @example(a=Decimal("-0.00"), b=Decimal(3))
    @example(a=Decimal(1), b=Decimal("-0.00"))
    @example(a=Decimal("1.000"), b=Decimal("2.50"))
    @example(a=Decimal("-0"), b=Decimal("-0.0"))
    @example(a=Decimal("1.5E+3"), b=Decimal("-1500.00"))
    def test_mul_add_sub(self, a, b):
        assert same(exact_mul(a, b), ref_exact_mul(a, b))
        assert same(exact_add(a, b), ref_exact_add(a, b))
        assert same(exact_sub(a, b), ref_exact_sub(a, b))

    @pytest.mark.parametrize("zero", SIGNED_ZEROS)
    def test_signed_zero_operands(self, zero):
        for other in (Decimal(3), Decimal("-2.50"), Decimal("1.0"), zero):
            assert same(exact_mul(zero, other), ref_exact_mul(zero, other))
            assert same(exact_add(zero, other), ref_exact_add(zero, other))
            assert same(exact_sub(zero, other), ref_exact_sub(zero, other))
            assert same(exact_pow(zero, 3), ref_exact_pow(zero, 3))

    def test_sub_keeps_long_subtrahend(self):
        b = Decimal("1131437377233186640940234000.1")  # 29 digits
        assert Fraction(exact_sub(Decimal(0), b)) == -Fraction(b)

    def test_negative_zero_product_is_unsigned(self):
        assert str(exact_mul(Decimal("-0.00"), Decimal(3))) == "0.00"

    @given(base=representations(max_digits=4), exponent=st.integers(0, 40))
    def test_pow_small(self, base, exponent):
        assert same(exact_pow(base, exponent), ref_exact_pow(base, exponent))

    @settings(max_examples=20, deadline=None)
    @given(theta=st.sampled_from(THETAS), days=st.integers(0, EXPIRY_DAYS))
    @example(theta=Decimal("0.99996"), days=EXPIRY_DAYS)
    @example(theta=Decimal("0.9997"), days=EXPIRY_DAYS)
    @example(theta=Decimal("1"), days=EXPIRY_DAYS)
    def test_pow_decay_horizon(self, theta, days):
        assert same(exact_pow(theta, days), ref_exact_pow(theta, days))

    def test_deep_residual_products_and_settlement(self):
        # the redeem arithmetic at expiry: a ~91k-digit residual times a
        # token count and a fee complement, then settled
        residual = exact_pow(Decimal("0.99996"), EXPIRY_DAYS)
        complement = exact_sub(Decimal(1), Decimal("0.003"))
        for factor in (Decimal(1000), complement):
            product = exact_mul(residual, factor)
            assert same(product, ref_exact_mul(residual, factor))
            assert same(settle(product), ref_settle(product))
        assert same(exact_sub(Decimal(1000), settle(residual)),
                    ref_exact_sub(Decimal(1000), ref_settle(residual)))

    @given(value=representations())
    def test_settle(self, value):
        # the reference sized its context by digit count, so it raised on
        # values whose integer part outgrew 34 digits less the grid's 9
        if value.adjusted() + 11 <= 34:
            assert same(settle(value), ref_settle(value))


class TestCallerContextIgnored:
    """Exact results do not depend on the caller's decimal context."""

    CASES = [(Decimal("0.99996"), Decimal("1234.5678")), (Decimal("-0.00"), Decimal(3)),
             (Decimal("123456789.987654321"), Decimal("-0.000001"))]

    def results(self):
        out = []
        for a, b in self.CASES:
            out += [exact_mul(a, b), exact_add(a, b), exact_sub(a, b)]
        out.append(exact_pow(Decimal("0.99996"), 3650))
        out.append(settle(exact_mul(out[-1], Decimal(1000))))
        return [r.as_tuple() for r in out]

    def test_caller_local_context(self):
        expected = self.results()
        with localcontext(prec=3):
            assert self.results() == expected


class TestSettle:
    def test_rounds_half_even(self):
        assert settle(Decimal("1.0000000005")) == Decimal("1.000000000")
        assert settle(Decimal("1.0000000015")) == Decimal("1.000000002")

    def test_nine_decimals(self):
        assert str(settle(Decimal("0.99996"))) == "0.999960000"
        assert str(settle(Decimal("1.23456789012"))) == "1.234567890"

    def test_long_integer_part(self):
        value = Decimal("123456789012345678901234567890.1234567895")
        assert str(settle(value)) == "123456789012345678901234567890.123456790"

    def test_carry_into_a_new_digit(self):
        value = Decimal("9" * 30 + ".9999999995")
        assert str(settle(value)) == "1" + "0" * 30 + ".000000000"


#: Root orders of the oracle checks: small ones, a month, a year, and more.
ROOT_ORDERS = [1, 2, 3, 5, 7, 12, 365, 1000]


def reference_nth_root(value: Decimal, n: int) -> Decimal:
    """The Newton-refined root ``nth_root`` must equal to the last digit:
    an exp(ln(value)/n) seed, then Newton steps on y**n - value at 80
    digits until the relative step is at most 1E-40, rounded once. That
    is more than twice the working precision: a drawn value 1 + s near 1
    can put the first-order root 1 + s/n on a 34-digit half-way point,
    and then the root lies only about s**2 from it."""
    if value == 1:
        return Decimal(1)
    with localcontext(CONTEXT) as ctx:
        ctx.prec = 80
        y = (value.ln() / n).exp()
        n_dec = Decimal(n)
        for _ in range(64):
            prev = y
            y = y - (y**n - value) / (n_dec * y ** (n - 1))
            if abs(y - prev) <= Decimal("1E-40") * abs(y):
                break
    with localcontext(CONTEXT):
        return +y


def _scaled(mantissa: int, exponent: int) -> Decimal:
    return EXACT.scaleb(Decimal(mantissa), exponent)


#: Positive values from 1E-40 to 1E+34: mantissas of 1 to 34 digits at
#: any scale in that range, and values within 1E-40 to 1E-1 of 1.
root_values = st.one_of(
    st.builds(_scaled, st.integers(1, 10**34 - 1), st.integers(-73, 0)).filter(
        lambda v: Decimal("1E-40") <= v <= Decimal("1E+34")),
    st.builds(lambda m, e: EXACT.add(1, _scaled(m, e)), st.integers(-(10**34 - 1), 10**34 - 1),
              st.integers(-73, -35)).filter(lambda v: abs(v - 1) <= Decimal("0.1")),
)


def sweep_value(rng: random.Random) -> Decimal:
    """One value of the kind ``root_values`` draws."""
    while True:
        digits = rng.randrange(1, 35)
        if rng.random() < 0.5:
            value = _scaled(rng.randrange(1, 10**digits), rng.randrange(-40 - digits, 35 - digits))
            if Decimal("1E-40") <= value <= Decimal("1E+34"):
                return value
        else:
            step = _scaled(rng.randrange(-(10**digits) + 1, 10**digits), -rng.randrange(digits + 1, 41))
            if step and abs(step) <= Decimal("0.1"):
                return EXACT.add(1, step)


class TestNthRoot:
    def test_root_of_one(self):
        assert nth_root(Decimal(1), 365) == 1

    def test_365th_root(self):
        root = nth_root(Decimal("0.98"), 365)
        # independent exp/ln oracle at higher precision
        from decimal import Context, localcontext

        with localcontext(Context(prec=50)):
            oracle = (Decimal("0.98").ln() / 365).exp()
            assert abs(root / oracle - 1) < Decimal("1e-30")

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            nth_root(Decimal(0), 365)

    def test_rounds_across_a_half_way_point_the_right_way(self):
        # the root is 99999999.999999214999999999996918874999…: its
        # 44-digit exp(ln(v)/2) lies past the half-way point …6918875
        assert nth_root(Decimal("9999999999999843"), 2) == Decimal("99999999.99999921499999999999691887")

    @pytest.mark.parametrize("root, rounded", [
        ("1.0000000000000000000000000000000005", "1.000000000000000000000000000000000"),
        ("1.0000000000000000000000000000000015", "1.000000000000000000000000000000002"),
    ])
    def test_a_root_on_a_half_way_point_rounds_half_even(self, root, rounded):
        square = EXACT.multiply(Decimal(root), Decimal(root))
        assert nth_root(square, 2).as_tuple() == Decimal(rounded).as_tuple()

    @settings(max_examples=500, deadline=None)
    @given(value=root_values, n=st.sampled_from(ROOT_ORDERS))
    def test_matches_the_newton_oracle(self, value, n):
        assert nth_root(value, n).as_tuple() == reference_nth_root(value, n).as_tuple()

    def test_matches_the_newton_oracle_on_a_seeded_sweep(self):
        rng = random.Random(2026)
        for _ in range(10_000):
            value, n = sweep_value(rng), rng.choice(ROOT_ORDERS)
            assert nth_root(value, n).as_tuple() == reference_nth_root(value, n).as_tuple(), (value, n)


class TestReadCsvTable:
    HEADER = ["name", "count"]

    @staticmethod
    def build(row: dict) -> tuple[str, int]:
        return row["name"].strip(), int(row["count"].strip())

    def test_rows_in_order(self):
        text = "name,count\na,1\nb, 2\n"
        assert read_csv_table(text, "tally", self.HEADER, self.build) == [("a", 1), ("b", 2)]

    def test_header_only_is_an_empty_table(self):
        assert read_csv_table("name,count\n", "tally", self.HEADER, self.build) == []

    def test_rows_are_keyed_by_the_expected_names_when_the_header_is_padded(self):
        text = " name , count\na,1\n"
        assert read_csv_table(text, "tally", self.HEADER, self.build) == [("a", 1)]

    @pytest.mark.parametrize("text, message", [
        ("", "tally CSV must have header 'name,count', got None"),
        ("count,name\n1,a\n", "tally CSV must have header 'name,count', got ['count', 'name']"),
        ("name,count,extra\n", "tally CSV must have header 'name,count', got ['name', 'count', 'extra']"),
        ("name,count\na,1\nb,x\n", "tally CSV line 3: invalid literal for int() with base 10: 'x'"),
        ("name,count\na\n", "tally CSV line 2: 'NoneType' object has no attribute 'strip'"),
        ("name,count\na,1\n\nb,x\n", "tally CSV line 4: invalid literal for int() with base 10: 'x'"),
    ])
    def test_rejections(self, text, message):
        with pytest.raises(DomainError) as err:
            read_csv_table(text, "tally", self.HEADER, self.build)
        assert str(err.value) == message

    @pytest.mark.parametrize("error", [DomainError("bad row"), ValueError("bad row"),
                                       AttributeError("bad row")])
    def test_wraps_the_row_errors_it_names(self, error):
        def build(row):
            raise error
        with pytest.raises(DomainError, match="^tally CSV line 2: bad row$") as err:
            read_csv_table("name,count\na,1\n", "tally", self.HEADER, build)
        assert err.value.__cause__ is error

    def test_other_errors_pass_through(self):
        def build(row):
            raise KeyError("name")
        with pytest.raises(KeyError):
            read_csv_table("name,count\na,1\n", "tally", self.HEADER, build)

