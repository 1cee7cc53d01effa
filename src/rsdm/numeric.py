"""Exact decimal arithmetic and the input parsers.

Conventions used across the package:

* All weights, prices and rates are ``decimal.Decimal``; floats are
  rejected at the boundary so binary rounding can never leak in. The
  boundary parsers live here: ``as_decimal`` and ``bounded_decimal``
  read one value, ``integer_violation`` and ``json_int`` check an
  ``int``, ``count_violation`` a token count, ``read_text`` reads a
  file and ``read_csv_table`` a CSV table.
* General-purpose arithmetic runs in a 34-significant-digit context
  with banker's rounding (ROUND_HALF_EVEN).
* Face-value decay uses *exact* arithmetic: addition, multiplication
  and integer powers run natively on ``Decimal`` in a context with
  libmpdec's largest precision and exponent range that traps any
  rounding, so no rounding happens until a settlement boundary.
* Settlement boundaries (payouts, ledger entries) round to 9 decimal
  places of grams, half-even.
* A redeem's settlement does not build the exact power: ``pow_bounds``
  brackets it between two short powers rounded down and up, and the
  exact value is needed only where the bracket's ends settle apart.
* ``nth_root`` is exp(ln(v)/n) with 10 guard digits, correctly rounded.
"""

from __future__ import annotations

import csv
import decimal
import io
from decimal import Decimal, localcontext
from typing import Callable

from rsdm.errors import DomainError

DEFAULT_PRECISION = 34
SETTLEMENT_DECIMALS = 9

#: Context for ordinary (non-exact) arithmetic: division, rate conversion.
#: Never mutated; code enters it through ``localcontext``, which copies it.
CONTEXT = decimal.Context(prec=DEFAULT_PRECISION, rounding=decimal.ROUND_HALF_EVEN)

#: Context for exact arithmetic (decay here, every msp sum and product):
#: results never round, and if one would, the trap raises instead of
#: rounding silently. Never mutated, like ``CONTEXT``.
EXACT = decimal.Context(
    prec=decimal.MAX_PREC,
    Emax=decimal.MAX_EMAX,
    Emin=decimal.MIN_EMIN,
    traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation, decimal.Overflow],
)

_SETTLEMENT_QUANTUM = Decimal(1).scaleb(-SETTLEMENT_DECIMALS)
_HALF = Decimal("0.5")
_ROOT_ERROR = Decimal("1E-42")  # see nth_root


def as_decimal(value: str | int | Decimal) -> Decimal:
    """Parse *value* into a finite Decimal without touching binary floats.

    Accepts str, int, and Decimal. Floats raise DomainError: they carry
    binary rounding error invisible to the caller.
    """
    if isinstance(value, Decimal):
        result = value
    elif isinstance(value, bool):
        raise DomainError(f"cannot interpret {value!r} as a decimal")
    elif isinstance(value, int):
        result = Decimal(value)
    elif isinstance(value, float):
        raise DomainError(
            f"refusing float {value!r}: pass a string to preserve decimal precision"
        )
    elif isinstance(value, str):
        try:
            result = Decimal(value)
        except decimal.InvalidOperation as exc:
            raise DomainError(f"not a decimal number: {value!r}") from exc
    else:
        raise DomainError(f"cannot interpret {value!r} as a decimal")
    if not result.is_finite():
        raise DomainError(f"decimal value must be finite, got {result}")
    return result


def bound_violation(name: str, value: Decimal) -> str | None:
    """The complaint against *value* if it is too wide for the exact
    path, else None. The exact path aligns exponents, so one value like
    1E+999999999 would build a coefficient of 10^9 digits."""
    # ``str`` spells out every coefficient digit, so a short string spares
    # building the digit tuple, which costs more than the rest of the check
    if abs(value.adjusted()) > DEFAULT_PRECISION or (
            len(str(value)) > DEFAULT_PRECISION and len(value.as_tuple().digits) > DEFAULT_PRECISION):
        return (f"{name} must have at most {DEFAULT_PRECISION} digits and an "
                f"adjusted exponent within ±{DEFAULT_PRECISION}")
    return None


#: Token counts, and the tokens issued of a series, stop below 10^34,
#: the width rule's digit count, so the exact amounts they scale stay
#: short. Callers raise ``count_violation``'s complaint, or for a total
#: ``count_too_wide``'s, in their own error class.
COUNT_LIMIT = 10**DEFAULT_PRECISION


def count_too_wide(name: str) -> str:
    """The complaint against an integer *name* of ``COUNT_LIMIT`` or more."""
    return f"{name} must have at most {DEFAULT_PRECISION} digits"


def integer_violation(name: str, value: object) -> str | None:
    """The complaint against *value* if its type is not exactly ``int`` (so a bool is refused), else None."""
    kind = type(value)
    return None if kind is int else f"{name} must be an integer, got {kind.__name__}"


def json_int(value: object, field: str) -> int:
    """A JSON integer field, never converted on the way (``int()`` reads 1.5 as 1):
    TypeError with ``integer_violation``'s complaint if it is not an ``int``."""
    if problem := integer_violation(field, value):
        raise TypeError(problem)
    return value


def count_violation(name: str, count: object) -> str | None:
    """The first complaint against a token *count* (not an integer, a bool
    included; not positive; ``COUNT_LIMIT`` or more), else None."""
    if problem := integer_violation(name, count):
        return problem
    if count <= 0:
        return f"{name} must be positive, got {count}"
    return count_too_wide(name) if count >= COUNT_LIMIT else None


def bounded_decimal(name: str, value: str | int | Decimal) -> Decimal:
    """*value* read by ``as_decimal``; DomainError if it breaks the width rule."""
    result = as_decimal(value)
    if problem := bound_violation(name, result):
        raise DomainError(problem)
    return result


def _unsigned_zero(value: Decimal) -> Decimal:
    """Drop the sign of a negative zero; every other value passes through."""
    return value if value else value.copy_abs()


def exact_mul(a: Decimal, b: Decimal) -> Decimal:
    """Multiply two finite decimals exactly (no context rounding)."""
    if a == 1:  # identity fast paths: the other operand keeps its exponent
        return b
    if b == 1:
        return a
    return _unsigned_zero(EXACT.multiply(a, b))


def exact_add(a: Decimal, b: Decimal) -> Decimal:
    """Add two finite decimals exactly (no context rounding)."""
    return _unsigned_zero(EXACT.add(a, b))


def exact_sub(a: Decimal, b: Decimal) -> Decimal:
    """Subtract b from a exactly (no context rounding)."""
    return _unsigned_zero(EXACT.subtract(a, b))


def exact_pow(base: Decimal, exponent: int) -> Decimal:
    """Raise a finite decimal to a nonnegative integer power, exactly.

    Left-to-right exponentiation by squaring in the exact context: the
    result is the mathematically exact value, however many digits it
    takes, and each step past a squaring multiplies by the short base
    only. A decay factor with a short mantissa stays cheap even for
    multi-decade day counts.
    """
    if integer_violation("exponent", exponent) or exponent < 0:
        raise DomainError("exact_pow requires a nonnegative integer exponent")
    return _unsigned_zero(_power(EXACT, base, exponent))


def pow_bounds(base: Decimal, exponent: int, digits: int) -> tuple[Decimal, Decimal]:
    """Bounds ``low <= base**exponent <= high`` for a positive base and a
    nonnegative integer exponent, each rounded to ``digits`` digits.

    The square-and-multiply chain of ``exact_pow`` runs once rounding the
    base and every product down, and once rounding them up. Every operand
    is positive, so the first chain stays at or below the power and the
    second at or above it. When the first chain rounds nothing, its value
    is the power itself and stands for both bounds. Each chain's relative
    error is at most about 2 * exponent * 10**(1 - digits).
    """
    if integer_violation("exponent", exponent) or exponent < 0:
        raise DomainError("pow_bounds requires a nonnegative integer exponent")
    ctx = decimal.Context(prec=digits, rounding=decimal.ROUND_FLOOR, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
    low = _power(ctx, base, exponent)
    if not ctx.flags[decimal.Inexact]:
        return low, low
    ctx.rounding = decimal.ROUND_CEILING
    return low, _power(ctx, base, exponent)


def _power(ctx: decimal.Context, base: Decimal, exponent: int) -> Decimal:
    """base**exponent for a nonnegative exponent by left-to-right
    square-and-multiply, the base and each product taken in ``ctx``."""
    multiply = ctx.multiply
    result = ctx.plus(base) if exponent else Decimal(1)
    for bit in bin(exponent)[3:]:
        result = multiply(result, result)
        if bit == "1":
            result = multiply(result, base)
    return result


def settle(value: Decimal) -> Decimal:
    """Round to the 9-decimal settlement grid, half-even.

    Applied only at settlement boundaries (payouts, ledger entries);
    everything upstream stays unrounded.
    """
    with localcontext(CONTEXT) as ctx:
        # integer digits, grid digits and one for a carry
        ctx.prec = max(DEFAULT_PRECISION, value.adjusted() + SETTLEMENT_DECIMALS + 2)
        return value.quantize(_SETTLEMENT_QUANTUM, rounding=decimal.ROUND_HALF_EVEN)


def nth_root(value: Decimal, n: int) -> Decimal:
    """Positive n-th root of a positive decimal, correctly rounded to the
    working precision: exp(ln(value)/n), with 10 guard digits past it,
    rounded into it once.

    ``ln``, the division and ``exp`` each round once, so the 44-digit
    value is within (|ln(value)/n| + 1) * 1E-43 of the root, relative.
    Where that bound (taken ten times wider) reaches a 34-digit half-way
    point, the half-way point's n-th power, computed exactly, decides
    which way the root rounds. The bound stays below half a 34-digit
    unit while |ln(value)/n| is below about 1E+7, which every value
    within the width rule of ``bound_violation`` meets.
    ``tests/test_numeric.py`` checks the result against Newton steps.
    """
    if integer_violation("root order", n) or n <= 0:
        raise DomainError("root order must be a positive integer")
    if value <= 0:
        raise DomainError(f"n-th root requires a positive value, got {value}")
    if value == 1:
        return Decimal(1)
    with localcontext(CONTEXT) as ctx:
        ctx.prec = DEFAULT_PRECISION + 10
        x = value.ln() / n
        y = x.exp()
        error = y * (abs(x) + 1) * _ROOT_ERROR
    with localcontext(CONTEXT) as ctx:
        ctx.rounding = decimal.ROUND_DOWN
        low = +y  # the 34-digit neighbours of y
        high = low.next_plus()
    half = EXACT.multiply(EXACT.add(low, high), _HALF)
    if EXACT.subtract(y, half).copy_abs() <= error:
        power = exact_pow(half, n)
        if power != value:
            return low if power > value else high
        y = half  # the root is the half-way point itself
    with localcontext(CONTEXT):
        return +y  # round back into the working precision


def read_text(path) -> str:
    """The text of the file at *path*, the one way an input file is read:
    DomainError naming *path* if it is not UTF-8, ``OSError`` if unreadable."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path} is not UTF-8 text: {exc}") from exc


def read_csv_table(text: str, what: str, header: list[str], build: Callable[[dict], object]) -> list:
    """The rows of a ``what`` CSV table whose first line is ``header``
    (spaces around a name ignored), each passed to ``build`` as a dict
    keyed by ``header`` (a missing cell is None). A DomainError,
    ValueError or AttributeError from ``build`` is re-raised as a
    DomainError naming the row's physical line in ``text`` (the header
    is line 1; blank lines are skipped but counted)."""
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames is None or [f.strip() for f in reader.fieldnames] != header:
        raise DomainError(f"{what} CSV must have header {','.join(header)!r}, got {reader.fieldnames}")
    reader.fieldnames = header
    rows = []
    for row in reader:
        try:
            rows.append(build(row))
        except (DomainError, ValueError, AttributeError) as exc:
            raise DomainError(f"{what} CSV line {reader.line_num}: {exc}") from exc
    return rows
