"""Shared test helpers: random instance/event generators and oracles."""

from __future__ import annotations

import random
from datetime import date
from decimal import Decimal
from fractions import Fraction
from itertools import combinations

import pytest

from rsdm import decay, msp


def make_random_instance(
    rng: random.Random, max_currencies: int = 15, n_functions: int = 12
) -> msp.MspInstance:
    """Random MSP instance with random mandatory sets and thresholds.

    Coverage scores use two decimal places, weights and thresholds one,
    so every objective sum is exact in the working precision.
    """
    n = rng.randint(2, max_currencies)
    functions = tuple(
        msp.MonetaryFunction(
            id=f"F{k + 1}",
            weight=Decimal(rng.randint(0, 20)) / 10,
            threshold=(Decimal(rng.randint(1, 12)) / 10 if rng.random() < 0.5 else Decimal(0)),
        )
        for k in range(n_functions)
    )
    max_parallel = rng.randint(1, min(6, n))
    mandatory_ids = set(
        rng.sample(range(n), rng.randint(0, max_parallel))
    )
    classes = list(msp.CurrencyClass)
    currencies = [
        msp.CurrencyCandidate(
            id=f"C{i:02d}",
            currency_class=rng.choice(classes),
            coverage={
                f.id: Decimal(rng.randint(0, 100)) / 100
                for f in functions
                if rng.random() < 0.85
            },
            mandatory=i in mandatory_ids,
        )
        for i in range(n)
    ]
    rng.shuffle(currencies)
    return msp.MspInstance(
        functions=functions,
        currencies=tuple(currencies),
        max_parallel=max_parallel,
        balance_penalty=Decimal(rng.randint(0, 30)) / 100,
    )


def brute_force_optimum(instance: msp.MspInstance, evaluate) -> tuple[Decimal, tuple[str, ...]] | None:
    """Oracle outside the solvers' search: enumerate every subset with
    itertools, keep those ``msp.check_feasible`` accepts, and return the
    best (objective, sorted ids) under ``evaluate`` (higher objective,
    then the smaller id tuple), or None when no subset is feasible."""
    ids = sorted(c.id for c in instance.currencies)
    best = None
    for r in range(len(ids) + 1):
        for combo in combinations(ids, r):
            if not msp.check_feasible(instance, combo).feasible:
                continue
            obj = evaluate(instance, combo)
            if best is None or obj > best[0] or (obj == best[0] and combo < best[1]):
                best = (obj, combo)
    return best


def fraction_residual(theta: Decimal, elapsed: int, weight: Decimal) -> Fraction:
    """Independent residual-weight oracle in exact rational arithmetic."""
    return Fraction(weight) * Fraction(theta) ** elapsed


def make_series_pool() -> list[tuple[str, decay.RsdmSpec]]:
    """Small pool of series with distinct decay/fee profiles.

    Minimum redemption is 1 g so randomized event mixes can redeem in
    small lots.
    """
    base = date(1970, 1, 1)
    return [
        (
            "AU_STD",
            decay.RsdmSpec(base, "XAU", Decimal("1"), Decimal("0.99996"), 36500,
                           Decimal("0.003"), min_redemption_grams=Decimal("1")),
        ),
        (
            "AG_FAST",
            decay.RsdmSpec(base, "XAG", Decimal("10"), Decimal("0.9999"), 36500,
                           Decimal("0.01"), min_redemption_grams=Decimal("1")),
        ),
        (
            "AU_NODECAY",
            decay.RsdmSpec(base, "XAU", Decimal("1"), Decimal("1"), 36500,
                           Decimal("0.005"), min_redemption_grams=Decimal("1")),
        ),
    ]


def check_result_record(record, field_names: tuple[str, ...], text: str, hashable: bool = True) -> None:
    """A record that only carries a result is a named tuple: these
    fields in this order, immutable, hashable unless ``hashable`` is
    false (a field holds a dict), equal to the plain tuple of its
    fields, and printed as ``text``."""
    assert issubclass(type(record), tuple)
    assert type(record)._fields == field_names
    for name in field_names:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    if hashable:
        hash(record)
    else:
        with pytest.raises(TypeError):
            hash(record)
    assert record == tuple(record)
    assert repr(record) == text
