"""Reference computations written apart from the rsdm package.

Nothing here imports rsdm. Every oracle works on plain Python numbers:
``fractions.Fraction`` and ``int`` for exact arithmetic, and the JSON
documents / tuples the benchmark generates, never the package's own
types. The benchmark checks every program output against these.

Run ``python3 bench/oracles.py`` to check the oracles themselves
against hand-worked values; every benchmark run does the same before
it starts.
"""

from __future__ import annotations

import decimal
import itertools
import math
from decimal import Decimal
from fractions import Fraction

SETTLE_SCALE = 10**9  # the 9-decimal settlement grid

# Two primes used to fingerprint exact values too long to convert
# cheaply (a 50-year residual has ~90k digits; Decimal -> int costs
# ~0.3 s at that size, the fingerprint a few ms).
_PRIMES = (2**61 - 1, 2**89 - 1)
_EXACT_COMPARE_DIGITS = 400
_DIGIT_ASCII = bytes(range(48, 58)) + bytes(246)


# ---------------------------------------------------------------------------
# Settlement and exact decimals
# ---------------------------------------------------------------------------


def frac(value) -> Fraction:
    """Exact Fraction of a decimal string, int or Decimal."""
    return Fraction(value) if not isinstance(value, str) else Fraction(Decimal(value))


def settle_units(x: Fraction) -> int:
    """x on the 9-decimal grid, half-even, as an integer count of 1e-9."""
    q, r = divmod(x.numerator * SETTLE_SCALE, x.denominator)
    twice = 2 * r
    if twice > x.denominator or (twice == x.denominator and q % 2):
        q += 1
    return q


def settle(x: Fraction) -> Fraction:
    return Fraction(settle_units(x), SETTLE_SCALE)


def residual(theta: Fraction, weight: Fraction, days: int) -> Fraction:
    """Residual grams of one token: w * theta**n, exact."""
    return weight * theta**days


def redeem_payout(count: int, fee: Fraction, weight: Fraction, theta: Fraction, days: int) -> Fraction:
    """Settled grams paid for redeeming ``count`` tokens after ``days``."""
    return settle(count * (1 - fee) * residual(theta, weight, days))


def _decimal_settle_units(d: Decimal, digits: str) -> int:
    """Half-even rounding of d * 1e9 read straight from d's digit string."""
    exp = d.as_tuple().exponent + 9
    if exp >= 0:
        units = int(digits) * 10**exp
    else:
        cut = len(digits) + exp
        head = int(digits[:cut]) if cut > 0 else 0
        tail = digits[max(cut, 0):].rjust(-exp, "0")
        half = "5" + "0" * (len(tail) - 1)
        if tail > half or (tail == half and head % 2):
            head += 1
        units = head
    return -units if d.is_signed() else units


def _digit_string(d: Decimal) -> str:
    return bytes(d.as_tuple().digits).translate(_DIGIT_ASCII).decode("ascii")


def _residue(digits: str, exponent: int, negative: bool, p: int) -> int:
    m = 0
    for i in range(0, len(digits), 4000):
        chunk = digits[i : i + 4000]
        m = (m * pow(10, len(chunk), p) + int(chunk)) % p
    if negative:
        m = -m
    return m * pow(10, exponent, p) % p


def decimal_equals(d: Decimal, x: Fraction) -> bool:
    """Is the finite Decimal d exactly equal to x?

    Short values compare as Fractions. Long ones compare their settled
    9-decimal value (read from d's digits) and their residues modulo two
    large primes; a wrong value passes only if it agrees with x on the
    grid and modulo both primes.
    """
    if not d.is_finite():
        return False
    digits = _digit_string(d)
    if len(digits) <= _EXACT_COMPARE_DIGITS:
        return Fraction(d) == x
    if _decimal_settle_units(d, digits) != settle_units(x):
        return False
    exponent = d.as_tuple().exponent
    for p in _PRIMES:
        want = x.numerator % p * pow(x.denominator % p, -1, p) % p
        if _residue(digits, exponent, d.is_signed(), p) != want:
            return False
    return True


# ---------------------------------------------------------------------------
# Ledger mirror
# ---------------------------------------------------------------------------


class SeriesTerms:
    """A series' terms as exact Fractions (from the generator's JSON spec)."""

    def __init__(self, spec_doc: dict, issue_day: int):
        self.theta = frac(spec_doc["daily_decay_factor"])
        self.weight = frac(spec_doc["initial_weight_g"])
        self.fee = frac(spec_doc["redemption_fee_rate"])
        self.expiry = int(spec_doc["expiry_days"])
        self.collateral = spec_doc["collateral_id"]
        self.issue_day = issue_day


class BookMirror:
    """Token counts per (party, series) and a Fraction mirror of each
    series' vault, payouts and issuer accrual."""

    def __init__(self):
        self.terms: dict[str, SeriesTerms] = {}
        self.balances: dict[tuple[str, str], int] = {}
        self.vault: dict[str, Fraction] = {}
        self.payouts: dict[str, Fraction] = {}
        self.accrual: dict[str, Fraction] = {}
        self.issued: dict[str, int] = {}
        self.last_sequence = 0

    def balance(self, party: str, series: str) -> int:
        return self.balances.get((party, series), 0)

    def issue(self, series: str, party: str, count: int) -> None:
        key = (party, series)
        self.balances[key] = self.balances.get(key, 0) + count
        self.vault[series] = self.vault.get(series, Fraction(0)) + count * self.terms[series].weight
        self.issued[series] = self.issued.get(series, 0) + count
        self.last_sequence += 1

    def transfer(self, series: str, party: str, counterparty: str, count: int) -> None:
        self.balances[(party, series)] -= count
        key = (counterparty, series)
        self.balances[key] = self.balances.get(key, 0) + count
        self.last_sequence += 1

    def redeem_payout(self, series: str, count: int, day: int) -> Fraction:
        t = self.terms[series]
        return redeem_payout(count, t.fee, t.weight, t.theta, day - t.issue_day)

    def redeem(self, series: str, party: str, count: int, payout: Fraction) -> None:
        self.balances[(party, series)] -= count
        self.vault[series] -= payout
        self.payouts[series] = self.payouts.get(series, Fraction(0)) + payout
        face = count * self.terms[series].weight
        self.accrual[series] = self.accrual.get(series, Fraction(0)) + face - payout
        self.last_sequence += 1

    def holdings(self, party: str) -> dict[str, int]:
        return {s: n for (p, s), n in self.balances.items() if p == party and n > 0}

    def valuation(self, party: str, day: int, prices: dict[str, Fraction]) -> dict:
        """Expected valuation: per series (residual_g, redeemable_g,
        residual_value, redeemable_value) or None when expired, and the
        two totals."""
        rows = {}
        total_res = total_red = Fraction(0)
        for series, count in self.holdings(party).items():
            t = self.terms[series]
            elapsed = day - t.issue_day
            if elapsed > t.expiry:
                rows[series] = None
                continue
            res_g = count * residual(t.theta, t.weight, elapsed)
            red_g = (1 - t.fee) * res_g
            price = prices[t.collateral]
            rows[series] = (res_g, red_g, res_g * price, red_g * price)
            total_res += res_g * price
            total_red += red_g * price
        return {"rows": rows, "total_residual": total_res, "total_redeemable": total_red}


# ---------------------------------------------------------------------------
# Currency selection
# ---------------------------------------------------------------------------


class SelectionModel:
    """An MSP instance document as integers over one common denominator.

    Coverage sums, weighted sums, thresholds and the penalty are exact
    integers counting 1/scale units, so brute force stays cheap.
    """

    def __init__(self, doc: dict):
        self.doc = doc
        fids = [f["id"] for f in doc["functions"]]
        weights = [frac(f.get("weight", "1")) for f in doc["functions"]]
        thresholds = [frac(f.get("threshold", "0")) for f in doc["functions"]]
        coverage = [
            [frac(c.get("coverage", {}).get(fid, "0")) for fid in fids] for c in doc["currencies"]
        ]
        penalty = frac(doc.get("balance_penalty", "0"))
        values = [penalty, *thresholds, *(w * u for row in coverage for w, u in zip(weights, row))]
        values += [u for row in coverage for u in row]
        self.scale = math.lcm(1, *(v.denominator for v in values))
        s = self.scale
        self.fids = fids
        self.ids = [c["id"] for c in doc["currencies"]]
        self.mandatory = [i for i, c in enumerate(doc["currencies"]) if c.get("mandatory")]
        self.max_parallel = int(doc["max_parallel"])
        self.penalty = int(penalty * s)
        self.thresholds = [int(t * s) for t in thresholds]
        self.raw = [[int(u * s) for u in row] for row in coverage]
        self.weighted = [[int(w * u * s) for w, u in zip(weights, row)] for row in coverage]

    def sums(self, chosen) -> tuple[list[int], list[int]]:
        nf = len(self.fids)
        raw = [0] * nf
        weighted = [0] * nf
        for i in chosen:
            ri, wi = self.raw[i], self.weighted[i]
            for k in range(nf):
                raw[k] += ri[k]
                weighted[k] += wi[k]
        return raw, weighted

    def feasible(self, chosen) -> bool:
        chosen = set(chosen)
        if len(chosen) > self.max_parallel or not set(self.mandatory) <= chosen:
            return False
        raw, _ = self.sums(chosen)
        return all(r >= t for r, t in zip(raw, self.thresholds))

    def objective(self, chosen, saturating: bool) -> int:
        _, weighted = self.sums(chosen)
        if saturating:
            total = sum(min(self.scale, w) for w in weighted)
        else:
            total = sum(weighted)
        return total - self.penalty * len(set(chosen))

    def as_fraction(self, units: int) -> Fraction:
        return Fraction(units, self.scale)

    def key(self, chosen) -> tuple[str, ...]:
        return tuple(sorted(self.ids[i] for i in chosen))


def msp_brute_force(model: SelectionModel, saturating: bool):
    """Best selection over every subset (itertools.combinations):
    highest objective, ties to the lexicographically smallest sorted id
    tuple. Returns (ids, objective Fraction, raw sums) or None."""
    mandatory = model.mandatory
    optional = [i for i in range(len(model.ids)) if i not in set(mandatory)]
    best = None
    for size in range(len(mandatory), model.max_parallel + 1):
        for extra in itertools.combinations(optional, size - len(mandatory)):
            chosen = (*mandatory, *extra)
            if not model.feasible(chosen):
                continue
            obj = model.objective(chosen, saturating)
            key = model.key(chosen)
            if best is None or obj > best[1] or (obj == best[1] and key < best[0]):
                best = (key, obj, chosen)
    if best is None:
        return None
    raw, _ = model.sums(best[2])
    return best[0], model.as_fraction(best[1]), [model.as_fraction(r) for r in raw]


def msp_local_check(model: SelectionModel, ids: tuple[str, ...], saturating: bool) -> str | None:
    """Check a claimed optimum on a pool too large to enumerate.

    The selection must be feasible, and no single add, drop or swap
    may give a feasible selection with a strictly higher objective.
    Returns a description of the first problem, or None.
    """
    index = {cid: i for i, cid in enumerate(model.ids)}
    chosen = {index[c] for c in ids}
    if not model.feasible(chosen):
        return f"selection {ids} is infeasible"
    obj = model.objective(chosen, saturating)
    outside = [i for i in range(len(model.ids)) if i not in chosen]
    removable = [i for i in chosen if i not in set(model.mandatory)]
    neighbours = [chosen | {j} for j in outside]
    neighbours += [chosen - {i} for i in removable]
    neighbours += [(chosen - {i}) | {j} for i in removable for j in outside]
    for cand in neighbours:
        if model.feasible(cand) and model.objective(cand, saturating) > obj:
            return f"neighbour {model.key(cand)} beats {ids}"
    return None


# ---------------------------------------------------------------------------
# Issuer solvency
# ---------------------------------------------------------------------------


def solvency_sweep(records, fee_of, rate: Fraction, horizon: int):
    """Difference-array replay of cumulative fee income and storage cost.

    ``records`` are (token_count, purchase_day, redemption_day or None);
    ``fee_of(purchase_day)`` is the per-token fee. Storage accrues one
    rate per token for each day d with purchase < d <= redemption.
    Returns [(day, profit, cost, bankrupt)] and the first bankrupt day.
    """
    start = min(p for _, p, _ in records)
    span = horizon - start + 2
    income = [Fraction(0)] * span
    slope = [0] * span
    for count, purchase, redemption in records:
        income[purchase - start] += fee_of(purchase) * count
        slope[purchase - start + 1] += count
        if redemption is not None and redemption + 1 - start < span:
            slope[redemption + 1 - start] -= count
    points = []
    first = None
    profit = Fraction(0)
    token_days = 0
    active = 0
    for offset in range(horizon - start + 1):
        profit += income[offset]
        active += slope[offset]
        token_days += active
        cost = rate * token_days
        bankrupt = profit < cost
        if bankrupt and first is None:
            first = start + offset
        points.append((start + offset, profit, cost, bankrupt))
    return points, first


# ---------------------------------------------------------------------------
# Demand equilibrium
# ---------------------------------------------------------------------------

DEMAND_FIELDS = (
    "marshallian_k", "gdp", "fiat_multiplier", "sdm_multiplier",
    "fiat_reserve", "sdm_reserve", "other_supply",
)


def demand_gap(doc: dict, unknown: str, value: Fraction) -> tuple[Fraction, Fraction]:
    """Substitute ``value`` for ``unknown`` and return (supply - demand,
    the largest term), both exact."""
    v = {name: frac(doc[name]) for name in DEMAND_FIELDS}
    v[unknown] = value
    terms = (
        v["fiat_multiplier"] * v["fiat_reserve"],
        v["sdm_multiplier"] * v["sdm_reserve"],
        v["other_supply"],
        v["marshallian_k"] * v["gdp"],
    )
    return terms[0] + terms[1] + terms[2] - terms[3], max(abs(t) for t in terms)


def demand_coefficient(doc: dict, unknown: str) -> Fraction:
    """d(supply - demand)/d(unknown): how far a rounding of the unknown
    moves the gap."""
    return {
        "fiat_reserve": frac(doc["fiat_multiplier"]),
        "sdm_reserve": frac(doc["sdm_multiplier"]),
        "other_supply": Fraction(1),
        "marshallian_k": -frac(doc["gdp"]),
    }[unknown]


# ---------------------------------------------------------------------------
# Hand-worked checks of the oracles themselves
# ---------------------------------------------------------------------------

EUROZONE = {
    "functions": [{"id": f"F{k}", "weight": "1", "threshold": "0.5"} for k in range(1, 13)],
    "currencies": [
        {"id": "EUR", "mandatory": True, "coverage": dict(zip(
            [f"F{k}" for k in range(1, 13)],
            ["1.0", "1.0", "1.0", "0.2", "0.9", "0.95", "1.0", "0.9", "0.5", "1.0", "0.1", "0.9"]))},
        {"id": "XAU_RSDM", "mandatory": False, "coverage": dict(zip(
            [f"F{k}" for k in range(1, 13)],
            ["0.7", "0.8", "0.9", "1.0", "0.8", "0.95", "1.0", "0.3", "0.9", "0.6", "1.0", "0.9"]))},
    ],
    "max_parallel": 2,
    "balance_penalty": "0.1",
}


def self_test() -> list[str]:
    """Check each oracle against values worked by hand; return failures."""
    failures = []

    def expect(cond: bool, what: str) -> None:
        if not cond:
            failures.append(what)

    # 0.99996**365 = 1 - 365(4e-5) + C(365,2)(4e-5)^2 - C(365,3)(4e-5)^3 + ...
    #             = 1 - 0.0146 + 0.000106288 - 0.00000051443 + 0.0000000019 ...
    #             = 0.98550577542..., so 0.985505775 on the 9-decimal grid.
    theta = Fraction("0.99996")
    expect(settle(residual(theta, Fraction(1), 365)) == Fraction("0.985505775"),
           "0.99996^365 settles to 0.985505775")
    # 1000 tokens, 0.3% fee, 1 day: 1000 * 0.997 * 0.99996 = 996.96012
    expect(redeem_payout(1000, Fraction("0.003"), Fraction(1), theta, 1) == Fraction("996.96012"),
           "1000-token payout after one day is 996.96012 g")
    # half-even: 0.0000000005 -> 0, 0.0000000015 -> 0.000000002
    expect(settle(Fraction(5, 10**10)) == 0 and settle(Fraction(15, 10**10)) == Fraction(2, 10**9),
           "settlement rounds half to even")
    # long exact values: fingerprint agrees with the value and rejects a neighbour
    exact = residual(theta, Fraction(1), 2000)
    wide = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
    d = wide.scaleb(Decimal(99996**2000), -5 * 2000)
    ulp = Decimal(1).scaleb(-5 * 2000)
    expect(decimal_equals(d, exact), "fingerprint accepts 0.99996^2000 exactly")
    expect(not decimal_equals(wide.add(d, ulp), exact), "fingerprint rejects a value one ulp away")
    # breakeven: fee 0.3, storage 0.01 per token-day; 0.3/0.01 = 30, so the
    # first day cost strictly exceeds income is day 31.
    _, first = solvency_sweep([(1, 0, None)], lambda p: Fraction("0.3"), Fraction("0.01"), 60)
    expect(first == 31, "breakeven for beta=0.3, alpha=0.01 is day 31")
    # eurozone: EUR is mandatory but misses F4 (0.2 < 0.5); the pair covers
    # all twelve functions. Linear 9.45 + 9.85 - 2(0.1) = 19.1; saturating
    # caps every function at 1: 12 - 0.2 = 11.8.
    model = SelectionModel(EUROZONE)
    lin = msp_brute_force(model, saturating=False)
    sat = msp_brute_force(model, saturating=True)
    expect(lin is not None and lin[0] == ("EUR", "XAU_RSDM") and lin[1] == Fraction("19.1"),
           "eurozone linear optimum is EUR+XAU_RSDM at 19.1")
    expect(sat is not None and sat[0] == ("EUR", "XAU_RSDM") and sat[1] == Fraction("11.8"),
           "eurozone saturating optimum is EUR+XAU_RSDM at 11.8")
    expect(not model.feasible([0]), "EUR alone is infeasible")
    # demand: K 0.7, GDP 120e12, multipliers 8 and 5, sdm reserve 4e12,
    # other 4e12: fiat reserve = (84e12 - 20e12 - 4e12) / 8 = 7.5e12.
    doc = {"marshallian_k": "0.7", "gdp": "120e12", "fiat_multiplier": "8",
           "sdm_multiplier": "5", "fiat_reserve": "0", "sdm_reserve": "4e12",
           "other_supply": "4e12"}
    gap, _ = demand_gap(doc, "fiat_reserve", Fraction("7.5e12"))
    expect(gap == 0, "demand: fiat reserve 7.5e12 closes the gap")
    return failures


if __name__ == "__main__":
    problems = self_test()
    for p in problems:
        print(f"FAIL: {p}")
    print("oracle self-test:", "ok" if not problems else f"{len(problems)} failure(s)")
    raise SystemExit(1 if problems else 0)
