"""Exact solvers for selecting currencies in a multi-monetary system.

The selection problem: from a pool of candidate currencies, each scored
in [0, 1] on how well it covers each monetary function, pick at most
``max_parallel`` currencies that maximize total weighted coverage minus
a per-currency balance penalty, subject to per-function minimum-score
thresholds and mandatory inclusions (e.g. the domestic fiat). Decision
variables are 0-1 per currency.

Two objectives are supported:

* linear: sum over selected currencies of their weighted coverage,
  minus penalty * selection size;
* saturating: per function, the weighted coverage sum is capped at 1
  before summing (adding a second currency that duplicates an already
  fully covered function earns nothing).

Every question about a given selection (both objectives, the raw
scores, the feasibility check, the coverage report, a solver's numbers)
reads one coverage tally of its per-function sums. No sum or product
rounds, so a number does not depend on the order of addition, and the
solvers, the queries and ``check_feasible`` agree on every threshold and
objective comparison: the queries and a solver's reported numbers run
in ``numeric.EXACT``, and the search runs on the exact integers of
``_integer_rows``, each value a numerator over a common denominator.

One include-first depth-first search, ``_walk``'s loop over an explicit
stack, sits behind the three solvers: ``solve_exhaustive`` is its
unbounded walk, the subset-enumeration oracle, while
``solve_branch_and_bound`` (linear) and ``solve_saturating`` also cut on
an objective bound. Every walk takes the mandatory candidates first and
only includes them, so they are decided on the one chain from the root,
before any incumbent exists: no bound, tie cut or last-pick scoring ever
sees one. A node with at most one pick left then scores its completions
at once: stopping there, or picking one remaining candidate. Among
equal-objective optima the lexicographically smallest sorted id tuple
wins, so results are schedule-independent; the bounded solvers drop a
node whose bound ties the incumbent once no completion can reach a
smaller id tuple.

An instance checks, once, when it is built, the invariants the cuts and
sums rely on (nonnegative weights and penalty, coverage in [0, 1], a
nonempty pool, a positive integer cardinality bound, and weights,
thresholds, coverage and penalty within the width rule of
``numeric.bound_violation``, which keeps exact sums and common
denominators short) and raises SchemaError if one is broken, so no
solver or query re-checks it.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from decimal import Decimal, localcontext
from enum import Enum
from itertools import accumulate
from math import lcm
from operator import add, gt, mul, sub
from typing import Iterable, Mapping, NamedTuple, Sequence

from rsdm.errors import DomainError, SchemaError, SizeGuardError
from rsdm.numeric import EXACT, as_decimal, bound_violation

EXHAUSTIVE_POOL_LIMIT = 25

_ONE = Decimal(1)
_ZERO = Decimal(0)


class CurrencyClass(Enum):
    FIAT = "Fiat"
    COMMODITY = "Commodity"
    CRYPTO = "Crypto"
    RSDM = "RSDM"
    OTHER = "Other"


class ObjectiveKind(Enum):
    LINEAR = "linear"
    SATURATING = "saturating"


@dataclass(frozen=True)
class MonetaryFunction:
    """One function money should provide, with its importance weight and
    the minimum combined score the selected system must reach."""

    id: str
    weight: Decimal = _ONE
    threshold: Decimal = _ZERO

    def __post_init__(self) -> None:
        object.__setattr__(self, "weight", as_decimal(self.weight))
        object.__setattr__(self, "threshold", as_decimal(self.threshold))


@dataclass(frozen=True)
class CurrencyCandidate:
    """A candidate general equivalent with per-function coverage scores.

    Missing coverage entries count as zero. ``mandatory`` forces the
    candidate into every feasible selection.
    """

    id: str
    currency_class: CurrencyClass
    coverage: Mapping[str, Decimal]
    mandatory: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "coverage", {k: as_decimal(v) for k, v in dict(self.coverage).items()}
        )

    def score(self, function_id: str) -> Decimal:
        return self.coverage.get(function_id, _ZERO)


@dataclass(frozen=True)
class MspInstance:
    """A selection problem, valid by construction: building one that
    breaks an invariant the solvers rely on raises SchemaError listing
    every violation with its JSON-pointer path."""

    functions: tuple[MonetaryFunction, ...]
    currencies: tuple[CurrencyCandidate, ...]
    max_parallel: int
    balance_penalty: Decimal = _ZERO

    def __post_init__(self) -> None:
        object.__setattr__(self, "functions", tuple(self.functions))
        object.__setattr__(self, "currencies", tuple(self.currencies))
        object.__setattr__(self, "balance_penalty", as_decimal(self.balance_penalty))
        if problems := _invariant_violations(self):
            raise SchemaError(problems)

    def currency(self, currency_id: str) -> CurrencyCandidate:
        for c in self.currencies:
            if c.id == currency_id:
                return c
        raise DomainError(f"unknown currency id {currency_id!r}")


class MspSolution(NamedTuple):
    selection: tuple[str, ...]  # sorted currency ids
    objective: Decimal
    objective_kind: ObjectiveKind
    per_function_score: dict[str, Decimal]  # raw coverage sums


class Infeasible(NamedTuple):
    """First-class result: no selection satisfies the constraints."""

    reasons: tuple[str, ...]


class FeasibilityVerdict(NamedTuple):
    feasible: bool
    violations: tuple[str, ...]


class FunctionCoverage(NamedTuple):
    function_id: str
    achieved: Decimal  # raw coverage sum over the selection
    threshold: Decimal
    saturated_value: Decimal  # min(1, weighted coverage sum)
    covered: bool  # achieved >= threshold


class CoverageReport(NamedTuple):
    rows: tuple[FunctionCoverage, ...]
    all_covered: bool


def default_function_catalog(
    weight: Decimal | str | int = _ONE, threshold: Decimal | str | int = _ZERO
) -> tuple[MonetaryFunction, ...]:
    """The twelve-function catalog of what internet-era good money must
    provide, from unit of account through counterfeit resistance. The
    catalog is configurable: callers may extend or replace it."""
    ids = [
        "F1_unit_of_account",
        "F2_medium_of_exchange",
        "F3_means_of_payment",
        "F4_store_of_value",
        "F5_hoarding_resistance",
        "F6_low_logistics_cost",
        "F7_no_circulation_wear",
        "F8_supply_tracks_gdp",
        "F9_stable_purchasing_power",
        "F10_tax_money",
        "F11_overissue_resistance",
        "F12_counterfeit_resistance",
    ]
    w = as_decimal(weight)
    h = as_decimal(threshold)
    return tuple(MonetaryFunction(i, w, h) for i in ids)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def validate_instance(instance: MspInstance) -> list[str]:
    """Certain-infeasibility warnings, each prefixed with a JSON-pointer
    path into the instance document: thresholds the whole pool cannot
    reach. They are warnings because such an instance still reaches the
    solvers, which answer Infeasible; the invariants were checked when
    the instance was built."""
    pool = _Tally(instance, instance.currencies).raw()
    return [
        f"warning: /functions/{i}/threshold: threshold {f.threshold} "
        f"unreachable (total coverage across the pool is {total})"
        for i, (f, total) in enumerate(zip(instance.functions, pool))
        if total < f.threshold
    ]


def _invariant_violations(instance: MspInstance) -> list[str]:
    """The invariants every solver relies on, as JSON-pointer messages."""
    problems = []
    if len(instance.functions) < 1:
        problems.append("/functions: at least one monetary function is required")
    if len(instance.currencies) < 1:
        problems.append("/currencies: at least one currency candidate is required")
    integral = type(instance.max_parallel) is int
    if not integral:
        problems.append("/max_parallel: expected an integer")
    elif instance.max_parallel < 1:
        problems.append("/max_parallel: must be a positive integer")
    if instance.balance_penalty < 0:
        problems.append("/balance_penalty: must be nonnegative")
    if problem := bound_violation("balance_penalty", instance.balance_penalty):
        problems.append(f"/balance_penalty: {problem}")

    seen_functions = set()
    for i, f in enumerate(instance.functions):
        if f.id in seen_functions:
            problems.append(f"/functions/{i}/id: duplicate function id {f.id!r}")
        seen_functions.add(f.id)
        for name, value in (("weight", f.weight), ("threshold", f.threshold)):
            if value < 0:
                problems.append(f"/functions/{i}/{name}: {name} must be nonnegative")
            if problem := bound_violation(name, value):
                problems.append(f"/functions/{i}/{name}: {problem}")

    seen_currencies = set()
    mandatory_count = 0
    for i, c in enumerate(instance.currencies):
        if c.id in seen_currencies:
            problems.append(f"/currencies/{i}/id: duplicate currency id {c.id!r}")
        seen_currencies.add(c.id)
        mandatory_count += c.mandatory
        for fid, u in c.coverage.items():
            if fid not in seen_functions:
                problems.append(
                    f"/currencies/{i}/coverage/{fid}: unknown function id {fid!r}"
                )
            if not (_ZERO <= u <= _ONE):
                problems.append(
                    f"/currencies/{i}/coverage/{fid}: coverage must lie in [0, 1]"
                )
            if problem := bound_violation("coverage", u):
                problems.append(f"/currencies/{i}/coverage/{fid}: {problem}")

    if integral and mandatory_count > instance.max_parallel:
        problems.append(
            f"/max_parallel: {mandatory_count} mandatory currencies exceed the "
            f"cardinality bound {instance.max_parallel}"
        )
    return problems


# ---------------------------------------------------------------------------
# Queries on a selection
# ---------------------------------------------------------------------------


def _chosen(
    instance: MspInstance, selection: Iterable[str]
) -> tuple[set[str], list[CurrencyCandidate]]:
    """The distinct selected ids and the candidates they name, in pool
    order; raises DomainError naming every unknown id."""
    sel = set(selection)
    chosen = [c for c in instance.currencies if c.id in sel]
    unknown = sel.difference(c.id for c in chosen)
    if unknown:
        raise DomainError(f"unknown currency ids in selection: {sorted(unknown)}")
    return sel, chosen


class _Tally:
    """The chosen candidates' scores, each read once, in one column per
    function (catalog order) in the candidates' order. Sums are exact; a
    query computes only the sums it reads."""

    def __init__(self, instance: MspInstance, chosen: Sequence[CurrencyCandidate]) -> None:
        self.weights = [f.weight for f in instance.functions]
        self.columns = [[c.score(f.id) for c in chosen] for f in instance.functions]

    def raw(self) -> list[Decimal]:
        with localcontext(EXACT):
            return [sum(column, _ZERO) for column in self.columns]

    def weighted(self) -> list[Decimal]:
        with localcontext(EXACT):
            return [sum((w * u for u in column), _ZERO)
                    for w, column in zip(self.weights, self.columns)]


def _objective(
    instance: MspInstance, selection: Iterable[str], kind: ObjectiveKind
) -> tuple[Decimal, _Tally]:
    """The objective of *selection* (the penalty counts distinct ids) and its tally."""
    sel, chosen = _chosen(instance, selection)
    tally = _Tally(instance, chosen)
    with localcontext(EXACT):
        weighted = tally.weighted()
        if kind is ObjectiveKind.LINEAR:
            total = sum(weighted, _ZERO)
        else:
            total = sum((min(_ONE, w) for w in weighted), _ZERO)
        return total - instance.balance_penalty * len(sel), tally


def evaluate_linear_objective(instance: MspInstance, selection: Iterable[str]) -> Decimal:
    """Weighted coverage summed over the selection, minus
    balance_penalty * selection size."""
    return _objective(instance, selection, ObjectiveKind.LINEAR)[0]


def evaluate_saturating_objective(instance: MspInstance, selection: Iterable[str]) -> Decimal:
    """Per-function weighted coverage capped at 1, summed, minus
    balance_penalty * selection size."""
    return _objective(instance, selection, ObjectiveKind.SATURATING)[0]


def raw_function_scores(instance: MspInstance, selection: Iterable[str]) -> dict[str, Decimal]:
    """Unweighted coverage sum per function over the selection (the
    quantity the per-function thresholds constrain)."""
    raw = _Tally(instance, _chosen(instance, selection)[1]).raw()
    return {f.id: total for f, total in zip(instance.functions, raw)}


def check_feasible(instance: MspInstance, selection: Iterable[str]) -> FeasibilityVerdict:
    """List every violated constraint: cardinality, per-function
    threshold (on raw coverage sums), and mandatory inclusion."""
    sel, chosen = _chosen(instance, selection)
    violations = []
    if len(sel) > instance.max_parallel:
        violations.append(
            f"cardinality: {len(sel)} currencies selected, at most "
            f"{instance.max_parallel} may circulate in parallel"
        )
    for f, achieved in zip(instance.functions, _Tally(instance, chosen).raw()):
        if achieved < f.threshold:
            violations.append(f"threshold {f.id}: achieved {achieved}, required {f.threshold}")
    for c in instance.currencies:
        if c.mandatory and c.id not in sel:
            violations.append(f"mandatory: {c.id} must be included in the monetary system")
    return FeasibilityVerdict(feasible=not violations, violations=tuple(violations))


def coverage_report(instance: MspInstance, selection: Iterable[str]) -> CoverageReport:
    """Per-function coverage of a selection: raw achieved sum vs its
    threshold, the saturated weighted value, and whether the union of
    the selected currencies covers the whole catalog."""
    tally = _Tally(instance, _chosen(instance, selection)[1])
    rows = tuple(
        FunctionCoverage(
            function_id=f.id,
            achieved=achieved,
            threshold=f.threshold,
            saturated_value=min(_ONE, w),
            covered=achieved >= f.threshold,
        )
        for f, achieved, w in zip(instance.functions, tally.raw(), tally.weighted())
    )
    return CoverageReport(rows=rows, all_covered=all(r.covered for r in rows))


# ---------------------------------------------------------------------------
# Solvers
# ---------------------------------------------------------------------------


def _infeasibility_reasons(instance: MspInstance) -> tuple[str, ...]:
    reasons = []
    pool = _Tally(instance, instance.currencies)
    with localcontext(EXACT):
        for f, column, total in zip(instance.functions, pool.columns, pool.raw()):
            top = sum(sorted(column, reverse=True)[: instance.max_parallel], _ZERO)
            if total < f.threshold:
                reasons.append(
                    f"threshold {f.id}: {f.threshold} unreachable even selecting "
                    f"every candidate (total coverage {total})"
                )
            elif top < f.threshold:
                reasons.append(
                    f"threshold {f.id}: {f.threshold} unreachable within the "
                    f"cardinality bound (best achievable {top})"
                )
    if not reasons:
        reasons.append("no subset satisfies all constraints simultaneously")
    return tuple(reasons)


def _solution(instance: MspInstance, selection: tuple[str, ...], kind: ObjectiveKind) -> MspSolution:
    objective, tally = _objective(instance, selection, kind)
    return MspSolution(
        selection=selection,
        objective=objective,
        objective_kind=kind,
        per_function_score={f.id: total for f, total in zip(instance.functions, tally.raw())},
    )


def _over(ratios: list[tuple[int, int]], denominator: int) -> list[int]:
    """The numerators of *ratios* over *denominator*, a common multiple
    of their denominators."""
    return [num * (denominator // den) for num, den in ratios]


def _precedes(a: int, b: int) -> bool:
    """Whether id-rank mask *a* sorts before *b* as a sorted id tuple: the
    one holding the lowest id not in both does, unless the other holds no
    larger id and so is a prefix of it."""
    low = (a ^ b) & -(a ^ b)
    return b >= low << 1 if a & low else a < low


def _integer_rows(instance: MspInstance) -> tuple[list[tuple], list[int], int, int]:
    """The instance on exact integers: rows ``(candidate, raw scores of the
    positive-threshold functions, weighted scores, net marginal)`` in pool
    order, those thresholds, ``one`` and the penalty.

    Raw scores and thresholds are numerators over one common denominator;
    weighted scores, the penalty and 1 are numerators over another. So
    every comparison is the one exact decimals would make, and
    ``_solution`` reports the picked selection in decimals.
    """
    functions = instance.functions
    fids = [f.id for f in functions]
    score_rows = [list(map(c.score, fids)) for c in instance.currencies]
    # each distinct score converts once, however many rows hold it and
    # however it is spelt (0.5 and 0.50 are one key)
    score_ratios = {s: s.as_integer_ratio() for s in set().union(*score_rows)}
    threshold_ratios = [f.threshold.as_integer_ratio() for f in functions]
    weight_ratios = [f.weight.as_integer_ratio() for f in functions]
    penalty_num, penalty_den = instance.balance_penalty.as_integer_ratio()
    raw_den = lcm(*{den for _, den in score_ratios.values()},
                  *{den for _, den in threshold_ratios})
    numerators = {s: num * (raw_den // den) for s, (num, den) in score_ratios.items()}
    weight_den = lcm(*{den for _, den in weight_ratios})
    one = lcm(raw_den * weight_den, penalty_den)
    penalty = penalty_num * (one // penalty_den)
    # a weight times a raw score is over raw_den * weight_den; the scale
    # puts it over ``one``
    weights = [w * (one // (raw_den * weight_den)) for w in _over(weight_ratios, weight_den)]
    thresholds = _over(threshold_ratios, raw_den)
    checked = [k for k, t in enumerate(thresholds) if t > 0]

    rows = []
    for c, score_row in zip(instance.currencies, score_rows):
        raw_row = list(map(numerators.__getitem__, score_row))
        weighted_row = list(map(mul, weights, raw_row))
        rows.append((c, [raw_row[k] for k in checked], weighted_row, sum(weighted_row) - penalty))
    return rows, [thresholds[k] for k in checked], one, penalty


def _walk(rows: Sequence[tuple], thresholds: list[int], one: int, penalty: int,
          max_parallel: int, saturating: bool, bounded: bool) -> tuple[str, ...] | None:
    """The best selection's sorted ids over *rows*, or None if none is
    feasible. Its cuts rely on the instance invariants and on mandatory
    rows first (see the module docstring); only the linear bound, which
    sums the next ``budget`` positive marginals, needs the rest descending.

    A node is a frame ``(p, short, room, committed, chosen)`` on the
    stack, rows before p decided: what each positive threshold still
    lacks (no other can fail), what each weighted coverage lacks of 1,
    the objective part linear in the selection (net marginals, or minus
    the penalty per pick when saturating), and the selection as a mask of
    id ranks, which the tie-break compares.
    """
    n = len(rows)
    candidates, raw_rows, weighted_rows, marginals = zip(*rows)
    n_functions = len(weighted_rows[0])
    full = one * n_functions
    by_rank = sorted(c.id for c in candidates)
    ranks = {cid: r for r, cid in enumerate(by_rank)}
    bits = [1 << ranks[c.id] for c in candidates]
    # past the mandatory rows, sorted rows put the positive net marginals
    # first, so a linear bound's best picks from row p on are the positive
    # ones among rows p..p + budget - 1; gains[i] sums those of rows 0..i-1
    gains = list(accumulate((max(m, 0) for m in marginals), initial=0))

    # over rows p..n-1: suffix_raw[p] sums the checked raw scores,
    # remaining[p] holds the ids
    no_raw = [0] * len(thresholds)
    suffix_raw = [no_raw]
    remaining = [0]
    for p in reversed(range(n)):
        suffix_raw.append(list(map(add, suffix_raw[-1], raw_rows[p])))
        remaining.append(remaining[-1] | bits[p])
    suffix_raw.reverse()
    remaining.reverse()

    # top[p][j][f]: the j largest weighted scores of function f among rows
    # p..n-1, summed, for j up to max_parallel (and n - p)
    top: list[list[list[int]]] = []
    if saturating and bounded:
        largest: list[list[int]] = [[] for _ in range(n_functions)]  # ascending
        top = [[[0] * n_functions]]
        for weighted_row in reversed(weighted_rows):
            for column, w in zip(largest, weighted_row):
                insort(column, w)
                if len(column) > max_parallel:
                    del column[0]
            top.append([list(sums) for sums in
                        zip(*(accumulate(reversed(column), initial=0) for column in largest))])
        top.reverse()

    best_obj: int | None = None
    best = 0  # the incumbent's selection mask
    stack = [(0, thresholds, [one] * n_functions, 0, 0)]
    while stack:
        p, short, room, committed, chosen = stack.pop()
        if any(map(gt, short, suffix_raw[p])):
            continue  # a threshold is out of reach
        budget = max_parallel - chosen.bit_count()
        value = full - sum(room) + committed if saturating else committed
        if bounded and best_obj is not None:
            if saturating:
                # j more picks cost j * penalty and add at most each
                # function's top j scores, up to its room (see
                # ``solve_saturating``)
                tops = top[p]
                j = min(budget, len(tops) - 1)
                gain = sum(map(min, room, tops[j])) - j * penalty
                while j:
                    j -= 1
                    lower = sum(map(min, room, tops[j])) - j * penalty
                    if gain >= lower:
                        break
                    gain = lower
                reach = value + gain
            else:
                reach = committed + gains[min(p + budget, n)] - gains[p]
            if reach < best_obj:
                continue
            if reach == best_obj and chosen:
                # a tie wins only with a smaller id tuple; the smallest a
                # completion can reach adds the budget smallest remaining
                # ids below the selection's largest
                below = remaining[p] & ((1 << (chosen.bit_length() - 1)) - 1)
                if below.bit_count() > budget:
                    least = 0
                    for _ in range(budget):
                        least |= below & -below
                        below &= below - 1
                    below = least
                if not _precedes(chosen | below, best):
                    continue
        if p < n and (budget > 1 or candidates[p].mandatory):
            # the include branch is pushed last, so it is searched first; a
            # mandatory row has no other, so the rows ahead of the first
            # optional one are decided before any incumbent exists
            if not candidates[p].mandatory:
                stack.append((p + 1, short, room, committed, chosen))
            stack.append((
                p + 1,
                list(map(sub, short, raw_rows[p])),
                list(map(sub, room, map(min, room, weighted_rows[p]))) if saturating else room,
                committed - penalty if saturating else committed + marginals[p],
                chosen | bits[p],
            ))
            continue
        # at most one pick left and no mandatory row: the completions stop
        # here or pick one remaining row
        if not any(map(gt, short, no_raw)):
            # the shared tie-break: on equal objective the smaller sorted id tuple wins
            if best_obj is None or value > best_obj or (value == best_obj and _precedes(chosen, best)):
                best_obj, best = value, chosen
        for q in range(p, n) if budget else ():
            if any(map(gt, short, raw_rows[q])):
                continue
            obj = (value - penalty + sum(map(min, room, weighted_rows[q])) if saturating
                   else committed + marginals[q])
            if best_obj is None or obj > best_obj or (obj == best_obj and _precedes(chosen | bits[q], best)):
                best_obj, best = obj, chosen | bits[q]

    if best_obj is None:
        return None
    return tuple(cid for r, cid in enumerate(by_rank) if best >> r & 1)


def _search(instance: MspInstance, kind: ObjectiveKind, bounded: bool) -> MspSolution | Infeasible:
    rows, thresholds, one, penalty = _integer_rows(instance)
    # mandatory rows first, then equal marginals in id order when bounded:
    # the first optimum found among ties then holds small ids, so the tie
    # cut fires sooner
    rows.sort(key=lambda r: (not r[0].mandatory, -r[3], r[0].id) if bounded
              else not r[0].mandatory)
    selection = _walk(rows, thresholds, one, penalty, instance.max_parallel,
                      kind is ObjectiveKind.SATURATING, bounded)
    if selection is None:
        return Infeasible(_infeasibility_reasons(instance))
    return _solution(instance, selection, kind)


def solve_exhaustive(
    instance: MspInstance, objective_kind: ObjectiveKind = ObjectiveKind.LINEAR
) -> MspSolution | Infeasible:
    """Subset-enumeration oracle: walk every subset, keep the feasible
    ones, return the best under the shared tie-breaking rule.

    The walk takes the mandatory candidates first, then the others in
    instance order. It never excludes a mandatory candidate, skips
    subtrees in which a threshold is out of reach, and scores each
    completion of a node with at most one pick left at once (see the
    module docstring). That prunes no feasible subset, so the result is
    identical to full enumeration plus filtering. The walk compares exact
    integers (see the module docstring), and the reported objective and
    scores are computed in exact decimals. Guarded to pools of at most
    25.
    """
    n = len(instance.currencies)
    if n > EXHAUSTIVE_POOL_LIMIT:
        raise SizeGuardError(
            f"pool of {n} currencies exceeds the exhaustive limit "
            f"({EXHAUSTIVE_POOL_LIMIT}); use the branch-and-bound solver"
        )
    return _search(instance, objective_kind, bounded=False)


def solve_branch_and_bound(instance: MspInstance) -> MspSolution | Infeasible:
    """Exact depth-first branch-and-bound for the linear objective.

    Nodes fix currencies one at a time (include branch first, mandatory
    candidates first, then the others by descending net marginal). The
    mandatory ones are decided before any incumbent exists (see the
    module docstring). The upper bound at a node is the committed
    objective plus the positive net marginals of the next unfixed
    currencies, as many as the remaining cardinality budget allows (by
    that order, the largest left), admissible because marginal
    contributions are independent in the linear objective. A node is
    also cut when some function's threshold is unreachable even by
    including every remaining candidate, and a node with at most one
    pick left is scored at once, as in ``solve_exhaustive``. A node whose
    bound ties the incumbent is cut when its selection plus the budget
    smallest remaining ids below its largest does not sort before the
    incumbent: no completion reaches a smaller id tuple, so the
    tie-breaking rule loses no optimum. The search compares exact
    integers; the reported numbers are decimals.
    """
    return _search(instance, ObjectiveKind.LINEAR, bounded=True)


def solve_saturating(instance: MspInstance) -> MspSolution | Infeasible:
    """Exact solver for the saturating objective via its linearization.

    Introducing one auxiliary value per function, y_k <= 1 and
    y_k <= weighted coverage sum of the selected currencies, and
    maximizing sum(y_k) - penalty * selection size drives every y_k to
    the min of its two ceilings, so the linearized optimum equals the
    saturating one. The search is the same depth-first branch-and-bound
    over the 0-1 currency variables, with the same cuts and tie cut. Its
    bound at a node with budget b left, committed weighted coverage c_k
    and committed penalties P is

        max over 0 <= j <= b of  sum_k min(1, c_k + top_k(j)) - j * penalty - P,

    where top_k(j) sums the j largest weighted scores of function k
    among the unfixed candidates. It is admissible: j more currencies
    cost exactly j * penalty and add at most top_k(j) to each function.
    top_k is concave in j and min(1, .) keeps that, so the bracket is
    concave: its maximum is at the largest j whose bracket is not below
    j - 1's, found by walking down from b. A function already at 1 adds
    exactly 1 whatever j is.
    """
    return _search(instance, ObjectiveKind.SATURATING, bounded=True)


# ---------------------------------------------------------------------------
# JSON interchange (decimals as strings)
# ---------------------------------------------------------------------------


def instance_to_json_dict(instance: MspInstance) -> dict:
    return {
        "functions": [
            {"id": f.id, "weight": str(f.weight), "threshold": str(f.threshold)}
            for f in instance.functions
        ],
        "currencies": [
            {
                "id": c.id,
                "class": c.currency_class.value,
                "mandatory": c.mandatory,
                "coverage": {k: str(v) for k, v in sorted(c.coverage.items())},
            }
            for c in instance.currencies
        ],
        "max_parallel": instance.max_parallel,
        "balance_penalty": str(instance.balance_penalty),
    }


def instance_from_json_dict(data: object) -> MspInstance:
    """Parse an instance document; raises SchemaError listing every
    shape violation with its JSON-pointer path."""
    problems: list[str] = []

    def dec(value: object, pointer: str) -> Decimal:
        if not isinstance(value, (str, int)) or isinstance(value, bool):
            problems.append(f"{pointer}: expected a decimal string")
            return _ZERO
        try:
            return as_decimal(value)
        except DomainError:
            problems.append(f"{pointer}: not a decimal number: {value!r}")
            return _ZERO

    if not isinstance(data, dict):
        raise SchemaError(["/: expected a JSON object"])
    for key in ("functions", "currencies", "max_parallel"):
        if key not in data:
            problems.append(f"/{key}: missing required field")
    if problems:
        raise SchemaError(problems)

    functions = []
    if not isinstance(data["functions"], list):
        problems.append("/functions: expected an array")
    else:
        for i, f in enumerate(data["functions"]):
            if not isinstance(f, dict) or "id" not in f:
                problems.append(f"/functions/{i}: expected an object with an 'id'")
                continue
            functions.append(
                MonetaryFunction(
                    id=str(f["id"]),
                    weight=dec(f.get("weight", "1"), f"/functions/{i}/weight"),
                    threshold=dec(f.get("threshold", "0"), f"/functions/{i}/threshold"),
                )
            )

    currencies = []
    if not isinstance(data["currencies"], list):
        problems.append("/currencies: expected an array")
    else:
        class_values = {c.value: c for c in CurrencyClass}
        for i, c in enumerate(data["currencies"]):
            if not isinstance(c, dict) or "id" not in c:
                problems.append(f"/currencies/{i}: expected an object with an 'id'")
                continue
            cls_name = c.get("class", "Other")
            if cls_name not in class_values:
                problems.append(
                    f"/currencies/{i}/class: unknown class {cls_name!r} "
                    f"(expected one of {sorted(class_values)})"
                )
                cls_name = "Other"
            coverage_data = c.get("coverage", {})
            if not isinstance(coverage_data, dict):
                problems.append(f"/currencies/{i}/coverage: expected an object")
                coverage_data = {}
            coverage = {
                str(fid): dec(u, f"/currencies/{i}/coverage/{fid}")
                for fid, u in coverage_data.items()
            }
            mandatory = c.get("mandatory", False)
            if not isinstance(mandatory, bool):
                problems.append(f"/currencies/{i}/mandatory: expected a boolean")
            currencies.append(
                CurrencyCandidate(
                    id=str(c["id"]),
                    currency_class=class_values[cls_name],
                    coverage=coverage,
                    mandatory=mandatory,
                )
            )

    balance_penalty = dec(data.get("balance_penalty", "0"), "/balance_penalty")

    if problems:
        raise SchemaError(problems)
    return MspInstance(
        functions=tuple(functions),
        currencies=tuple(currencies),
        max_parallel=data["max_parallel"],
        balance_penalty=balance_penalty,
    )


def solution_to_json_dict(result: MspSolution | Infeasible) -> dict:
    if isinstance(result, Infeasible):
        return {"infeasible": True, "reasons": list(result.reasons)}
    return {
        "selection": list(result.selection),
        "objective": str(result.objective),
        "objective_kind": result.objective_kind.value,
        "per_function_score": {k: str(v) for k, v in sorted(result.per_function_score.items())},
    }
