"""Maximum entropy rate: per-level optima, the maxentropic PMF, KL diagnostics.

For each depth l, the best entropy per average weight over distributions on
the depth-l support solves sum_x e^{-w(x) s} = 1, and the optimizer assigns
q(x) = e^{-w(x) R_l}.  The sequence of per-level optima is the maximum
entropy rate counterpart of the empirical capacity sequence, and the
information inequality turns any other distribution's shortfall into an
explicit KL gap.
"""

import math
from contextlib import suppress
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from typing import Hashable

from . import spectrum
from .errors import BudgetExceededError, EstimatorError
from .estimates import CapacityEstimate
from .solvers import left_sum, partition_root
from .spectrum import decimal, frontier_walk, tail_estimate, unit_floats
from .systems import BranchSystem

_SUM_TOL = 1e-6

Path = tuple[str, ...]


def enumerate_level_paths(
    system: BranchSystem, level: int
) -> list[tuple[Path, Fraction]]:
    """All depth-``level`` paths as (label tuple, weight), small levels only.

    Raises ``BudgetExceededError`` past ``spectrum.LEVEL_BUDGET`` paths.
    """
    if level < 1:
        raise ValueError("level must be >= 1")
    paths: list[tuple[Path, Fraction]] = []
    stack: list[tuple[Hashable, Path, Fraction]] = [(system.root, (), Fraction(0))]
    while stack:
        handle, labels, acc = stack.pop()
        if len(labels) == level:
            paths.append((labels, acc))
            if len(paths) > spectrum.LEVEL_BUDGET:
                raise BudgetExceededError("explicit path enumeration exceeded "
                                          f"budget of {spectrum.LEVEL_BUDGET}")
            continue
        for sym, child in system.expand(handle):
            stack.append((child, labels + (sym.label,), acc + sym.weight))
    paths.sort(key=lambda item: item[0])
    return paths


@dataclass(frozen=True)
class LevelSolution:
    """Per-level maxent data: the optimal rate and its entropy bookkeeping.

    ``entropy == rate * avg_weight`` holds by construction of the maxent
    distribution (the equality case of the information inequality).  ``rate``
    is the Newton root of ln sum_x e^{-w(x) s} = 0, so that sum is one up to
    rounding.
    """

    level: int
    rate: float
    avg_weight: float
    entropy: float
    support_size: int


def solve_level_rate(system: BranchSystem, level: int) -> LevelSolution:
    """Best entropy per average weight at one depth.

    Solves sum over the depth-``level`` support of e^{-w(x) s} = 1 by Newton
    on its logarithm, a logsumexp over the buckets' ln N - w s, so the big-int
    counts of deep levels never leave the float range.  The left side is
    strictly decreasing for positive weights, so the nonnegative root is
    unique; a singleton support gets rate 0 in zero Newton steps.
    """
    for frontier, scale, _ in frontier_walk(system, level):
        pass
    return _solve_levels([_level_row(frontier, scale)], level)[0]


def _level_row(frontier: dict, scale: int) -> tuple[list, list, int]:
    """One depth's (bucket weights, ln bucket counts, support size).

    The weights are u / scale, which rounds the same rational as
    ``float(Fraction(u, scale))`` does; one past the float range raises
    ``OverflowError``.
    """
    counts = [sum(group.values()) for group in frontier.values()]
    weights = unit_floats(frontier, scale, "level")
    return weights, [math.log(c) for c in counts], sum(counts)


def _solve_levels(rows: list, first: int) -> list[LevelSolution]:
    """``LevelSolution``s of the consecutive depths from ``first``, one
    ``_level_row`` each, their rates from one ``partition_root`` batch."""
    roots = partition_root([(weights, log_counts) for weights, log_counts, _ in rows])
    solutions = []
    for level, (weights, log_counts, size), (rate, *_) in zip(count(first), rows, roots):
        avg_weight = left_sum(
            w * math.exp(lc - w * rate) for w, lc in zip(weights, log_counts)
        )
        solutions.append(
            LevelSolution(level, rate, avg_weight, rate * avg_weight, size)
        )
    return solutions


@dataclass(frozen=True)
class LevelPmf:
    """A distribution over the depth-``level`` support, with path weights."""

    level: int
    probs: dict[Path, float]
    weights: dict[Path, Fraction]


def maxent_pmf(system: BranchSystem, level: int) -> LevelPmf:
    """The maxentropic distribution q(x) = e^{-w(x) R_l} on the level support.

    R_l is ``solve_level_rate(system, level).rate``.  If the probabilities
    miss 1 by more than 1e-6 the solve is at fault, and this raises
    ``EstimatorError`` instead of renormalizing.
    """
    rate = solve_level_rate(system, level).rate
    paths = enumerate_level_paths(system, level)
    probs = {labels: math.exp(-float(w) * rate) for labels, w in paths}
    weights = {labels: w for labels, w in paths}
    total = left_sum(probs.values())
    if abs(total - 1.0) > _SUM_TOL:
        raise EstimatorError(
            f"level {level}: maxent probabilities sum to {total}, not 1"
        )
    return LevelPmf(level=level, probs=probs, weights=weights)


def entropy_and_avg_weight(pmf: LevelPmf) -> tuple[float, float]:
    """Entropy in nats and average path weight of a level distribution."""
    total = 0.0
    for path, p in pmf.probs.items():
        if p < 0:
            raise ValueError(f"negative probability at {path}")
        total += p
    if abs(total - 1.0) > _SUM_TOL:
        raise ValueError(f"probabilities sum to {total}, not 1")
    entropy = -left_sum(p * math.log(p) for p in pmf.probs.values() if p > 0.0)
    avg_weight = left_sum(
        p * float(pmf.weights[path]) for path, p in pmf.probs.items()
    )
    return entropy, avg_weight


def maxent_rate_estimate(
    system: BranchSystem, l_max: int
) -> tuple[CapacityEstimate, tuple[LevelSolution, ...]]:
    """Maximum entropy rate proxy: trailing-window max of the per-level optima.

    One walk collects the buckets of levels 1 to ``l_max``; if it blows
    ``spectrum.LEVEL_BUDGET``, the levels before the cut are kept (callers
    can tell from their count).  All of them are then solved in one
    ``partition_root`` batch, each to the bits ``solve_level_rate`` gives it
    alone.  The window aggregation is ``tail_estimate``, the one the
    empirical capacity estimator uses, so the two sides of the equality
    check are symmetric.  An ``l_max`` past the end of a finite tree raises
    ``ValueError``.
    """
    if l_max < 2:
        raise ValueError("l_max must be >= 2")
    rows = []
    with suppress(BudgetExceededError):
        for frontier, scale, _ in frontier_walk(system, l_max):
            rows.append(_level_row(frontier, scale))
    if not rows:
        raise BudgetExceededError("no level fit within the enumeration budget")
    levels = tuple(_solve_levels(rows, 1))
    estimate = tail_estimate([sol.rate for sol in levels])
    return estimate, levels


def kl_gap(pmf: LevelPmf, system: BranchSystem) -> tuple[float, float]:
    """KL distance to the maxent optimum at ``pmf.level`` and the
    distribution's own rate.

    Returns (D(p || q), H(p)/L(p)); the rate never exceeds the level optimum
    and matches it exactly when the gap vanishes.
    """
    optimum = maxent_pmf(system, pmf.level)
    for path, p in pmf.probs.items():
        if p > 0.0 and path not in optimum.probs:
            raise ValueError(f"probability mass outside the support: {path}")
    gap = left_sum(
        p * math.log(p / optimum.probs[path])
        for path, p in pmf.probs.items()
        if p > 0.0
    )
    entropy, avg_weight = entropy_and_avg_weight(pmf)
    return gap, entropy / avg_weight


def level_report_tsv(levels: tuple[LevelSolution, ...]) -> str:
    """Level table: l, support size, rate, avg weight, entropy, entropy ratio."""
    lines = ["# l\tsupport_size\tR_l\tL_l\tH_l\tH_l/L_l"]
    for sol in levels:
        ratio = sol.entropy / sol.avg_weight if sol.avg_weight else 0.0
        lines.append(
            f"{sol.level}\t{decimal(sol.support_size)}\t{sol.rate:.17g}"
            f"\t{sol.avg_weight:.17g}\t{sol.entropy:.17g}\t{ratio:.17g}"
        )
    return "\n".join(lines) + "\n"
