"""Exact enumeration: weight spectra, density checks, empirical capacity.

The weight spectrum of a channel lists every distinct accepted-string weight
w_1 < w_2 < ... up to a truncation bound together with the exact count N(w_k)
of accepted strings of that weight.  Counts are arbitrary-precision integers
and weights exact rationals, so bucket identity is never a float question.
"""

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

from .errors import BudgetExceededError, InvalidSystemError
from .estimates import EMPIRICAL, CapacityEstimate
from .systems import BranchSystem, Weight, is_exact, parse_weight

DENSITY_POLY_CAP = 8.0
TAIL_FRACTION = 0.25


@dataclass(frozen=True)
class WeightSpectrum:
    """Ordered (weight, count) pairs for all accepted strings up to w_max."""

    entries: tuple[tuple[Fraction, int], ...]
    w_max: Fraction

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        object.__setattr__(self, "w_max", exact_w_max(self.w_max))
        previous = None
        for weight, count in self.entries:
            if not is_exact(weight):
                raise ValueError(f"inexact weight in spectrum: {weight!r}")
            if count < 1:
                raise ValueError("zero-count weights must be omitted")
            if previous is not None and weight <= previous:
                raise ValueError("weights must be strictly increasing")
            previous = weight

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def weights(self) -> tuple[Fraction, ...]:
        return tuple(w for w, _ in self.entries)

    @property
    def counts(self) -> tuple[int, ...]:
        return tuple(c for _, c in self.entries)


def frontier_walk(system: BranchSystem, w_max=None, budget: int | None = None):
    """Yield ``(frontier, scale, memo)`` at depths 1, 2, ...

    ``frontier`` maps a weight in units of 1/``scale`` to that weight's
    group, {node handle: path count}.  Walks the tree breadth-first while
    merging frontier states that share a (weight, handle) pair, which turns
    the exponential path walk into a transfer-matrix style recurrence for
    FSMs and a balanced walk for generators.  Distinct root paths carry
    distinct label tuples, so path counts and string counts coincide.
    Branches heavier than ``w_max`` are dropped, and the walk stops at the
    first empty depth; ``budget`` caps the total number of branch
    expansions, remembered ones included.

    ``scale`` is the LCM of the exact weight denominators seen so far, and
    float weights are float units.  A depth's new handles are expanded into
    ``memo`` (handle -> (units, child, symbol) branches) before the depth is
    read, so ``expand`` runs once per handle and a new denominator rescales
    the frontier and the memo once.  ``depth_buckets`` gives the weights.
    """
    frontier: dict = {0: {system.root: 1}}
    scale, memo, work = 1, {}, 0
    while frontier:
        fresh = dict.fromkeys(
            h for group in frontier.values() for h in group if h not in memo
        )
        fresh = {h: system.expand(h) for h in fresh}
        factor = math.lcm(scale, *(
            sym.weight.denominator for branches in fresh.values()
            for sym, _ in branches if is_exact(sym.weight)
        )) // scale
        if factor > 1:
            scale *= factor
            frontier = {u * factor: group for u, group in frontier.items()}
            memo = {h: tuple((u * factor, child, sym) for u, child, sym in branches)
                    for h, branches in memo.items()}
        for handle, branches in fresh.items():
            memo[handle] = tuple(
                (_units(sym.weight, scale), child, sym) for sym, child in branches
            )
        bound = math.inf if w_max is None else math.floor(w_max * scale)
        next_frontier: dict = {}
        for acc, group in frontier.items():
            for handle, count in group.items():
                branches = memo[handle]
                work += len(branches)
                if budget is not None and work > budget:
                    raise BudgetExceededError(
                        f"level support walk exceeded budget of {budget} expansions"
                    )
                for units, child, _ in branches:
                    weight = acc + units
                    if weight <= bound:
                        target = next_frontier.get(weight)
                        if target is None:
                            target = next_frontier[weight] = {}
                        target[child] = target.get(child, 0) + count
        frontier = next_frontier
        yield frontier, scale, memo


def _units(weight: Weight, scale: int):
    return int(weight * scale) if is_exact(weight) else weight * scale


def depth_buckets(frontier: dict, scale: int) -> dict[Weight, int]:
    """{weight: count} at one depth: each weight group's counts summed, and
    each distinct weight a ``Fraction`` (a float for float units) once."""
    return {
        (u / scale if isinstance(u, float) else Fraction(u, scale)):
            sum(group.values())
        for u, group in frontier.items()
    }


def exact_w_max(w_max) -> Fraction:
    """A spectrum bound as a positive exact rational, or InvalidSystemError."""
    w_max = parse_weight(w_max)
    if not is_exact(w_max):
        raise InvalidSystemError("w_max must be an exact rational")
    if w_max <= 0:
        raise InvalidSystemError("w_max must be positive")
    return w_max


def weight_spectrum(system: BranchSystem, w_max) -> WeightSpectrum:
    """Count accepted strings by exact weight, up to and including w_max.

    Counts merge on integer units across depths, rescaled when the walk's
    scale grows, and each distinct weight becomes a ``Fraction`` once."""
    w_max = exact_w_max(w_max)
    buckets: dict[int, int] = {}
    last = 1
    for frontier, scale, _ in frontier_walk(system, w_max):
        if scale != last:
            buckets = {u * (scale // last): c for u, c in buckets.items()}
            last = scale
        for units, group in frontier.items():
            if isinstance(units, float):
                raise InvalidSystemError(
                    f"path weight {units / scale!r} is inexact; "
                    "spectrum enumeration needs exact rationals"
                )
            buckets[units] = buckets.get(units, 0) + sum(group.values())
    entries = tuple((Fraction(u, last), c) for u, c in sorted(buckets.items()))
    return WeightSpectrum(entries=entries, w_max=w_max)


@dataclass(frozen=True)
class DensityReport:
    """Polynomial-density evidence for a spectrum's weight sequence.

    ``k_of_n[i]`` is the number of distinct weights below ``n_range[i]``.
    ``passes`` means the counts stayed under fitted_L * n**fitted_K at every
    sampled n (given-constants mode), or that the fitted exponent stayed
    under the polynomial cap (auto-fit mode).
    """

    n_range: tuple[int, ...]
    k_of_n: tuple[int, ...]
    fitted_L: float
    fitted_K: float
    passes: bool


def density_check(
    spectrum: WeightSpectrum, L: float | None = None, K: float | None = None
) -> DensityReport:
    """Check that the number of distinct weights below n grows polynomially.

    With L and K given, verifies k_of_n(n) <= L * n**K pointwise over the
    integer checkpoints n = 1..floor(w_max).  With both omitted, fits K as
    the largest slope of ln k_of_n against ln n over consecutive checkpoints
    and L as the largest residual k_of_n(n) / n**K; the check passes when the
    fitted exponent is at most ``DENSITY_POLY_CAP``.  The fit is a
    finite-sample heuristic: it flags exponential growth masquerading as
    density, it does not certify the existential constants.
    """
    if not spectrum.entries:
        raise ValueError("density check needs a nonempty spectrum")
    if (L is None) != (K is None):
        raise ValueError("give both L and K, or neither")
    # For integer n, w < n exactly when floor(w) < n.
    floors = [w.numerator // w.denominator for w in spectrum.weights]
    n_range = tuple(range(1, math.floor(spectrum.w_max) + 1)) or (1,)
    k_of_n = tuple(bisect_left(floors, n) for n in n_range)
    if L is not None:
        passes = all(k <= L * n ** K for n, k in zip(n_range, k_of_n))
        return DensityReport(n_range, k_of_n, float(L), float(K), passes)

    points = [(n, k) for n, k in zip(n_range, k_of_n) if k >= 1]
    slopes = [
        (math.log(k2) - math.log(k1)) / (math.log(n2) - math.log(n1))
        for (n1, k1), (n2, k2) in zip(points, points[1:])
    ]
    fitted_k = max(slopes, default=0.0)
    fitted_k = max(fitted_k, 0.0)
    fitted_l = max((k / n ** fitted_k for n, k in points), default=0.0)
    passes = fitted_k <= DENSITY_POLY_CAP
    return DensityReport(n_range, k_of_n, fitted_l, fitted_k, passes)


def tail_window(length: int) -> int:
    return max(1, math.ceil(TAIL_FRACTION * length))


def tail_estimate(values) -> CapacityEstimate:
    """The limsup proxy: max of the trailing window, bracketed by its range.

    ``iterations`` is the length of the whole sequence.
    """
    tail = values[-tail_window(len(values)):]
    return CapacityEstimate(
        max(tail), EMPIRICAL, (min(tail), max(tail)), 0.0, len(values)
    )


def empirical_capacity(
    spectrum: WeightSpectrum,
) -> tuple[CapacityEstimate, tuple[tuple[float, float], ...]]:
    """Capacity from raw counts: the limsup proxy max of trailing c_k values.

    Returns the estimate together with the full (w_k, c_k) sequence of
    per-weight growth exponents c_k = ln N(w_k) / w_k.  The trailing-window
    max is the least biased finite-sample stand-in for a limsup that is
    approached from below; it is exact for sequences that are eventually
    monotone.
    """
    if len(spectrum) < 2:
        raise ValueError("empirical capacity needs a spectrum with >= 2 entries")
    sequence = tuple(
        (float(w), math.log(c) / float(w)) for w, c in spectrum.entries
    )
    return tail_estimate([c for _, c in sequence]), sequence


def spectrum_tsv(spectrum: WeightSpectrum) -> str:
    """Spectrum as TSV rows: weight "p/q", exact count, c_k at 17 digits."""
    lines = ["# weight\tcount\tc_k"]
    for weight, count in spectrum.entries:
        c_k = math.log(count) / float(weight)
        lines.append(
            f"{weight.numerator}/{weight.denominator}\t{count}\t{c_k:.17g}"
        )
    return "\n".join(lines) + "\n"
