"""Exact enumeration: weight spectra, density checks, empirical capacity.

The weight spectrum of a channel lists every distinct accepted-string weight
w_1 < w_2 < ... up to a truncation bound together with the exact count N(w_k)
of accepted strings of that weight.  Counts are arbitrary-precision integers
and weights exact rationals, so bucket identity is never a float question.
"""

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain

from .errors import BudgetExceededError, InvalidSystemError
from .estimates import EMPIRICAL, CapacityEstimate
from .systems import BranchSystem, Weight, is_exact, parse_weight

DENSITY_POLY_CAP = 8.0
TAIL_FRACTION = 0.25


@dataclass(frozen=True, init=False)
class WeightSpectrum:
    """Ordered (weight, count) pairs for all accepted strings up to w_max.

    Weight k is ``units[k] / scale``, ``scale`` their least common denominator,
    so equal spectra have equal fields.  Each weight as a float (rounded as
    ``float(Fraction)`` rounds) and each ln N are computed once, at build."""

    units: tuple[int, ...]
    counts: tuple[int, ...]
    scale: int
    w_max: Fraction
    float_weights: tuple[float, ...] = field(repr=False, compare=False)
    log_counts: tuple[float, ...] = field(repr=False, compare=False)

    def __init__(self, entries, w_max):
        w_max, entries, previous = exact_w_max(w_max), tuple(entries), None
        for weight, count in entries:
            if not is_exact(weight):
                raise ValueError(f"inexact weight in spectrum: {weight!r}")
            if count < 1:
                raise ValueError("zero-count weights must be omitted")
            if previous is not None and weight <= previous:
                raise ValueError("weights must be strictly increasing")
            previous = weight
        scale = math.lcm(*(w.denominator for w, _ in entries))
        self._set([w.numerator * (scale // w.denominator) for w, _ in entries],
                  [c for _, c in entries], scale, w_max)

    def _set(self, units, counts, scale: int, w_max) -> None:
        common = math.gcd(scale, *units)
        units, scale = tuple(u // common for u in units), scale // common
        vars(self).update(units=units, counts=tuple(counts), scale=scale, w_max=w_max,
                          float_weights=tuple(u / scale for u in units),
                          log_counts=tuple(map(math.log, counts)))

    def __len__(self) -> int:
        return len(self.units)

    @property
    def weights(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(u, self.scale) for u in self.units)

    @property
    def entries(self) -> tuple[tuple[Fraction, int], ...]:
        return tuple(zip(self.weights, self.counts))


def frontier_walk(system: BranchSystem, w_max, budget: int):
    """Yield ``(frontier, scale, memo)`` at depths 1, 2, ...

    ``frontier`` maps a weight in units of 1/``scale`` to that weight's
    group, {handle id: path count}.  Walks the tree breadth-first while
    merging frontier states that share a (weight, handle) pair, which turns
    the exponential path walk into a transfer-matrix style recurrence for
    FSMs and a balanced walk for generators.  Distinct root paths carry
    distinct label tuples, so path counts and string counts coincide.
    Groups and their entries are in first-push order: the order in which the
    previous depth's groups, their entries and each entry's branches, taken
    in order, first reach them.  Branches heavier than ``w_max`` (None for no
    bound) are dropped, and the walk stops at the first empty depth.  A depth
    charges its entries' branches to ``budget`` before merging them; past it,
    remembered expansions included, it raises ``BudgetExceededError`` naming
    itself and the depth it was building.

    The root's id is 0; any other handle gets the next id when first seen as
    a child.  ``memo[id]`` holds its (units, child id, symbol) branches once
    expanded, () before: a depth expands its frontier's ids among those not
    yet expanded, so ``expand`` runs once per handle.  ``scale`` is the LCM
    of the exact weight denominators seen so far (float weights are float
    units); a new denominator rescales the frontier and the memo once."""
    walk = "level walk" if w_max is None else f"weight spectrum walk to w_max {w_max}"
    frontier: dict = {0: {0: 1}}
    ids, memo, pending = {system.root: 0}, [()], {0: system.root}
    scale, work, bound, depth = 1, 0, _bound(w_max, 1), 0
    while frontier:
        depth += 1
        fresh = set().union(*(group.keys() & pending.keys()
                              for group in frontier.values())) if pending else ()
        if fresh:
            fresh = [(i, system.expand(pending.pop(i))) for i in fresh]
            factor = math.lcm(scale, *(
                sym.weight.denominator for _, branches in fresh
                for sym, _ in branches if is_exact(sym.weight)
            )) // scale
            if factor > 1:
                scale *= factor
                bound = _bound(w_max, scale)
                frontier = {u * factor: group for u, group in frontier.items()}
                memo = [tuple((u * factor, child, sym) for u, child, sym in branches)
                        for branches in memo]
            for i, branches in fresh:
                for _, child in branches:
                    if child not in ids:
                        ids[child], pending[len(memo)] = len(memo), child
                        memo.append(())
                memo[i] = tuple(
                    (_units(sym.weight, scale), ids[child], sym) for sym, child in branches
                )
        work += sum(map(len, map(memo.__getitem__, chain(*frontier.values()))))
        if work > budget:
            raise BudgetExceededError(
                f"{walk} exceeded budget of {budget} expansions at depth {depth}"
            )
        next_frontier: dict = {}
        for acc, group in frontier.items():
            targets = {}  # units -> the group at acc + units, or a throwaway past bound
            for handle, count in group.items():
                for units, child, _ in memo[handle]:
                    target = targets.get(units)
                    if target is None:
                        weight = acc + units
                        target = targets[units] = (
                            next_frontier.setdefault(weight, {}) if weight <= bound else {})
                    target[child] = target.get(child, 0) + count
        frontier = next_frontier
        yield frontier, scale, memo


def _units(weight: Weight, scale: int):
    return int(weight * scale) if is_exact(weight) else weight * scale


def _bound(w_max, scale: int):
    """``w_max`` in units of 1/``scale``, rounded down; inf for no bound."""
    return math.inf if w_max is None else math.floor(w_max * scale)


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
    scale grows, and the spectrum is built from those units.  The walk stops
    at ``maxent.LEVEL_BUDGET`` expansions, as level walks do.  Its
    ``BudgetExceededError`` then carries the spectrum up to the lightest
    weight on the last full depth: every string not yet counted extends a
    path of that depth by a symbol of positive weight, so it is heavier."""
    from . import maxent  # maxent imports this module
    w_max = exact_w_max(w_max)
    buckets: dict[int, int] = {}
    last, frontier = 1, {}
    try:
        for frontier, scale, _ in frontier_walk(system, w_max, maxent.LEVEL_BUDGET):
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
    except BudgetExceededError as exc:
        if frontier:
            lightest = min(frontier)
            exc.spectrum = _spectrum({u: c for u, c in buckets.items() if u <= lightest},
                                     last, Fraction(lightest, last))
        raise
    return _spectrum(buckets, last, w_max)


def _spectrum(buckets: dict[int, int], scale: int, w_max) -> WeightSpectrum:
    spectrum = object.__new__(WeightSpectrum)
    units = sorted(buckets)
    spectrum._set(units, list(map(buckets.__getitem__, units)), scale, w_max)
    return spectrum


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
    if not spectrum.units:
        raise ValueError("density check needs a nonempty spectrum")
    if (L is None) != (K is None):
        raise ValueError("give both L and K, or neither")
    # For integer n, w < n exactly when floor(w) < n.
    floors = [u // spectrum.scale for u in spectrum.units]
    n_range = tuple(range(1, math.floor(spectrum.w_max) + 1)) or (1,)
    k_of_n = tuple(bisect_left(floors, n) for n in n_range)
    if L is not None:
        passes = all(k <= L * _power(n, K) for n, k in zip(n_range, k_of_n))
        return DensityReport(n_range, k_of_n, float(L), float(K), passes)

    points = [(n, k) for n, k in zip(n_range, k_of_n) if k >= 1]
    logs = [(math.log(n), math.log(k)) for n, k in points]
    slopes = [(lk2 - lk1) / (ln2 - ln1) for (ln1, lk1), (ln2, lk2) in zip(logs, logs[1:])]
    fitted_k = max([*slopes, 0.0])
    fitted_l = max((k / _power(n, fitted_k) for n, k in points), default=0.0)
    passes = fitted_k <= DENSITY_POLY_CAP
    return DensityReport(n_range, k_of_n, fitted_l, fitted_k, passes)


def _power(n: int, k: float) -> float:
    try:
        return n ** k
    except OverflowError:  # past the float range: inf, as IEEE pow has it
        return math.inf


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
        (w, log / w) for w, log in zip(spectrum.float_weights, spectrum.log_counts)
    )
    return tail_estimate([c for _, c in sequence]), sequence


def decimal(count: int) -> str:
    """``str(count)`` for an int of any size: past 1600 bits it is split at a
    power of ten, so no piece reaches CPython's int-to-str limit (640 digits
    at least)."""
    if count.bit_length() <= 1600:
        return str(count)
    k = count.bit_length() * 3 // 20  # about half its decimal digits
    high, low = divmod(count, 10 ** k)
    return decimal(high) + decimal(low).rjust(k, "0")


def spectrum_tsv(spectrum: WeightSpectrum) -> str:
    """Spectrum as TSV rows: weight "p/q", exact count, c_k at 17 digits."""
    lines, scale = ["# weight\tcount\tc_k"], spectrum.scale
    for u, count, w, log in zip(spectrum.units, spectrum.counts,
                                spectrum.float_weights, spectrum.log_counts):
        common = math.gcd(u, scale)
        lines.append(f"{u // common}/{scale // common}\t{decimal(count)}\t{log / w:.17g}")
    return "\n".join(lines) + "\n"
