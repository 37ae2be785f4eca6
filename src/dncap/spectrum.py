"""Exact enumeration: weight spectra, density checks, empirical capacity.

The weight spectrum of a channel lists every distinct accepted-string weight
w_1 < w_2 < ... up to a truncation bound together with the exact count N(w_k)
of accepted strings of that weight.  Counts are arbitrary-precision integers
and weights exact rationals, so bucket identity is never a float question.
"""

import functools
import math
import sys
from dataclasses import dataclass, field, replace
from fractions import Fraction
from heapq import heappop, heappush
from itertools import chain

from .errors import BudgetExceededError, InvalidSystemError
from .estimates import EMPIRICAL, CapacityEstimate
from .systems import BranchSystem, parse_weight

DENSITY_POLY_CAP = 8.0
LEVEL_BUDGET = 2 ** 22
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
        w_max, previous = exact_w_max(w_max), None
        entries = tuple((parse_weight(w), c) for w, c in entries)
        for weight, count in entries:
            if count < 1:
                raise ValueError("zero-count weights must be omitted")
            if previous is not None and weight <= previous:
                raise ValueError("weights must be strictly increasing")
            if weight > w_max:
                raise ValueError(f"weight {weight} exceeds w_max {w_max}")
            previous = weight
        scale = math.lcm(*(w.denominator for w, _ in entries))
        self._set([w.numerator * (scale // w.denominator) for w, _ in entries],
                  [c for _, c in entries], scale, w_max)

    def _set(self, units, counts, scale: int, w_max) -> "WeightSpectrum":
        common = math.gcd(scale, *units)
        units, scale = tuple(u // common for u in units), scale // common
        vars(self).update(units=units, counts=tuple(counts), scale=scale, w_max=w_max,
                          float_weights=tuple(unit_floats(units, scale, "spectrum")),
                          log_counts=tuple(map(math.log, counts)))
        return self

    def __len__(self) -> int:
        return len(self.units)

    @property
    def weights(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(u, self.scale) for u in self.units)

    @property
    def entries(self) -> tuple[tuple[Fraction, int], ...]:
        return tuple(zip(self.weights, self.counts))


class _HandleGraph:
    """The handle graph one walk builds as it goes.  The root's id is 0, any
    other handle's the next when first seen as a child; ``memo[id]`` holds
    its (units, child id, symbol) branches once expanded, () while
    ``pending``, so the walk expands each handle once.  ``scale`` is the LCM
    of the weight denominators seen so far."""

    def __init__(self, system: BranchSystem):
        self.system, self.scale = system, 1
        self.ids, self.memo, self.pending = {system.root: 0}, [()], {0: system.root}

    def expand(self, groups) -> int:
        """Expand the pending ids keying ``groups``, rescaling the memo in
        place on a new denominator; return the factor ``scale`` grew by."""
        ids, memo, pending = self.ids, self.memo, self.pending
        fresh = [(i, self.system.expand(pending.pop(i))) for i in set().union(
            *(group.keys() & pending.keys() for group in groups))]
        scale = math.lcm(self.scale, *(sym.weight.denominator
                                       for _, branches in fresh for sym, _ in branches))
        factor, self.scale = scale // self.scale, scale
        if factor > 1:
            memo[:] = [tuple((u * factor, child, sym) for u, child, sym in branches)
                       for branches in memo]
        for i, branches in fresh:
            for _, child in branches:
                if child not in ids:
                    ids[child], pending[len(memo)] = len(memo), child
                    memo.append(())
            memo[i] = tuple((sym.weight.numerator * (scale // sym.weight.denominator),
                             ids[child], sym) for sym, child in branches)
        return factor


def unit_floats(units, scale: int, kind: str) -> list[float]:
    """Each ``u / scale`` as a float; one past the float range raises
    ``OverflowError`` naming the ``kind`` of weight."""
    try:
        return [u / scale for u in units]
    except OverflowError:
        raise OverflowError(f"a {kind} weight is past the float range") from None


def shared(system: BranchSystem) -> BranchSystem:
    """``system`` with ``expand`` memoized, so walks that each build their
    own handle graph still expand each handle once between them."""
    return replace(system, expand=functools.cache(system.expand))


def frontier_walk(system: BranchSystem, level: int):
    """Yield ``(frontier, scale, memo)`` at depths 1 to ``level``.

    ``frontier`` maps a weight in units of 1/``scale`` to that weight's
    group, {handle id: path count}.  Walks the tree breadth-first while
    merging frontier states that share a (weight, handle) pair, which turns
    the exponential path walk into a transfer-matrix style recurrence for
    FSMs and a balanced walk for generators.  Distinct root paths carry
    distinct label tuples, so path counts and string counts coincide.
    Groups and their entries are in first-push order: the order in which the
    previous depth's groups, their entries and each entry's branches, taken
    in order, first reach them.  A depth expands its frontier in the walk's
    own handle graph and charges its entries' branches to ``LEVEL_BUDGET``
    (read at the start) before merging them.  A depth that comes out empty,
    past the end of a finite tree, raises ``ValueError`` naming the last
    nonempty one."""
    if level < 1:
        raise ValueError("level must be >= 1")
    graph, budget, frontier, work = _HandleGraph(system), LEVEL_BUDGET, {0: {0: 1}}, 0
    memo = graph.memo
    for depth in range(1, level + 1):
        if graph.pending and (factor := graph.expand(frontier.values())) > 1:
            frontier = {u * factor: group for u, group in frontier.items()}
        work += sum(map(len, map(memo.__getitem__, chain(*frontier.values()))))
        if work > budget:
            raise BudgetExceededError(
                f"level walk exceeded budget of {budget} expansions at depth {depth}"
            )
        next_frontier: dict = {}
        for acc, group in frontier.items():
            targets = {}  # units -> the group at acc + units
            for handle, count in group.items():
                for units, child, _ in memo[handle]:
                    target = targets.get(units)
                    if target is None:
                        target = targets[units] = next_frontier.setdefault(acc + units, {})
                    target[child] = target.get(child, 0) + count
        frontier = next_frontier
        if not frontier:
            raise ValueError(f"level {level} is past the end of the tree: its last "
                             f"nonempty depth is {depth - 1}")
        yield frontier, graph.scale, memo


def exact_w_max(w_max) -> Fraction:
    """A spectrum bound as a positive exact rational, or InvalidSystemError."""
    w_max = parse_weight(w_max)
    if w_max <= 0:
        raise InvalidSystemError("w_max must be positive")
    return w_max


def weight_spectrum(system: BranchSystem, w_max) -> WeightSpectrum:
    """Count accepted strings by exact weight, up to and including w_max.

    A weight-major sweep over a handle graph of its own: a heap holds the
    pending weights, in integer units, and a dict their groups, {handle id:
    path count}.  Weights are positive, so the lightest one's total is N(w)
    once it is popped; its branches then merge into the groups at w + units
    up to w_max.  ``LEVEL_BUDGET``, read when the sweep starts, is charged
    each pending group when it is created and each popped group's branches,
    checked before its merge.  Past it, ``BudgetExceededError`` names the
    weight reached and keeps every weight popped as its exact ``spectrum``
    (None if only the root, the empty string, was)."""
    w_max = exact_w_max(w_max)
    graph, budget, work = _HandleGraph(system), LEVEL_BUDGET, 0
    memo, scale = graph.memo, graph.scale
    bound, heap, groups, units, counts = math.floor(w_max * scale), [0], {0: {0: 1}}, [], []
    while heap:
        acc = heappop(heap)
        group = groups.pop(acc)
        if graph.pending and (factor := graph.expand((group,))) > 1:
            scale, bound = graph.scale, math.floor(w_max * graph.scale)
            acc, heap = acc * factor, [u * factor for u in heap]
            groups = {u * factor: g for u, g in groups.items()}
            units = [u * factor for u in units]
        if acc:
            units.append(acc)
            counts.append(sum(group.values()))
        work += sum(map(len, map(memo.__getitem__, group)))
        if work > budget:
            exc = BudgetExceededError(f"weight spectrum walk to w_max {w_max} exceeded "
                                      f"budget of {budget} expansions at weight {acc / scale}")
            if units:
                exc.spectrum = _spectrum(units, counts, scale, Fraction(units[-1], scale))
            raise exc
        targets = {}  # units -> the group at acc + units, if not past the bound
        for handle, count in group.items():
            for step, child, _ in memo[handle]:
                target = targets.get(step)
                if target is None:
                    if (weight := acc + step) > bound:
                        continue
                    target = targets[step] = groups.get(weight)
                    if target is None:
                        work += 1
                        target = targets[step] = groups[weight] = {}
                        heappush(heap, weight)
                target[child] = target.get(child, 0) + count
    return _spectrum(units, counts, scale, w_max)


def _spectrum(units: list, counts: list, scale: int, w_max) -> WeightSpectrum:
    return object.__new__(WeightSpectrum)._set(units, counts, scale, w_max)


@dataclass(frozen=True)
class DensityReport:
    """Polynomial-density evidence for a spectrum's weight sequence.

    ``k_of_n[i]`` is the number of distinct weights below ``checkpoints[i]``.
    ``passes`` means the fitted exponent stayed under the polynomial cap.
    """

    checkpoints: tuple[int, ...]
    k_of_n: tuple[int, ...]
    fitted_L: float
    fitted_K: float
    passes: bool


def density_check(spectrum: WeightSpectrum) -> DensityReport:
    """Check that the number of distinct weights below n grows polynomially.

    Fits K as the largest slope of ln k_of_n against ln n over consecutive
    integers and L as the largest residual k_of_n(n) / n**K; the check
    passes when the fitted exponent is at most ``DENSITY_POLY_CAP``.  The
    fit is a finite-sample heuristic: it flags exponential growth
    masquerading as density, it does not certify the existential constants.

    k_of_n is constant between its steps, and k_of_n / n**K falls there, so
    only the checkpoints are evaluated: 1, floor(w_max), and n - 1 and n at
    each step n = floor(w) + 1.  That gives the whole range's answer in
    O(entries).
    """
    if not spectrum.units:
        raise ValueError("density check needs a nonempty spectrum")
    # For integer n, w < n exactly when floor(w) < n.
    floors = [u // spectrum.scale for u in spectrum.units]
    top, steps = max(math.floor(spectrum.w_max), 1), set(floors)
    checkpoints = tuple(sorted({1, top, *steps, *(f + 1 for f in steps)} - {0, top + 1}))
    # floors and checkpoints both ascend: one merge pass counts the floors below each n
    counts, k, end = [], 0, len(floors)
    for n in checkpoints:
        while k < end and floors[k] < n:
            k += 1
        counts.append(k)
    k_of_n = tuple(counts)
    points = [(n, k) for n, k in zip(checkpoints, k_of_n) if k >= 1]
    logs = [(math.log(n), math.log(k)) for n, k in points]
    # a flat stretch's slope is the 0 the max starts from; past 2**53 a step's
    # two ends can share a float log, and the step is then infinitely steep
    slopes = [(lk2 - lk1) / (ln2 - ln1) if ln2 > ln1 else math.inf
              for (ln1, lk1), (ln2, lk2) in zip(logs, logs[1:]) if lk2 > lk1]
    fitted_k = max([*slopes, 0.0])
    fitted_l = max((k / _power(n, fitted_k) for n, k in points), default=0.0)
    passes = fitted_k <= DENSITY_POLY_CAP
    return DensityReport(checkpoints, k_of_n, fitted_l, fitted_k, passes)


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


def empirical_capacity(spectrum: WeightSpectrum) -> CapacityEstimate:
    """Capacity from raw counts: the limsup proxy max of the trailing values
    of c_k = ln N(w_k) / w_k.

    The trailing-window max is the least biased finite-sample stand-in for a
    limsup that is approached from below; it is exact for sequences that are
    eventually monotone.
    """
    if len(spectrum) < 2:
        raise ValueError("empirical capacity needs a spectrum with >= 2 entries")
    return tail_estimate(
        [log / w for w, log in zip(spectrum.float_weights, spectrum.log_counts)]
    )


def decimal(count: int) -> str:
    """``str(count)`` for an int of any size.  Past 3 bits per digit of
    CPython's int-to-str limit (none if 0 or before 3.10.7), which such an
    int cannot reach, it is split at a power of ten, so no piece does."""
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if not limit or count.bit_length() <= 3 * limit:
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
