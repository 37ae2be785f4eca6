"""Independent oracles used to freeze expected values.

Everything here counts or solves by a route different from the library code
under test: explicit string enumeration instead of merged frontiers, integer
matrix powers instead of weighted walks, and closed forms where they exist.
``scalar_partition_root``, ``reference_frontier_walk`` (and
``reference_level_support``, read off it), ``reference_fsm_check``,
``reference_strong_components``, ``reference_fsm_rows`` and the
``FractionSpectrum`` estimators instead keep a kernel's earlier loop, which
its rewrite must match exactly, and
``compensated_sum`` is the builtin ``sum`` of Python 3.12 and later.
"""

import cmath
import math
from bisect import bisect_left
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import accumulate, islice, product

import numpy as np

from dncap.capacity import _RATIO_SLACK, DIVERGENCE_THRESHOLD, PROBE_DELTA
from dncap.errors import (
    BudgetExceededError,
    EstimatorError,
    InvalidSystemError,
    SpecFileError,
)
from dncap import spectrum as spectrum_module
from dncap.estimates import ABSCISSA
from dncap.specfile import _require
from dncap.spectrum import (
    DENSITY_POLY_CAP,
    DensityReport,
    decimal,
    tail_estimate,
    tail_window,
)
from dncap.systems import Symbol


def naive_string_spectrum(system, w_max) -> dict:
    """Brute-force {weight: count} by enumerating every label tuple."""
    w_max = Fraction(w_max)
    counts: dict = {}
    seen = set()

    def rec(handle, labels, acc):
        for sym, child in system.expand(handle):
            weight = acc + sym.weight
            if weight > w_max:
                continue
            extended = labels + (sym.label,)
            assert extended not in seen, f"duplicate label tuple {extended}"
            seen.add(extended)
            counts[weight] = counts.get(weight, 0) + 1
            rec(child, extended, weight)

    rec(system.root, (), Fraction(0))
    return counts


def unit_fsm_counts(fsm, n_max: int) -> list:
    """Exact path counts per length via integer transfer-matrix powers."""
    size = fsm.num_states
    matrix = [[0] * size for _ in range(size)]
    for src, _, dst in fsm.transitions:
        matrix[src][dst] += 1
    vec = [0] * size
    vec[fsm.start] = 1
    totals = []
    for _ in range(n_max):
        vec = [sum(vec[i] * matrix[i][j] for i in range(size)) for j in range(size)]
        totals.append(sum(vec))
    return totals


def dyck_prefix_count(n: int) -> int:
    """Brute-force count of +-1 strings whose prefixes stay nonnegative."""
    count = 0
    for word in product((1, -1), repeat=n):
        balance = 0
        for step in word:
            balance += step
            if balance < 0:
                break
        else:
            count += 1
    return count


def rll_word_ok(word: str, d: int, k: int) -> bool:
    """Zero-run discipline with the sequence start treated as following a 1."""
    run = 0
    for ch in word:
        if ch == "0":
            run += 1
            if run > k:
                return False
        else:
            if run < d:
                return False
            run = 0
    return True


def bisect_root(f, lo: float, hi: float, iters: int = 200) -> float:
    """Plain bisection for a decreasing f with f(lo) > 0 > f(hi)."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def scalar_partition_root(weights, log_counts) -> tuple:
    """(value, lo, hi, residual, Newton steps) of sum_i c_i e^{-w_i s} = 1,
    one problem at a time in scalar Python floats.

    The reference for ``dncap.solvers.partition_root``'s batches: the same
    float operations in the same order (Newton from 0 on the logsumexp of
    ln c - w s, a bracket widened 4x from the Newton distance until the
    computed ln Z certifies both ends, at most 100 and 20 rounds), so a
    batch must match it bit for bit.
    """
    weights = np.asarray(weights, dtype=float)
    log_counts = np.asarray(log_counts, dtype=float)

    def solve(s):
        exponents = log_counts - weights * s
        top = exponents.max()
        q = np.exp(exponents - top)
        total = q.sum()
        return float(top + math.log(total)), float(weights @ q / total)

    s = 0.0
    for steps in range(101):
        log_f, decay = solve(s)
        step = log_f / decay
        if not s + step > s:
            break
        s += step
    else:
        raise AssertionError("reference Newton did not settle")
    margin = (abs(log_f) + 8 * float(np.finfo(float).eps)) / decay
    for _ in range(20):
        lo, hi = max(s - margin, 0.0), s + margin
        if solve(lo)[0] >= 0.0 and solve(hi)[0] <= 0.0:
            return s, lo, hi, abs(math.expm1(log_f)), steps
        margin *= 4.0
    raise AssertionError("reference bracket not certified")


def reference_frontier_walk(system, w_max=None):
    """``dncap.spectrum.frontier_walk`` with one merge step per branch.

    The reference for the grouped merge: per frontier entry it adds the
    entry's branch count to the budget (``spectrum.LEVEL_BUDGET`` when the
    walk starts) and raises once it is exceeded, and per branch it looks up
    (or creates) the group at acc + units itself, so groups and their
    entries appear in first-push order by construction.  Expansion, ids,
    the memo and rescaling are the walk's own.  With ``w_max`` it drops
    branches heavier than that, as the depth-major spectrum walk did: it is
    then the route ``reference_weight_spectrum`` counts by."""
    walk = "level walk" if w_max is None else f"weight spectrum walk to w_max {w_max}"
    budget = spectrum_module.LEVEL_BUDGET

    def bound_at(scale):
        return math.inf if w_max is None else math.floor(w_max * scale)

    frontier = {0: {0: 1}}
    ids, memo, pending = {system.root: 0}, [()], {0: system.root}
    scale, work, bound, depth = 1, 0, bound_at(1), 0
    while frontier:
        depth += 1
        fresh = set().union(*(group.keys() & pending.keys()
                              for group in frontier.values())) if pending else ()
        fresh = [(i, system.expand(pending.pop(i))) for i in fresh]
        factor = math.lcm(scale, *(
            sym.weight.denominator for _, branches in fresh for sym, _ in branches
        )) // scale
        if factor > 1:
            scale *= factor
            bound = bound_at(scale)
            frontier = {u * factor: group for u, group in frontier.items()}
            memo = [tuple((u * factor, child, sym) for u, child, sym in branches)
                    for branches in memo]
        for i, branches in fresh:
            for _, child in branches:
                if child not in ids:
                    ids[child], pending[len(memo)] = len(memo), child
                    memo.append(())
            memo[i] = tuple(
                (int(sym.weight * scale), ids[child], sym) for sym, child in branches
            )
        next_frontier = {}
        for acc, group in frontier.items():
            for handle, count in group.items():
                branches = memo[handle]
                work += len(branches)
                if work > budget:
                    raise BudgetExceededError(
                        f"{walk} exceeded budget of {budget} expansions at depth {depth}"
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


def reference_level_support(system, level: int) -> dict:
    """{weight: count} of the depth-``level`` paths, read off
    ``reference_frontier_walk`` under ``spectrum.LEVEL_BUDGET``."""
    frontier, scale, _ = next(islice(reference_frontier_walk(system, None), level - 1, None))
    return {Fraction(u, scale): sum(group.values()) for u, group in frontier.items()}


def reference_fsm_check(num_states, start, transitions) -> None:
    """``dncap.WeightedFsm``'s structural checks, per transition and per
    state: raises what its constructor raises, in the same order."""
    if num_states < 1:
        raise InvalidSystemError("an FSM needs at least one state")
    if not 0 <= start < num_states:
        raise InvalidSystemError(f"start state {start} out of range")
    for src, _, dst in transitions:
        if not (0 <= src < num_states and 0 <= dst < num_states):
            raise InvalidSystemError(f"transition ({src} -> {dst}) out of range")
    sources = sorted({src for src, _, _ in transitions})
    if len(sources) < num_states:
        state = next((i for i, source in enumerate(sources) if i != source), len(sources))
        raise InvalidSystemError(
            f"state {state} is a dead end (every state needs a successor)"
        )
    outgoing = {i: [] for i in range(num_states)}
    for src, sym, dst in transitions:
        outgoing[src].append((sym, dst))
    for state, outs in outgoing.items():
        labels = [sym.label for sym, _ in outs]
        if len(set(labels)) != len(labels):
            raise InvalidSystemError(f"state {state} has duplicate outgoing labels")
    successors = [[dst for _, dst in outs] for outs in outgoing.values()]
    reached = set(_reference_finish_order(successors, [start]))
    if len(reached) != num_states:
        missing = sorted(set(range(num_states)) - reached)
        raise InvalidSystemError(
            f"states {missing} unreachable from start (prune them first)"
        )


def _reference_finish_order(successors, roots, seen=None) -> list:
    seen = set() if seen is None else seen
    order = []
    for root in roots:
        path = [] if root in seen else [(root, iter(successors[root]))]
        seen.add(root)
        while path:
            nxt = next((x for x in path[-1][1] if x not in seen), None)
            if nxt is None:
                order.append(path.pop()[0])
            else:
                seen.add(nxt)
                path.append((nxt, iter(successors[nxt])))
    return order


def reference_strong_components(n: int, src, dst) -> np.ndarray:
    """``dncap.systems.strong_components`` with its own adjacency lists both
    ways, built from the edge arrays: Kosaraju over all ``n`` roots."""
    forward = [[] for _ in range(n)]
    backward = [[] for _ in range(n)]
    for i, j in zip(src.tolist(), dst.tolist()):
        forward[i].append(j)
        backward[j].append(i)
    label, seen = [0] * n, set()
    for root in reversed(_reference_finish_order(forward, range(n))):
        for state in _reference_finish_order(backward, [root], seen):
            label[state] = root
    return np.array(label)


def reference_fsm_rows(rows) -> list:
    """The spec loader's transition rows checked field by field and one
    ``Symbol`` built per row: (from, symbol, to) per row, or the
    ``SpecFileError`` of the first bad one."""
    transitions = []
    for i, row in enumerate(rows):
        where = f"spec.transitions[{i}]"
        if not isinstance(row, dict):
            raise SpecFileError(f"{where}: must be an object")
        src = _require(row, "from", int, where)
        dst = _require(row, "to", int, where)
        label = _require(row, "label", str, where)
        weight = _require(row, "weight", str, where)
        try:
            sym = Symbol(label, weight)
        except ValueError as exc:
            field = "weight" if label and not {"\t", "\n", "\r"} & {*label} else "label"
            raise SpecFileError(f"{where}.{field}: {exc}") from exc
        transitions.append((src, sym, dst))
    return transitions


# The weight spectrum as it was before it moved to integer units: a tuple of
# (Fraction, count) entries, read by estimators that build each weight's float
# and each count's log per entry.  The library's spectrum must match it bit
# for bit.


@dataclass(frozen=True)
class FractionSpectrum:
    entries: tuple
    w_max: Fraction

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def weights(self) -> tuple:
        return tuple(w for w, _ in self.entries)


def reference_weight_spectrum(system, w_max: Fraction):
    """``weight_spectrum(system, w_max)`` by the depth walk, bucketed by
    ``Fraction`` at every depth: a ``FractionSpectrum``."""
    counts = {}
    for frontier, scale, _ in reference_frontier_walk(system, w_max):
        for units, group in frontier.items():
            weight = Fraction(units, scale)
            counts[weight] = counts.get(weight, 0) + sum(group.values())
    return FractionSpectrum(tuple(sorted(counts.items())), w_max)


def reference_density_check(spectrum):
    """``density_check`` evaluated at every integer n = 1..floor(w_max): its
    ``checkpoints`` are that whole range.  A power past the float range is
    inf, as the library documents."""
    if not spectrum.entries:
        raise ValueError("density check needs a nonempty spectrum")
    floors = [w.numerator // w.denominator for w in spectrum.weights]
    n_range = tuple(range(1, math.floor(spectrum.w_max) + 1)) or (1,)
    k_of_n = tuple(bisect_left(floors, n) for n in n_range)
    points = [(n, k) for n, k in zip(n_range, k_of_n) if k >= 1]
    slopes = [
        (math.log(k2) - math.log(k1)) / (math.log(n2) - math.log(n1))
        for (n1, k1), (n2, k2) in zip(points, points[1:])
    ]
    fitted_k = max(slopes, default=0.0)
    fitted_k = max(fitted_k, 0.0)
    fitted_l = max((k / _reference_power(n, fitted_k) for n, k in points), default=0.0)
    passes = fitted_k <= DENSITY_POLY_CAP
    return DensityReport(n_range, k_of_n, fitted_l, fitted_k, passes)


def _reference_power(n: int, k: float) -> float:
    try:
        return n ** k
    except OverflowError:
        return math.inf


def reference_empirical_capacity(spectrum):
    if len(spectrum) < 2:
        raise ValueError("empirical capacity needs a spectrum with >= 2 entries")
    return tail_estimate([math.log(c) / float(w) for w, c in spectrum.entries])


def reference_spectrum_tsv(spectrum) -> str:
    lines = ["# weight\tcount\tc_k"]
    for weight, count in spectrum.entries:
        c_k = math.log(count) / float(weight)
        lines.append(
            f"{weight.numerator}/{weight.denominator}\t{decimal(count)}\t{c_k:.17g}"
        )
    return "\n".join(lines) + "\n"


def _reference_term(count: int, weight: float, s):
    sigma = s.real if isinstance(s, complex) else float(s)
    try:
        magnitude = math.exp(math.log(count) - weight * sigma)
    except OverflowError:
        magnitude = math.inf
    if isinstance(s, complex):
        return cmath.rect(magnitude, -weight * s.imag)
    return magnitude


def reference_gf_eval(spectrum, s):
    total = 0j if isinstance(s, complex) else 0.0
    for weight, count in spectrum.entries:
        total += _reference_term(count, float(weight), s)
    return total


def _reference_probe(spectrum, value: float) -> tuple[bool, bool]:
    s_above = value + PROBE_DELTA
    s_below = value - PROBE_DELTA
    terms_above = [_reference_term(c, float(w), s_above) for w, c in spectrum.entries]
    terms_below = [_reference_term(c, float(w), s_below) for w, c in spectrum.entries]
    sums_above = list(accumulate(terms_above))
    sums_below = list(accumulate(terms_below))
    window = max(2, tail_window(len(spectrum)))
    tail_above = terms_above[-window:]
    tail_below = terms_below[-window:]
    shrinking = all(
        nxt <= cur * (1.0 + _RATIO_SLACK)
        for cur, nxt in zip(tail_above, tail_above[1:])
    )
    converges_above = shrinking and sums_above[-1] < DIVERGENCE_THRESHOLD
    growing = all(
        nxt >= cur * (1.0 - _RATIO_SLACK)
        for cur, nxt in zip(tail_below, tail_below[1:])
    ) and tail_below[-1] > tail_below[0]
    diverges_below = sums_below[-1] >= DIVERGENCE_THRESHOLD or growing
    return converges_above, diverges_below


def reference_abscissa_estimate(spectrum):
    report = reference_density_check(spectrum)
    if not report.passes:
        raise EstimatorError(
            "weight sequence densifies faster than polynomially; the "
            "count-based abscissa estimate is meaningless here "
            f"(fitted exponent {report.fitted_K:.3g} exceeds cap "
            f"{DENSITY_POLY_CAP})"
        )
    empirical = reference_empirical_capacity(spectrum)
    converges_above, diverges_below = _reference_probe(spectrum, empirical.value)
    if not (converges_above and diverges_below):
        raise EstimatorError(
            "convergence probe contradicts the abscissa estimate "
            f"{empirical.value:.6g}: converges_above={converges_above}, "
            f"diverges_below={diverges_below}"
        )
    return replace(empirical, method=ABSCISSA)


GOLDEN_RATIO = (1.0 + math.sqrt(5.0)) / 2.0
LN_GOLDEN = math.log(GOLDEN_RATIO)


_LONG = 2 ** 63


def compensated_sum(iterable, /, start=0):
    """The builtin ``sum`` of Python 3.12 and later, which adds exact float
    terms with Neumaier's compensation; earlier versions round once per term.
    Matches Python 3.12.1's ``sum`` on mixes of ints, bools, floats (inf and
    -0.0 too) and Fractions."""
    items = iter(iterable)
    result = start
    if type(result) is int:
        for item in items:
            if type(item) in (int, bool) and -_LONG <= result + item < _LONG:
                result += item
                continue
            result = result + item
            break
    if type(result) is float:
        total, comp = result, 0.0
        for item in items:
            if type(item) is float:
                step = total + item
                if abs(total) >= abs(item):
                    comp += (total - step) + item
                else:
                    comp += (item - step) + total
                total = step
            elif isinstance(item, int) and -_LONG <= item < _LONG:
                total += float(item)
            else:
                if comp and math.isfinite(comp):
                    total += comp
                result = total + item
                break
        else:
            if comp and math.isfinite(comp):
                total += comp
            return total
    for item in items:
        result = result + item
    return result
