"""Independent oracles used to freeze expected values.

Everything here counts or solves by a route different from the library code
under test: explicit string enumeration instead of merged frontiers, integer
matrix powers instead of weighted walks, and closed forms where they exist.
``scalar_partition_root`` and ``reference_frontier_walk`` instead keep a
kernel's earlier loop, which its rewrite must match exactly.
"""

import math
from fractions import Fraction
from itertools import product

import numpy as np

from dncap.errors import BudgetExceededError


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


def reference_frontier_walk(system, w_max, budget: int):
    """``dncap.spectrum.frontier_walk`` with one merge step per branch.

    The reference for the grouped merge: per frontier entry it adds the
    entry's branch count to the budget and raises once it is exceeded, and
    per branch it looks up (or creates) the group at acc + units itself, so
    groups and their entries appear in first-push order by construction.
    Expansion, ids, the memo and rescaling are the walk's own."""
    walk = "level walk" if w_max is None else f"weight spectrum walk to w_max {w_max}"

    def exact(weight):
        return isinstance(weight, (Fraction, int))

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
            sym.weight.denominator for _, branches in fresh
            for sym, _ in branches if exact(sym.weight)
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
                (int(sym.weight * scale) if exact(sym.weight) else sym.weight * scale,
                 ids[child], sym)
                for sym, child in branches
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

GOLDEN_RATIO = (1.0 + math.sqrt(5.0)) / 2.0
LN_GOLDEN = math.log(GOLDEN_RATIO)
