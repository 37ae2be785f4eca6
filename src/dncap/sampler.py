"""Maxentropic sampling: stationary chains for FSMs, level samplers otherwise.

For a regular channel the capacity-achieving source is an explicit Markov
chain (Parry 1964): scale each transition by e^{-w s*} and tilt by the Perron
right eigenvector v of M(s*); with u the left one, its stationary law is u o v.
Non-regular channels are sampled exactly from the depth-l maxent distribution
via subtree partition sums, with no optimality claim beyond the solved level.
"""

import functools
import math
from dataclasses import dataclass
from itertools import islice, repeat

import numpy as np

from .capacity import transition_matrix
from .errors import EstimatorError, InvalidSystemError
from .estimates import SPECTRAL_RADIUS, CapacityEstimate
from .maxent import LEVEL_BUDGET, _depth_buckets, _solve_buckets
from .solvers import perron
from .spectrum import frontier_walk
from .systems import BranchSystem, Symbol, WeightedFsm

_ROW_SUM_TOL = 1e-8
_RATE_CHECK_TOL = 1e-6


@dataclass(frozen=True)
class MaxentChain:
    """The maxentropic Markov chain of a strongly connected weighted FSM.

    ``transition_probs[i]`` lists (symbol, next state, probability) with
    probability (b_j / b_i) e^{-w s*}, where b is the Perron right
    eigenvector of M(s*) normalized so the start entry is 1.  Rows sum to
    one and the stationary entropy rate per unit weight reproduces s*.
    """

    fsm: WeightedFsm
    capacity: float
    transition_probs: tuple[tuple[tuple[Symbol, int, float], ...], ...]
    right_eigvec: tuple[float, ...]
    stationary: tuple[float, ...]

    def analytic_entropy_rate(self) -> float:
        """Stationary per-step entropy over stationary per-step weight."""
        entropy = 0.0
        mean_weight = 0.0
        for pi, row in zip(self.stationary, self.transition_probs):
            for sym, _, prob in row:
                if prob > 0.0:
                    entropy -= pi * prob * math.log(prob)
                    mean_weight += pi * prob * float(sym.weight)
        return entropy / mean_weight


def maxent_chain(fsm: WeightedFsm, capacity: CapacityEstimate) -> MaxentChain:
    """Build the stationary maxentropic chain from an fsm capacity estimate.

    One ``perron`` call on M(s*) gives v for the tilt and u o v for the
    stationary law.
    """
    if capacity.method != SPECTRAL_RADIUS:
        raise ValueError("capacity must come from the spectral-radius solver")
    if not fsm.is_strongly_connected():
        raise InvalidSystemError(
            "chain construction needs a strongly connected FSM "
            "(otherwise the Perron eigenvector is not unique)"
        )
    s_star = capacity.value
    p = perron(transition_matrix(fsm, s_star))
    vector = p.right / p.right[fsm.start]
    rows = []
    for state in range(fsm.num_states):
        row = []
        for sym, dst in fsm.outgoing[state]:
            prob = (vector[dst] / vector[state]) * math.exp(
                -float(sym.weight) * s_star
            )
            row.append((sym, dst, float(prob)))
        row_sum = sum(prob for _, _, prob in row)
        if abs(row_sum - 1.0) > _ROW_SUM_TOL:
            raise EstimatorError(
                f"state {state}: transition probabilities sum to {row_sum}"
            )
        rows.append(tuple(row))
    stationary = p.left * p.right / (p.left @ p.right)
    chain = MaxentChain(
        fsm=fsm,
        capacity=s_star,
        transition_probs=tuple(rows),
        right_eigvec=tuple(float(b) for b in vector),
        stationary=tuple(float(p) for p in stationary),
    )
    rate = chain.analytic_entropy_rate()
    if abs(rate - s_star) > _RATE_CHECK_TOL:
        raise EstimatorError(
            f"chain entropy rate {rate} disagrees with capacity {s_star}"
        )
    return chain


@dataclass(frozen=True)
class SamplePath:
    labels: tuple[str, ...]
    weight: float
    log_prob: float


@dataclass(frozen=True)
class SampleSet:
    paths: tuple[SamplePath, ...]
    seed: int
    steps: int


def _table(rows):
    """One step's table for rows of (label code, weight, child, ln q) branches.

    Returns each row's ln sum q and the (state x branch) arrays of cumulative
    p, child, ln p = ln q - ln sum q, weight and label.  A row's last
    cumulative entry and its padding are inf, so no draw falls past it."""
    width = max(map(len, rows))
    pad = [(0, 0, 0, -np.inf)]
    flat = [b for row in rows for b in row + pad * (width - len(row))]
    label, weight, child, ln_q = (
        np.array(column, dtype=kind).reshape(len(rows), width)
        for column, kind in zip(zip(*flat), (np.intp, float, np.intp, float))
    )
    ln_total = np.logaddexp.reduce(ln_q, axis=1)
    ln_p = ln_q - ln_total[:, None]
    last = np.array([len(row) - 1 for row in rows])[:, None]
    cum = np.where(np.arange(width) >= last, np.inf, np.cumsum(np.exp(ln_p), axis=1))
    return ln_total, cum, child, ln_p, weight, label


def _lock_step(tables, names, start: int, count: int, steps: int, seed: int):
    """Advance ``count`` paths at once, one table per step: path i takes the
    first branch whose cumulative p reaches the step's i-th uniform draw.
    Labels are kept as codes into ``names`` until the paths are built."""
    rng = np.random.default_rng(seed)
    state = np.full(count, start)
    labels = np.empty((count, steps), dtype=np.min_scalar_type(len(names)))
    weight, log_prob = np.zeros((2, count))
    for step, (_, cum, child, ln_p, step_weight, label) in enumerate(tables):
        at = state, (cum[state] < rng.random(count)[:, None]).sum(axis=1)
        labels[:, step] = label[at]
        weight += step_weight[at]
        log_prob += ln_p[at]
        state = child[at]
    rows = (tuple(map(names.__getitem__, row.tolist())) for row in labels)
    return tuple(map(SamplePath, rows, weight.tolist(), log_prob.tolist()))


def sample_paths(chain: MaxentChain, count: int, steps: int, seed: int) -> SampleSet:
    """Draw ``count`` label sequences of ``steps`` transitions each.

    Deterministic given ``seed``.  Every sampled sequence is re-checked
    against the FSM's acceptance walk; the per-path log probability and total
    weight are recorded exactly as generated.
    """
    if count < 1 or steps < 1:
        raise ValueError("count and steps must be >= 1")
    code: dict[str, int] = {}
    table = _table([
        [(code.setdefault(sym.label, len(code)), sym.weight, dst,
          math.log(prob) if prob else -math.inf) for sym, dst, prob in row]
        for row in chain.transition_probs
    ])
    tables = repeat(table, steps)
    paths = _lock_step(tables, list(code), chain.fsm.start, count, steps, seed)
    for path in paths:
        if not chain.fsm.accepts(path.labels):
            raise EstimatorError(
                f"sampled sequence rejected by the FSM: {''.join(path.labels)}"
            )
    return SampleSet(paths=paths, seed=seed, steps=steps)


def empirical_entropy_rate(samples: SampleSet) -> float:
    """Plug-in estimate: total negative log probability over total weight."""
    if not samples.paths:
        raise ValueError("empty sample set")
    neg_log = -sum(path.log_prob for path in samples.paths)
    total_weight = sum(path.weight for path in samples.paths)
    return neg_log / total_weight


def sample_level_paths(
    system: BranchSystem, level: int, count: int, seed: int,
    budget: int = LEVEL_BUDGET,
) -> SampleSet:
    """Exact maxent sampling at one depth for systems without a chain.

    Branch probabilities are proportional to e^{-w R_l} times the subtree
    partition sum of the child at the remaining depth, which reproduces
    q(x) = e^{-w(x) R_l} exactly.  One frontier walk gives R_l and each
    depth's handles; log subtree sums are filled in from the deepest level up.
    """
    if count < 1 or level < 1:
        raise ValueError("count and level must be >= 1")
    handles = [(system.root,)]
    for frontier in islice(frontier_walk(system, budget=budget), level):
        handles.append(tuple(dict.fromkeys(handle for handle, _ in frontier)))
    rate = _solve_buckets(level, _depth_buckets(frontier)).rate
    code: dict[str, int] = {}
    expand = functools.cache(lambda handle: [  # codes and floats each branch once
        (code.setdefault(sym.label, len(code)), float(sym.weight), child)
        for sym, child in system.expand(handle)])

    def table(depth):
        below = {handle: i for i, handle in enumerate(handles[depth + 1])}
        ln_z = log_z[depth + 1].tolist()
        return _table([
            [(label, w, below[child], ln_z[below[child]] - w * rate)
             for label, w, child in expand(handle)] for handle in handles[depth]
        ])

    log_z = [None] * level + [np.zeros(len(handles[level]))]
    for depth in reversed(range(level)):
        log_z[depth] = table(depth)[0]
    paths = _lock_step(map(table, range(level)), list(code), 0, count, level, seed)
    return SampleSet(paths=paths, seed=seed, steps=level)


def samples_tsv(samples: SampleSet) -> str:
    """One path per line: concatenated labels, weight, log probability."""
    lines = ["# labels\tweight\tlog_prob"]
    for path in samples.paths:
        lines.append(
            f"{''.join(path.labels)}\t{path.weight:.17g}\t{path.log_prob:.17g}"
        )
    return "\n".join(lines) + "\n"
