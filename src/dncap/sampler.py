"""Maxentropic sampling: stationary chains for FSMs, level samplers otherwise.

For a regular channel the capacity-achieving source is an explicit Markov
chain (Parry 1964): scale each transition by e^{-w s*} and tilt by the Perron
right eigenvector v of M(s*); with u the left one, its stationary law is u o v.
Non-regular channels are sampled exactly from the depth-l maxent distribution
via subtree partition sums, with no optimality claim beyond the solved level.
"""

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from . import maxent
from .capacity import fsm_capacity, transition_matrix
from .errors import EstimatorError, InvalidSystemError
from .solvers import perron
from .spectrum import depth_buckets
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


def maxent_chain(fsm: WeightedFsm) -> MaxentChain:
    """Build the stationary maxentropic chain of an FSM at its capacity.

    s* is ``fsm_capacity(fsm).value``; one ``perron`` call on M(s*) gives v
    for the tilt and u o v for the stationary law.
    """
    if not fsm.is_strongly_connected():
        raise InvalidSystemError(
            "chain construction needs a strongly connected FSM "
            "(otherwise the Perron eigenvector is not unique)"
        )
    s_star = fsm_capacity(fsm).value
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


def _padded(lengths, *columns):
    """Flat per-branch columns as zero-padded (row x branch) arrays, after
    the mask of real branches."""
    lengths = np.asarray(lengths, dtype=np.intp)
    valid = np.arange(lengths.max(initial=0)) < lengths[:, None]
    padded = [valid]
    for column in map(np.asarray, columns):
        padded.append(np.zeros(valid.shape, column.dtype))
        padded[-1][valid] = column
    return padded


def _table(ln_q, valid, child, weight, label):
    """One step's table from (state x branch) arrays; ``valid`` marks real
    branches, and ln q elsewhere is ignored.

    Returns the (state x branch) cumulative p and the flat child,
    ln p = ln q - ln sum q, weight and label arrays, read at
    ``state * width + branch``.  A branch with q = 0, or any branch of a row
    with none, has ln p = -inf.  A row's last branch with q > 0 and every
    cumulative entry after it are inf, so no draw falls past it."""
    ln_q = np.where(valid, ln_q, -np.inf)
    live = ln_q > -np.inf
    ln_total = np.logaddexp.reduce(ln_q, axis=1, keepdims=True)
    ln_p = np.subtract(ln_q, ln_total, out=np.full(ln_q.shape, -np.inf),
                       where=live)
    branch = np.arange(ln_q.shape[1])
    last = np.where(live, branch, 0).max(axis=1, keepdims=True)
    cum = np.where(branch >= last, np.inf, np.cumsum(np.exp(ln_p), axis=1))
    return cum, child.ravel(), ln_p.ravel(), weight.ravel(), label.ravel()


def _lock_step(tables, names, start: int, count: int, steps: int, seed: int):
    """Advance ``count`` paths at once, one table per step: path i takes the
    first branch whose cumulative p reaches the step's i-th uniform draw.

    Returns the (path x step) codes into ``names`` of the labels drawn and
    each path's weight and log probability."""
    rng = np.random.default_rng(seed)
    state = np.full(count, start)
    labels = np.empty((count, steps), dtype=np.min_scalar_type(len(names)))
    weight, log_prob = np.zeros((2, count))
    for step, (cum, child, ln_p, step_weight, label) in enumerate(tables):
        drawn = (cum[state] < rng.random(count)[:, None]).sum(axis=1)
        at = state * cum.shape[1] + drawn
        labels[:, step] = label[at]
        weight += step_weight[at]
        log_prob += ln_p[at]
        state = child[at]
    return labels, weight, log_prob


def _sample_set(names, labels, weight, log_prob, seed: int) -> SampleSet:
    """Label codes decoded through ``names``, one path per row."""
    rows = (tuple(map(names.__getitem__, row.tolist())) for row in labels)
    paths = tuple(map(SamplePath, rows, weight.tolist(), log_prob.tolist()))
    return SampleSet(paths=paths, seed=seed, steps=labels.shape[1])


def _check_accepted(fsm: WeightedFsm, names, labels) -> None:
    """Raise ``EstimatorError`` naming the first row of label codes into
    ``names`` that ``fsm`` does not accept.

    Every row walks at once through a flat (state x label code) next-state
    table built from ``fsm.transitions``, one column per step.  A missing
    edge is -1, which indexes an extra all -1 row, so a rejected row stays
    rejected."""
    code = {name: i for i, name in enumerate(names)}
    width = len(names)
    step = np.full((fsm.num_states + 1) * width, -1)
    for src, sym, dst in fsm.transitions:
        if sym.label in code:
            step[src * width + code[sym.label]] = dst
    state = np.full(len(labels), fsm.start)
    for column in labels.T:
        state = step[state * width + column]
    rejected = np.flatnonzero(state < 0)
    if len(rejected):
        row = labels[rejected[0]].tolist()
        raise EstimatorError(
            f"sampled sequence rejected by the FSM: {''.join(names[c] for c in row)}"
        )


def sample_paths(chain: MaxentChain, count: int, steps: int, seed: int) -> SampleSet:
    """Draw ``count`` label sequences of ``steps`` transitions each.

    Deterministic given ``seed``.  The chain's rows become one table that
    every step reuses.  All sampled sequences are then re-walked together
    through a next-state table built from the FSM's transitions, not from
    the rows, and the first one it rejects raises ``EstimatorError``; the
    per-path log probability and total weight are recorded exactly as
    generated.
    """
    if count < 1 or steps < 1:
        raise ValueError("count and steps must be >= 1")
    code: dict[str, int] = {}
    flat = [branch for row in chain.transition_probs for branch in row]
    valid, ln_q, child, weight, label = _padded(
        [len(row) for row in chain.transition_probs],
        [math.log(prob) if prob else -math.inf for _, _, prob in flat],
        [dst for _, dst, _ in flat],
        [float(sym.weight) for sym, _, _ in flat],
        [code.setdefault(sym.label, len(code)) for sym, _, _ in flat],
    )
    tables = repeat(_table(ln_q, valid, child, weight, label), steps)
    names = list(code)
    labels, weight, log_prob = _lock_step(
        tables, names, chain.fsm.start, count, steps, seed
    )
    _check_accepted(chain.fsm, names, labels)
    return _sample_set(names, labels, weight, log_prob, seed)


def empirical_entropy_rate(samples: SampleSet) -> float:
    """Plug-in estimate: total negative log probability over total weight."""
    if not samples.paths:
        raise ValueError("empty sample set")
    neg_log = -sum(path.log_prob for path in samples.paths)
    total_weight = sum(path.weight for path in samples.paths)
    return neg_log / total_weight


def sample_level_paths(
    system: BranchSystem, level: int, count: int, seed: int
) -> SampleSet:
    """Exact maxent sampling at one depth for systems without a chain.

    Branch probabilities are proportional to e^{-w R_l} times the subtree
    partition sum of the child at the remaining depth, which reproduces
    q(x) = e^{-w(x) R_l} exactly.  One frontier walk gives R_l, each depth's
    handles (as integer ids) and, in its memo, each handle's branches, laid
    out once as (handle id x branch) arrays.  Log subtree sums are filled in
    from the deepest level up in one buffer by handle id, since a depth's
    children are exactly the next depth's handles; each depth's are kept,
    and the root's must be 0: R_l solves the same sum over the whole
    support.  The draws then build each depth's table once, a gather over
    that depth's handles.  The walk is capped at ``maxent.LEVEL_BUDGET``
    expansions, and a level past the end of a finite tree raises
    ``ValueError``.
    """
    if count < 1 or level < 1:
        raise ValueError("count and level must be >= 1")
    ids = {system.root: 0}
    depths = [np.zeros(1, dtype=np.intp)]  # each depth's distinct handle ids
    for frontier, scale, memo in maxent._level_walk(system, level):
        seen = dict.fromkeys(
            ids.setdefault(h, len(ids)) for group in frontier.values() for h in group
        )
        depths.append(np.fromiter(seen, dtype=np.intp, count=len(seen)))
    rate = maxent._solve_buckets(level, depth_buckets(frontier, scale)).rate
    code: dict[str, int] = {}
    rows = [memo.get(handle, ()) for handle in ids]  # in id order
    flat = [branch for row in rows for branch in row]
    valid, child, weight, label = _padded(
        [len(row) for row in rows],
        [ids[handle] for _, handle, _ in flat],
        [float(sym.weight) for _, _, sym in flat],
        [code.setdefault(sym.label, len(code)) for _, _, sym in flat],
    )
    buffer = np.zeros(len(ids))  # ln Z by handle id, one depth at a time
    log_z = [None] * level + [buffer[depths[level]]]
    for depth in reversed(range(level)):
        at = depths[depth]
        ln_q = np.where(valid[at], buffer[child[at]] - weight[at] * rate, -np.inf)
        buffer[at] = log_z[depth] = np.logaddexp.reduce(ln_q, axis=1)
    root = float(log_z[0][0])
    if abs(root) > _ROW_SUM_TOL:
        raise EstimatorError(
            f"level {level}: root subtree sum has ln Z = {root}, not 0, "
            f"at rate {rate}"
        )
    position = np.zeros(len(ids), dtype=np.intp)  # id -> index at one depth

    def table(depth):
        at, below = depths[depth], depths[depth + 1]
        position[below] = np.arange(len(below))
        real = valid[at]
        to = np.where(real, position[child[at]], 0)  # padding reads index 0
        ln_q = log_z[depth + 1][to] - weight[at] * rate
        return _table(ln_q, real, to, weight[at], label[at])

    names = list(code)
    drawn = _lock_step(map(table, range(level)), names, 0, count, level, seed)
    return _sample_set(names, *drawn, seed)


def samples_tsv(samples: SampleSet) -> str:
    """One path per line: concatenated labels, weight, log probability."""
    lines = ["# labels\tweight\tlog_prob"]
    for path in samples.paths:
        lines.append(
            f"{''.join(path.labels)}\t{path.weight:.17g}\t{path.log_prob:.17g}"
        )
    return "\n".join(lines) + "\n"
