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
from itertools import repeat

import numpy as np

from . import maxent
from .capacity import fsm_capacity
from .errors import BudgetExceededError, EstimatorError, InvalidSystemError
from .solvers import left_sum, perron
from .spectrum import frontier_walk
from .systems import BranchSystem, Symbol, WeightedFsm

_ROW_SUM_TOL = 1e-8
_RATE_CHECK_TOL = 1e-6
SAMPLE_BUDGET = 2 ** 28  # bytes of label codes and per-path arrays one draw may hold


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
                    mean_weight += pi * prob * sym._float
        return entropy / mean_weight


def maxent_chain(fsm: WeightedFsm) -> MaxentChain:
    """Build the stationary maxentropic chain of an FSM at its capacity.

    s* is ``fsm_capacity(fsm).value``; one ``perron`` call on the transition
    list of M(s*) gives v for the tilt and u o v for the stationary law.
    """
    if not fsm.is_strongly_connected():
        raise InvalidSystemError(
            "chain construction needs a strongly connected FSM "
            "(otherwise the Perron eigenvector is not unique)"
        )
    s_star = fsm_capacity(fsm).value
    src, weights, dst = fsm.edges
    p = perron(fsm.num_states, src, np.exp(-weights * s_star), dst)
    vector = p.right / p.right[fsm.start]
    # math.exp, not np.exp: the two differ in the last bit on some inputs
    tilt = [math.exp(-w * s_star) for w in weights.tolist()]
    probs = vector[dst] / vector[src] * tilt
    row_sums = np.bincount(src, weights=probs, minlength=fsm.num_states)
    bad = np.flatnonzero(abs(row_sums - 1.0) > _ROW_SUM_TOL)
    if len(bad):
        raise EstimatorError(f"state {bad[0]}: transition probabilities sum to "
                             f"{float(row_sums[bad[0]])}")
    by_row = iter(probs[np.argsort(src, kind="stable")].tolist())
    rows = [tuple((sym, to, next(by_row)) for sym, to in outs)
            for outs in fsm.outgoing.values()]
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


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Sampled paths, kept as read-only arrays: ``labels[i, t]`` codes path
    i's label at step t into ``names``, and ``weight`` and ``log_prob`` are
    per path.  ``paths`` decodes them on first read."""

    names: tuple[str, ...]
    labels: np.ndarray
    weight: np.ndarray
    log_prob: np.ndarray
    seed: int

    def __post_init__(self):
        for array in (self.labels, self.weight, self.log_prob):
            array.flags.writeable = False

    @property
    def steps(self) -> int:
        return self.labels.shape[1]

    @functools.cached_property
    def paths(self) -> tuple[SamplePath, ...]:
        rows = map(tuple, np.array(self.names, dtype=object).take(self.labels).tolist())
        return tuple(map(SamplePath, rows, self.weight.tolist(), self.log_prob.tolist()))


def _padded(lengths, *columns):
    """Flat per-branch columns as zero-padded (branch x row) arrays, after
    the mask of real branches.

    Each column is filled through its transposed view, so the flat entries
    keep their row order."""
    lengths = np.asarray(lengths, dtype=np.intp)
    valid = np.arange(lengths.max(initial=0))[:, None] < lengths
    padded = [valid]
    for column in map(np.asarray, columns):
        padded.append(np.zeros(valid.shape, column.dtype))
        padded[-1].T[valid.T] = column
    return padded


def _table(ln_q, valid, child, weight, label, ln_total=None):
    """One step's table from (branch x row) arrays; ``valid`` marks real
    branches, and ln q elsewhere is ignored.  ``ln_total`` is each row's
    ln sum q when the caller already has it, reduced here otherwise.

    Returns the (branch x row) cumulative p and the flat child,
    ln p = ln q - ln sum q, weight and label arrays, read at
    ``branch * rows + row``.  A branch with q = 0, or any branch of a row
    with none, has ln p = -inf.  A row's last branch with q > 0 and every
    cumulative entry after it are inf, so no draw falls past it."""
    ln_q = np.where(valid, ln_q, -np.inf)
    live = ln_q > -np.inf
    if ln_total is None:
        ln_total = np.logaddexp.reduce(ln_q, axis=0)
    ln_p = np.subtract(ln_q, ln_total, out=np.full(ln_q.shape, -np.inf),
                       where=live)
    branch = np.arange(ln_q.shape[0])[:, None]
    last = np.where(live, branch, 0).max(axis=0)
    cum = np.where(branch >= last, np.inf, np.cumsum(np.exp(ln_p), axis=0))
    return cum, child.ravel(), ln_p.ravel(), weight.ravel(), label.ravel()


@np.errstate(over="ignore")  # an inf weight raises once, after the last step
def _lock_step(tables, names, start: int, count: int, steps: int, seed: int):
    """Advance ``count`` paths at once, one table per step: path i takes the
    first branch whose cumulative p reaches the step's i-th uniform draw.

    A path's branch is the number of its row's cumulative entries below its
    draw, one 1-D gather per branch but the last, whose entry is always inf;
    label, weight, ln p and child are then gathered at ``branch * rows +
    row``.  Returns a ``SampleSet`` of the (path x step) codes into ``names``
    of the labels drawn and each path's weight and log probability; a weight
    past the float range raises ``OverflowError``."""
    rng = np.random.default_rng(seed)
    state = np.full(count, start)
    labels = np.empty((count, steps), dtype=np.min_scalar_type(len(names)))
    weight, log_prob = np.zeros((2, count))
    for step, (cum, child, ln_p, step_weight, label) in enumerate(tables):
        u = rng.random(count)
        drawn = np.zeros(count, dtype=np.intp)
        for row in cum[:-1]:
            drawn += row.take(state) < u
        at = drawn * cum.shape[1] + state
        labels[:, step] = label.take(at)
        weight += step_weight.take(at)
        log_prob += ln_p.take(at)
        state = child.take(at)
    if np.isinf(weight).any():
        raise OverflowError("a sampled path's weight is past the float range")
    return SampleSet(tuple(names), labels, weight, log_prob, seed)


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


def _check_sample_size(count: int, steps: int) -> None:
    """Raise ``BudgetExceededError`` before a draw of ``count`` paths of
    ``steps`` labels allocates past ``SAMPLE_BUDGET`` bytes, counting one
    byte a label code and eight 8-byte values a path."""
    if count * (steps + 64) > SAMPLE_BUDGET:
        raise BudgetExceededError(f"a sample of {count} paths x {steps} steps is past "
                                  f"the sample budget of {SAMPLE_BUDGET} bytes")


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
    _check_sample_size(count, steps)
    code: dict[str, int] = {}
    flat = [branch for row in chain.transition_probs for branch in row]
    valid, ln_q, child, weight, label = _padded(
        [len(row) for row in chain.transition_probs],
        [math.log(prob) if prob else -math.inf for _, _, prob in flat],
        [dst for _, dst, _ in flat],
        [sym._float for sym, _, _ in flat],
        [code.setdefault(sym.label, len(code)) for sym, _, _ in flat],
    )
    tables = repeat(_table(ln_q, valid, child, weight, label), steps)
    samples = _lock_step(tables, code, chain.fsm.start, count, steps, seed)
    _check_accepted(chain.fsm, samples.names, samples.labels)
    return samples


def empirical_entropy_rate(samples: SampleSet) -> float:
    """Plug-in estimate: total negative log probability over total weight."""
    if not len(samples.weight):
        raise ValueError("empty sample set")
    # summed in path order: np.sum's pairwise order moves the last bits
    return -left_sum(samples.log_prob.tolist()) / left_sum(samples.weight.tolist())


_BLOCK_ROWS = 1 << 12  # handle rows in one level-sampler table; larger blocks raise peak RSS


def sample_level_paths(
    system: BranchSystem, level: int, count: int, seed: int
) -> SampleSet:
    """Exact maxent sampling at one depth for systems without a chain.

    Branch probabilities are proportional to e^{-w R_l} times the subtree
    partition sum of the child at the remaining depth, which reproduces
    q(x) = e^{-w(x) R_l} exactly.  One frontier walk gives R_l, each depth's
    handles (as the integer ids keying its groups) and, in its memo by id,
    each handle's branches, laid out once as (branch x handle id) arrays.
    Log subtree sums are filled in from the deepest level up in one buffer
    by handle id, since a depth's children are exactly the next depth's
    handles; each depth's are kept, and the root's must be 0: R_l solves
    the same sum over the whole support.  The draws then build one table per
    block of consecutive depths, at most ``_BLOCK_ROWS`` handle rows whose
    row totals are their ln Z; each depth's handle ids are sorted, so one
    ``np.searchsorted`` on the keys depth * len(memo) + id gives every child
    its row.  A sample past ``SAMPLE_BUDGET`` is refused before the walk,
    the walk is capped at ``spectrum.LEVEL_BUDGET`` expansions, and a level
    past the end of a finite tree raises ``ValueError``.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    _check_sample_size(count, level)
    depths = [np.zeros(1, dtype=np.intp)]  # each depth's distinct handle ids, sorted
    for frontier, scale, memo in frontier_walk(system, level):
        groups = list(frontier.values())
        at = groups[0] if len(groups) == 1 else set().union(*groups)
        depths.append(np.sort(np.fromiter(at, dtype=np.intp, count=len(at))))
    rate = maxent._solve_levels([maxent._level_row(frontier, scale)], level)[0].rate
    code: dict[str, int] = {}
    flat = [branch for row in memo for branch in row]
    valid, child, weight, label = _padded(
        [len(row) for row in memo],
        [to for _, to, _ in flat],
        [sym._float for _, _, sym in flat],
        [code.setdefault(sym.label, len(code)) for _, _, sym in flat],
    )
    cost = weight * rate
    buffer = np.zeros(len(memo))  # ln Z by handle id, one depth at a time
    log_z = [None] * level + [buffer[depths[level]]]
    for depth in reversed(range(level)):
        at = depths[depth]
        ln_q = np.where(valid.take(at, axis=1),
                        buffer.take(child.take(at, axis=1)) - cost.take(at, axis=1),
                        -np.inf)
        buffer[at] = log_z[depth] = np.logaddexp.reduce(ln_q, axis=0)
    root = float(log_z[0][0])
    if abs(root) > _ROW_SUM_TOL:
        raise EstimatorError(
            f"level {level}: root subtree sum has ln Z = {root}, not 0, "
            f"at rate {rate}"
        )

    def tables():
        first = 0
        while first < level:  # depths first to last - 1 share one table
            last, rows = first + 1, len(depths[first])
            while last < level and rows + len(depths[last]) <= _BLOCK_ROWS:
                rows, last = rows + len(depths[last]), last + 1
            # sorted keys of the block's depths and the next one's, which
            # numbers from row 0 of the next block
            key = np.concatenate([depth * len(memo) + depths[depth]
                                  for depth in range(first, last + 1)])
            ln_z = np.concatenate(log_z[first:last + 1])
            at = key[:rows] % len(memo)
            real = valid.take(at, axis=1)
            # a child's key is its parent's plus one depth; padding reads row 0
            below = np.where(real, np.searchsorted(
                key, key[:rows] - at + len(memo) + child.take(at, axis=1)), 0)
            ln_q = ln_z.take(below) - cost.take(at, axis=1)
            to = np.where(below < rows, below, below - rows)
            yield from repeat(_table(ln_q, real, to, weight.take(at, axis=1),
                                     label.take(at, axis=1), ln_z[:rows]), last - first)
            first = last

    return _lock_step(tables(), code, 0, count, level, seed)


_WRITE_SYMBOLS = 1 << 14  # labels looked up at once; larger blocks raise peak RSS


def samples_tsv(samples: SampleSet) -> str:
    """One path per line: concatenated labels, weight, log probability.

    Written from the arrays, about ``_WRITE_SYMBOLS`` labels at a time.
    Labels of one length without NUL (which numpy strings drop) map through
    a fixed-width lookup, each row viewed as one string; others are joined."""
    names, labels, steps = samples.names, samples.labels, samples.steps
    width = len(names[0]) if names else 0
    fixed = {len(x) for x in names} == {width} and "\0" not in "".join(names)
    lookup = np.array(names, dtype=f"U{width}" if fixed else object)
    block = max(1, _WRITE_SYMBOLS // max(1, steps))  # rows per block
    chunks = ["# labels\tweight\tlog_prob\n"]
    for first in range(0, len(labels), block):
        rows = slice(first, first + block)
        codes = lookup.take(labels[rows])
        text = (codes.view(f"U{width * steps}").ravel().tolist() if fixed
                else map("".join, codes.tolist()))
        chunks.append("".join(map("{}\t{:.17g}\t{:.17g}\n".format, text,
                                  samples.weight[rows].tolist(),
                                  samples.log_prob[rows].tolist())))
    return "".join(chunks)
