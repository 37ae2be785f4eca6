"""Maxentropic sampling: the capacity-achieving Markov chain of an FSM
(Parry 1964), and for other channels exact draws from the depth-l maxent
distribution, with no optimality claim beyond the solved level.
"""

import functools
import math
from dataclasses import dataclass
from itertools import accumulate, repeat

import numpy as np

from . import maxent
from .capacity import _fsm_root
from .errors import BudgetExceededError, EstimatorError, InvalidSystemError
from .solvers import left_sum
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
    eigenvector of M(s*) normalized so the start entry is 1, and
    ``stationary`` is u o b / u^T b, u the left one.  Rows sum to one and
    the stationary entropy rate per unit weight reproduces s*.

    Construction raises ``InvalidSystemError``, naming the first state that
    differs, unless row i lists exactly the (symbol, next state) pairs of
    ``fsm.outgoing[i]``, in order, one row per state; so every path the
    chain draws from ``fsm.start`` is a path of the FSM.  It then raises
    ``EstimatorError``, naming the first state, if a row's probabilities
    sum further than ``_ROW_SUM_TOL`` from one.
    """

    fsm: WeightedFsm
    capacity: float
    transition_probs: tuple[tuple[tuple[Symbol, int, float], ...], ...]
    right_eigvec: tuple[float, ...]
    stationary: tuple[float, ...]

    def __post_init__(self):
        outgoing = self.fsm.outgoing
        rows = [tuple((sym, to) for sym, to, _ in row) for row in self.transition_probs]
        if rows != list(outgoing.values()):
            state = next((i for i, row in enumerate(rows) if outgoing.get(i) != row),
                         len(rows))
            raise InvalidSystemError(
                f"state {state}: the chain's row is not the FSM's outgoing transitions")
        for state, row in enumerate(self.transition_probs):
            total = left_sum(prob for _, _, prob in row)
            if not abs(total - 1.0) <= _ROW_SUM_TOL:
                raise EstimatorError(
                    f"state {state}: transition probabilities sum to {float(total)}")

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
    """The maxentropic chain of ``fsm`` at s* = ``fsm_capacity(fsm).value``.

    Raises ``InvalidSystemError`` unless the FSM is strongly connected, and
    ``EstimatorError`` if ``MaxentChain`` refuses a row's sum or the entropy
    rate lies further than ``_RATE_CHECK_TOL`` from s*.  The Perron vectors
    are the capacity solve's, from its final Newton evaluation at s*, with
    no second solve; they line up with ``edges``, as the FSM is one
    component, and ``outgoing`` keeps ``edges`` order within each state, so
    a stable sort by source lines the probabilities up with it.
    """
    if not fsm.is_strongly_connected():
        raise InvalidSystemError(
            "chain construction needs a strongly connected FSM "
            "(otherwise the Perron eigenvector is not unique)"
        )
    estimate, p = _fsm_root(fsm)
    s_star = estimate.value
    src, weights, dst = fsm.edges
    vector = p.right / p.right[fsm.start]
    # math.exp, not np.exp: the two differ in the last bit on some inputs
    tilt = [math.exp(-w * s_star) for w in weights.tolist()]
    probs = vector[dst] / vector[src] * tilt
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
    if not abs(rate - s_star) <= _RATE_CHECK_TOL:
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
    """The mask of real branches, then each flat column as a zero-padded
    (branch x row) array, row r holding ``lengths[r]`` branches.  Columns are
    filled through the transposed view, so the flat entries keep their row
    order."""
    lengths = np.asarray(lengths, dtype=np.intp)
    valid = np.arange(lengths.max(initial=0))[:, None] < lengths
    padded = [valid]
    for column in map(np.asarray, columns):
        padded.append(np.zeros(valid.shape, column.dtype))
        padded[-1].T[valid.T] = column
    return padded


def _table(ln_q, valid, child, weight, label, ln_total=None):
    """One step's table from (branch x row) arrays; ``valid`` marks real
    branches, and ln q elsewhere is ignored.  ``ln_total``, each row's
    ln sum q, is reduced here when the caller does not have it.

    Returns the (branch x row) cumulative p and the flat child,
    ln p = ln q - ln sum q, weight and label arrays, read at
    ``branch * rows + row``.  A branch with q = 0, or any branch of a row
    with none, has ln p = -inf.  A row's last branch with q > 0 and every
    cumulative entry after it are inf: no draw falls past it, and the last
    branch's row is all inf."""
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
    """Advance ``count`` paths from row ``start``, one table per step, with
    uniform draws fixed by ``seed``: path i takes the first branch whose
    cumulative p reaches the step's i-th draw.

    Returns a ``SampleSet`` of the (path x step) codes into ``names`` of the
    labels drawn and each path's weight and log probability; a weight past
    the float range raises ``OverflowError``."""
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
    return SampleSet(tuple(names), labels, weight, log_prob)


def _check_sample_size(count: int, steps: int, labels: int = 1) -> None:
    """Raise ``BudgetExceededError`` before a draw of ``count`` paths of
    ``steps`` codes into ``labels`` names allocates past ``SAMPLE_BUDGET``
    bytes, counting a label code at ``_lock_step``'s width (one byte when
    the names are not yet known) and eight 8-byte values a path."""
    width = np.min_scalar_type(labels).itemsize
    if count * (steps * width + 64) > SAMPLE_BUDGET:
        raise BudgetExceededError(f"a sample of {count} paths x {steps} steps is past "
                                  f"the sample budget of {SAMPLE_BUDGET} bytes")


def sample_paths(chain: MaxentChain, count: int, steps: int, seed: int) -> SampleSet:
    """Draw ``count`` label sequences of ``steps`` transitions each from the
    chain's start state, fixed by ``seed``.

    Raises ``ValueError`` if either is below 1 or the seed is negative,
    ``BudgetExceededError`` past ``SAMPLE_BUDGET`` before anything is
    allocated, and ``OverflowError`` for a path weight past the float range.
    Each drawn label is a branch of its state's chain row, and the chain's
    rows are its FSM's, so every path is a path of the FSM.
    """
    if count < 1 or steps < 1:
        raise ValueError("count and steps must be >= 1")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    code: dict[str, int] = {}
    flat = [branch for row in chain.transition_probs for branch in row]
    codes = [code.setdefault(sym.label, len(code)) for sym, _, _ in flat]
    _check_sample_size(count, steps, len(code))
    valid, ln_q, child, weight, label = _padded(
        [len(row) for row in chain.transition_probs],
        [math.log(prob) if prob else -math.inf for _, _, prob in flat],
        [dst for _, dst, _ in flat],
        [sym._float for sym, _, _ in flat],
        codes,
    )
    tables = repeat(_table(ln_q, valid, child, weight, label), steps)
    return _lock_step(tables, code, chain.fsm.start, count, steps, seed)


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
    """Draw ``count`` paths of ``level`` symbols, fixed by ``seed``, exactly
    from the maxent law q(x) = e^{-w(x) R_l} on the paths of depth ``level``.

    A branch is taken with probability e^{-w R_l} Z(child) / Z(parent), Z
    the subtree partition sum to depth ``level``.  The root's ln Z must be
    0, since R_l solves the same sum, or ``EstimatorError`` is raised.  A
    count below 1, a negative seed and a level below 1 or past the end of a
    finite tree raise ``ValueError``, and a path weight past the float range
    ``OverflowError``; a sample past ``SAMPLE_BUDGET`` is refused before the
    walk at one byte a label code and after it at the codes' real width,
    and the walk is capped at ``spectrum.LEVEL_BUDGET`` expansions.

    A depth's children are exactly the next depth's handles, so one buffer
    by handle id holds ln Z from the deepest depth up.  The draw tables span
    blocks of consecutive depths of at most ``_BLOCK_ROWS`` handle rows;
    each depth's handle ids are sorted, so one ``np.searchsorted`` per depth,
    in the next depth's sorted ids, maps each child to its row.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if seed < 0:
        raise ValueError("seed must be >= 0")
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
    _check_sample_size(count, level, len(code))
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
    if not abs(root) <= _ROW_SUM_TOL:
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
            at = np.concatenate(depths[first:last])
            ln_z = np.concatenate(log_z[first:last + 1])
            real = valid.take(at, axis=1)
            # a child's row is its rank in the next depth's sorted ids plus that
            # depth's first row, `rows` for the next block's; padding reads row 0
            ends = accumulate(map(len, depths[first:last]))
            below = np.where(real, np.concatenate(
                [np.searchsorted(depths[d + 1], child.take(depths[d], axis=1)) + end
                 for d, end in zip(range(first, last), ends)], axis=1), 0)
            ln_q = ln_z.take(below) - cost.take(at, axis=1)
            to = np.where(below < rows, below, below - rows)
            yield from repeat(_table(ln_q, real, to, weight.take(at, axis=1),
                                     label.take(at, axis=1), ln_z[:rows]), last - first)
            first = last

    return _lock_step(tables(), code, 0, count, level, seed)


_WRITE_SYMBOLS = 1 << 14  # labels looked up at once; larger blocks raise peak RSS


def samples_tsv(samples: SampleSet) -> str:
    """A header line, then one path per line: its labels concatenated, its
    weight and its log probability, both as %.17g.  Labels of one length
    without NUL, which numpy strings drop, go through a fixed-width lookup;
    others are joined."""
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
