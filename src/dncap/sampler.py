"""Maxentropic sampling: stationary chains for FSMs, level samplers otherwise.

For a regular channel the capacity-achieving source is an explicit Markov
chain (Parry 1964): scale each transition by e^{-w s*} and tilt by the Perron
right eigenvector v of M(s*); with u the left one, its stationary law is u o v.
Non-regular channels get no stationary construction here; they are sampled
exactly from the depth-l maxent distribution via subtree partition sums, with
no optimality claim beyond the solved level.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable

import numpy as np

from .capacity import transition_matrix
from .errors import EstimatorError, InvalidSystemError
from .estimates import SPECTRAL_RADIUS, CapacityEstimate
from .maxent import LEVEL_BUDGET, solve_level_rate
from .solvers import perron
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


def _spawn_generators(seed: int, count: int) -> list[np.random.Generator]:
    # One PCG64 stream per path index, split from a single seed sequence, so
    # runs are reproducible and paths are independent.
    children = np.random.SeedSequence(seed).spawn(count)
    return [np.random.Generator(np.random.PCG64(child)) for child in children]


def sample_paths(
    chain: MaxentChain, count: int, steps: int, seed: int
) -> SampleSet:
    """Draw ``count`` label sequences of ``steps`` transitions each.

    Deterministic given ``seed``.  Every sampled sequence is re-checked
    against the FSM's acceptance walk; the per-path log probability and total
    weight are recorded exactly as generated.
    """
    if count < 1 or steps < 1:
        raise ValueError("count and steps must be >= 1")
    cumulative = []
    for row in chain.transition_probs:
        probs = np.array([prob for _, _, prob in row])
        cumulative.append(np.cumsum(probs))
    paths = []
    for rng in _spawn_generators(seed, count):
        draws = rng.random(steps)
        state = chain.fsm.start
        labels = []
        weight = 0.0
        log_prob = 0.0
        for u in draws:
            row = chain.transition_probs[state]
            index = int(np.searchsorted(cumulative[state], u))
            index = min(index, len(row) - 1)
            sym, state, prob = row[index]
            labels.append(sym.label)
            weight += float(sym.weight)
            log_prob += math.log(prob)
        if not chain.fsm.accepts(labels):
            raise EstimatorError(
                f"sampled sequence rejected by the FSM: {''.join(labels)}"
            )
        paths.append(SamplePath(tuple(labels), weight, log_prob))
    return SampleSet(paths=tuple(paths), seed=seed, steps=steps)


def empirical_entropy_rate(samples: SampleSet) -> float:
    """Plug-in estimate: total negative log probability over total weight."""
    if not samples.paths:
        raise ValueError("empty sample set")
    neg_log = -sum(path.log_prob for path in samples.paths)
    total_weight = sum(path.weight for path in samples.paths)
    return neg_log / total_weight


def sample_level_paths(
    system: BranchSystem,
    level: int,
    count: int,
    seed: int,
    budget: int = LEVEL_BUDGET,
) -> SampleSet:
    """Exact maxent sampling at one depth for systems without a chain.

    Branch probabilities are proportional to e^{-w R_l} times the subtree
    partition sum of the child at the remaining depth, which reproduces
    q(x) = e^{-w(x) R_l} exactly.  Only enumerable depths are practical and
    nothing is claimed about deeper behavior.
    """
    if count < 1 or level < 1:
        raise ValueError("count and level must be >= 1")
    rate = solve_level_rate(system, level, budget).rate
    memo: dict[tuple[Hashable, int], float] = {}

    def subtree_sum(handle: Hashable, depth: int) -> float:
        if depth == 0:
            return 1.0
        key = (handle, depth)
        if key not in memo:
            memo[key] = sum(
                math.exp(-float(sym.weight) * rate) * subtree_sum(child, depth - 1)
                for sym, child in system.expand(handle)
            )
        return memo[key]

    paths = []
    for rng in _spawn_generators(seed, count):
        draws = rng.random(level)
        handle = system.root
        labels = []
        weight = Fraction(0)
        log_prob = 0.0
        for step, u in enumerate(draws):
            remaining = level - step
            branches = system.expand(handle)
            probs = [
                math.exp(-float(sym.weight) * rate)
                * subtree_sum(child, remaining - 1)
                / subtree_sum(handle, remaining)
                for sym, child in branches
            ]
            edges = np.cumsum(probs)
            index = min(int(np.searchsorted(edges, u)), len(branches) - 1)
            sym, handle = branches[index]
            labels.append(sym.label)
            weight = weight + sym.weight
            log_prob += math.log(probs[index])
        paths.append(SamplePath(tuple(labels), float(weight), log_prob))
    return SampleSet(paths=tuple(paths), seed=seed, steps=level)


def samples_tsv(samples: SampleSet) -> str:
    """One path per line: concatenated labels, weight, log probability."""
    lines = ["# labels\tweight\tlog_prob"]
    for path in samples.paths:
        lines.append(
            f"{''.join(path.labels)}\t{path.weight:.17g}\t{path.log_prob:.17g}"
        )
    return "\n".join(lines) + "\n"
