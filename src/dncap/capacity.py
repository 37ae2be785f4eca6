"""Analytic capacity: generating functions, characteristic roots, spectral radii.

The generating function of a channel is the Dirichlet-type series
Phi(s) = sum_k N(w_k) exp(-w_k s).  Its abscissa of convergence equals the
combinatorial capacity whenever the distinct weights densify at most
polynomially,
which gives three computable routes to the same number: a characteristic
equation for memoryless alphabets, a spectral-radius condition for FSMs, and
a truncated-series estimate with convergence probes for everything else.
"""

import cmath
import math
from dataclasses import replace
from typing import Sequence

import numpy as np

from .errors import EstimatorError, InvalidSystemError
from .estimates import (
    ABSCISSA,
    CHARACTERISTIC_ROOT,
    SPECTRAL_RADIUS,
    CapacityEstimate,
)
from .solvers import Perron, newton_root, partition_root, perron
from .spectrum import (
    DENSITY_POLY_CAP,
    WeightSpectrum,
    density_check,
    empirical_capacity,
    exact_w_max,
    tail_window,
    weight_spectrum,
)
from .systems import BranchSystem, Symbol, WeightedFsm

DIVERGENCE_THRESHOLD = 1e6
PROBE_DELTA = 0.1
_RATIO_SLACK = 1e-12


def _term(log_count: float, weight: float, s) -> complex | float:
    """One series term N e^{-w s} from ln N, of magnitude inf past the float range."""
    sigma = s.real if isinstance(s, complex) else float(s)
    try:
        magnitude = math.exp(log_count - weight * sigma)
    except OverflowError:
        magnitude = math.inf
    if isinstance(s, complex):
        return cmath.rect(magnitude, -weight * s.imag)
    return magnitude


def gf_eval(spectrum: WeightSpectrum, s):
    """Sum of the generating function over the whole spectrum.

    ``s`` may be real or complex; the result is complex exactly when ``s``
    is.
    """
    total = 0j if isinstance(s, complex) else 0.0
    for weight, log in zip(spectrum.float_weights, spectrum.log_counts):
        total += _term(log, weight, s)
    return total


def characteristic_root(alphabet: Sequence[Symbol]) -> CapacityEstimate:
    """Capacity of a memoryless alphabet: the root of sum_i e^{-w_i s} = 1.

    Solved by ``partition_root`` with unit counts: Newton from s = 0, with a
    bracket whose ends the computed sum certifies, the measured residual
    |sum - 1| and ``iterations`` the Newton steps (0 for a singleton, whose
    root is exactly 0).
    """
    alphabet = tuple(alphabet)
    if not alphabet:
        raise InvalidSystemError("alphabet must be nonempty")
    [(value, lo, hi, residual, steps)] = partition_root(
        [([sym._float for sym in alphabet], [0.0] * len(alphabet))]
    )
    return CapacityEstimate(value, CHARACTERISTIC_ROOT, (lo, hi), residual, steps)


def fsm_capacity(fsm: WeightedFsm) -> CapacityEstimate:
    """Capacity of a regular channel: the s with spectral radius rho(M(s)) = 1.

    rho(M(s)) is the largest Perron root over the strongly connected
    components that carry a transition, so each is solved on its own, the
    largest root wins and ``iterations`` sums their Newton steps.
    ``maxent_chain`` reads its vectors off the winner's final Newton
    evaluation at s*, so the chain needs no second Perron solve.
    """
    return _fsm_root(fsm)[0]


def _fsm_root(fsm: WeightedFsm) -> tuple[CapacityEstimate, Perron]:
    """``fsm_capacity`` and the ``Perron`` of the winning component at s*."""
    src, weights, dst = fsm.edges
    label = fsm.components
    inner = label[src] == label[dst]
    roots = []
    for component in np.unique(label[src[inner]]):
        states = np.flatnonzero(label == component)
        keep = inner & (label[src] == component)
        roots.append(_component_root(
            len(states), np.searchsorted(states, src[keep]), weights[keep],
            np.searchsorted(states, dst[keep]),
        ))
    if not roots:
        raise InvalidSystemError("no cycle reachable from start; capacity is undefined")
    (value, _, _, residual, _), p = max(roots, key=lambda r: r[0])
    bracket = (max(r[1] for r, _ in roots), max(r[2] for r, _ in roots))
    steps = sum(r[4] for r, _ in roots)
    return CapacityEstimate(value, SPECTRAL_RADIUS, bracket, residual, steps), p


def _component_root(n: int, src, weights, dst) -> tuple[tuple, Perron]:
    """``newton_root`` of ln rho(M(s)) = 0 on one component, a batch of one,
    and the ``Perron`` of its final Newton evaluation, at the returned value.

    ln rho(M(s)) is convex and decreasing (Kingman 1961).  Its slope comes
    from the Perron vectors, d rho/ds = -u^T (W o M) v / u^T v summed over
    the transitions, each ``perron`` call runs on the transition list and is
    warm-started with the previous vectors, and the logs of the CW bounds
    certify the bracket.
    """
    warm, at = (), {}  # at: the first Perron solved at each point

    def solve(point: np.ndarray) -> np.ndarray:
        nonlocal warm
        q = np.exp(-weights * point[0])
        p = perron(n, src, q, dst, *warm)
        warm = (p.right, p.left)
        at.setdefault(float(point[0]), p)
        slope = p.left[src] * weights * q @ p.right[dst]
        decay = float(slope / (p.left @ p.right) / p.hi)
        log_hi = math.log(p.hi)
        return np.array([[log_hi], [decay], [_log(p.lo)], [log_hi]])

    [root] = newton_root(solve, 1)
    return root, at[root[0]]


def _log(x: float) -> float:
    return math.log(x) if x > 0.0 else -math.inf


def _probe(spectrum: WeightSpectrum, value: float) -> tuple[bool, bool]:
    """(converges_above, diverges_below) of the series at value +/- ``PROBE_DELTA``.

    Above, the terms must shrink over the trailing window and the total stay
    under the divergence threshold.  Below, the total must clear it or the
    window's terms keep growing: finite truncations cannot reach a literal
    infinity, hence the two-pronged divergence test.
    """
    s_above, s_below = value + PROBE_DELTA, value - PROBE_DELTA
    window = max(2, tail_window(len(spectrum)))
    tail = tuple(zip(spectrum.float_weights[-window:], spectrum.log_counts[-window:]))
    tail_above = [_term(log, w, s_above) for w, log in tail]
    tail_below = [_term(log, w, s_below) for w, log in tail]
    shrinking = all(
        nxt <= cur * (1.0 + _RATIO_SLACK)
        for cur, nxt in zip(tail_above, tail_above[1:])
    )
    growing = all(
        nxt >= cur * (1.0 - _RATIO_SLACK)
        for cur, nxt in zip(tail_below, tail_below[1:])
    ) and tail_below[-1] > tail_below[0]
    return (shrinking and gf_eval(spectrum, s_above) < DIVERGENCE_THRESHOLD,
            growing or gf_eval(spectrum, s_below) >= DIVERGENCE_THRESHOLD)


def abscissa_estimate(spectrum: WeightSpectrum) -> CapacityEstimate:
    """Estimate the abscissa of convergence from a truncated spectrum.

    The point estimate is the empirical trailing-window capacity; the series
    is then probed at value +/- ``PROBE_DELTA`` and a contradiction (settling
    below the estimate, or blowing up above it) raises ``EstimatorError``
    instead of being silently corrected.
    """
    report = density_check(spectrum)
    if not report.passes:
        raise EstimatorError(
            "weight sequence densifies faster than polynomially; the "
            "count-based abscissa estimate is meaningless here "
            f"(fitted exponent {report.fitted_K:.3g} exceeds cap "
            f"{DENSITY_POLY_CAP})"
        )
    empirical = empirical_capacity(spectrum)
    converges_above, diverges_below = _probe(spectrum, empirical.value)
    if not (converges_above and diverges_below):
        raise EstimatorError(
            "convergence probe contradicts the abscissa estimate "
            f"{empirical.value:.6g}: converges_above={converges_above}, "
            f"diverges_below={diverges_below}"
        )
    return replace(empirical, method=ABSCISSA)


def combinatorial_capacity(
    system: BranchSystem, w_max, method: str = "auto"
) -> CapacityEstimate:
    """Combinatorial capacity by the auto or abscissa method.

    ``auto`` takes the characteristic root of a one-state FSM's self-loops,
    the spectral radius of any other FSM and the abscissa otherwise.
    ``w_max`` is checked on every channel but walked to only by the abscissa.
    """
    w_max = exact_w_max(w_max)
    if method == "auto" and system.fsm is not None:
        if system.fsm.num_states == 1:
            return characteristic_root(sym for _, sym, _ in system.fsm.transitions)
        return fsm_capacity(system.fsm)
    if method in ("auto", "abscissa"):
        return abscissa_estimate(weight_spectrum(system, w_max))
    raise ValueError(f"unknown capacity method: {method!r}")
