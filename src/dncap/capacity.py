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
from .solvers import PERRON_TOL, newton_root, partition_root, perron
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
    """
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
        )[0])
    if not roots:
        raise InvalidSystemError("no cycle reachable from start; capacity is undefined")
    value, _, _, residual, _ = max(roots, key=lambda r: r[0])
    bracket = (max(r[1] for r in roots), max(r[2] for r in roots))
    steps = sum(r[4] for r in roots)
    return CapacityEstimate(value, SPECTRAL_RADIUS, bracket, residual, steps)


def _component_root(n: int, src, weights, dst) -> tuple[tuple, np.ndarray]:
    """``newton_root`` of ln rho(M(s)) = 0 on one component, a batch of one,
    and the right Perron iterate of its final Newton evaluation, at the
    returned value.

    Each evaluation runs ``perron`` on the right side alone, warm-started
    from the last iterate.  ln f is ln lo, the log of its lower CW bound,
    ln hi is its upper bound, and the decay D is no lower than the true one: ln rho(M(s)) is convex
    (Kingman 1961) and its decay is a Perron-weighted mean of the edge
    weights, so D is the secant (ln hi_prev - ln lo) / (s - s_prev)
    where that lies in (0, D_prev), else D_prev, and w_max at the first
    evaluation and where s <= s_prev.  So no step passes the root.

    The power steps stop at a relative gap of max(PERRON_TOL, (delta / (1 +
    delta))^2), delta = max(0, min(ln lo, ln lo_prev - ln lo)): a Newton step
    needs ln rho only to about the square of its distance to the root (Dembo,
    Eisenstat and Steihaug 1982), the drop keeps the gaps from swamping the
    secant after a short step, and delta / (1 + delta) < 1 keeps lo > 0.
    Near the root, so at the last evaluation and the certification points,
    the gap is PERRON_TOL.
    """
    w_max = float(weights.max())
    right, at = None, {}  # at: the first right iterate at each point
    last = (math.inf, math.inf, math.inf, w_max)  # s, ln lo, ln hi, decay

    def tolerance(lo: float) -> float:
        log_lo = _log(lo)
        delta = max(0.0, min(log_lo, last[1] - log_lo))
        return max(PERRON_TOL, (delta / (1.0 + delta)) ** 2)

    def solve(point: np.ndarray) -> np.ndarray:
        nonlocal right, last
        s = float(point[0])
        lo, hi, right = perron(n, src, np.exp(-weights * s), dst, right, tolerance)
        log_lo, log_hi = _log(lo), math.log(hi)
        s_last, _, log_hi_last, decay = last
        if s <= s_last:
            decay = w_max
        elif 0.0 < (secant := (log_hi_last - log_lo) / (s - s_last)) < decay:
            decay = secant
        last = s, log_lo, log_hi, decay
        at.setdefault(s, right)
        return np.array([[log_lo], [decay], [log_hi]])

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
