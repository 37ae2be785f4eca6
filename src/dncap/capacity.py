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
from bisect import bisect_right
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import accumulate
from typing import Sequence

import numpy as np

from .errors import EstimatorError, InvalidSystemError
from .estimates import (
    ABSCISSA,
    CHARACTERISTIC_ROOT,
    SPECTRAL_RADIUS,
    CapacityEstimate,
)
from .solvers import newton_root, partition_root, perron
from .spectrum import (
    DENSITY_POLY_CAP,
    WeightSpectrum,
    density_check,
    empirical_capacity,
    tail_window,
    weight_spectrum,
)
from .systems import BranchSystem, Symbol, WeightedFsm

DIVERGENCE_THRESHOLD = 1e6
PROBE_DELTA = 0.1
_EXP_OVERFLOW = 700.0
_RATIO_SLACK = 1e-12


def _term(log_count: float, weight: float, s) -> complex | float:
    """One series term N e^{-w s} from ln N, safe against overflow."""
    sigma = s.real if isinstance(s, complex) else float(s)
    exponent = log_count - weight * sigma
    magnitude = math.inf if exponent > _EXP_OVERFLOW else math.exp(exponent)
    if isinstance(s, complex):
        return magnitude * cmath.exp(complex(0.0, -weight * s.imag))
    return magnitude


def gf_eval(spectrum: WeightSpectrum, s, w_truncate=None):
    """Partial sum of the generating function over weights <= w_truncate.

    ``s`` may be real or complex; the result is complex exactly when ``s``
    is.  Asking for a truncation beyond the spectrum's coverage is an error
    rather than a silently short sum.
    """
    if w_truncate is None:
        w_truncate = spectrum.w_max
    if w_truncate > spectrum.w_max:
        raise ValueError(
            f"truncation {w_truncate} exceeds spectrum coverage {spectrum.w_max}"
        )
    total = 0j if isinstance(s, complex) else 0.0
    stop = bisect_right(spectrum.units, Fraction(w_truncate) * spectrum.scale)
    for weight, log in zip(spectrum.float_weights[:stop], spectrum.log_counts):
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
        [([float(sym.weight) for sym in alphabet], [0.0] * len(alphabet))]
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
        ))
    if not roots:
        raise InvalidSystemError("no cycle reachable from start; capacity is undefined")
    value, _, _, residual, _ = max(roots)
    bracket = (max(r[1] for r in roots), max(r[2] for r in roots))
    return CapacityEstimate(
        value, SPECTRAL_RADIUS, bracket, residual, sum(r[4] for r in roots)
    )


def _component_root(n: int, src, weights, dst) -> tuple:
    """``newton_root`` of ln rho(M(s)) = 0 on one component, a batch of one.

    ln rho(M(s)) is convex and decreasing (Kingman 1961).  Its slope comes
    from the Perron vectors, d rho/ds = -u^T (W o M) v / u^T v summed over
    the transitions, each ``perron`` call runs on the transition list and is
    warm-started with the previous vectors, and the logs of the CW bounds
    certify the bracket.
    """
    warm = ()

    def solve(point: np.ndarray) -> np.ndarray:
        nonlocal warm
        q = np.exp(-weights * point[0])
        p = perron(n, src, q, dst, *warm)
        warm = (p.right, p.left)
        slope = p.left[src] * weights * q @ p.right[dst]
        decay = float(slope / (p.left @ p.right) / p.rho)
        return np.array([[math.log(p.rho)], [decay], [_log(p.lo)], [math.log(p.hi)]])

    [root] = newton_root(solve, 1)
    return root


def _log(x: float) -> float:
    return math.log(x) if x > 0.0 else -math.inf


@dataclass(frozen=True)
class ConvergenceProbe:
    """Partial-sum behavior of the generating function around an estimate.

    Above the estimate (s = value + delta) the partial sums must settle:
    increments shrink over the trailing window and the total stays finite.
    Below (s = value - delta) they must blow up: either the total clears the
    divergence threshold or the increments keep growing.  Finite truncations
    cannot reach a literal infinity, hence the two-pronged divergence test.
    """

    delta: float
    s_above: float
    s_below: float
    partial_above: tuple[float, ...]
    partial_below: tuple[float, ...]
    converges_above: bool
    diverges_below: bool

    @property
    def consistent(self) -> bool:
        return self.converges_above and self.diverges_below


def _probe(spectrum: WeightSpectrum, value: float) -> ConvergenceProbe:
    s_above = value + PROBE_DELTA
    s_below = value - PROBE_DELTA
    pairs = tuple(zip(spectrum.float_weights, spectrum.log_counts))
    terms_above = [_term(log, w, s_above) for w, log in pairs]
    terms_below = [_term(log, w, s_below) for w, log in pairs]
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
    return ConvergenceProbe(
        delta=PROBE_DELTA,
        s_above=s_above,
        s_below=s_below,
        partial_above=tuple(sums_above),
        partial_below=tuple(sums_below),
        converges_above=converges_above,
        diverges_below=diverges_below,
    )


def abscissa_estimate(
    spectrum: WeightSpectrum,
) -> tuple[CapacityEstimate, ConvergenceProbe]:
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
    empirical, _ = empirical_capacity(spectrum)
    probe = _probe(spectrum, empirical.value)
    if not probe.consistent:
        raise EstimatorError(
            "convergence probe contradicts the abscissa estimate "
            f"{empirical.value:.6g}: converges_above={probe.converges_above}, "
            f"diverges_below={probe.diverges_below}"
        )
    return replace(empirical, method=ABSCISSA), probe


def combinatorial_capacity(
    system: BranchSystem, w_max, method: str = "auto"
) -> CapacityEstimate:
    """Combinatorial capacity by the root, spectral or abscissa method.

    ``auto`` picks the root for memoryless alphabets, the spectral radius for
    FSMs and the abscissa otherwise.  Only the abscissa walks the spectrum to
    ``w_max``; the other two methods ignore it.
    """
    if method == "auto":
        method = ("root" if system.alphabet is not None
                  else "spectral" if system.fsm is not None else "abscissa")
    if method == "root":
        if system.alphabet is not None:
            return characteristic_root(system.alphabet)
        raise InvalidSystemError("root method requires a memoryless system")
    if method == "spectral":
        if system.fsm is not None:
            return fsm_capacity(system.fsm)
        raise InvalidSystemError("spectral method requires an FSM-backed system")
    if method == "abscissa":
        estimate, _ = abscissa_estimate(weight_spectrum(system, w_max))
        return estimate
    raise ValueError(f"unknown capacity method: {method!r}")
