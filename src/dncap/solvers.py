"""Numeric kernels: the Newton root driver and the certified Perron kernel.

``newton_root`` is the one root-finding loop in the package: every capacity
equation (the characteristic equation, rho(M(s)) = 1 and the per-level
partition sums) is ln f(s) = 0 for a convex, decreasing ln f.  ``perron`` is
the one Perron root and vector computation.  Every iteration cap raises
``EstimatorError`` instead of returning unconverged.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import EstimatorError

NEWTON_MAX_ITER = 100
CERTIFY_MAX_ITER = 20
PERRON_TOL = 1e-15
PERRON_MAX_ITER = 100
_EPS = float(np.finfo(float).eps)
_FLOOR = 1e-300  # a sum-one Perron iterate's entries below this count as zero


def newton_root(solve: Callable[[float], tuple]) -> tuple:
    """(value, lo, hi, residual, Newton steps) of ln f(s) = 0 for s >= 0.

    ``solve(s)`` returns ln f(s), the decay -d ln f/ds, and a lower and an
    upper bound on ln f(s).  ln f must be convex and decreasing with
    ln f(0) >= 0, so Newton from s = 0 climbs to the root without
    overshooting; it stops once a step no longer moves s to the right
    (ln f <= 0 to rounding).  [lo, hi] = [s - m, s + m] is then widened 4x,
    from the Newton distance m = (|ln f| + 8 eps) / decay, until
    lower(lo) >= 0 >= upper(hi).  ``residual`` is the measured
    |f(value) - 1|.  Both loops raise ``EstimatorError`` at their caps.
    """
    s = 0.0
    for steps in range(NEWTON_MAX_ITER + 1):
        log_f, decay, _, _ = solve(s)
        step = log_f / decay
        if not s + step > s:
            break
        s += step
    else:
        raise EstimatorError(f"Newton did not settle in {steps} steps")
    margin = (abs(log_f) + 8 * _EPS) / decay
    for _ in range(CERTIFY_MAX_ITER):
        lo, hi = max(s - margin, 0.0), s + margin
        if solve(lo)[2] >= 0.0 and solve(hi)[3] <= 0.0:
            return s, lo, hi, abs(math.expm1(log_f)), steps
        margin *= 4.0
    raise EstimatorError(f"no certified bracket around the root {s}")


def partition_root(weights, log_counts) -> tuple:
    """``newton_root`` of Z(s) = sum_i c_i e^{-w_i s} = 1, from w_i and ln c_i.

    ln Z is a logsumexp of ln c - w s, so huge counts and deep levels stay in
    range; its decay is the q-weighted mean weight, q = c e^{-w s} / Z.  The
    computed ln Z serves as both bounds.
    """
    weights = np.asarray(weights, dtype=float)
    log_counts = np.asarray(log_counts, dtype=float)

    def solve(s: float) -> tuple:
        exponents = log_counts - weights * s
        top = exponents.max()
        q = np.exp(exponents - top)
        total = q.sum()
        log_z = float(top + math.log(total))
        return log_z, float(weights @ q / total), log_z, log_z

    return newton_root(solve)


@dataclass(frozen=True)
class Perron:
    """Perron root with Collatz-Wielandt (CW) bounds lo <= rho <= hi (min and
    max of (M x)_i / x_i over positive iterates x), and the positive right
    and left vectors.  ``rho`` is Noda's estimate, the final ``hi``."""

    rho: float
    lo: float
    hi: float
    right: np.ndarray
    left: np.ndarray


def perron(
    matrix: np.ndarray,
    right: np.ndarray | None = None,
    left: np.ndarray | None = None,
) -> Perron:
    """Perron root and vectors of an irreducible nonnegative matrix.

    Noda iteration on each side, warm-started from ``right`` and ``left``.
    """
    matrix = np.asarray(matrix, dtype=float)
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        raise ValueError("matrix must be square")
    if (matrix < 0).any():
        raise ValueError("matrix must be elementwise nonnegative")
    lo, hi, right = _noda(matrix, right)
    _, _, left = _noda(matrix.T, left)
    return Perron(hi, lo, hi, right, left)


def _noda(matrix, x):
    """Noda iteration x <- (hi I - M)^{-1} x, with hi the CW upper bound.

    For irreducible M the inverse is positive, so x stays positive and hi
    falls monotonically to rho.  Each step solves with D^{-1} M D, D = diag(x),
    whose Perron vector is near all-ones, so tiny entries of x stay accurate.
    lo and hi are the best CW bounds over the iterates.  Returns (lo, hi, x)
    once they close to PERRON_TOL * hi, or after bounding the iterate that
    follows a step moving x by less than sqrt(PERRON_TOL): the convergence is
    quadratic (Elsner 1976), so that iterate sits at the rounding floor.
    """
    n = len(matrix)
    x = np.full(n, 1.0 / n) if x is None else x
    scaled = np.empty_like(matrix)
    lo, hi, settled = 0.0, math.inf, False
    for _ in range(PERRON_MAX_ITER):
        np.multiply(matrix, x, out=scaled)
        scaled /= x[:, None]
        ratios = scaled.sum(axis=1)
        lo, hi = max(lo, float(ratios.min())), min(hi, float(ratios.max()))
        if settled or hi - lo <= PERRON_TOL * hi:
            return lo, hi, x
        # D^{-1} M D - hi I, shifted in place; the PERRON_TOL nudge keeps it
        # nonsingular when hi has rounded to rho.
        shift = hi * (1.0 + PERRON_TOL)
        scaled.flat[:: n + 1] -= shift
        try:
            z = np.linalg.solve(scaled, np.full(n, -1.0))
        except np.linalg.LinAlgError:  # singular after rounding: x is final
            return lo, hi, x
        z /= z.sum()  # a shift rounded to just below rho flips the sign
        settled = z.max() <= z.min() * (1.0 + math.sqrt(PERRON_TOL))
        y = x * np.abs(z)  # rounding can flip entries that are ~0 relatively
        y /= y.sum()
        alive = y > _FLOOR
        if not alive.all():
            # x chases entries that are zero in floating point (M is reducible
            # there): bound on the rest, rho(M) >= rho(M_SS) >= CW-min of M_SS.
            return max(lo, float((scaled @ alive)[alive].min()) + shift), hi, x
        x = y
    raise EstimatorError(f"Perron iteration did not settle in {PERRON_MAX_ITER} steps")
