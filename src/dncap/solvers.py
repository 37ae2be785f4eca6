"""Numeric kernels: monotone bisection and the certified Perron kernel.

``perron`` is the one Perron root and vector computation in the package; its
iteration cap raises ``EstimatorError`` instead of returning unconverged.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import EstimatorError

BISECT_TOL = 1e-12
BISECT_MAX_ITER = 200
PERRON_TOL = 1e-15
PERRON_MAX_ITER = 100
_FLOOR = 1e-300  # a sum-one Perron iterate's entries below this count as zero


@dataclass(frozen=True)
class RootResult:
    root: float
    lo: float
    hi: float
    f_lo: float
    f_hi: float
    residual: float
    iterations: int


def bisect_decreasing(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    target: float = 1.0,
    tol: float = BISECT_TOL,
    max_iter: int = BISECT_MAX_ITER,
) -> RootResult:
    """Solve f(s) = target for a strictly decreasing f on [lo, inf).

    ``hi`` is doubled until f(hi) drops below the target, so the initial
    upper bound only needs to be eventually valid.  Returns the bracket
    midpoint once the bracket is narrower than ``tol`` (absolute).
    """
    f_lo = f(lo)
    if f_lo < target:
        raise ValueError(
            f"f(lo)={f_lo} already below target {target}; no root in [lo, inf)"
        )
    if f_lo == target:
        return RootResult(lo, lo, lo, f_lo, f_lo, 0.0, 0)
    if hi <= lo:
        hi = lo + 1.0
    f_hi = f(hi)
    expansions = 0
    while f_hi > target:
        lo, f_lo = hi, f_hi
        hi = 2.0 * hi if hi > 0 else 1.0
        f_hi = f(hi)
        expansions += 1
        if expansions > 200:
            raise ValueError("could not bracket the root by doubling hi")
    iterations = 0
    while hi - lo > tol and iterations < max_iter:
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if f_mid > target:
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
        iterations += 1
    root = 0.5 * (lo + hi)
    return RootResult(
        root, lo, hi, f_lo, f_hi, abs(f(root) - target), iterations,
    )


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
