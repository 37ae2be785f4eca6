"""Numeric kernels: ``newton_root``, the one root-finding loop, solves every
capacity equation, and ``perron``, the one certified Perron kernel, bounds
the root and vector of one side of a matrix.  Every iteration cap raises
``EstimatorError`` instead of returning unconverged.
"""

import math
from itertools import chain, groupby
from typing import Callable

import numpy as np

from .errors import EstimatorError

NEWTON_MAX_ITER = 100
CERTIFY_MAX_ITER = 20
PERRON_TOL = 1e-15
PERRON_MAX_ITER = 100
_EPS = float(np.finfo(float).eps)
_FLOOR = 1e-300  # a sum-one Perron iterate's entries below this count as zero


def left_sum(values):
    """The builtin ``sum`` as it is before Python 3.12, one rounding per term
    in order; 3.12's compensates float terms and moves the last bits."""
    total = 0
    for value in values:
        total += value
    return total


def newton_root(solve: Callable[[np.ndarray], tuple], rows: int) -> list[tuple]:
    """[(value, lo, hi, residual, Newton steps)] of ln f_i(s) = 0 for s >= 0,
    one tuple for each of ``rows`` equations, all solved in lock step.

    ``solve(s)`` takes one point per row and returns three arrays: ln
    f_i(s_i), or a certified lower bound of it, the decay -d ln f_i/ds, or a
    certified upper bound of it, and an upper bound on ln f_i(s_i).  Each ln
    f_i must be convex and decreasing with ln f_i(0) >= 0, so Newton from
    s = 0 climbs to the root without overshooting, and with the bounds a
    step still lands at or left of the tangent's root.  A row stops once a
    step no longer moves its s to the right (ln f <= 0 to rounding).  Its
    [lo, hi] = [s - m, s + m] is then widened 4x, from the Newton distance
    m = (|ln f| + 8 eps) / decay, until the first array is >= 0 at lo and
    the third <= 0 at hi.
    ``residual`` is the measured |f(value) - 1|.  Both loops raise
    ``EstimatorError`` at their caps, the certification naming the first
    row it missed.

    Each evaluation asks ``solve`` for every row, a settled row at its
    settled point, where it must give the same again; upper bounds are asked
    for only once some uncertified row's lower bound holds.  So a batch of
    one calls ``solve`` as a scalar loop would, and a row's result does not
    depend on the rest of its batch if ``solve``'s does not.
    """
    s = np.zeros(rows)
    steps = np.zeros(rows, dtype=int)
    active = np.ones(rows, dtype=bool)
    for step in range(NEWTON_MAX_ITER + 1):
        log_f, decay, _ = solve(s)
        moved = s + log_f / decay
        active &= moved > s
        if not np.count_nonzero(active):
            break
        steps += active
        np.copyto(s, moved, where=active)
    else:
        raise EstimatorError(f"Newton did not settle in {step} steps")
    margin = (np.abs(log_f) + 8 * _EPS) / decay
    pending = np.ones(rows, dtype=bool)
    for _ in range(CERTIFY_MAX_ITER):
        lo, hi = np.maximum(s - margin, 0.0), s + margin
        below = pending & (solve(lo)[0] >= 0.0)
        if np.count_nonzero(below):
            pending &= ~(below & (solve(hi)[2] <= 0.0))
        if not np.count_nonzero(pending):
            residual = [abs(math.expm1(x)) for x in log_f.tolist()]
            columns = s.tolist(), lo.tolist(), hi.tolist(), residual, steps.tolist()
            return list(zip(*columns))
        np.multiply(margin, 4.0, out=margin, where=pending)
    missed = float(s[pending][0])
    raise EstimatorError(f"no certified bracket around the root {missed}")


def partition_root(problems) -> list[tuple]:
    """``newton_root`` of Z(s) = sum_i c_i e^{-w_i s} = 1 for each (w, ln c)
    in ``problems``, all in one batch; one result tuple per problem, in order.

    ln Z is a logsumexp of ln c - w s, so huge counts and deep levels stay in
    range; its decay is the q-weighted mean weight, q = c e^{-w s} / Z.  The
    computed ln Z is its own upper bound.

    Each problem gets the bits it would get alone: evaluations are
    elementwise over all problems, in the order given; runs of equal support
    size are reduced together, Z and sum w q by ``sum(axis=1)`` and
    ``np.vecdot``, which equal each row's own 1-D sums; ln Z is ``math.log``
    per row.
    """
    sizes = [len(w) for w, _ in problems]
    weights, log_counts = (
        np.fromiter(chain.from_iterable(problem[k] for problem in problems), float)
        for k in (0, 1)
    )
    row_of = np.repeat(np.arange(len(problems)), sizes)
    starts = np.cumsum(sizes) - sizes
    q, (total, dot) = np.empty(len(weights)), np.empty((2, len(problems)))
    groups, row = [], 0  # (rows x size) views of one run of equal size each
    for size, members in groupby(sizes):
        count = len(list(members))
        entries = slice(starts[row], starts[row] + count * size)
        groups.append((weights[entries].reshape(count, size),
                       q[entries].reshape(count, size),
                       total[row:row + count], dot[row:row + count]))
        row += count

    def solve(s: np.ndarray) -> tuple:
        exponents = log_counts - weights * s[row_of]
        top = np.maximum.reduceat(exponents, starts)
        np.exp(exponents - top[row_of], out=q)
        for w, group_q, group_total, group_dot in groups:
            np.add.reduce(group_q, axis=1, out=group_total)
            np.vecdot(w, group_q, out=group_dot)
        log_z = top + np.array([math.log(t) for t in total.tolist()])
        return log_z, dot / total, log_z

    return newton_root(solve, len(problems))


def perron(n: int, src, q, dst, x: np.ndarray | None = None,
           tolerance=lambda lo: PERRON_TOL, hi: float = math.inf) -> tuple:
    """(lo, hi, x): Collatz-Wielandt (CW) bounds lo <= rho <= hi on the
    Perron root of the irreducible nonnegative n x n matrix M with M[i, j] =
    sum of q over the edges i = src, j = dst (min and max of (M x)_i / x_i
    over positive iterates x), and the last iterate, a positive right
    Perron vector; ``hi`` is the root's estimate.  Swap ``src`` and ``dst``
    for the left vector, the right one of M^T.

    From ``x`` (uniform when None), ``_power`` steps on the edge list stop
    once hi - lo <= tolerance(lo) * hi, a relative gap of at least
    PERRON_TOL that the caller may loosen where it needs rho only roughly.
    Where those stall, ``_noda`` on the dense M from the same ``x`` closes
    to PERRON_TOL, unless it stops at a singular solve or at an iterate
    entry under _FLOOR; the bounds hold either way.  ``hi`` is inf or an
    upper bound on rho already certified, such as the other side's, which
    holds for M^T as rho(M^T) = rho(M).  ``_noda``'s first shift then sits
    within PERRON_TOL of rho, so a solve or two settle it.  An ``x`` whose
    own bounds have closed settles at its first bound.
    """
    # writeable copies: np.bincount copies a read-only index array per call
    src, dst = np.array(src, dtype=np.intp), np.array(dst, dtype=np.intp)
    x = np.full(n, 1.0 / n) if x is None else x
    steps = int(min(n, n ** 3 / (3 * len(q))))  # dense solve flops / step flops
    found = _power(n, src, q, dst, x, steps, tolerance) if steps >= 2 else None
    return found or _noda(dense(n, src, q, dst), x, hi)


def dense(n: int, src, q, dst) -> np.ndarray:
    """The n x n matrix with the sum of q over the edges src -> dst at
    [src, dst]."""
    matrix = np.zeros((n, n))
    np.add.at(matrix, (src, dst), q)
    return matrix


def _noda(matrix, x, hi):
    """Noda iteration x <- (hi I - M)^{-1} x, with hi the CW upper bound,
    starting from ``hi``: inf, or an upper bound on rho already certified.

    For irreducible M the inverse is positive, so x stays positive and hi
    falls monotonically to rho.  Each step solves with D^{-1} M D, D = diag(x),
    whose Perron vector is near all-ones, so tiny entries of x stay accurate.
    lo and hi are the best CW bounds over the iterates and the given hi.
    Returns (lo, hi, x) once they close to PERRON_TOL * hi (from a certified
    hi, once this side's own lo meets it), or after bounding the iterate
    that follows a step moving x by less than sqrt(PERRON_TOL): the
    convergence is quadratic (Elsner 1976), so that iterate sits at the
    rounding floor.
    """
    n = len(matrix)
    scaled = np.empty_like(matrix)
    lo, settled = 0.0, False
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


def _power(n, rows, q, cols, x, steps, tolerance):
    """Power steps x <- M x / sum(M x), M[i, j] = sum of q over the edges
    rows -> cols, from ``x``.

    Returns (lo, hi, x) once the CW bounds over the iterates close to
    ``tolerance(lo) * hi``.  Returns None as soon as the gap, shrinking from
    the third iterate on at its mean rate per step so far, would not close
    that far within ``steps`` steps, or the next iterate has an entry not
    above _FLOOR.  The mean over the whole run, rather than over the last
    few steps, lets the gap stall for a step or two, as it does at the
    rounding floor and when the second eigenvalue is complex.
    """
    lo, hi = 0.0, math.inf
    for step in range(steps + 1):
        y = np.bincount(rows, weights=q * x[cols], minlength=n)
        ratios = y / x
        lo, hi = max(lo, float(ratios.min())), min(hi, float(ratios.max()))
        gap, target = hi - lo, tolerance(lo) * hi
        if gap <= target:
            return lo, hi, x
        if step == 0:
            first = gap
        elif step >= 2:
            # the gap after the steps left, at its mean rate so far
            if gap * (gap / first) ** ((steps - step) / step) > target:
                return None
        x = y / y.sum()
        if not x.min() > _FLOOR:
            return None
