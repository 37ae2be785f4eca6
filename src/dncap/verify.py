"""Equality harness: do the two capacity pipelines agree on a channel?

Runs the combinatorial side (a root solver when the structure allows one,
the abscissa estimate otherwise) against the maximum entropy rate side, and
reports their difference together with finite-sample stand-ins for the
"almost everywhere" / "infinitely often" behavior of the per-level rates
around the capacity: over the trailing window, every rate must stay below
C + eps and at least one must exceed C - eps.
"""

import math
from dataclasses import dataclass

from .capacity import abscissa_estimate, combinatorial_capacity
from .errors import BudgetExceededError, EstimatorError
from .estimates import CapacityEstimate
from .maxent import LevelSolution, maxent_rate_estimate
from .spectrum import shared
from .systems import BranchSystem

PASS = "PASS"
FAIL = "FAIL"
INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class VerifyReport:
    """Verdict plus both trajectories and the epsilon probes."""

    c_comb: CapacityEstimate
    c_prob: CapacityEstimate
    difference: float
    ae_pass: bool
    io_pass: bool
    verdict: str
    levels: tuple[LevelSolution, ...]

    def to_json_dict(self) -> dict:
        return {
            "c_comb": self.c_comb.to_json_dict(),
            "c_prob": self.c_prob.to_json_dict(),
            "difference": self.difference,
            "epsilon_probes": {"ae_pass": self.ae_pass, "io_pass": self.io_pass},
            "verdict": self.verdict,
        }


def verify_equality(
    system: BranchSystem, w_max, l_max: int, tol: float
) -> VerifyReport:
    """Compare the combinatorial and maximum-entropy capacity estimates.

    The verdict is PASS when the two sides agree within ``tol``, FAIL when
    they do not, and INCONCLUSIVE when the level enumeration blew its budget
    before reaching ``l_max`` (partial trajectories are still attached) or
    the abscissa's spectrum walk blew it before ``w_max``; ``c_comb`` is
    then the abscissa of the spectrum the walk counted exactly, and the
    budget error is raised if that has no estimate.  Each walk builds its
    own handle graph over one ``shared`` system, whose memoized ``expand``
    runs once per handle.  The epsilon probes reuse ``tol`` as eps, which
    must be finite and >= 0 (``ValueError`` otherwise).  ``w_max`` is
    checked on every channel but walked to only by
    ``combinatorial_capacity``'s abscissa."""
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and >= 0, not {tol}")
    walked = shared(system)
    try:
        c_comb, cut = combinatorial_capacity(walked, w_max), False
    except BudgetExceededError as exc:
        if exc.spectrum is None:
            raise
        try:
            c_comb, cut = abscissa_estimate(exc.spectrum), True
        except (EstimatorError, ValueError):
            raise exc from None
    c_prob, levels = maxent_rate_estimate(walked, l_max)
    difference = abs(c_comb.value - c_prob.value)
    # c_prob is the max of the trailing window of level rates, so these are
    # "every tail rate < C + tol" and "some tail rate > C - tol"
    ae_pass = c_prob.value < c_comb.value + tol
    io_pass = c_prob.value > c_comb.value - tol
    verdict = (INCONCLUSIVE if cut or len(levels) < l_max
               else PASS if difference <= tol else FAIL)
    return VerifyReport(c_comb, c_prob, difference, ae_pass, io_pass, verdict, levels)
