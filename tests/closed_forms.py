"""Channels whose capacity is known in closed form, one row each.

Every value is computed without dncap's solvers: ln phi and ln 2 outright,
the rest by plain bisection on the channel's characteristic equation.  A
row that dncap's route does not yet bracket is a strict xfail, its reason
giving the bracket it returns and the ROADMAP item that should close it.
"""

import math
from pathlib import Path

import pytest

import dncap as d
from conftest import (
    cycle_with_loop, dyck, golden_mean_system, mem_equal, mem_unequal, rll_system,
)
from oracles import LN_GOLDEN, bisect_root

SPECS = Path(__file__).resolve().parent.parent / "demos" / "specs"


def _root(*weights) -> float:
    """The s >= 0 with sum_w e^{-w s} = 1."""
    return bisect_root(lambda s: sum(math.exp(-w * s) for w in weights) - 1.0, 0.0, 10.0)


def _bare(fsm):
    """The FSM's handle graph as a generator, with no ``fsm`` to read."""
    return d.BranchSystem(fsm.start, fsm.outgoing.__getitem__)


def _missed(bracket, value, item):
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        f"the abscissa's window [{bracket[0]}, {bracket[1]}] misses {value}; "
        f"ROADMAP item {item}"))


LN_RLL_1_3 = math.log(bisect_root(lambda x: 1.0 + x + x * x - x ** 4, 1.0, 2.0))

# (system factory, w_max, closed form)
CLOSED_FORMS = [
    pytest.param(golden_mean_system, 40, LN_GOLDEN, id="golden_mean"),
    pytest.param(mem_unequal, 40, LN_GOLDEN, id="memoryless_1_2"),
    pytest.param(mem_equal, 40, math.log(2.0), id="binary_1_1"),
    pytest.param(lambda: rll_system(1, 3), 40, LN_RLL_1_3, id="rll_1_3"),
    pytest.param(lambda: d.fsm_to_branch_system(cycle_with_loop(60)), 40, _root(1, 60),
                 id="cycle60_chord"),
    pytest.param(lambda: d.load_system(str(SPECS / "rational_weights.json"))[0],
                 40, _root(1 / 3, 1 / 2), id="rational_weights"),
    pytest.param(dyck, 40, math.log(2.0), id="dyck_abscissa",
                 marks=_missed((0.629713, 0.641235), "ln 2", "16")),
    pytest.param(lambda: _bare(d.make_golden_mean()), 100, LN_GOLDEN,
                 id="bare_golden_mean", marks=_missed((0.482789, 0.483287), 0.481212, "7")),
    pytest.param(lambda: _bare(d.make_rll(1, 3)), 100, LN_RLL_1_3,
                 id="bare_rll_1_3", marks=_missed((0.380803, 0.381149), 0.382245, "7")),
]
