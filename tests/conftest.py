import dataclasses
import math
from fractions import Fraction

import pytest
from hypothesis import strategies as st

import dncap as d


def mem_equal():
    return d.make_memoryless(d.symbols({"0": 1, "1": 1}), name="mem{0:1,1:1}")


def mem_unequal():
    return d.make_memoryless(d.symbols({"0": 1, "1": 2}), name="mem{0:1,1:2}")


def mem_rational():
    return d.make_memoryless(
        d.symbols({"0": "1/3", "1": "1/2"}), name="mem{0:1/3,1:1/2}"
    )


def golden_mean_system():
    return d.fsm_to_branch_system(d.make_golden_mean(), name="golden_mean")


def rll_system(dd, kk):
    return d.fsm_to_branch_system(d.make_rll(dd, kk), name=f"rll({dd},{kk})")


def dyck():
    return d.make_dyck_prefix()


def harmonic_steps():
    """Depth-d branches weigh 1 and 1/(d+2): a new denominator at every depth."""

    def expand(depth):
        return (
            (d.Symbol("a", 1), depth + 1),
            (d.Symbol("b", Fraction(1, depth + 2)), depth + 1),
        )

    return d.BranchSystem(0, expand, name="harmonic_steps")


def harmonic_dyck():
    """Dyck prefixes whose "(" at balance b weighs 1/(b+2).

    Each new maximum balance brings a new denominator, and the lower balances
    expanded at an older scale recur after it.
    """

    def expand(balance):
        up = (d.Symbol("(", Fraction(1, balance + 2)), balance + 1)
        return ((d.Symbol(")", 1), balance - 1), up) if balance else (up,)

    return d.BranchSystem(0, expand, name="harmonic_dyck")


def dead_end():
    """Branch "a" leads to the handle "x", which has no branches; "b" loops.

    Depth-3 paths end in "bba" or "bbb"; the "x" reached at depths 1 and 2
    is a dead end above the level.
    """
    table = {0: ((d.Symbol("a", 1), "x"), (d.Symbol("b", 1), 0)), "x": ()}
    return d.BranchSystem(0, table.__getitem__, name="dead_end")


def finite_tree(depth=3):
    """A binary tree of unit weights whose last nonempty depth is ``depth``."""

    def expand(level):
        if level == depth:
            return ()
        return ((d.Symbol("a", 1), level + 1), (d.Symbol("b", 1), level + 1))

    return d.BranchSystem(0, expand, name=f"finite_tree({depth})")


def counted(system):
    """A copy of ``system`` whose ``expand`` calls are tallied in ``calls[0]``."""
    calls = [0]

    def expand(handle):
        calls[0] += 1
        return system.expand(handle)

    return dataclasses.replace(system, expand=expand), calls


# every builtin, for oracle-equivalence and density sweeps
BUILTIN_FACTORIES = {
    "mem_equal": mem_equal,
    "mem_unequal": mem_unequal,
    "mem_rational": mem_rational,
    "golden_mean": golden_mean_system,
    "rll_1_3": lambda: rll_system(1, 3),
    "rll_1_2": lambda: rll_system(1, 2),
    "rll_0_1": lambda: rll_system(0, 1),
    "dyck": dyck,
}

# regular builtins with a root-based capacity, for the desk-scale gap checks
ROOT_BASED_FACTORIES = {
    "mem_equal": mem_equal,
    "mem_unequal": mem_unequal,
    "golden_mean": golden_mean_system,
    "rll_1_3": lambda: rll_system(1, 3),
}


def too_dense_spectrum(ratio=1.5, n_cover=31, w_max=40) -> d.WeightSpectrum:
    """Synthetic spectrum with ceil(ratio**n) distinct weights below n.

    All counts are 1, so the growth-rate estimator sees nothing, while the
    weight sequence densifies exponentially.  Entries are materialized up to
    n_cover; the nominal w_max may extend beyond coverage (undercounting
    past n_cover only makes density bounds easier to satisfy).
    """
    entries = []
    cumulative = 0
    for n in range(1, n_cover + 1):
        target = math.ceil(ratio ** n)
        fresh = target - cumulative
        denominator = fresh + 1
        for j in range(1, fresh + 1):
            entries.append((Fraction(n - 1) + Fraction(j, denominator), 1))
        cumulative = target
    return d.WeightSpectrum(entries=tuple(entries), w_max=Fraction(w_max))


@pytest.fixture
def tmp_spec(tmp_path):
    """Write a spec document to a temp file and return its path."""
    import json

    def write(doc, name="system.json"):
        path = tmp_path / name
        path.write_text(
            doc if isinstance(doc, str) else json.dumps(doc), encoding="utf-8"
        )
        return str(path)

    return write


@st.composite
def strongly_connected_fsms(draw, min_states=1, max_denominator=3):
    """A cycle through every state plus random extra edges, with at most one
    edge per (state, label) and weights p/q for p <= 4, q <= max_denominator."""
    size = draw(st.integers(min_states, 5))
    weight = st.tuples(st.integers(1, 4), st.integers(1, max_denominator)).map(
        lambda pq: f"{pq[0]}/{pq[1]}"
    )
    edges = {(state, "a"): (state + 1) % size for state in range(size)}
    for state in range(size):
        for label in "bc":
            if draw(st.booleans()):
                edges[state, label] = draw(st.integers(0, size - 1))
    return d.WeightedFsm(size, 0, tuple(
        (src, d.Symbol(label, draw(weight)), dst)
        for (src, label), dst in edges.items()
    ))
