import dataclasses
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import strategies as st

import dncap as d


def mem_equal():
    return d.make_memoryless(d.symbols({"0": 1, "1": 1}))


def mem_unequal():
    return d.make_memoryless(d.symbols({"0": 1, "1": 2}))


def mem_rational():
    return d.make_memoryless(d.symbols({"0": "1/3", "1": "1/2"}))


def alphabet_of(system):
    """The symbols of a memoryless channel: its one-state FSM's self-loops."""
    assert system.fsm.num_states == 1
    return tuple(sym for _, sym, _ in system.fsm.transitions)


def golden_mean_system():
    return d.fsm_to_branch_system(d.make_golden_mean())


def rll_system(dd, kk):
    return d.fsm_to_branch_system(d.make_rll(dd, kk))


def dyck():
    return d.make_dyck_prefix()


def harmonic_steps():
    """Depth-d branches weigh 1 and 1/(d+2): a new denominator at every depth."""

    def expand(depth):
        return (
            (d.Symbol("a", 1), depth + 1),
            (d.Symbol("b", Fraction(1, depth + 2)), depth + 1),
        )

    return d.BranchSystem(0, expand)


def harmonic_dyck():
    """Dyck prefixes whose "(" at balance b weighs 1/(b+2).

    Each new maximum balance brings a new denominator, and the lower balances
    expanded at an older scale recur after it.
    """

    def expand(balance):
        up = (d.Symbol("(", Fraction(1, balance + 2)), balance + 1)
        return ((d.Symbol(")", 1), balance - 1), up) if balance else (up,)

    return d.BranchSystem(0, expand)


def dead_end():
    """Branch "a" leads to the handle "x", which has no branches; "b" loops.

    Depth-3 paths end in "bba" or "bbb"; the "x" reached at depths 1 and 2
    is a dead end above the level.
    """
    table = {0: ((d.Symbol("a", 1), "x"), (d.Symbol("b", 1), 0)), "x": ()}
    return d.BranchSystem(0, table.__getitem__)


def three_way():
    """Three branches per handle 0, 1, 2; handle 1's "c" leads to the dead end
    "x", the other handles' "c" back to 0.  Weights 1, 1/2 and 2."""

    def expand(handle):
        if handle == "x":
            return ()
        return (
            (d.Symbol("a", 1), (handle + 1) % 3),
            (d.Symbol("b", Fraction(1, 2)), handle),
            (d.Symbol("c", 2), "x" if handle == 1 else 0),
        )

    return d.BranchSystem(0, expand)


def finite_tree(depth=3):
    """A binary tree of unit weights whose last nonempty depth is ``depth``."""

    def expand(level):
        if level == depth:
            return ()
        return ((d.Symbol("a", 1), level + 1), (d.Symbol("b", 1), level + 1))

    return d.BranchSystem(0, expand)


def tuple_dyck():
    """Dyck prefixes whose handle is the pair (balance, depth parity); ")"
    weighs 1/2, "(" weighs 1."""

    def expand(handle):
        balance, parity = handle
        up = (d.Symbol("(", 1), (balance + 1, 1 - parity))
        if not balance:
            return (up,)
        return ((d.Symbol(")", Fraction(1, 2)), (balance - 1, 1 - parity)), up)

    return d.BranchSystem((0, 0), expand)


def prefix_strings():
    """Strings over "a" (weight 1), "b" (2/3) and "c" (3/2) with no "cc",
    whose handle is the prefix itself, so no handle repeats."""

    def expand(prefix):
        labels = "ab" if prefix.endswith("c") else "abc"
        weights = {"a": 1, "b": Fraction(2, 3), "c": Fraction(3, 2)}
        return tuple((d.Symbol(x, weights[x]), prefix + x) for x in labels)

    return d.BranchSystem("", expand)


def cycle_with_loop(n):
    """An n-cycle plus a self-loop at state 0, all weights 1: its loops at
    state 0 weigh 1 and n, and it mixes slowly, as the second eigenvalue
    of M(s) nears the Perron root."""
    return d.WeightedFsm(n, 0, tuple(
        (i, d.Symbol("a", 1), (i + 1) % n) for i in range(n)
    ) + ((0, d.Symbol("b", 1), 0),))


def reducible_fsm():
    """Start state 2 loops on "a" and "b" (capacity ln 2) and leaves on "c"
    for the golden-mean pair 0, 1, which it never reenters; unit weights."""
    return d.WeightedFsm(3, 2, (
        (0, d.Symbol("a", 1), 0), (0, d.Symbol("b", 1), 1), (1, d.Symbol("a", 1), 0),
        (2, d.Symbol("a", 1), 2), (2, d.Symbol("b", 1), 2), (2, d.Symbol("c", 1), 0),
    ))


def underflowing_cycle():
    """Golden-mean loops at state 0 and 1 plus a 4000-weight cycle through
    state 2, whose e^{-w s} at the capacity ln(phi) underflows to 0."""
    return d.WeightedFsm(3, 0, (
        (0, d.Symbol("a", 1), 0), (0, d.Symbol("b", 1), 1),
        (1, d.Symbol("a", 1), 0), (1, d.Symbol("b", 2000), 2),
        (2, d.Symbol("a", 2000), 0),
    ))


def counted(system):
    """A copy of ``system`` whose ``expand`` calls are tallied in ``calls[0]``."""
    calls = [0]

    def expand(handle):
        calls[0] += 1
        return system.expand(handle)

    return dataclasses.replace(system, expand=expand), calls


def counted_calls(monkeypatch, function):
    """A list that gains one entry per call of ``function`` through any dncap
    module holding it under its own name, each holder patched for the test."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return function(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("dncap") and vars(module).get(function.__name__) is function:
            monkeypatch.setattr(module, function.__name__, counted)
    return calls


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


def outcome(build):
    """The result of ``build()``, or the type and message of what it raises."""
    try:
        return build()
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc)


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


@st.composite
def table_generators(draw):
    """A generator over handles 0..n-1 given by a table of 0 to 3 branches
    per handle (dead ends included), with integer and rational weights, or
    float ones, each the binary fraction it stores (0.3's denominator is
    2**54).  Handles reached later can bring new denominators.  With
    ``finite`` every child is above its parent, so the tree ends."""
    size = draw(st.integers(1, 5))
    finite = draw(st.sampled_from((False, False, True)))
    weights = (
        ["1", "2", "1/2", "2/3", "3/4", "5/3", "4/5"] if not draw(st.booleans())
        else [0.5, 1.0, 0.3, 1.25]
    )
    table = {}
    for handle in range(size):
        children = range(handle + 1, size) if finite else range(size)
        count = draw(st.sampled_from((0, 1, 2, 2, 3, 3))) if children else 0
        table[handle] = tuple(
            (d.Symbol("abc"[k], draw(st.sampled_from(weights))),
             draw(st.sampled_from(children)))
            for k in range(count)
        )
    return d.BranchSystem(0, table.__getitem__)


@st.composite
def rational_alphabets(draw, max_denominator=4):
    """A memoryless alphabet of 1 to 4 symbols with weights p/q, p <= 4,
    q <= ``max_denominator``."""
    weights = draw(st.lists(
        st.builds(Fraction, st.integers(1, 4), st.integers(1, max_denominator)),
        min_size=1, max_size=4))
    return d.make_memoryless(
        tuple(d.Symbol("abcd"[k], w) for k, w in enumerate(weights))
    )


def permutation_fsm(rng, n, labels="abc", max_weight=4):
    """A union of random permutations of n states, one per label, the first
    an n-cycle (so the FSM is strongly connected), with integer weights 1 to
    ``max_weight`` drawn from the numpy generator ``rng``."""
    order = rng.permutation(n)
    edges = [(order[k], labels[0], order[(k + 1) % n]) for k in range(n)]
    for label in labels[1:]:
        perm = rng.permutation(n)
        edges += [(i, label, perm[i]) for i in range(n)]
    return d.WeightedFsm(n, 0, tuple(
        (int(i), d.Symbol(label, int(rng.integers(1, max_weight + 1))), int(j))
        for i, label, j in edges
    ))


@st.composite
def permutation_fsms(draw, max_states=300):
    """``permutation_fsm`` of 2 to ``max_states`` states, 2 to 4 labels and
    weights up to 1 to 6: small ones take the dense Perron path, large
    fast-mixing ones the power steps, unit weights can be periodic."""
    return permutation_fsm(
        np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))),
        draw(st.integers(2, max_states)),
        "abcd"[:draw(st.integers(2, 4))],
        draw(st.integers(1, 6)),
    )
