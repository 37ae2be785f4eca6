import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import dncap as d
from dncap.maxent import enumerate_level_paths
from dncap.systems import parse_weight, strong_components
from conftest import (
    alphabet_of, dyck, golden_mean_system, mem_equal, mem_rational, mem_unequal, outcome,
)
from oracles import (
    dyck_prefix_count, reference_fsm_check, reference_strong_components, rll_word_ok,
)


def level_paths(system, level):
    return enumerate_level_paths(system, level)


class TestSymbol:
    def test_exact_weight_parsing(self):
        assert d.Symbol("a", "3/10").weight == Fraction(3, 10)
        assert d.Symbol("a", "0.3").weight == Fraction(3, 10)
        assert d.Symbol("a", 2).weight == Fraction(2)

    def test_float_weight_is_the_fraction_it_stores(self):
        assert d.Symbol("a", 0.5).weight == Fraction(1, 2)
        assert d.Symbol("a", 0.1).weight == Fraction(0.1) != Fraction(1, 10)

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(d.InvalidSystemError):
            d.Symbol("a", 0)
        with pytest.raises(d.InvalidSystemError):
            d.Symbol("a", "-1/2")

    @pytest.mark.parametrize("weight", ["1e400", "1e-400", float("inf"),
                                        Fraction(10) ** 400])
    def test_rejects_weights_outside_the_float_range(self, weight):
        # 1e400 has no float; 1e-400's float is 0, which no root can use
        with pytest.raises(d.InvalidSystemError, match="outside the float range"):
            d.Symbol("a", weight)

    def test_rejects_empty_label(self):
        with pytest.raises(d.InvalidSystemError):
            d.Symbol("", 1)

    @pytest.mark.parametrize("label", ["a\tb", "c\nd", "e\r", "\t"])
    def test_rejects_a_tab_or_line_break_in_a_label(self, label):
        # they separate the sample TSV's fields and rows
        with pytest.raises(d.InvalidSystemError) as caught:
            d.Symbol(label, 1)
        assert str(caught.value) == "symbol label must hold no tab or line break"

    def test_rejects_garbage_weight(self):
        with pytest.raises(ValueError):
            d.Symbol("a", "one half")

    @pytest.mark.parametrize("value, message", [
        (True, "weight must be numeric, not bool"),
        ([1], "unsupported weight type: list"),
    ], ids=["bool", "list"])
    def test_rejects_weight_types(self, value, message):
        with pytest.raises(TypeError) as caught:
            parse_weight(value)
        assert str(caught.value) == message


class TestMemoryless:
    def test_binary_level_two_support(self):
        paths = level_paths(mem_equal(), 2)
        assert sorted(p for p, _ in paths) == [
            ("0", "0"), ("0", "1"), ("1", "0"), ("1", "1"),
        ]
        assert all(w == 2 for _, w in paths)

    def test_unequal_weights_level_two(self):
        weights = sorted(w for _, w in level_paths(mem_unequal(), 2))
        assert weights == [2, 3, 3, 4]

    def test_singleton_is_a_single_path(self):
        system = d.make_memoryless(d.symbols({"a": 1}))
        for level in (1, 3, 7):
            paths = level_paths(system, level)
            assert len(paths) == 1
            assert paths[0][1] == level

    def test_rejects_bad_alphabets(self):
        with pytest.raises(d.InvalidSystemError):
            d.make_memoryless(())
        with pytest.raises(d.InvalidSystemError):
            d.make_memoryless((d.Symbol("a", 1), d.Symbol("a", 2)))


class TestDyckPrefix:
    def test_depth_one(self):
        assert [p for p, _ in level_paths(dyck(), 1)] == [("(",)]

    def test_depth_three_paths(self):
        assert sorted("".join(p) for p, _ in level_paths(dyck(), 3)) == [
            "(((", "(()", "()(",
        ]

    def test_depth_four_count(self):
        assert len(level_paths(dyck(), 4)) == 6 == math.comb(4, 2)

    @pytest.mark.parametrize("depth", [1, 2, 5, 8, 11])
    def test_counts_match_brute_force(self, depth):
        assert len(level_paths(dyck(), depth)) == dyck_prefix_count(depth)


class TestRll:
    def test_standard_state_count(self):
        assert d.make_rll(1, 3).num_states == 4
        assert d.make_rll(0, 1).num_states == 2

    def test_length_eight_count(self):
        # frozen from the exhaustive walk below and the run-length filter
        paths = level_paths(d.fsm_to_branch_system(d.make_rll(1, 3)), 8)
        assert len(paths) == 19

    def test_walks_match_run_length_semantics(self):
        from itertools import product

        paths = {
            "".join(p)
            for p, _ in level_paths(d.fsm_to_branch_system(d.make_rll(1, 3)), 8)
        }
        filtered = {
            "".join(word)
            for word in product("01", repeat=8)
            if rll_word_ok("".join(word), 1, 3)
        }
        assert paths == filtered

    def test_zero_one_forbids_double_zero(self):
        system = d.fsm_to_branch_system(d.make_rll(0, 1))
        words = {"".join(p) for p, _ in level_paths(system, 2)}
        assert words == {"01", "10", "11"}

    def test_rejects_bad_bounds(self):
        with pytest.raises(d.InvalidSystemError):
            d.make_rll(3, 3)
        with pytest.raises(d.InvalidSystemError):
            d.make_rll(2, 1)
        with pytest.raises(d.InvalidSystemError, match="^run-length bounds must be integers$"):
            d.make_rll(1.0, 3)


class TestWeightedFsm:
    def test_golden_mean_depth_three_support(self):
        assert len(level_paths(golden_mean_system(), 3)) == 5

    def test_binary_self_loops(self):
        system = d.fsm_to_branch_system(d.make_memoryless(d.symbols({"0": 1, "1": 1})).fsm)
        paths = level_paths(system, 5)
        assert len(paths) == 2 ** 5
        assert all(w == 5 for _, w in paths)

    def test_single_self_loop(self):
        fsm = d.WeightedFsm(1, 0, ((0, d.Symbol("a", 1), 0),))
        assert len(level_paths(d.fsm_to_branch_system(fsm), 6)) == 1

    def test_transitions_carry_symbols_not_tuples(self):
        with pytest.raises(d.InvalidSystemError, match="needs a Symbol"):
            d.WeightedFsm(1, 0, ((0, ("a", 1), 0),))

    def test_dead_end_is_a_constructor_error(self):
        with pytest.raises(d.InvalidSystemError, match="dead end"):
            d.WeightedFsm(2, 0, ((0, d.Symbol("a", 1), 1),))

    def test_dead_end_of_a_huge_fsm_is_found_from_its_transitions(self):
        # a table of 10^12 states would not fit in memory
        with pytest.raises(d.InvalidSystemError, match="state 1 is a dead end"):
            d.WeightedFsm(10 ** 12, 0, ((0, d.Symbol("a", 1), 0),))
        with pytest.raises(d.InvalidSystemError, match="state 0 is a dead end"):
            d.WeightedFsm(10 ** 12, 1, ((1, d.Symbol("a", 1), 1),))

    def test_unreachable_state_is_an_error(self):
        with pytest.raises(d.InvalidSystemError, match="unreachable"):
            d.WeightedFsm(
                2, 0,
                ((0, d.Symbol("a", 1), 0), (1, d.Symbol("b", 1), 1)),
            )

    def test_duplicate_labels_per_state_are_an_error(self):
        with pytest.raises(d.InvalidSystemError, match="duplicate"):
            d.WeightedFsm(
                2, 0,
                ((0, d.Symbol("a", 1), 0), (0, d.Symbol("a", 1), 1),
                 (1, d.Symbol("a", 1), 0)),
            )

    def test_accepts(self):
        fsm = d.make_golden_mean()
        assert fsm.accepts("0101")
        assert fsm.accepts("")
        assert not fsm.accepts("0110")

    def test_edges_are_the_transitions_as_read_only_arrays(self):
        fsm = d.WeightedFsm(2, 0, (
            (0, d.Symbol("a", "1/3"), 1), (0, d.Symbol("b", "5/2"), 1),
            (1, d.Symbol("a", 2), 0), (1, d.Symbol("b", 0.25), 1),
        ))
        src, weights, dst = fsm.edges
        assert src.tolist() == [0, 0, 1, 1] and dst.tolist() == [1, 1, 0, 1]
        assert weights.tolist() == [1 / 3, 2.5, 2.0, 0.25]
        assert fsm.edges is fsm.edges and fsm.components is fsm.components
        for array in (src, weights, dst, fsm.components):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    def test_strong_connectivity(self):
        assert d.make_golden_mean().is_strongly_connected()
        one_way = d.WeightedFsm(
            2, 0, ((0, d.Symbol("a", 1), 1), (1, d.Symbol("b", 1), 1)),
        )
        assert not one_way.is_strongly_connected()


class TestStructuralInvariants:
    @pytest.mark.parametrize(
        "factory", [mem_equal, mem_unequal, mem_rational, golden_mean_system, dyck],
    )
    def test_label_uniqueness_to_debug_depth(self, factory):
        # every node expands, so a repeated label anywhere above depth 7
        # repeats a depth-7 label tuple
        labels = [path for path, _ in enumerate_level_paths(factory(), 7)]
        assert len(set(labels)) == len(labels)

    def test_path_weight_additivity_is_exact(self):
        system = mem_rational()
        by_label = {sym.label: sym.weight for sym in alphabet_of(system)}
        for labels, weight in enumerate_level_paths(system, 5):
            assert weight == sum(by_label[l] for l in labels)
            assert isinstance(weight, Fraction)

    @pytest.mark.parametrize("factory", [mem_unequal, golden_mean_system, dyck])
    def test_support_nesting(self, factory):
        system = factory()
        shallow = {p for p, _ in enumerate_level_paths(system, 4)}
        deep_prefixes = {
            p[:4] for p, _ in enumerate_level_paths(system, 5)
        }
        assert shallow == deep_prefixes


@st.composite
def edge_lists(draw):
    """Any directed multigraph on 1 to 7 states, so dead ends, unreachable
    states, self-loops and parallel edges all occur."""
    n = draw(st.integers(1, 7))
    state = st.integers(0, n - 1)
    return n, draw(st.lists(st.tuples(state, state), max_size=16))


def successor_lists(n, pairs):
    """Each state's successors, in edge order."""
    return [[j for i, j in pairs if i == state] for state in range(n)]


def mutually_reachable(n, pairs):
    """reach[i][j]: j is reachable from i, by transitive closure."""
    reach = [[i == j for j in range(n)] for i in range(n)]
    for i, j in pairs:
        reach[i][j] = True
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                reach[i] = [a or b for a, b in zip(reach[i], reach[k])]
    return [[reach[i][j] and reach[j][i] for j in range(n)] for i in range(n)]


@settings(max_examples=80, derandomize=True, deadline=None, database=None)
@given(graph=edge_lists())
@example(graph=(1, []))
@example(graph=(5, [(0, 0), (0, 1), (0, 1), (1, 0), (2, 1), (3, 3)]))
def test_strong_components_are_the_mutual_reachability_classes(graph):
    n, pairs = graph
    label = strong_components(successor_lists(n, pairs))
    same = mutually_reachable(n, pairs)
    assert [[label[i] == label[j] for j in range(n)] for i in range(n)] == same
    assert all(label[label[i]] == label[i] for i in range(n))


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(graph=edge_lists())
@example(graph=(4, [(3, 2), (2, 3), (0, 1), (1, 0), (1, 2)]))
def test_strong_components_match_the_reference(graph):
    n, pairs = graph
    src, dst = (np.array([pair[k] for pair in pairs], dtype=np.intp) for k in (0, 1))
    assert (strong_components(successor_lists(n, pairs)).tolist()
            == reference_strong_components(n, src, dst).tolist())


@st.composite
def fsm_parts(draw):
    """(num_states, start, transitions) on 0 to 6 states: up to three
    outgoing labels per state, in one draw in four none or with repeats, then
    all rows shuffled.  In one draw in five the endpoints and start range one
    past either end, so out-of-range endpoints, dead ends, duplicate labels,
    unreachable states, mixes of them and valid FSMs all occur."""
    n = draw(st.integers(0, 6))
    wild = n == 0 or draw(st.integers(0, 4)) == 0
    state = st.integers(-1, n) if wild else st.integers(0, n - 1)
    some, unique = (draw(st.integers(0, 3)) > 0 for _ in range(2))
    labels = st.lists(st.sampled_from("abc"), min_size=int(some), max_size=3,
                      unique=unique)
    rows = [(draw(state) if wild else src, d.Symbol(label, 1), draw(state))
            for src in range(n) for label in draw(labels)]
    return n, draw(state), tuple(draw(st.permutations(rows)))


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(parts=fsm_parts())
@example(parts=(3, 0, ((0, d.Symbol("a", 1), 0), (0, d.Symbol("a", 1), 1),
                       (1, d.Symbol("a", 1), 1))))  # duplicate before dead end 2
@example(parts=(3, 0, ((0, d.Symbol("a", 1), 0), (1, d.Symbol("a", 1), 1),
                       (2, d.Symbol("a", 1), 5))))  # out of range before unreachable
@example(parts=(3, 1, ((0, d.Symbol("a", 1), 2), (1, d.Symbol("a", 1), 0),
                       (2, d.Symbol("a", 1), 1), (2, d.Symbol("b", 1), 2))))  # valid
@example(parts=(2, 0, tuple((k % 2, d.Symbol(f"s{k}", 1), (k + 1) % 2) for k in range(150))
                 + ((1, d.Symbol("x", 1), 5), (0, d.Symbol("y", 1), 7))))  # late range
def test_fsm_checks_match_the_reference(parts):
    n, start, transitions = parts
    fsm = outcome(lambda: d.WeightedFsm(n, start, transitions))
    error = outcome(lambda: reference_fsm_check(n, start, transitions))
    if error is not None:
        assert fsm == error
    else:
        src, _, dst = fsm.edges
        assert fsm.components.tolist() == reference_strong_components(n, src, dst).tolist()


def _flatten_finite_tree(tree, root):
    """All (concatenated label, weight) pairs of a finite explicit tree."""
    out = {("", Fraction(0))}
    stack = [(root, "", Fraction(0))]
    while stack:
        node, label, weight = stack.pop()
        for branch_label, branch_weight, child in tree[node]:
            flat = (label + branch_label, weight + branch_weight)
            out.add(flat)
            stack.append((child, flat[0], flat[1]))
    return out


def test_two_tree_representations_flatten_identically():
    # the same four accepted strings, once with "ab" split into two branches
    # and once with "ab" as a single branch of weight 2
    split = {
        "root": [("a", Fraction(1), "na"), ("b", Fraction(1), "nb")],
        "na": [("b", Fraction(1), "nab")],
        "nb": [],
        "nab": [],
    }
    fused = {
        "root": [
            ("a", Fraction(1), "na"),
            ("b", Fraction(1), "nb"),
            ("ab", Fraction(2), "nab"),
        ],
        "na": [],
        "nb": [],
        "nab": [],
    }
    expected = {
        ("", Fraction(0)), ("a", Fraction(1)),
        ("b", Fraction(1)), ("ab", Fraction(2)),
    }
    assert _flatten_finite_tree(split, "root") == expected
    assert _flatten_finite_tree(fused, "root") == expected
