import dataclasses
import hashlib
import math
import os
import subprocess
import sys
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import dncap as d
from dncap import maxent, sampler, solvers, spectrum
from dncap.maxent import enumerate_level_paths
from dncap.solvers import left_sum
from conftest import (
    counted, counted_calls, dead_end, dyck, harmonic_dyck, permutation_fsm,
    permutation_fsms, strongly_connected_fsms, table_generators, three_way,
    underflowing_cycle,
)
from oracles import LN_GOLDEN


def golden_chain():
    fsm = d.make_golden_mean()
    return d.maxent_chain(fsm)


def binary_chain():
    fsm = d.make_memoryless(d.symbols({"0": 1, "1": 1})).fsm
    return d.maxent_chain(fsm)


def two_char_chain():
    """Three states whose labels are all two characters long."""
    return d.maxent_chain(d.WeightedFsm(3, 0, (
        (0, d.Symbol("up", 1), 1), (0, d.Symbol("st", "1/2"), 0),
        (1, d.Symbol("up", "3/2"), 2), (1, d.Symbol("dn", 1), 0),
        (2, d.Symbol("dn", 2), 1), (2, d.Symbol("st", "2/3"), 2),
    )))


def mixed_length_chain():
    """One state whose labels have one, two and three characters."""
    return d.maxent_chain(d.make_memoryless(
        d.symbols({"0": 1, "10": 2, "ŋ": "3/2", "110": 3})
    ).fsm)


def joined_tsv(samples):
    """``samples_tsv`` written path by path from the decoded ``paths``."""
    lines = ["# labels\tweight\tlog_prob"]
    for path in samples.paths:
        lines.append(
            f"{''.join(path.labels)}\t{path.weight:.17g}\t{path.log_prob:.17g}"
        )
    return "\n".join(lines) + "\n"


def row_probs(chain, state):
    """The probabilities of ``state``'s transitions, in ``outgoing`` order."""
    return chain.probs[chain.fsm.edges[0] == state].tolist()


def rewalk(chain, labels):
    """Weight and log probability re-summed along the FSM's transitions."""
    state, weight, log_prob = chain.fsm.start, 0.0, 0.0
    for label in labels:
        k, (_, sym, state) = next(
            (k, (src, sym, dst)) for k, (src, sym, dst) in enumerate(chain.fsm.transitions)
            if src == state and sym.label == label
        )
        weight += float(sym.weight)
        log_prob += math.log(chain.probs[k])
    return weight, log_prob


class TestMaxentChain:
    def test_binary_chain_is_fair(self):
        chain = binary_chain()
        assert chain.probs.tolist() == pytest.approx([0.5, 0.5], abs=1e-10)

    def test_golden_mean_probabilities(self):
        chain = golden_chain()
        golden = (1 + math.sqrt(5)) / 2
        labels = [sym.label for sym, _ in chain.fsm.outgoing[0]]
        row = dict(zip(labels, row_probs(chain, 0)))
        assert row["0"] == pytest.approx(1 / golden, abs=1e-9)
        assert row["1"] == pytest.approx(1 / golden ** 2, abs=1e-9)

    def test_golden_mean_chain_is_its_closed_form(self):
        # probs are (1/phi, 1/phi^2, 1) by transition, b = (1, 1/phi),
        # pi = (phi^2, 1)/(phi^2 + 1)
        chain = golden_chain()
        with localcontext() as ctx:
            ctx.prec = 40
            phi = (1 + Decimal(5).sqrt()) / 2
            closed_forms = [
                (chain.probs, (1 / phi, 1 / phi ** 2, Decimal(1))),
                (chain.right_eigvec, (Decimal(1), 1 / phi)),
                (chain.stationary, (phi ** 2 / (phi ** 2 + 1), 1 / (phi ** 2 + 1))),
            ]
            for got, want in closed_forms:
                assert len(got) == len(want)
                for x, exact in zip(got.tolist(), want):
                    assert abs(Decimal(x) - exact) <= 4 * Decimal(math.ulp(x)), (x, exact)

    @pytest.mark.parametrize("fsm_factory", [
        d.make_golden_mean,
        lambda: d.make_rll(2, 7),
        lambda: d.WeightedFsm(60, 0, tuple(
            (i, d.Symbol("a", 1), (i + 1) % 60) for i in range(60)
        ) + ((0, d.Symbol("b", 1), 30),)),
        lambda: permutation_fsm(np.random.default_rng(3), 50, "abc"),
    ], ids=["golden_mean", "rll_2_7", "cycle60_chord", "permutation50"])
    def test_the_chain_makes_no_perron_solve_of_its_own(self, fsm_factory, monkeypatch):
        fsm = fsm_factory()
        calls = counted_calls(monkeypatch, solvers.perron)
        estimate = d.fsm_capacity(fsm)
        solves = len(calls)
        chain = d.maxent_chain(fsm)
        assert len(calls) == 2 * solves > 0
        assert chain.capacity == estimate.value

    @pytest.mark.parametrize(
        "fsm_factory",
        [d.make_golden_mean, lambda: d.make_rll(1, 3), lambda: d.make_rll(1, 2)],
    )
    def test_rows_sum_to_one(self, fsm_factory):
        fsm = fsm_factory()
        chain = d.maxent_chain(fsm)
        for state in range(fsm.num_states):
            assert sum(row_probs(chain, state)) == pytest.approx(1.0, abs=1e-10)

    def test_probabilities_follow_the_eigenvector_tilt(self):
        chain = golden_chain()
        b = chain.right_eigvec.tolist()
        assert b[chain.fsm.start] == pytest.approx(1.0, abs=0.0)
        assert all(value > 0 for value in b)
        for (src, sym, dst), prob in zip(chain.fsm.transitions, chain.probs.tolist()):
            expected = (b[dst] / b[src]) * math.exp(-float(sym.weight) * chain.capacity)
            assert prob == pytest.approx(expected, abs=1e-14)

    @pytest.mark.parametrize(
        "fsm_factory",
        [d.make_golden_mean, lambda: d.make_rll(1, 3),
         lambda: d.make_memoryless(d.symbols({"0": 1, "1": 1})).fsm],
    )
    def test_analytic_rate_matches_capacity(self, fsm_factory):
        fsm = fsm_factory()
        estimate = d.fsm_capacity(fsm)
        chain = d.maxent_chain(fsm)
        assert abs(chain.analytic_entropy_rate() - estimate.value) <= 1e-6

    def test_rate_off_the_capacity_raises(self, monkeypatch):
        monkeypatch.setattr(sampler, "_RATE_CHECK_TOL", -1.0)
        with pytest.raises(d.EstimatorError,
                           match=r"^chain entropy rate \S+ disagrees with capacity \S+$"):
            d.maxent_chain(d.make_golden_mean())

    def test_a_nan_entropy_rate_is_refused(self, monkeypatch):
        monkeypatch.setattr(sampler.MaxentChain, "analytic_entropy_rate",
                            lambda chain: math.nan)
        with pytest.raises(d.EstimatorError,
                           match=r"^chain entropy rate nan disagrees with capacity \S+$"):
            d.maxent_chain(d.make_golden_mean())

    def test_probabilities_are_the_tilt_to_the_last_bit(self):
        fsm = permutation_fsm(np.random.default_rng(5), 40, "abc")
        chain = d.maxent_chain(fsm)
        b = chain.right_eigvec.tolist()
        assert chain.probs.tolist() == [
            b[dst] / b[src] * math.exp(-float(sym.weight) * chain.capacity)
            for src, sym, dst in fsm.transitions
        ]

    @pytest.mark.xfail(
        strict=True, raises=d.EstimatorError,
        reason="every exit of state 2 underflows at s*; needs the log-space "
        "rows of ROADMAP item 5",
    )
    def test_chain_builds_where_a_cycle_underflows(self):
        chain = d.maxent_chain(underflowing_cycle())
        assert abs(chain.capacity - LN_GOLDEN) < 1e-12

    def test_requires_strong_connectivity(self):
        one_way = d.WeightedFsm(
            2, 0, ((0, d.Symbol("a", 1), 1), (1, d.Symbol("b", 1), 1)),
        )
        with pytest.raises(d.InvalidSystemError, match="strongly connected"):
            d.maxent_chain(one_way)


class TestSamplePaths:
    def test_forbidden_word_never_appears(self):
        samples = d.sample_paths(golden_chain(), 300, 40, seed=11)
        assert all("11" not in "".join(p.labels) for p in samples.paths)

    def test_every_sample_is_accepted(self):
        chain = d.maxent_chain(d.make_rll(1, 3))
        samples = d.sample_paths(chain, 200, 60, seed=5)
        assert all(chain.fsm.accepts(p.labels) for p in samples.paths)

    def test_reproducible_and_seed_sensitive(self):
        chain = golden_chain()
        first = d.samples_tsv(d.sample_paths(chain, 50, 30, seed=42))
        second = d.samples_tsv(d.sample_paths(chain, 50, 30, seed=42))
        other = d.samples_tsv(d.sample_paths(chain, 50, 30, seed=43))
        assert first == second
        assert first != other

    def test_negative_seed_is_refused_before_the_budget(self):
        with pytest.raises(ValueError, match="^seed must be >= 0$"):
            d.sample_paths(golden_chain(), 10 ** 9, 100, seed=-1)

    def test_symbol_frequency_concentrates(self):
        samples = d.sample_paths(binary_chain(), 2000, 100, seed=7)
        zeros = sum(p.labels.count("0") for p in samples.paths)
        frequency = zeros / (2000 * 100)
        assert 0.49 <= frequency <= 0.51

    def test_single_draw(self):
        samples = d.sample_paths(golden_chain(), 1, 1, seed=0)
        assert len(samples.paths) == 1
        assert len(samples.paths[0].labels) == 1

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            d.sample_paths(golden_chain(), 0, 5, seed=1)

    def test_a_path_weight_past_the_float_range_raises(self):
        # each weight is a float, but any path of 5 steps weighs over 2e308
        chain = d.maxent_chain(d.make_memoryless(
            d.symbols({"a": "5e307", "b": "6e307"})).fsm)
        assert max(d.sample_paths(chain, 20, 2, seed=1).weight) <= 1.2e308
        with pytest.raises(OverflowError, match="^a sampled path's weight is past"):
            d.sample_paths(chain, 2, 5, seed=1)

    def test_an_oversized_sample_is_refused_before_any_array(self):
        # 10^8 paths of 100 labels: a 10 GB code matrix, refused up front
        refusal = (f"^a sample of 100000000 paths x 100 steps is past the sample "
                   f"budget of {sampler.SAMPLE_BUDGET} bytes$")
        with pytest.raises(d.BudgetExceededError, match=refusal):
            d.sample_paths(golden_chain(), 10 ** 8, 100, seed=1)
        system, calls = counted(dyck())
        with pytest.raises(d.BudgetExceededError, match=refusal):
            d.sample_level_paths(system, 100, 10 ** 8, seed=1)
        assert calls == [0]  # before the walk

    def test_the_budget_charges_two_bytes_a_code_past_255_labels(self, monkeypatch):
        # 300 labels are coded as uint16: 3 paths of 4 steps take
        # 3 * (4 * 2 + 64) = 216 bytes, not the one-byte 3 * (4 + 64) = 204
        system = d.make_memoryless(d.symbols({f"x{i}": 1 for i in range(300)}))
        chain = d.maxent_chain(system.fsm)
        draws = [lambda: d.sample_paths(chain, 3, 4, seed=1),
                 lambda: d.sample_level_paths(system, 4, 3, seed=1)]
        for draw in draws:
            monkeypatch.setattr(sampler, "SAMPLE_BUDGET", 204)
            with pytest.raises(d.BudgetExceededError,
                               match="^a sample of 3 paths x 4 steps is past"):
                draw()
            monkeypatch.setattr(sampler, "SAMPLE_BUDGET", 216)
            assert draw().labels.dtype == np.uint16

    def test_rows_match_a_rewalk_of_the_transition_table(self):
        fsm = d.WeightedFsm(2, 0, (
            (0, d.Symbol("a", "1/2"), 0), (0, d.Symbol("b", "3/2"), 1),
            (1, d.Symbol("c", "2/3"), 0), (1, d.Symbol("d", "5/4"), 1),
        ))
        chain = d.maxent_chain(fsm)
        for path in d.sample_paths(chain, 200, 40, seed=8).paths:
            weight, log_prob = rewalk(chain, path.labels)
            assert path.weight == pytest.approx(weight, rel=1e-12, abs=0)
            assert path.log_prob == pytest.approx(log_prob, rel=1e-12, abs=0)

    def test_a_row_that_does_not_sum_to_one_is_refused(self):
        # _table would renormalize (0.1, 0.1) and sample it as (0.5, 0.5)
        chain = golden_chain()
        with pytest.raises(d.EstimatorError,
                           match=r"^state 0: transition probabilities sum to 0\.2$"):
            dataclasses.replace(chain, probs=np.array([0.1, 0.1, 1.0]))

    def test_a_row_that_sums_to_nan_is_refused(self):
        chain = golden_chain()
        with pytest.raises(d.EstimatorError,
                           match=r"^state 0: transition probabilities sum to nan$"):
            dataclasses.replace(chain, probs=np.array([math.nan, 0.5, 1.0]))

    @pytest.mark.parametrize("probs, shape", [
        ([0.5, 0.5], r"\(2,\)"),
        ([0.5, 0.25, 0.25, 1.0], r"\(4,\)"),
        ([[0.5, 0.5, 1.0]], r"\(1, 3\)"),
    ], ids=["short", "long", "two-dimensional"])
    def test_probs_of_another_shape_are_refused(self, probs, shape):
        # one probability per transition of the FSM, golden mean's three
        refusal = rf"^probs has shape {shape}, not \(3,\): one probability per transition$"
        probs = np.array(probs)
        with pytest.raises(d.InvalidSystemError, match=refusal):
            dataclasses.replace(golden_chain(), probs=probs)
        assert probs.flags.writeable  # a refused array is left as it was

    def test_the_chain_s_arrays_are_read_only(self):
        chain = golden_chain()
        for array in (chain.probs, chain.right_eigvec, chain.stationary):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.5


class TestEmpiricalEntropyRate:
    def test_binary_chain_is_exact(self):
        samples = d.sample_paths(binary_chain(), 100, 20, seed=3)
        assert d.empirical_entropy_rate(samples) == pytest.approx(
            math.log(2), abs=1e-12
        )

    def test_golden_mean_converges(self):
        samples = d.sample_paths(golden_chain(), 2000, 100, seed=9)
        assert abs(d.empirical_entropy_rate(samples) - LN_GOLDEN) <= 0.01

    @pytest.mark.parametrize(
        "fsm_factory",
        [lambda: d.make_rll(1, 3), lambda: d.make_rll(1, 2),
         lambda: d.make_rll(0, 1)],
    )
    def test_run_length_chains_converge(self, fsm_factory):
        fsm = fsm_factory()
        estimate = d.fsm_capacity(fsm)
        chain = d.maxent_chain(fsm)
        samples = d.sample_paths(chain, 3000, 100, seed=17)
        assert abs(d.empirical_entropy_rate(samples) - estimate.value) <= 0.01

    def test_single_loop_chain_rate_is_zero(self):
        fsm = d.WeightedFsm(1, 0, ((0, d.Symbol("a", 1), 0),))
        chain = d.maxent_chain(fsm)
        samples = d.sample_paths(chain, 10, 10, seed=1)
        assert d.empirical_entropy_rate(samples) == 0.0

    def test_empty_sample_set_rejected(self):
        with pytest.raises(ValueError):
            d.empirical_entropy_rate(EMPTY)

    @pytest.mark.parametrize("draw, rate", [
        (lambda: d.sample_paths(two_char_chain(), 2000, 60, seed=37),
         0.7229686658415292),
        (lambda: d.sample_paths(mixed_length_chain(), 500, 80, seed=41),
         0.8280254747875826),
    ])
    def test_rate_is_the_per_path_sum_to_the_last_bit(self, draw, rate):
        # the rates the per-path sums gave before samples were kept as arrays;
        # the two-character one moved one ulp when the chain took its Perron
        # vectors from the capacity solve
        samples = draw()
        assert d.empirical_entropy_rate(samples) == rate
        assert rate == (-left_sum(path.log_prob for path in samples.paths)
                        / left_sum(path.weight for path in samples.paths))


class TestLevelSampler:
    def test_dyck_samples_are_valid_and_uniform_ish(self):
        samples = d.sample_level_paths(dyck(), 6, 2000, seed=13)
        support = {p for p, _ in enumerate_level_paths(dyck(), 6)}
        counts = {}
        for path in samples.paths:
            assert path.labels in support
            assert path.log_prob == pytest.approx(-math.log(20), abs=1e-9)
            counts[path.labels] = counts.get(path.labels, 0) + 1
        # 20 equally likely paths, 2000 draws: each count near 100
        assert min(counts.values()) > 50
        assert max(counts.values()) < 170

    def test_count_below_one_is_refused(self):
        with pytest.raises(ValueError, match="^count must be >= 1$"):
            d.sample_level_paths(dyck(), 5, 0, 1)

    def test_negative_seed_is_refused_before_the_walk(self):
        system, calls = counted(dyck())
        with pytest.raises(ValueError, match="^seed must be >= 0$"):
            d.sample_level_paths(system, 5, 10 ** 9, -1)
        assert calls == [0]

    def test_reproducible(self):
        first = d.samples_tsv(d.sample_level_paths(dyck(), 5, 40, seed=2))
        second = d.samples_tsv(d.sample_level_paths(dyck(), 5, 40, seed=2))
        assert first == second

    def test_deep_level_holds_the_closed_form(self):
        # the recursive subtree sum raised RecursionError from level 499 on
        want = -math.log(math.comb(600, 300))
        samples = d.sample_level_paths(dyck(), 600, 3, seed=6)
        assert len(samples.paths) == 3
        for path in samples.paths:
            assert path.log_prob == pytest.approx(want, rel=1e-12, abs=0)

    def test_log_prob_is_the_maxent_law(self):
        system = d.make_memoryless(d.symbols({"0": 1, "1": 2}))
        rate = d.solve_level_rate(system, 8).rate
        for path in d.sample_level_paths(system, 8, 300, seed=12).paths:
            assert path.log_prob == pytest.approx(
                -path.weight * rate, rel=1e-12, abs=0
            )

    def test_budget_is_enforced(self, monkeypatch):
        monkeypatch.setattr(spectrum, "LEVEL_BUDGET", 100)
        with pytest.raises(d.BudgetExceededError):
            d.sample_level_paths(dyck(), 40, 1, seed=0)

    def test_expand_runs_once_per_handle(self):
        # depths 0..59 reach balances 0..59 and nothing else
        system, calls = counted(dyck())
        d.sample_level_paths(system, 60, 3, seed=4)
        assert calls[0] <= 60

    def test_rational_weights_rescaled_mid_walk(self):
        # every new maximum balance brings a new denominator to the walk
        system = harmonic_dyck()
        rate = d.solve_level_rate(system, 12).rate
        support = {p for p, _ in enumerate_level_paths(system, 12)}
        samples = d.sample_level_paths(system, 12, 200, seed=17)
        assert len(samples.paths) == 200
        for path in samples.paths:
            assert path.labels in support
            assert path.log_prob == pytest.approx(
                -path.weight * rate, rel=1e-12, abs=0
            )

    def test_root_subtree_sum_must_be_one(self, monkeypatch):
        solve = maxent._solve_levels

        def off_by_a_little(rows, first):
            return [dataclasses.replace(solution, rate=solution.rate + 1e-6)
                    for solution in solve(rows, first)]

        monkeypatch.setattr(maxent, "_solve_levels", off_by_a_little)
        with pytest.raises(d.EstimatorError, match="root subtree sum"):
            d.sample_level_paths(dyck(), 20, 3, seed=0)

    # numpy may warn as the nan rate reaches logaddexp; the check must still refuse it
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_a_nan_rate_is_refused(self, monkeypatch):
        solve = maxent._solve_levels

        def nan_rate(rows, first):
            return [dataclasses.replace(solution, rate=math.nan)
                    for solution in solve(rows, first)]

        monkeypatch.setattr(maxent, "_solve_levels", nan_rate)
        with pytest.raises(d.EstimatorError,
                           match=r"^level 20: root subtree sum has ln Z = nan, not 0, "
                                 r"at rate nan$"):
            d.sample_level_paths(dyck(), 20, 3, seed=0)

    def test_dead_end_above_the_level_is_never_drawn(self):
        # the dead row's ln p was -inf - -inf = nan, with a RuntimeWarning
        samples = d.sample_level_paths(dead_end(), 3, 200, seed=3)
        counts = {}
        for path in samples.paths:
            assert path.log_prob == pytest.approx(-math.log(2), abs=1e-12)
            counts[path.labels] = counts.get(path.labels, 0) + 1
        assert sorted(counts) == [("b", "b", "a"), ("b", "b", "b")]

    @pytest.mark.parametrize("block_rows", [1, 2, 7, 64, 1000])
    @pytest.mark.parametrize("draw", [
        lambda: d.sample_level_paths(dyck(), 520, 4, seed=23),
        lambda: d.sample_level_paths(three_way(), 40, 300, seed=31),
    ], ids=["dyck_520x4", "three_way_40x300"])
    def test_any_block_of_depths_draws_the_same_sample(self, monkeypatch, draw,
                                                       block_rows):
        want = d.samples_tsv(draw())
        monkeypatch.setattr(sampler, "_BLOCK_ROWS", block_rows)
        assert d.samples_tsv(draw()) == want

    @pytest.mark.parametrize("draw", [
        lambda: d.sample_level_paths(dyck(), 1040, 4, seed=23),
        lambda: d.sample_level_paths(three_way(), 40, 300, seed=31),
    ], ids=["dyck_1040x4", "three_way_40x300"])
    def test_the_order_of_a_depths_handles_moves_no_draw(self, monkeypatch, draw):
        # a path reads only its own row, so the rows' order within a depth is free
        want = d.samples_tsv(draw())
        walk = spectrum.frontier_walk

        def reversed_entries(system, level):
            for frontier, scale, memo in walk(system, level):
                yield ({units: dict(reversed(group.items()))
                        for units, group in frontier.items()}, scale, memo)

        monkeypatch.setattr(sampler, "frontier_walk", reversed_entries)
        assert d.samples_tsv(draw()) == want

    def test_one_table_per_block_of_depths(self, monkeypatch):
        # Dyck depth d holds the d // 2 + 1 balances of d's parity
        rows = sum(depth // 2 + 1 for depth in range(100))
        built = []  # each table's row count
        table = sampler._table
        monkeypatch.setattr(sampler, "_table",
                            lambda ln_q, *rest: built.append(ln_q.shape[1]) or table(ln_q, *rest))
        d.sample_level_paths(dyck(), 100, 3, seed=5)
        assert sum(built) == rows
        assert len(built) <= math.ceil(rows / sampler._BLOCK_ROWS) + 1
        built.clear()
        monkeypatch.setattr(sampler, "_BLOCK_ROWS", 1)
        d.sample_level_paths(dyck(), 100, 3, seed=5)
        assert (sum(built), len(built)) == (rows, 100)

    def test_weighted_system_matches_maxent_pmf(self):
        system = d.make_memoryless(d.symbols({"0": 1, "1": 2}))
        samples = d.sample_level_paths(system, 1, 4000, seed=21)
        ones = sum(1 for p in samples.paths if p.labels == ("1",))
        golden = (1 + math.sqrt(5)) / 2
        assert ones / 4000 == pytest.approx(1 / golden ** 2, abs=0.03)


@st.composite
def rational_alphabets(draw):
    size = draw(st.integers(2, 4))
    weights = draw(st.lists(
        st.tuples(st.integers(1, 6), st.integers(1, 6)), min_size=size, max_size=size
    ))
    return d.symbols({f"s{i}": f"{p}/{q}" for i, (p, q) in enumerate(weights)})


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(alphabet=rational_alphabets(), level=st.integers(1, 40))
def test_level_samples_follow_the_maxent_law(alphabet, level):
    system = d.make_memoryless(alphabet)
    rate = d.solve_level_rate(system, level).rate
    for path in d.sample_level_paths(system, level, 20, seed=level).paths:
        assert path.log_prob == pytest.approx(-path.weight * rate, rel=1e-12, abs=0)
        assert system.fsm.accepts(path.labels)


def level_draw(system, level, seed):
    """The level sampler's TSV, or the repr of what it raised."""
    try:
        return d.samples_tsv(d.sample_level_paths(system, level, 30, seed))
    except (ValueError, d.EstimatorError) as exc:
        return repr(exc)


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(system=table_generators(), level=st.integers(1, 12),
       block_rows=st.integers(1, 8), seed=st.integers(0, 3))
def test_level_draws_do_not_depend_on_the_block_size(system, level, block_rows, seed):
    want = level_draw(system, level, seed)
    for rows in (1, block_rows):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sampler, "_BLOCK_ROWS", rows)
            assert level_draw(system, level, seed) == want


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(fsm=strongly_connected_fsms(), steps=st.integers(1, 30))
def test_fsm_samples_rewalk_and_forgeries_are_rejected(fsm, steps):
    chain = d.maxent_chain(fsm)
    for path in d.sample_paths(chain, 20, steps, seed=steps).paths:
        assert fsm.accepts(path.labels)
        weight, log_prob = rewalk(chain, path.labels)
        assert path.weight == pytest.approx(weight, rel=1e-12, abs=0)
        # rows are renormalized in log space; a row's sum is 1 to rounding
        assert path.log_prob == pytest.approx(log_prob, rel=1e-12, abs=1e-14 * steps)
    # the start state's transitions go to half their mass and a probability
    # is added for a transition the FSM lacks: one more than it has
    start = chain.fsm.edges[0] == fsm.start
    forged = np.append(np.where(start, chain.probs / 2, chain.probs), 0.5)
    with pytest.raises(d.InvalidSystemError, match="^probs has shape "):
        dataclasses.replace(chain, probs=forged)


@settings(max_examples=12, derandomize=True, deadline=None, database=None)
@given(fsm=permutation_fsms())
@example(fsm=permutation_fsm(np.random.default_rng(3), 2))
@example(fsm=permutation_fsm(np.random.default_rng(3), 300, "abcd"))
def test_maxent_chain_builds_wherever_the_capacity_certifies(fsm):
    # both Perron paths: dense Noda on small or periodic FSMs, power steps
    # on large fast-mixing ones
    capacity = d.fsm_capacity(fsm).value
    chain = d.maxent_chain(fsm)
    assert chain.capacity == capacity
    assert abs(chain.analytic_entropy_rate() - capacity) < 1e-9
    assert all(abs(sum(row_probs(chain, state)) - 1.0) < 1e-12
               for state in range(fsm.num_states))


# sha256 of samples_tsv, generated before the sampler's tables were stored
# branch-major (the multi-character pair before samples were kept as
# arrays; the FSM draws' log_probs since the chain took its Perron vectors
# from the capacity solve); they reach past the CLI golden runs' sizes.
PINNED_SAMPLES = {
    "dyck_1040": (
        lambda: d.sample_level_paths(dyck(), 1040, 4, seed=23),
        "193bf975c88b5947107cf9a6f585ed3f3be1a16cba6306966c3a709c4d3736f1",
    ),
    "golden_10000x100": (  # crosses the writer's block boundaries
        lambda: d.sample_paths(golden_chain(), 10000, 100, seed=29),
        "e809e9824e145c439f4c06ae369a2d6a17e448708f8f2c9556821bf1d51ac110",
    ),
    "three_way_dead_end": (
        lambda: d.sample_level_paths(three_way(), 40, 300, seed=31),
        "5d1a781500100f2d5be7d78f14e20b4ba3bd5aa23e0627565c67e29070d674f0",
    ),
    "two_char_labels": (
        lambda: d.sample_paths(two_char_chain(), 2000, 60, seed=37),
        "eeacd54d12a755584a6ab9d77961b3078a2c1fc8ef7d1c7d8ba356c6d16e9d45",
    ),
    "mixed_length_labels": (
        lambda: d.sample_paths(mixed_length_chain(), 500, 80, seed=41),
        "96320856a22376968367ab314682413903f5de2701a1266e97974ba7c968f268",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_SAMPLES))
def test_pinned_samples(name):
    draw, digest = PINNED_SAMPLES[name]
    assert hashlib.sha256(d.samples_tsv(draw()).encode()).hexdigest() == digest


def reference_draws(rows, tables, start, count, seed):
    """Each path walked alone: it takes the first branch of its row whose
    cumulative p reaches its uniform, and the last branch with q > 0 when
    rounding leaves the row's total below it.  A row with no such branch
    gives branch 0 and ln p = -inf."""
    rng = np.random.default_rng(seed)
    paths = [[start, [], 0.0, 0.0] for _ in range(count)]
    for ln_q in tables:
        uniforms = rng.random(count)
        for path, u in zip(paths, uniforms):
            row = rows[path[0]]
            q = ln_q[path[0]]
            live = [k for k, x in enumerate(q) if x > -math.inf]
            pick, ln_p = 0, -math.inf
            if live:
                ln_total = np.logaddexp.reduce(q)
                cumulative = 0.0
                for pick in live:
                    cumulative += math.exp(q[pick] - ln_total)
                    if cumulative >= u:
                        break
                ln_p = q[pick] - ln_total
            label, weight, child = row[pick]
            path[0] = child
            path[1].append(label)
            path[2] += weight
            path[3] += ln_p
    return paths


@pytest.mark.parametrize("width", [1, 2, 3, 4])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lock_step_follows_the_draw_rule(width, seed):
    rng = np.random.default_rng([width, seed])
    size, steps, count = 7, 6, 200
    rows = []  # (label code, weight, child) per branch
    for _ in range(size):
        length = int(rng.integers(1, width + 1))
        rows.append([(int(rng.integers(3)), float(rng.integers(1, 4)),
                      int(rng.integers(size))) for _ in range(length)])
    tables = []
    for _ in range(steps):
        ln_q = []
        for row in rows:
            q = list(rng.normal(size=len(row)))
            live = int(rng.integers(len(row) + 1))  # q = 0 at the row's end
            ln_q.append(q[:live] + [-math.inf] * (len(row) - live))
        tables.append(ln_q)
    flat = [branch for row in rows for branch in row]
    valid, child, weight, label = sampler._padded(
        [len(row) for row in rows],
        [c for _, _, c in flat], [w for _, w, _ in flat], [l for l, _, _ in flat],
    )
    padded = [sampler._padded([len(row) for row in rows], sum(ln_q, []))[1]
              for ln_q in tables]
    drawn = sampler._lock_step(
        (sampler._table(ln_q, valid, child, weight, label) for ln_q in padded),
        ["x", "y", "z"], 0, count, steps, seed,
    )
    want = reference_draws(rows, tables, 0, count, seed)
    assert drawn.labels.tolist() == [labels for _, labels, _, _ in want]
    assert drawn.weight.tolist() == [weight for _, _, weight, _ in want]
    for got, (_, _, _, ln_p) in zip(drawn.log_prob.tolist(), want):
        assert got == pytest.approx(ln_p, rel=1e-12, abs=1e-12)


def test_samples_tsv_format():
    samples = d.sample_paths(golden_chain(), 2, 3, seed=77)
    lines = d.samples_tsv(samples).strip().split("\n")
    assert lines[0].startswith("#")
    assert len(lines) == 3
    fields = lines[1].split("\t")
    assert set(fields[0]) <= {"0", "1"}
    assert float(fields[1]) == len(fields[0])
    assert float(fields[2]) < 0


@pytest.mark.parametrize("chain", [golden_chain, two_char_chain, mixed_length_chain])
@pytest.mark.parametrize("count, steps", [(40, 1), (1, 40), (1, 1), (3000, 7)])
def test_one_step_one_path_and_blocked_samples_match_the_joined_tsv(
    chain, count, steps
):
    # 3000 paths of 7 steps take two of the writer's blocks
    samples = d.sample_paths(chain(), count, steps, seed=count + steps)
    assert samples.labels.shape == (count, steps)
    assert not samples.labels.flags.writeable
    assert d.samples_tsv(samples) == joined_tsv(samples)
    assert d.samples_tsv(samples).count("\n") == count + 1
    assert samples.paths is samples.paths  # decoded once


EMPTY = d.SampleSet((), np.empty((0, 0), dtype=np.intp), np.empty(0), np.empty(0))


def test_hand_built_sample_set_writes_its_paths():
    header = "# labels\tweight\tlog_prob\n"
    samples = d.SampleSet(("ab", "c"), np.array([[0, 1], [1, 1]]),
                          np.array([3.0, 2.0]), np.array([-1.5, -0.25]))
    assert samples.steps == 2 and not samples.labels.flags.writeable
    assert samples.paths == (d.SamplePath(("ab", "c"), 3.0, -1.5),
                             d.SamplePath(("c", "c"), 2.0, -0.25))
    assert d.samples_tsv(samples) == header + "abc\t3\t-1.5\ncc\t2\t-0.25\n"
    assert d.empirical_entropy_rate(samples) == 1.75 / 5.0
    assert d.samples_tsv(EMPTY) == header


@st.composite
def label_alphabets(draw):
    """2 to 4 distinct labels of 1 to 3 characters, ASCII, non-ASCII and NUL,
    as a one-state FSM with weights 1 to 3."""
    label = st.text(alphabet="ab\u00e9\u014b\u20ac\U0001d7d9\0", min_size=1, max_size=3)
    labels = draw(st.lists(label, min_size=2, max_size=4, unique=True))
    weights = draw(st.lists(st.integers(1, 3), min_size=len(labels), max_size=len(labels)))
    return d.make_memoryless(d.symbols(dict(zip(labels, weights)))).fsm


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(fsm=label_alphabets(), count=st.integers(1, 30), steps=st.integers(1, 12))
def test_samples_tsv_is_the_tsv_joined_from_paths(fsm, count, steps):
    samples = d.sample_paths(d.maxent_chain(fsm), count, steps, seed=count * steps)
    assert d.samples_tsv(samples) == joined_tsv(samples)


def test_import_leaves_numpy_random_unloaded():
    probe = (
        "import sys, numpy\n"
        "before = {m for m in sys.modules if m.startswith('numpy.random')}\n"
        "import dncap\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.startswith('numpy.random') and m not in before))\n"
    )
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
