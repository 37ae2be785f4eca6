import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import dncap as d
from dncap import maxent
from conftest import counted, dead_end, dyck, harmonic_dyck, strongly_connected_fsms
from oracles import LN_GOLDEN


def golden_chain():
    fsm = d.make_golden_mean()
    return d.maxent_chain(fsm)


def binary_chain():
    fsm = d.memoryless_fsm(d.symbols({"0": 1, "1": 1}))
    return d.maxent_chain(fsm)


def rewalk(chain, labels):
    """Weight and log probability re-summed along the chain's rows."""
    state, weight, log_prob = chain.fsm.start, 0.0, 0.0
    for label in labels:
        sym, state, prob = next(
            t for t in chain.transition_probs[state] if t[0].label == label
        )
        weight += float(sym.weight)
        log_prob += math.log(prob)
    return weight, log_prob


class TestMaxentChain:
    def test_binary_chain_is_fair(self):
        chain = binary_chain()
        probs = [p for _, _, p in chain.transition_probs[0]]
        assert probs == pytest.approx([0.5, 0.5], abs=1e-10)

    def test_golden_mean_probabilities(self):
        chain = golden_chain()
        golden = (1 + math.sqrt(5)) / 2
        row = {sym.label: p for sym, _, p in chain.transition_probs[0]}
        assert row["0"] == pytest.approx(1 / golden, abs=1e-9)
        assert row["1"] == pytest.approx(1 / golden ** 2, abs=1e-9)

    @pytest.mark.parametrize(
        "fsm_factory",
        [d.make_golden_mean, lambda: d.make_rll(1, 3), lambda: d.make_rll(1, 2)],
    )
    def test_rows_sum_to_one(self, fsm_factory):
        fsm = fsm_factory()
        chain = d.maxent_chain(fsm)
        for row in chain.transition_probs:
            assert sum(p for _, _, p in row) == pytest.approx(1.0, abs=1e-10)

    def test_probabilities_follow_the_eigenvector_tilt(self):
        chain = golden_chain()
        b = chain.right_eigvec
        assert b[chain.fsm.start] == pytest.approx(1.0, abs=0.0)
        assert all(value > 0 for value in b)
        for state, row in enumerate(chain.transition_probs):
            for sym, dst, prob in row:
                expected = (b[dst] / b[state]) * math.exp(
                    -float(sym.weight) * chain.capacity
                )
                assert prob == pytest.approx(expected, abs=1e-14)

    @pytest.mark.parametrize(
        "fsm_factory",
        [d.make_golden_mean, lambda: d.make_rll(1, 3),
         lambda: d.memoryless_fsm(d.symbols({"0": 1, "1": 1}))],
    )
    def test_analytic_rate_matches_capacity(self, fsm_factory):
        fsm = fsm_factory()
        estimate = d.fsm_capacity(fsm)
        chain = d.maxent_chain(fsm)
        assert abs(chain.analytic_entropy_rate() - estimate.value) <= 1e-6

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

    def test_transition_outside_the_fsm_is_rejected(self):
        chain = golden_chain()
        zero, one = (sym for sym, _, _ in chain.transition_probs[0])
        # state 1 may only emit "0"; this row also lets it emit "1"
        forged = d.MaxentChain(
            fsm=chain.fsm,
            capacity=chain.capacity,
            transition_probs=(
                chain.transition_probs[0], ((zero, 0, 0.5), (one, 1, 0.5)),
            ),
            right_eigvec=chain.right_eigvec,
            stationary=chain.stationary,
        )
        with pytest.raises(d.EstimatorError, match="rejected by the FSM"):
            d.sample_paths(forged, 50, 20, seed=4)


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
            d.empirical_entropy_rate(d.SampleSet(paths=(), seed=0, steps=0))


class TestLevelSampler:
    def test_dyck_samples_are_valid_and_uniform_ish(self):
        samples = d.sample_level_paths(dyck(), 6, 2000, seed=13)
        support = {p for p, _ in d.enumerate_level_paths(dyck(), 6)}
        counts = {}
        for path in samples.paths:
            assert path.labels in support
            assert path.log_prob == pytest.approx(-math.log(20), abs=1e-9)
            counts[path.labels] = counts.get(path.labels, 0) + 1
        # 20 equally likely paths, 2000 draws: each count near 100
        assert min(counts.values()) > 50
        assert max(counts.values()) < 170

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
        monkeypatch.setattr(maxent, "LEVEL_BUDGET", 100)
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
        support = {p for p, _ in d.enumerate_level_paths(system, 12)}
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

    def test_dead_end_above_the_level_is_never_drawn(self):
        # the dead row's ln p was -inf - -inf = nan, with a RuntimeWarning
        samples = d.sample_level_paths(dead_end(), 3, 200, seed=3)
        counts = {}
        for path in samples.paths:
            assert path.log_prob == pytest.approx(-math.log(2), abs=1e-12)
            counts[path.labels] = counts.get(path.labels, 0) + 1
        assert sorted(counts) == [("b", "b", "a"), ("b", "b", "b")]

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
    # the start row gains, at half the mass, a label the start state lacks
    start_row = chain.transition_probs[fsm.start]
    lacking = {sym.label for _, sym, _ in fsm.transitions} | {"z"}
    lacking -= {sym.label for sym, _, _ in start_row}
    forged_row = tuple((sym, dst, prob / 2) for sym, dst, prob in start_row)
    forged_row += ((d.Symbol(min(lacking), 1), fsm.start, 0.5),)
    rows = list(chain.transition_probs)
    rows[fsm.start] = forged_row
    forged = dataclasses.replace(chain, transition_probs=tuple(rows))
    with pytest.raises(d.EstimatorError, match="rejected by the FSM"):
        d.sample_paths(forged, 20, steps, seed=steps)


def test_samples_tsv_format():
    samples = d.sample_paths(golden_chain(), 2, 3, seed=77)
    lines = d.samples_tsv(samples).strip().split("\n")
    assert lines[0].startswith("#")
    assert len(lines) == 3
    fields = lines[1].split("\t")
    assert set(fields[0]) <= {"0", "1"}
    assert float(fields[1]) == len(fields[0])
    assert float(fields[2]) < 0


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
