import dataclasses
import math
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import dncap as d
from dncap import maxent, solvers, spectrum
from dncap.capacity import combinatorial_capacity
from dncap.maxent import enumerate_level_paths
from conftest import (
    alphabet_of,
    counted,
    counted_calls,
    dyck,
    finite_tree,
    golden_mean_system,
    mem_equal,
    mem_rational,
    mem_unequal,
    rational_alphabets,
    rll_system,
)
from oracles import LN_GOLDEN, bisect_root, reference_level_support


class TestSolveLevelRate:
    @pytest.mark.parametrize("level", [1, 5, 20])
    def test_equal_weights_pin_log_two(self, level):
        solution = d.solve_level_rate(mem_equal(), level)
        assert abs(solution.rate - math.log(2)) < 1e-9
        assert solution.support_size == 2 ** level

    def test_unequal_weights_level_one(self):
        solution = d.solve_level_rate(mem_unequal(), 1)
        assert abs(solution.rate - LN_GOLDEN) < 1e-9

    def test_dyck_level_two_by_hand(self):
        # support is {"((", "()"}, both of weight 2, so 2 e^{-2s} = 1
        paths = enumerate_level_paths(dyck(), 2)
        assert [(p, w) for p, w in paths] == [
            (("(", "("), 2), (("(", ")"), 2),
        ]
        solution = d.solve_level_rate(dyck(), 2)
        assert abs(solution.rate - math.log(2) / 2) < 1e-12

    @pytest.mark.parametrize(
        "factory,level",
        [(golden_mean_system, 7), (lambda: rll_system(1, 3), 9), (dyck, 12)],
    )
    def test_unit_weight_identity(self, factory, level):
        solution = d.solve_level_rate(factory(), level)
        assert abs(
            solution.rate - math.log(solution.support_size) / level
        ) < 1e-9

    @pytest.mark.parametrize(
        "factory,level", [(mem_unequal, 6), (golden_mean_system, 6), (dyck, 8)],
    )
    def test_root_certificate_and_entropy_identity(self, factory, level):
        system = factory()
        solution = d.solve_level_rate(system, level)
        buckets = reference_level_support(system, level)
        partition = sum(
            c * math.exp(-float(w) * solution.rate) for w, c in buckets.items()
        )
        assert abs(partition - 1.0) <= 1e-10
        assert solution.entropy == pytest.approx(
            solution.rate * solution.avg_weight, rel=1e-9
        )

    def test_dyck_levels_match_closed_form(self):
        # one bucket per level: C(l, l // 2) prefixes of weight l
        for level in range(1, 61):
            rate = d.solve_level_rate(dyck(), level).rate
            closed = math.log(math.comb(level, level // 2)) / level
            assert rate == pytest.approx(closed, rel=1e-15, abs=0.0), level

    def test_singleton_support_short_circuits(self):
        system = d.make_memoryless(d.symbols({"a": "7/2"}))
        solution = d.solve_level_rate(system, 4)
        assert solution.rate == 0.0
        assert solution.avg_weight == 14.0

    def test_budget_is_enforced(self, monkeypatch):
        monkeypatch.setattr(spectrum, "LEVEL_BUDGET", 10)
        with pytest.raises(d.BudgetExceededError):
            d.solve_level_rate(dyck(), 30)

    def test_level_below_one_is_refused(self):
        with pytest.raises(ValueError, match="^level must be >= 1$"):
            enumerate_level_paths(dyck(), 0)

    def test_budget_counts_every_expansion(self, monkeypatch):
        # the Dyck level walk to L expands L(L + 1) / 2 branches, counted per
        # frontier entry even where the handle's expansion is remembered; the
        # weight sweep to W expands 3W + 2 on weights 1 and 2, 14W - 61 on rll(2, 7)
        for run, count in [
            (lambda: d.solve_level_rate(dyck(), 20), 210),
            (lambda: d.solve_level_rate(dyck(), 100), 5050),
            (lambda: d.solve_level_rate(dyck(), 200), 20100),
            (lambda: d.weight_spectrum(mem_unequal(), 1000), 3002),
            (lambda: d.weight_spectrum(mem_unequal(), 2000), 6002),
            (lambda: d.weight_spectrum(rll_system(2, 7), 1000), 13939),
            (lambda: d.weight_spectrum(rll_system(2, 7), 2000), 27939),
        ]:
            monkeypatch.setattr(spectrum, "LEVEL_BUDGET", count)
            run()
            monkeypatch.setattr(spectrum, "LEVEL_BUDGET", count - 1)
            with pytest.raises(d.BudgetExceededError, match=f"budget of {count - 1} "):
                run()

    def test_float_and_rational_weights_share_the_walk(self):
        system = d.make_memoryless(d.symbols(
            {"a": 1, "b": Fraction(1, 3), "c": math.sqrt(2.0)}
        ))
        buckets = reference_level_support(system, 6)
        assert sum(buckets.values()) == 3 ** 6
        rate = d.solve_level_rate(system, 6).rate
        partition = sum(c * math.exp(-w * rate) for w, c in buckets.items())
        assert abs(partition - 1.0) <= 1e-12

    def test_inexact_weights_are_accepted_by_the_analytic_route(self):
        # float weights are the binary fractions they store, sqrt(2) included
        system = d.make_memoryless(
            (d.Symbol("a", 1.0), d.Symbol("b", math.sqrt(2.0))),
        )
        solution = d.solve_level_rate(system, 3)
        buckets = reference_level_support(system, 3)
        partition = sum(
            c * math.exp(-w * solution.rate) for w, c in buckets.items()
        )
        assert abs(partition - 1.0) <= 1e-10


class TestMaxentPmf:
    def test_uniform_on_equal_weights(self):
        pmf = d.maxent_pmf(mem_equal(), 3)
        assert len(pmf.probs) == 8
        assert all(p == pytest.approx(1 / 8, abs=1e-12) for p in pmf.probs.values())

    def test_golden_ratio_probabilities(self):
        system = mem_unequal()
        pmf = d.maxent_pmf(system, 1)
        golden = (1 + math.sqrt(5)) / 2
        assert pmf.probs[("0",)] == pytest.approx(1 / golden, abs=1e-9)
        assert pmf.probs[("1",)] == pytest.approx(1 / golden ** 2, abs=1e-9)

    def test_dyck_level_two_is_fair(self):
        pmf = d.maxent_pmf(dyck(), 2)
        assert all(p == pytest.approx(0.5, abs=1e-12) for p in pmf.probs.values())

    def test_equal_weight_paths_get_equal_probability(self):
        system = golden_mean_system()
        pmf = d.maxent_pmf(system, 5)
        assert len(set(round(p, 14) for p in pmf.probs.values())) == 1

    def test_probabilities_off_one_raise(self, monkeypatch):
        monkeypatch.setattr(maxent, "_SUM_TOL", -1.0)
        with pytest.raises(d.EstimatorError,
                           match=r"^level 3: maxent probabilities sum to \S+, not 1$"):
            d.maxent_pmf(mem_equal(), 3)

    def test_a_nan_rate_is_refused(self, monkeypatch):
        solve = maxent.solve_level_rate
        monkeypatch.setattr(maxent, "solve_level_rate", lambda system, level:
                            dataclasses.replace(solve(system, level), rate=math.nan))
        with pytest.raises(d.EstimatorError,
                           match=r"^level 3: maxent probabilities sum to nan, not 1$"):
            d.maxent_pmf(mem_equal(), 3)


class TestEntropyAndAvgWeight:
    def test_uniform_cube(self):
        paths = enumerate_level_paths(mem_equal(), 3)
        pmf = d.LevelPmf(
            level=3,
            probs={labels: 0.125 for labels, _ in paths},
            weights={labels: w for labels, w in paths},
        )
        entropy, avg = d.entropy_and_avg_weight(pmf)
        assert entropy == pytest.approx(3 * math.log(2), abs=1e-12)
        assert avg == pytest.approx(3.0, abs=1e-12)

    def test_solved_maxent_pmf_reproduces_uniform_cube(self):
        entropy, avg = d.entropy_and_avg_weight(d.maxent_pmf(mem_equal(), 3))
        assert entropy == pytest.approx(3 * math.log(2), abs=1e-9)
        assert avg == pytest.approx(3.0, abs=1e-9)

    def test_golden_ratio_values(self):
        system = mem_unequal()
        rate = d.solve_level_rate(system, 1).rate
        entropy, avg = d.entropy_and_avg_weight(d.maxent_pmf(system, 1))
        # frozen from the closed form H = R * L with L = (phi + 2)/(phi + 1)
        assert entropy == pytest.approx(0.6650183864440036, abs=1e-9)
        assert avg == pytest.approx(1.3819660112501049, abs=1e-9)
        assert entropy / avg == pytest.approx(rate, abs=1e-12)

    def test_point_mass(self):
        pmf = d.LevelPmf(
            level=3,
            probs={("1", "1", "0"): 1.0, ("0", "0", "0"): 0.0},
            weights={("1", "1", "0"): Fraction(5), ("0", "0", "0"): Fraction(3)},
        )
        entropy, avg = d.entropy_and_avg_weight(pmf)
        assert entropy == 0.0
        assert avg == 5.0

    def test_malformed_pmf(self):
        pmf = d.LevelPmf(
            level=1, probs={("a",): 0.7}, weights={("a",): Fraction(1)},
        )
        with pytest.raises(ValueError, match="sum"):
            d.entropy_and_avg_weight(pmf)
        negative = d.LevelPmf(
            level=1,
            probs={("a",): 1.5, ("b",): -0.5},
            weights={("a",): Fraction(1), ("b",): Fraction(1)},
        )
        with pytest.raises(ValueError, match="negative"):
            d.entropy_and_avg_weight(negative)

    def test_a_nan_probability_is_refused(self):
        pmf = d.LevelPmf(
            level=1,
            probs={("a",): math.nan, ("b",): 0.5},
            weights={("a",): Fraction(1), ("b",): Fraction(1)},
        )
        with pytest.raises(ValueError, match=r"^probabilities sum to nan, not 1$"):
            d.entropy_and_avg_weight(pmf)


class TestRateEstimate:
    def test_memoryless_levels_are_constant(self):
        estimate, levels = d.maxent_rate_estimate(mem_unequal(), 10)
        rates = [sol.rate for sol in levels]
        assert max(abs(r - rates[0]) for r in rates) <= 1e-10
        assert estimate.value == pytest.approx(LN_GOLDEN, abs=1e-9)

    def test_equal_weights_constant_log_two(self):
        estimate, levels = d.maxent_rate_estimate(mem_equal(), 10)
        assert all(abs(sol.rate - math.log(2)) < 1e-9 for sol in levels)

    @pytest.mark.parametrize(
        "weights,l_max,closed",
        [({"0": 1, "1": 1}, 2000, math.log(2)),
         ({"a": 1, "b": 1, "c": 1}, 700, math.log(3))],
        ids=["binary", "ternary"],
    )
    def test_deep_levels_stay_at_the_closed_form(self, weights, l_max, closed):
        # counts pass 2**1024 (the float range) near level 1024 and 646
        system = d.make_memoryless(d.symbols(weights))
        _, levels = d.maxent_rate_estimate(system, l_max)
        assert len(levels) == l_max
        assert max(abs(sol.rate - closed) for sol in levels) <= 1e-15

    @pytest.mark.parametrize("factory, l_max", [(dyck, 200), (golden_mean_system, 250)])
    def test_one_partition_root_solves_every_level(self, monkeypatch, factory, l_max):
        # a growth law: the levels are one batch, not one solve per level
        calls = counted_calls(monkeypatch, solvers.partition_root)
        _, levels = d.maxent_rate_estimate(factory(), l_max)
        assert len(levels) == l_max and calls == [1]

    def test_dyck_rates_climb_toward_log_two(self):
        estimate, levels = d.maxent_rate_estimate(dyck(), 16)
        rates = [sol.rate for sol in levels]
        assert rates[-1] == pytest.approx(math.log(math.comb(16, 8)) / 16, abs=1e-9)
        assert all(b >= a - 0.01 for a, b in zip(rates, rates[1:]))
        assert estimate.value < math.log(2)

    def test_budget_exhaustion_reports_partial_sequence(self, monkeypatch):
        monkeypatch.setattr(spectrum, "LEVEL_BUDGET", 300)
        estimate, levels = d.maxent_rate_estimate(dyck(), 30)

        def fits(level):
            try:
                d.solve_level_rate(dyck(), level)
            except d.BudgetExceededError:
                return False
            return True

        assert len(levels) == 24
        assert len(levels) == sum(fits(level) for level in range(1, 31))
        assert estimate.value > 0

    def test_no_level_within_the_budget_raises(self, monkeypatch):
        monkeypatch.setattr(spectrum, "LEVEL_BUDGET", 0)
        with pytest.raises(d.BudgetExceededError,
                           match="^no level fit within the enumeration budget$"):
            d.maxent_rate_estimate(dyck(), 5)

    @pytest.mark.parametrize("factory", [dyck, mem_rational, golden_mean_system])
    def test_levels_before_a_budget_cut_are_solved_as_alone(self, factory, monkeypatch):
        # the walk runs to the cut before any level is solved; each level
        # kept must still be the one solve_level_rate gives, bit for bit
        monkeypatch.setattr(spectrum, "LEVEL_BUDGET", 100)
        _, levels = d.maxent_rate_estimate(factory(), 80)
        assert 2 <= len(levels) < 80
        assert list(levels) == [
            d.solve_level_rate(factory(), level) for level in range(1, len(levels) + 1)
        ]
        with pytest.raises(d.BudgetExceededError):
            d.solve_level_rate(factory(), len(levels) + 1)

    def test_trajectory_is_one_walk(self):
        walked, walk_calls = counted(dyck())
        d.solve_level_rate(walked, 60)
        estimated, estimate_calls = counted(dyck())
        d.maxent_rate_estimate(estimated, 60)
        assert estimate_calls[0] == walk_calls[0]

    @pytest.mark.parametrize(
        "factory,l_max",
        [(dyck, 30), (mem_unequal, 12), (golden_mean_system, 20),
         (mem_rational, 12)],
    )
    def test_trajectory_matches_per_level_solves(self, factory, l_max):
        system = factory()
        _, levels = d.maxent_rate_estimate(system, l_max)
        assert levels == tuple(
            d.solve_level_rate(system, level) for level in range(1, l_max + 1)
        )

    def test_lmax_validation(self):
        with pytest.raises(ValueError):
            d.maxent_rate_estimate(mem_equal(), 1)


@pytest.mark.parametrize("level", [4, 5])
@pytest.mark.parametrize(
    "solve",
    [d.solve_level_rate, d.maxent_rate_estimate,
     lambda system, level: d.sample_level_paths(system, level, 3, seed=1)],
    ids=["solve_level_rate", "maxent_rate_estimate", "sample_level_paths"],
)
def test_levels_past_a_finite_tree_name_its_last_depth(solve, level):
    # these raised an empty-reduction ValueError or a bare StopIteration
    with pytest.raises(ValueError, match="last nonempty depth is 3"):
        solve(finite_tree(3), level)


def test_last_depth_of_a_finite_tree_is_solved():
    system = finite_tree(3)
    assert reference_level_support(system, 3) == {3: 8}
    assert d.solve_level_rate(system, 3).rate == pytest.approx(math.log(2))
    _, levels = d.maxent_rate_estimate(system, 3)
    assert len(levels) == 3
    for path in d.sample_level_paths(system, 3, 20, seed=2).paths:
        assert path.log_prob == pytest.approx(-math.log(8), abs=1e-12)


class TestKlGap:
    def test_gap_zero_at_the_optimum(self):
        system = mem_unequal()
        solution = d.solve_level_rate(system, 2)
        pmf = d.maxent_pmf(system, 2)
        gap, rate = d.kl_gap(pmf, system)
        assert gap == 0.0
        assert abs(rate - solution.rate) <= 1e-10

    def test_fair_coin_against_golden_ratio(self):
        system = mem_unequal()
        pmf = d.LevelPmf(
            level=1,
            probs={("0",): 0.5, ("1",): 0.5},
            weights={("0",): Fraction(1), ("1",): Fraction(2)},
        )
        gap, rate = d.kl_gap(pmf, system)
        assert rate == pytest.approx(math.log(2) / 1.5, abs=1e-12)
        assert gap == pytest.approx(0.02867055702946006, abs=1e-9)
        assert rate < d.solve_level_rate(system, 1).rate

    def test_biased_coin_on_equal_weights(self):
        system = mem_equal()
        pmf = d.LevelPmf(
            level=1,
            probs={("0",): 0.9, ("1",): 0.1},
            weights={("0",): Fraction(1), ("1",): Fraction(1)},
        )
        gap, rate = d.kl_gap(pmf, system)
        assert rate == pytest.approx(0.3250829733914482, abs=1e-12)
        assert rate < math.log(2)
        assert gap > 0

    def test_mass_outside_support_rejected(self):
        system = golden_mean_system()
        pmf = d.LevelPmf(
            level=2,
            probs={("1", "1"): 1.0},
            weights={("1", "1"): Fraction(2)},
        )
        with pytest.raises(ValueError, match="outside"):
            d.kl_gap(pmf, system)


class TestRepresentationIndependence:
    """One channel, two branch decompositions: alternating strings over a, b.

    The single-character tree has exactly one path per depth.  The block tree
    reaches the same strings through two chains of two-character branches
    (odd lengths via "a" then "ba" blocks, even lengths via "ab" blocks), so
    its depth-l support has two paths.  The per-level rates of the two
    decompositions must approach each other; both capacities are zero.
    """

    @staticmethod
    def char_tree():
        fsm = d.WeightedFsm(
            2, 0, ((0, d.Symbol("a", 1), 1), (1, d.Symbol("b", 1), 0)),
        )
        return d.fsm_to_branch_system(fsm)

    @staticmethod
    def block_tree():
        fsm = d.WeightedFsm(
            3, 0,
            (
                (0, d.Symbol("a", 1), 1),
                (0, d.Symbol("ab", 2), 2),
                (1, d.Symbol("ba", 2), 1),
                (2, d.Symbol("ab", 2), 2),
            ),
        )
        return d.fsm_to_branch_system(fsm)

    def test_both_decompositions_flatten_to_the_same_strings(self):
        def flattened(system, levels):
            out = {}
            for level in levels:
                for path, weight in enumerate_level_paths(system, level):
                    word = "".join(path)
                    assert word not in out, "two paths share a flattened string"
                    out[word] = weight
            return out

        # block paths of <= 4 branches span <= 8 characters
        chars = flattened(self.char_tree(), range(1, 9))
        blocks = flattened(self.block_tree(), range(1, 5))
        assert set(blocks) <= set(chars)
        assert set(chars) >= {"a", "ab", "aba", "abab"}
        for word, weight in blocks.items():
            assert chars[word] == weight

    def test_rates_converge_to_each_other(self):
        char_rate = d.solve_level_rate(self.char_tree(), 40).rate
        block_20 = d.solve_level_rate(self.block_tree(), 20).rate
        block_40 = d.solve_level_rate(self.block_tree(), 40).rate
        assert char_rate == 0.0
        # independent check of the block-tree level equation
        expected = bisect_root(
            lambda s: math.exp(-79 * s) + math.exp(-80 * s) - 1.0, 0.0, 1.0,
        )
        assert block_40 == pytest.approx(expected, abs=1e-10)
        assert abs(block_40 - char_rate) <= 0.05
        assert block_40 < block_20


def test_level_report_tsv_format():
    _, levels = d.maxent_rate_estimate(mem_unequal(), 3)
    text = d.level_report_tsv(levels)
    lines = text.strip().split("\n")
    assert lines[0].startswith("# l")
    assert len(lines) == 4
    fields = lines[1].split("\t")
    assert fields[0] == "1"
    assert fields[1] == "2"
    assert float(fields[2]) == pytest.approx(LN_GOLDEN, abs=1e-9)


def test_level_solutions_are_thread_safe():
    system = dyck()
    with ThreadPoolExecutor(max_workers=4) as pool:
        parallel = list(pool.map(lambda l: d.solve_level_rate(system, l).rate,
                                 range(1, 13)))
    sequential = [d.solve_level_rate(system, l).rate for l in range(1, 13)]
    assert parallel == sequential


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(weights=st.lists(st.floats(0.05, 4), min_size=1, max_size=4),
       level=st.integers(1, 4))
def test_float_alphabets_walk_like_their_fraction_twins(weights, level):
    # a float weight is the binary fraction it stores, so paths group by
    # exact weight, never by the rounding order of their float sums
    floats = d.make_memoryless(d.symbols(dict(zip("abcd", weights))))
    twin = d.make_memoryless(d.symbols({k: Fraction(w) for k, w in zip("abcd", weights)}))
    assert d.weight_spectrum(floats, 1) == d.weight_spectrum(twin, 1)
    support = reference_level_support(floats, level)
    assert support == reference_level_support(twin, level)
    assert support == Counter(w for _, w in enumerate_level_paths(floats, level))
    assert d.maxent_rate_estimate(floats, 6) == d.maxent_rate_estimate(twin, 6)


def test_float_sums_in_any_order_share_one_bucket():
    # 0.1 + 0.2 + 0.3 rounds to 0.6 or 0.6000000000000001 by order, and
    # 0.2 * 3 lands on the latter; exactly, abc's six orders share a weight
    # and bbb is a hair heavier
    system = d.make_memoryless(d.symbols({"a": 0.1, "b": 0.2, "c": 0.3}))
    support = reference_level_support(system, 3)
    assert support[Fraction(0.1) + Fraction(0.2) + Fraction(0.3)] == 6
    assert support[3 * Fraction(0.2)] == 1


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(system=rational_alphabets())
def test_every_level_of_an_alphabet_solves_its_characteristic_equation(system):
    # the depth-l sum is (sum_i e^{-w_i s})^l, which is 1 at the alphabet's root
    root = d.characteristic_root(alphabet_of(system)).value
    _, levels = d.maxent_rate_estimate(system, 12)
    assert len(levels) == 12
    assert all(abs(sol.rate - root) <= 1e-14 * root for sol in levels)


@st.composite
def unit_factorial_channels(draw):
    """Golden mean, rll(0, k) for k <= 5, or 1 to 4 unit-weight symbols."""
    n = draw(st.integers(1, 5))
    return draw(st.sampled_from([
        golden_mean_system(), rll_system(0, n),
        d.make_memoryless(d.symbols(dict.fromkeys("abcde"[:n], 1))),
    ]))


@settings(max_examples=15, derandomize=True, deadline=None, database=None)
@given(system=unit_factorial_channels())
@example(system=golden_mean_system())
def test_unit_weight_factorial_channels_never_rate_below_capacity(system):
    # every factor of an accepted string is accepted, so N(m + n) <= N(m) N(n)
    # and, by Fekete's lemma, ln N(l) / l >= C at every l: with unit weights
    # that is R_l.  Equality (the alphabets) leaves room for rounding only
    capacity = combinatorial_capacity(system, 1).value
    _, levels = d.maxent_rate_estimate(system, 200)
    assert all(sol.rate >= capacity * (1.0 - 1e-14) for sol in levels)


def test_rll_with_a_minimum_run_is_not_factorial_from_its_start():
    # from state 0, rll(1, 3) must open with a zero: N(1) = 1 and R_1 = 0 < C
    rate = d.solve_level_rate(rll_system(1, 3), 1).rate
    assert rate == 0.0 < d.fsm_capacity(d.make_rll(1, 3)).value
