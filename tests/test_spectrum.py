import math
from bisect import bisect_left
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings

import dncap as d
from conftest import (
    BUILTIN_FACTORIES,
    counted,
    dyck,
    golden_mean_system,
    harmonic_dyck,
    harmonic_steps,
    mem_equal,
    mem_rational,
    mem_unequal,
    strongly_connected_fsms,
    too_dense_spectrum,
)
from oracles import naive_string_spectrum, unit_fsm_counts


class TestWeightSpectrum:
    def test_binary_equal_weights(self):
        spectrum = d.weight_spectrum(mem_equal(), 4)
        assert spectrum.weights == (1, 2, 3, 4)
        assert spectrum.counts == (2, 4, 8, 16)

    def test_binary_unequal_weights_are_fibonacci(self):
        spectrum = d.weight_spectrum(mem_unequal(), 4)
        assert spectrum.counts == (1, 2, 3, 5)

    def test_dyck_counts_are_central_binomials(self):
        spectrum = d.weight_spectrum(dyck(), 16)
        assert spectrum.counts == tuple(
            math.comb(n, n // 2) for n in range(1, 17)
        )

    def test_rational_weights_land_on_exact_grid(self):
        spectrum = d.weight_spectrum(mem_rational(), 2)
        assert spectrum.weights[:4] == (
            Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(5, 6),
        )

    @pytest.mark.parametrize("name", sorted(BUILTIN_FACTORIES))
    def test_matches_naive_enumeration_oracle(self, name):
        system = BUILTIN_FACTORIES[name]()
        w_max = 5 if name == "mem_rational" else 8
        expected = naive_string_spectrum(system, w_max)
        spectrum = d.weight_spectrum(system, w_max)
        assert dict(spectrum.entries) == expected

    @pytest.mark.parametrize("name", ["golden_mean", "rll_1_3", "rll_1_2"])
    def test_matches_transfer_matrix_powers(self, name):
        system = BUILTIN_FACTORIES[name]()
        counts = d.weight_spectrum(system, 20).counts
        assert list(counts) == unit_fsm_counts(system.fsm, 20)

    def test_cumulative_counts_nondecreasing(self):
        spectrum = d.weight_spectrum(mem_unequal(), 12)
        running = 0
        previous = 0
        for _, count in spectrum.entries:
            running += count
            assert running >= previous
            previous = running

    def test_rejects_inexact_weights(self):
        system = d.make_memoryless((d.Symbol("a", 0.5), d.Symbol("b", 1)))
        with pytest.raises(d.InvalidSystemError, match="inexact"):
            d.weight_spectrum(system, 4)

    def test_rejects_bad_wmax(self):
        with pytest.raises(d.InvalidSystemError):
            d.weight_spectrum(mem_equal(), 0)
        with pytest.raises(d.InvalidSystemError):
            d.weight_spectrum(mem_equal(), "-3")

    def test_spectrum_validation(self):
        with pytest.raises(ValueError, match="increasing"):
            d.WeightSpectrum(
                entries=((Fraction(2), 1), (Fraction(1), 1)), w_max=Fraction(4),
            )
        with pytest.raises(ValueError, match="omitted"):
            d.WeightSpectrum(entries=((Fraction(1), 0),), w_max=Fraction(4))
        with pytest.raises(d.InvalidSystemError, match="positive"):
            d.WeightSpectrum(entries=(), w_max=Fraction(-1))


class TestFrontierWalk:
    @pytest.mark.parametrize(
        "factory,w_max", [(harmonic_steps, 4), (harmonic_dyck, "9/2")]
    )
    def test_rescale_matches_independent_routes(self, factory, w_max):
        system = factory()
        # depth-capped levels first: a walk that loses a rescale undercounts
        # weights, and unbounded by depth it would run away
        for level in range(1, 9):
            paths = d.enumerate_level_paths(system, level)
            expected = Counter(weight for _, weight in paths)
            assert d.level_support(system, level) == expected
        expected = naive_string_spectrum(system, w_max)
        assert dict(d.weight_spectrum(system, w_max).entries) == expected

    def test_expand_runs_once_per_handle(self):
        # balances 0..40 are the only handles up to weight 40
        system, calls = counted(dyck())
        d.weight_spectrum(system, 40)
        assert calls[0] == 41


# several states under several weights share a depth
@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(fsm=strongly_connected_fsms(min_states=2, max_denominator=4))
def test_walk_on_weighted_fsms_matches_explicit_enumeration(fsm):
    system = d.fsm_to_branch_system(fsm)
    expected = naive_string_spectrum(system, 2)
    assert d.weight_spectrum(system, 2).entries == tuple(sorted(expected.items()))
    for level in range(1, 7):
        paths = d.enumerate_level_paths(system, level)
        expected = Counter(weight for _, weight in paths)
        assert d.level_support(system, level) == expected


class TestDensityCheck:
    def test_unit_weights_pass_linear_bound(self):
        spectrum = d.weight_spectrum(mem_equal(), 64)
        report = d.density_check(spectrum, L=1.0, K=1.0)
        assert report.passes
        assert report.k_of_n == tuple(n - 1 for n in range(1, 65))

    def test_rational_grid_passes_given_bound(self):
        spectrum = d.weight_spectrum(mem_rational(), 20)
        assert d.density_check(spectrum, L=6.0, K=1.0).passes

    @pytest.mark.parametrize("weights", [
        {"0": "1/3", "1": "1/2"},
        {"0": "1/3", "1": "1/2", "2": "1"},
    ])
    def test_k_of_n_counts_weights_strictly_below_n(self, weights):
        system = d.make_memoryless(d.symbols(weights))
        spectrum = d.weight_spectrum(system, 6)
        # weights fall on every integer and just below it
        assert {Fraction(n) for n in range(1, 7)} <= set(spectrum.weights)
        assert {Fraction(6 * n - 1, 6) for n in range(1, 7)} <= set(spectrum.weights)
        report = d.density_check(spectrum)
        assert report.k_of_n == tuple(
            bisect_left(spectrum.weights, Fraction(n)) for n in report.n_range
        )

    def test_k_of_n_nondecreasing(self):
        report = d.density_check(d.weight_spectrum(mem_rational(), 12))
        assert all(a <= b for a, b in zip(report.k_of_n, report.k_of_n[1:]))

    def test_exponential_density_fails_autofit(self):
        report = d.density_check(too_dense_spectrum(n_cover=25, w_max=25))
        assert not report.passes
        assert report.fitted_K > 8

    def test_exponential_density_fails_pointwise_bounds(self):
        # over a finite range only low-degree polynomial bounds are violated
        # pointwise; the auto-fit slope test is what catches every exponent
        spectrum = too_dense_spectrum(n_cover=25, w_max=25)
        for K in (1.0, 2.0):
            assert not d.density_check(spectrum, L=2.0, K=K).passes

    @pytest.mark.parametrize("name", sorted(BUILTIN_FACTORIES))
    def test_builtins_autofit_small_exponent(self, name):
        system = BUILTIN_FACTORIES[name]()
        w_max = 20 if name == "mem_rational" else 40
        report = d.density_check(d.weight_spectrum(system, w_max))
        assert report.passes
        assert report.fitted_K <= 2.0


class TestEmpiricalCapacity:
    def test_equal_weights_give_log_two_everywhere(self):
        estimate, sequence = d.empirical_capacity(d.weight_spectrum(mem_equal(), 30))
        assert all(abs(c - math.log(2)) < 1e-12 for _, c in sequence)
        assert abs(estimate.value - math.log(2)) < 1e-12
        assert estimate.method == "empirical"

    def test_single_symbol_has_zero_capacity(self):
        system = d.make_memoryless(d.symbols({"a": 1}))
        estimate, sequence = d.empirical_capacity(d.weight_spectrum(system, 20))
        assert estimate.value == 0.0
        assert all(c == 0.0 for _, c in sequence)

    def test_dyck_estimate_window(self):
        estimate, _ = d.empirical_capacity(d.weight_spectrum(dyck(), 40))
        assert 0.63 <= estimate.value <= math.log(2)
        assert abs(estimate.value - math.log(math.comb(40, 20)) / 40) < 1e-12

    def test_needs_two_entries(self):
        spectrum = d.weight_spectrum(mem_equal(), 1)
        with pytest.raises(ValueError, match=">= 2"):
            d.empirical_capacity(spectrum)

    def test_bracket_encloses_value(self):
        estimate, _ = d.empirical_capacity(d.weight_spectrum(golden_mean_system(), 30))
        lo, hi = estimate.bracket
        assert lo <= estimate.value <= hi


def test_spectrum_tsv_format():
    text = d.spectrum_tsv(d.weight_spectrum(mem_rational(), 1))
    lines = text.strip().split("\n")
    assert lines[0].startswith("#")
    first = lines[1].split("\t")
    assert first[0] == "1/3"
    assert first[1] == "1"
    assert abs(float(first[2]) - math.log(1) / (1 / 3)) < 1e-15
