import hashlib
import math
from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from itertools import islice
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import dncap as d
from dncap import maxent, spectrum as spectrum_module
from conftest import (
    BUILTIN_FACTORIES,
    counted,
    dyck,
    finite_tree,
    golden_mean_system,
    harmonic_dyck,
    harmonic_steps,
    mem_equal,
    mem_rational,
    mem_unequal,
    outcome,
    prefix_strings,
    rational_alphabets,
    strongly_connected_fsms,
    table_generators,
    three_way,
    too_dense_spectrum,
    tuple_dyck,
)
from oracles import (
    naive_string_spectrum,
    reference_abscissa_estimate,
    reference_density_check,
    reference_empirical_capacity,
    reference_frontier_walk,
    reference_gf_eval,
    reference_spectrum_tsv,
    reference_weight_spectrum,
    unit_fsm_counts,
)


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

    def test_spectrum_walk_is_budgeted(self, monkeypatch):
        # 231 branches reach weight 20 of the Dyck walk and expand its last
        # depth, whose children are all heavier
        monkeypatch.setattr(maxent, "LEVEL_BUDGET", 231)
        assert d.weight_spectrum(dyck(), 20).counts[-1] == math.comb(20, 10)
        monkeypatch.setattr(maxent, "LEVEL_BUDGET", 230)
        with pytest.raises(d.BudgetExceededError, match=(
            "^weight spectrum walk to w_max 20 exceeded budget of 230 "
            "expansions at depth 21$"
        )):
            d.weight_spectrum(dyck(), 20)

    @pytest.mark.parametrize("factory,w_max", [(dyck, 40), (mem_unequal, 30)])
    def test_cut_walk_keeps_the_exact_spectrum(self, factory, w_max, monkeypatch):
        # every string the cut walk did not count is heavier than its
        # spectrum's bound, so the spectrum is the full one to that bound
        monkeypatch.setattr(maxent, "LEVEL_BUDGET", 60)
        with pytest.raises(d.BudgetExceededError) as cut:
            d.weight_spectrum(factory(), w_max)
        spectrum = cut.value.spectrum
        monkeypatch.undo()
        assert 0 < spectrum.w_max < w_max
        assert spectrum == d.weight_spectrum(factory(), spectrum.w_max)

    def test_walk_cut_before_a_full_depth_keeps_no_spectrum(self, monkeypatch):
        monkeypatch.setattr(maxent, "LEVEL_BUDGET", 0)
        with pytest.raises(d.BudgetExceededError) as cut:
            d.weight_spectrum(dyck(), 40)
        assert cut.value.spectrum is None


# Generators whose handles are not ints, with the figures the walk keyed by
# handle gave: (factory, level, sha256 prefix of the sorted level_support
# items, expand calls of level_support at that level, expand calls of
# weight_spectrum to 8, {level-walk budget: depths walked before
# BudgetExceededError}).
HANDLE_WALKS = {
    "tuple_dyck": (tuple_dyck, 24, "e2ebb0e665953490", 24, 9,
                   {10: 4, 50: 9, 200: 19}),
    "prefix_strings": (prefix_strings, 9, "543e98b7fcd0f5a4", 5274, 6072,
                       {10: 1, 50: 3, 200: 4}),
    "three_way": (three_way, 30, "9144029423104b33", 4, 4,
                  {10: 1, 50: 3, 200: 6}),
    "finite_tree": (finite_tree, 3, "18a15f9ab9f7dfaa", 3, 4, {3: 1, 5: 2}),
}


@pytest.mark.parametrize("name", sorted(HANDLE_WALKS))
class TestIdKeyedWalk:
    def test_support_and_expand_calls(self, name):
        factory, level, digest, level_calls, spectrum_calls, _ = HANDLE_WALKS[name]
        system, calls = counted(factory())
        support = d.level_support(system, level)
        assert calls[0] == level_calls
        assert hashlib.sha256(repr(sorted(support.items())).encode()).hexdigest(
        ).startswith(digest)
        small = min(level, 6)
        paths = d.enumerate_level_paths(factory(), small)
        assert d.level_support(factory(), small) == Counter(w for _, w in paths)
        system, calls = counted(factory())
        spectrum = d.weight_spectrum(system, 8)
        assert calls[0] == spectrum_calls
        assert dict(spectrum.entries) == naive_string_spectrum(factory(), 8)

    def test_budget_stops_at_the_same_depth(self, name, monkeypatch):
        factory, *_, cuts = HANDLE_WALKS[name]
        for budget, depth in cuts.items():
            monkeypatch.setattr(maxent, "LEVEL_BUDGET", budget)
            d.level_support(factory(), depth)
            with pytest.raises(d.BudgetExceededError, match=(
                f"^level walk exceeded budget of {budget} expansions "
                f"at depth {depth + 1}$"
            )):
                d.level_support(factory(), depth + 1)

    def test_level_sampler_draws_accepted_paths(self, name):
        factory, level, *_ = HANDLE_WALKS[name]
        small = min(level, 6)
        support = dict(d.enumerate_level_paths(factory(), small))
        rate = d.solve_level_rate(factory(), small).rate
        samples = d.sample_level_paths(factory(), small, 200, seed=small)
        for path in samples.paths:
            assert path.labels in support
            assert path.weight == pytest.approx(float(support[path.labels]), rel=1e-12)
            assert path.log_prob == pytest.approx(-path.weight * rate, rel=1e-12, abs=1e-12)


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


def _walk_trace(walk, system, w_max, budget, depths=8):
    """repr of each depth's (scale, groups in order with their entries in
    order, memo), then the budget error's message if the walk raised."""
    trace = []
    try:
        for frontier, scale, memo in islice(walk(system, w_max, budget), depths):
            trace.append((scale, [(u, list(g.items())) for u, g in frontier.items()],
                          list(memo)))
    except d.BudgetExceededError as exc:
        trace.append(str(exc))
    return repr(trace)


def _spectrum_or_cut(system, w_max, budget):
    with mock.patch.object(maxent, "LEVEL_BUDGET", budget):
        try:
            return d.weight_spectrum(system, w_max)
        except (d.BudgetExceededError, d.InvalidSystemError) as exc:
            return type(exc), str(exc), getattr(exc, "spectrum", None)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(
    system=table_generators(),
    w_max=st.one_of(st.none(), st.builds(
        Fraction, st.integers(1, 12), st.integers(1, 3))),
    budget=st.one_of(st.integers(0, 40), st.just(10 ** 6)),
)
@example(system=harmonic_dyck(), w_max=Fraction(9, 2), budget=10 ** 6)
@example(system=harmonic_steps(), w_max=Fraction(4), budget=60)
@example(system=three_way(), w_max=None, budget=10 ** 6)
@example(system=prefix_strings(), w_max=Fraction(3), budget=50)
def test_walk_matches_the_per_branch_reference(system, w_max, budget):
    # same groups, entries and key order at every depth, and the same budget
    # error at the same depth; for spectra the same cut spectrum
    got, want = (_walk_trace(walk, system, w_max, budget)
                 for walk in (spectrum_module.frontier_walk, reference_frontier_walk))
    assert got == want
    if w_max is not None:
        got = _spectrum_or_cut(system, w_max, budget)
        with mock.patch.object(spectrum_module, "frontier_walk", reference_frontier_walk):
            assert got == _spectrum_or_cut(system, w_max, budget)


LIBRARY_ESTIMATORS = (d.density_check, d.empirical_capacity, d.spectrum_tsv,
                      d.abscissa_estimate, d.gf_eval)
REFERENCE_ESTIMATORS = (reference_density_check, reference_empirical_capacity,
                        reference_spectrum_tsv, reference_abscissa_estimate,
                        reference_gf_eval)


def _estimates(spectrum, estimators):
    """repr of each estimator's result on ``spectrum``, or of the type and
    message of what it raises."""
    density, empirical, tsv, abscissa, gf_eval = estimators
    return repr([
        outcome(lambda: density(spectrum)),
        outcome(lambda: density(spectrum, L=2.0, K=1.5)),
        outcome(lambda: empirical(spectrum)),
        outcome(lambda: tsv(spectrum)),
        outcome(lambda: abscissa(spectrum)),
        [outcome(lambda: gf_eval(spectrum, s, w_truncate))
         for s in (0.0, 0.7, complex(0.4, 2.5))
         for w_truncate in (None, spectrum.w_max / 2, float(spectrum.w_max) / 3)],
    ])


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(
    system=st.one_of(table_generators(), rational_alphabets()),
    w_max=st.builds(Fraction, st.integers(3, 16), st.integers(1, 2)),
    budget=st.one_of(st.integers(0, 80), st.just(10 ** 6)),
)
@example(system=harmonic_dyck(), w_max=Fraction(9, 2), budget=10 ** 6)
@example(system=dyck(), w_max=Fraction(40), budget=60)
def test_integer_unit_spectrum_matches_the_fraction_reference(system, w_max, budget):
    # the same entries and, bit for bit, the same estimates, TSV and errors,
    # for full spectra and for those a budget-cut walk keeps
    got = _spectrum_or_cut(system, w_max, budget)
    try:
        want = reference_weight_spectrum(system, w_max, budget)
    except d.BudgetExceededError as exc:
        assert (got[0], got[1]) == (d.BudgetExceededError, str(exc))
        got, want = got[2], exc.spectrum
        if want is None:
            assert got is None
            return
    if want is None:
        assert got[0] is d.InvalidSystemError and "inexact" in got[1]
        return
    assert got.entries == want.entries and got.w_max == want.w_max
    assert got.float_weights == tuple(float(w) for w in want.weights)
    assert got.log_counts == tuple(math.log(c) for _, c in want.entries)
    assert _estimates(got, LIBRARY_ESTIMATORS) == _estimates(want, REFERENCE_ESTIMATORS)
    # the same entries at the least common denominator: equal, same hash
    rebuilt = d.WeightSpectrum(entries=want.entries, w_max=want.w_max)
    assert rebuilt == got and hash(rebuilt) == hash(got)
    assert rebuilt.scale == math.lcm(*(w.denominator for w in want.weights))


class TestCanonicalScale:
    def test_same_entries_at_any_scale_are_equal(self):
        spectrum = d.weight_spectrum(mem_rational(), 3)
        buckets = dict(zip(spectrum.units, spectrum.counts))
        for factor in (1, 2, 35):
            scaled = spectrum_module._spectrum(
                {u * factor: c for u, c in buckets.items()},
                spectrum.scale * factor, spectrum.w_max,
            )
            assert scaled == spectrum and hash(scaled) == hash(spectrum)
            assert (scaled.units, scaled.scale) == (spectrum.units, 6)

    def test_a_denominator_past_the_bound_leaves_no_trace(self):
        # the walk's scale takes in 13/2, which no counted weight has
        unused = d.weight_spectrum(d.make_memoryless(d.symbols({"a": "1", "b": "13/2"})), 4)
        plain = d.weight_spectrum(d.make_memoryless(d.symbols({"a": "1"})), 4)
        assert unused == plain and hash(unused) == hash(plain)
        assert (unused.units, unused.scale) == ((1, 2, 3, 4), 1)
        assert unused != d.weight_spectrum(d.make_memoryless(d.symbols({"a": "1"})), 5)

    def test_repr_shows_units_and_scale(self):
        spectrum = d.WeightSpectrum(entries=((Fraction(1, 2), 1), (Fraction(2, 3), 2)),
                                    w_max=1)
        assert repr(spectrum) == (
            "WeightSpectrum(units=(3, 4), counts=(1, 2), scale=6, w_max=Fraction(1, 1))"
        )
        assert spectrum.entries == ((Fraction(1, 2), 1), (Fraction(2, 3), 2))


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

    def test_a_power_past_the_float_range_is_inf(self):
        # 200 ** 200 is past the float range: the bound holds there, and in
        # the fit the same power would make its residual k / inf = 0.0
        report = d.density_check(d.weight_spectrum(mem_equal(), 200), L=1.0, K=200.0)
        assert report.passes

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
