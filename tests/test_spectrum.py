import hashlib
import math
from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from heapq import heappush
from itertools import islice
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import dncap as d
from dncap import spectrum as spectrum_module
from dncap.maxent import enumerate_level_paths
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
    FractionSpectrum,
    naive_string_spectrum,
    reference_abscissa_estimate,
    reference_density_check,
    reference_empirical_capacity,
    reference_frontier_walk,
    reference_gf_eval,
    reference_level_support,
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

    def test_float_alphabet_enumerates_like_its_fraction_twin(self):
        floats = d.make_memoryless((d.Symbol("a", 0.5), d.Symbol("b", 0.1)))
        twin = d.make_memoryless((d.Symbol("a", Fraction(0.5)), d.Symbol("b", Fraction(0.1))))
        assert d.weight_spectrum(floats, 4) == d.weight_spectrum(twin, 4)

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
        # gf_eval sums to w_max, so a heavier entry would be counted by the
        # empirical capacity and not by the series
        with pytest.raises(ValueError, match="weight 5 exceeds w_max 2"):
            d.WeightSpectrum(entries=((1, 2), (5, 100)), w_max=2)
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
            paths = enumerate_level_paths(system, level)
            expected = Counter(weight for _, weight in paths)
            assert reference_level_support(system, level) == expected
        expected = naive_string_spectrum(system, w_max)
        assert dict(d.weight_spectrum(system, w_max).entries) == expected

    def test_expand_runs_once_per_handle(self):
        # balances 0..40 are the only handles up to weight 40
        system, calls = counted(dyck())
        d.weight_spectrum(system, 40)
        assert calls[0] == 41

    def test_spectrum_walk_is_budgeted(self, monkeypatch):
        # the Dyck sweep to 20 pops weights 0..20, whose 231 branches are
        # charged (weight 20's too, though all its children are heavier),
        # and creates 20 pending groups
        monkeypatch.setattr(spectrum_module, "LEVEL_BUDGET", 251)
        assert d.weight_spectrum(dyck(), 20).counts[-1] == math.comb(20, 10)
        monkeypatch.setattr(spectrum_module, "LEVEL_BUDGET", 250)
        with pytest.raises(d.BudgetExceededError, match=(
            "^weight spectrum walk to w_max 20 exceeded budget of 250 "
            "expansions at weight 20.0$"
        )):
            d.weight_spectrum(dyck(), 20)

    def test_sweep_is_linear_in_w_max_on_unequal_weights(self, monkeypatch):
        # about 3 charges per weight; the depth-major walk needed about 2 * 10^6
        monkeypatch.setattr(spectrum_module, "LEVEL_BUDGET", 10 ** 4)
        spectrum = d.weight_spectrum(mem_unequal(), 2000)
        assert len(spectrum) == 2000
        assert spectrum.counts[:5] == (1, 2, 3, 5, 8)

    def test_pending_groups_never_exceed_the_budget(self, monkeypatch):
        # each popped weight k * 1e-300 charges its 2 branches and the 2
        # groups they create, at (k + 1) * 1e-300 and 1 + k * 1e-300; the
        # latter stay pending, one more per pop
        system = d.make_memoryless(d.symbols({"a": "1", "b": "1e-300"}))
        budget, peak = 3000, [0]

        def push(heap, item):
            heappush(heap, item)
            peak[0] = max(peak[0], len(heap))

        monkeypatch.setattr(spectrum_module, "LEVEL_BUDGET", budget)
        monkeypatch.setattr(spectrum_module, "heappush", push)
        with pytest.raises(d.BudgetExceededError, match="at weight 7.5e-298$") as cut:
            d.weight_spectrum(system, 5)
        spectrum = cut.value.spectrum
        assert len(spectrum) == budget // 4 and set(spectrum.counts) == {1}
        assert peak[0] == len(spectrum) + 1 <= budget

    @pytest.mark.parametrize("factory,w_max", [(dyck, 40), (mem_unequal, 30)])
    def test_cut_walk_keeps_the_exact_spectrum(self, factory, w_max, monkeypatch):
        # every string the cut walk did not count is heavier than its
        # spectrum's bound, so the spectrum is the full one to that bound
        monkeypatch.setattr(spectrum_module, "LEVEL_BUDGET", 60)
        with pytest.raises(d.BudgetExceededError) as cut:
            d.weight_spectrum(factory(), w_max)
        spectrum = cut.value.spectrum
        monkeypatch.undo()
        assert 0 < spectrum.w_max < w_max
        assert spectrum == d.weight_spectrum(factory(), spectrum.w_max)

    def test_level_walk_stops_at_its_level(self):
        # Dyck prefixes of lengths 1 to 5; the walk expands balances 0 to 4
        # and stops before the merge that would expand depth 5's balance 5
        system, calls = counted(dyck())
        walk = spectrum_module.frontier_walk(system, 5)
        assert [sum(sum(group.values()) for group in frontier.values())
                for frontier, _, _ in walk] == [1, 2, 3, 6, 10]
        assert calls[0] == 5

    def test_level_walk_needs_a_positive_level(self):
        with pytest.raises(ValueError, match="^level must be >= 1$"):
            next(spectrum_module.frontier_walk(dyck(), 0))

    def test_level_walk_past_a_finite_tree_names_its_last_depth(self):
        # the walk raises at the empty depth 4 instead of yielding it
        walk = spectrum_module.frontier_walk(finite_tree(3), 4)
        assert [sum(frontier[depth].values())
                for depth, (frontier, _, _) in zip((1, 2, 3), walk)] == [2, 4, 8]
        with pytest.raises(ValueError, match=(
            "^level 4 is past the end of the tree: its last nonempty depth is 3$"
        )):
            next(walk)

    def test_walk_cut_before_a_full_depth_keeps_no_spectrum(self, monkeypatch):
        # the root's branch alone exceeds the budget: no weight was popped
        monkeypatch.setattr(spectrum_module, "LEVEL_BUDGET", 0)
        with pytest.raises(d.BudgetExceededError) as cut:
            d.weight_spectrum(dyck(), 40)
        assert cut.value.spectrum is None


# Generators whose handles are not ints, with the figures the walk keyed by
# handle gave: (factory, level, sha256 prefix of the sorted items of that
# level's {weight: count} support, expand calls of the level walk to that
# level, expand calls of weight_spectrum to 8, {level-walk budget: depths
# walked before BudgetExceededError}).
HANDLE_WALKS = {
    "tuple_dyck": (tuple_dyck, 24, "e2ebb0e665953490", 24, 9,
                   {10: 4, 50: 9, 200: 19}),
    "prefix_strings": (prefix_strings, 9, "543e98b7fcd0f5a4", 5274, 6072,
                       {10: 1, 50: 3, 200: 4}),
    "three_way": (three_way, 30, "9144029423104b33", 4, 4,
                  {10: 1, 50: 3, 200: 6}),
    "finite_tree": (finite_tree, 3, "18a15f9ab9f7dfaa", 3, 4, {3: 1, 5: 2}),
}


def test_a_shared_system_expands_as_its_own():
    assert spectrum_module.shared(dyck()).expand(0) == dyck().expand(0)


@pytest.mark.parametrize("name", sorted(HANDLE_WALKS))
class TestIdKeyedWalk:
    def test_support_and_expand_calls(self, name):
        factory, level, digest, level_calls, spectrum_calls, _ = HANDLE_WALKS[name]
        system, calls = counted(factory())
        d.solve_level_rate(system, level)
        assert calls[0] == level_calls
        support = reference_level_support(factory(), level)
        assert hashlib.sha256(repr(sorted(support.items())).encode()).hexdigest(
        ).startswith(digest)
        small = min(level, 6)
        paths = enumerate_level_paths(factory(), small)
        assert reference_level_support(factory(), small) == Counter(w for _, w in paths)
        system, calls = counted(factory())
        spectrum = d.weight_spectrum(system, 8)
        assert calls[0] == spectrum_calls
        assert dict(spectrum.entries) == naive_string_spectrum(factory(), 8)

    def test_budget_stops_at_the_same_depth(self, name, monkeypatch):
        factory, *_, cuts = HANDLE_WALKS[name]
        for budget, depth in cuts.items():
            monkeypatch.setattr(spectrum_module, "LEVEL_BUDGET", budget)
            d.solve_level_rate(factory(), depth)
            with pytest.raises(d.BudgetExceededError, match=(
                f"^level walk exceeded budget of {budget} expansions "
                f"at depth {depth + 1}$"
            )):
                d.solve_level_rate(factory(), depth + 1)

    def test_level_sampler_draws_accepted_paths(self, name):
        factory, level, *_ = HANDLE_WALKS[name]
        small = min(level, 6)
        support = dict(enumerate_level_paths(factory(), small))
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
        paths = enumerate_level_paths(system, level)
        expected = Counter(weight for _, weight in paths)
        assert reference_level_support(system, level) == expected


def _reference_level_walk(system, level):
    """``reference_frontier_walk`` to ``level``; its empty depth past the end
    of a finite tree raises what the level walk raises there."""
    for depth, step in enumerate(islice(reference_frontier_walk(system), level), 1):
        if not step[0]:
            raise ValueError(f"level {level} is past the end of the tree: "
                             f"its last nonempty depth is {depth - 1}")
        yield step


def _walk_trace(walk, system, budget, depths=8):
    """repr of each depth's (scale, groups in order with their entries in
    order, memo) under ``budget`` to ``depths``, then the type and message
    of the budget or past-the-end error if the walk raised."""
    trace = []
    try:
        with mock.patch.object(spectrum_module, "LEVEL_BUDGET", budget):
            for frontier, scale, memo in walk(system, depths):
                trace.append((scale, [(u, list(g.items())) for u, g in frontier.items()],
                              list(memo)))
    except (d.BudgetExceededError, ValueError) as exc:
        trace.append(repr(exc))
    return repr(trace)


def _spectrum_or_cut(system, w_max, budget):
    with mock.patch.object(spectrum_module, "LEVEL_BUDGET", budget):
        try:
            return d.weight_spectrum(system, w_max)
        except (d.BudgetExceededError, d.InvalidSystemError) as exc:
            return type(exc), str(exc), getattr(exc, "spectrum", None)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(system=table_generators(), budget=st.one_of(st.integers(0, 40), st.just(10 ** 6)))
@example(system=harmonic_dyck(), budget=10 ** 6)
@example(system=harmonic_steps(), budget=60)
@example(system=three_way(), budget=10 ** 6)
@example(system=prefix_strings(), budget=50)
@example(system=finite_tree(3), budget=10 ** 6)
def test_walk_matches_the_per_branch_reference(system, budget):
    # same groups, entries and key order at every depth, and the same budget
    # or past-the-end error at the same depth
    got, want = (_walk_trace(walk, system, budget)
                 for walk in (spectrum_module.frontier_walk, _reference_level_walk))
    assert got == want


LIBRARY_ESTIMATORS = (d.density_check, d.empirical_capacity, d.spectrum_tsv,
                      d.abscissa_estimate, d.gf_eval)
REFERENCE_ESTIMATORS = (reference_density_check, reference_empirical_capacity,
                        reference_spectrum_tsv, reference_abscissa_estimate,
                        reference_gf_eval)


def _fit(report):
    """The fields of a density report that do not depend on its checkpoints."""
    return report.fitted_K, report.fitted_L, report.passes


def _estimates(spectrum, estimators):
    """repr of each estimator's result on ``spectrum``, or of the type and
    message of what it raises; of a density report, its ``_fit``."""
    density, empirical, tsv, abscissa, gf_eval = estimators
    return repr([
        outcome(lambda: _fit(density(spectrum))),
        outcome(lambda: empirical(spectrum)),
        outcome(lambda: tsv(spectrum)),
        outcome(lambda: abscissa(spectrum)),
        [outcome(lambda: gf_eval(spectrum, s)) for s in (0.0, 0.7, complex(0.4, 2.5))],
    ])


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(
    system=st.one_of(table_generators(), rational_alphabets()),
    w_max=st.builds(Fraction, st.integers(3, 16), st.integers(1, 2)),
    budget=st.one_of(st.integers(0, 80), st.just(10 ** 6)),
)
@example(system=harmonic_dyck(), w_max=Fraction(9, 2), budget=10 ** 6)
@example(system=prefix_strings(), w_max=Fraction(3), budget=50)
@example(system=dyck(), w_max=Fraction(40), budget=60)
def test_integer_unit_spectrum_matches_the_fraction_reference(system, w_max, budget):
    # the weight-major sweep against the depth walk: the same entries and,
    # bit for bit, the same estimates and TSV.  A budget-cut sweep keeps the
    # full spectrum up to the weight it reached, every weight it omits being
    # heavier, or none if it was cut at the root
    want = reference_weight_spectrum(system, w_max)
    got = _spectrum_or_cut(system, w_max, budget)
    if not isinstance(got, d.WeightSpectrum):
        kind, message, got = got
        assert kind is d.BudgetExceededError
        if got is None:
            root = system.expand(system.root)
            assert budget < len(root) + len({sym.weight for sym, _ in root if sym.weight <= w_max})
            return
        assert message.endswith(f" expansions at weight {float(got.w_max)}")
        assert got.w_max == got.weights[-1] <= w_max
        kept = len(got)
        assert all(w > got.w_max for w in want.weights[kept:])
        want = FractionSpectrum(want.entries[:kept], got.w_max)
    assert got.entries == want.entries and got.w_max == want.w_max
    assert got.float_weights == tuple(float(w) for w in want.weights)
    assert got.log_counts == tuple(math.log(c) for _, c in want.entries)
    assert _estimates(got, LIBRARY_ESTIMATORS) == _estimates(want, REFERENCE_ESTIMATORS)
    # the same entries at the least common denominator: equal, same hash
    rebuilt = d.WeightSpectrum(entries=want.entries, w_max=want.w_max)
    assert rebuilt == got and hash(rebuilt) == hash(got)
    assert rebuilt.scale == math.lcm(*(w.denominator for w in want.weights))


def _sparse_heavy(a: int, gap: int, w_max: int) -> d.WeightSpectrum:
    return d.weight_spectrum(d.make_memoryless(d.symbols({"a": a, "b": a + gap})), w_max)


@st.composite
def density_spectra(draw):
    """A spectrum of a table generator or a rational alphabet to w_max 1/2
    to 16, or of a sparse heavy alphabet {a, a + gap} to between a and 4a."""
    if draw(st.booleans()):
        a, gap = draw(st.integers(20, 1500)), draw(st.integers(1, 3))
        return _sparse_heavy(a, gap, draw(st.integers(a, 4 * a)))
    system = draw(st.one_of(table_generators(), rational_alphabets()))
    return d.weight_spectrum(system, draw(st.builds(Fraction, st.integers(1, 16),
                                                     st.integers(1, 2))))


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(spectrum=density_spectra())
@example(spectrum=_sparse_heavy(1000, 1, 5000))
@example(spectrum=d.weight_spectrum(mem_rational(), "1/2"))
@example(spectrum=d.weight_spectrum(mem_equal(), 64))
def test_density_checkpoints_give_the_answer_of_the_whole_range(spectrum):
    # the same fit and verdict, bit for bit, as every integer up to w_max
    # gives, and each checkpoint's k is the whole range's k there
    got = outcome(lambda: d.density_check(spectrum))
    want = outcome(lambda: reference_density_check(spectrum))
    if isinstance(want, tuple):
        assert got == want
        return
    assert repr(_fit(got)) == repr(_fit(want))
    assert got.k_of_n == tuple(want.k_of_n[n - 1] for n in got.checkpoints)
    assert len(got.checkpoints) <= 2 * len(spectrum) + 2


class TestCanonicalScale:
    def test_same_entries_at_any_scale_are_equal(self):
        spectrum = d.weight_spectrum(mem_rational(), 3)
        for factor in (1, 2, 35):
            scaled = spectrum_module._spectrum(
                [u * factor for u in spectrum.units], spectrum.counts,
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


def within(report, L: float, K: float) -> bool:
    """k_of_n(n) <= L * n**K at every integer n, read off the checkpoints:
    k_of_n is constant between them and the bound rises."""
    return all(k <= L * n ** K for n, k in zip(report.checkpoints, report.k_of_n))


class TestDensityCheck:
    def test_unit_weights_pass_linear_bound(self):
        report = d.density_check(d.weight_spectrum(mem_equal(), 64))
        assert report.k_of_n == tuple(n - 1 for n in range(1, 65))
        assert within(report, 1.0, 1.0)

    def test_rational_grid_passes_given_bound(self):
        assert within(d.density_check(d.weight_spectrum(mem_rational(), 20)), 6.0, 1.0)

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
            bisect_left(spectrum.weights, Fraction(n)) for n in report.checkpoints
        )

    def test_a_power_past_the_float_range_is_inf(self):
        # the fitted K is near 811, so every n ** K with k >= 1 (n > 1000) is
        # past the float range and its residual k / inf is 0.0
        report = d.density_check(_sparse_heavy(1000, 1, 10000))
        assert (report.fitted_K, report.fitted_L) == (811.132931880035, 0.0)

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
        report = d.density_check(too_dense_spectrum(n_cover=25, w_max=25))
        for K in (1.0, 2.0):
            assert not within(report, 2.0, K)

    @pytest.mark.parametrize("name", sorted(BUILTIN_FACTORIES))
    def test_builtins_autofit_small_exponent(self, name):
        system = BUILTIN_FACTORIES[name]()
        w_max = 20 if name == "mem_rational" else 40
        report = d.density_check(d.weight_spectrum(system, w_max))
        assert report.passes
        assert report.fitted_K <= 2.0


class TestEmpiricalCapacity:
    def test_equal_weights_give_log_two_everywhere(self):
        spectrum = d.weight_spectrum(mem_equal(), 30)
        estimate = d.empirical_capacity(spectrum)
        assert all(abs(log / w - math.log(2)) < 1e-12
                   for w, log in zip(spectrum.float_weights, spectrum.log_counts))
        assert abs(estimate.value - math.log(2)) < 1e-12
        assert estimate.method == "empirical"

    def test_single_symbol_has_zero_capacity(self):
        system = d.make_memoryless(d.symbols({"a": 1}))
        spectrum = d.weight_spectrum(system, 20)
        assert d.empirical_capacity(spectrum).value == 0.0
        assert set(spectrum.log_counts) == {0.0}

    def test_dyck_estimate_window(self):
        estimate = d.empirical_capacity(d.weight_spectrum(dyck(), 40))
        assert 0.63 <= estimate.value <= math.log(2)
        assert abs(estimate.value - math.log(math.comb(40, 20)) / 40) < 1e-12

    def test_needs_two_entries(self):
        spectrum = d.weight_spectrum(mem_equal(), 1)
        with pytest.raises(ValueError, match=">= 2"):
            d.empirical_capacity(spectrum)

    def test_bracket_encloses_value(self):
        estimate = d.empirical_capacity(d.weight_spectrum(golden_mean_system(), 30))
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
