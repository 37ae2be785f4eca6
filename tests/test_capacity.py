import cmath
import math
import types

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import dncap as d
from dncap import capacity, solvers
from dncap.solvers import perron
from dncap.systems import strong_components
from conftest import (
    alphabet_of, cycle_with_loop, dyck, golden_mean_system, mem_equal, mem_unequal,
    permutation_fsm, permutation_fsms, rll_system, underflowing_cycle,
)
from closed_forms import CLOSED_FORMS
from oracles import LN_GOLDEN, bisect_root, reference_gf_eval


def perron_of(matrix):
    """``perron`` on the edge list of a dense matrix's nonzero entries."""
    src, dst = np.nonzero(matrix)
    return perron(len(matrix), src, matrix[src, dst], dst)


def transition_matrix(fsm, s):
    """M(s) with M[i, j] = sum over i->j transitions of e^{-w s}."""
    src, weights, dst = fsm.edges
    return solvers.dense(fsm.num_states, src, np.exp(-weights * s), dst)


def count_calls(monkeypatch, module, name):
    """Wrap ``module.name`` so each call appends to the returned list."""
    calls, function = [], getattr(module, name)

    def counted(*args):
        calls.append(1)
        return function(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def assert_bracket_confirmed(fsm, bracket):
    """rho(M(lo)) >= 1 >= rho(M(hi)), by ``numpy.linalg.eigvals``."""
    def radius(s):
        return max(abs(np.linalg.eigvals(transition_matrix(fsm, s))))

    lo, hi = bracket
    assert radius(lo) >= 1.0 - 1e-12
    assert radius(hi) <= 1.0 + 1e-12


class TestGfEval:
    def test_geometric_closed_form(self):
        spectrum = d.weight_spectrum(mem_equal(), 20)
        value = d.gf_eval(spectrum, math.log(4))
        assert abs(value - (1 - 2 ** -20)) < 1e-12

    def test_vanishes_for_large_real_part(self):
        spectrum = d.weight_spectrum(mem_unequal(), 10)
        assert d.gf_eval(spectrum, 60.0) < 1e-20

    def test_counts_at_zero(self):
        spectrum = d.weight_spectrum(mem_unequal(), 10)
        assert d.gf_eval(spectrum, 0.0) == pytest.approx(231.0, abs=1e-9)

    def test_complex_argument_matches_direct_sum(self):
        spectrum = d.weight_spectrum(mem_equal(), 15)
        s = complex(0.8, 0.3)
        expected = sum(
            (2 ** k) * cmath.exp(-k * s) for k in range(1, 16)
        )
        value = d.gf_eval(spectrum, s)
        assert isinstance(value, complex)
        assert abs(value - expected) < 1e-9

    def test_terms_are_finite_up_to_the_end_of_the_float_range(self):
        # e^705 is a float; only a term past e^709.78 reads inf
        spectrum = d.WeightSpectrum(entries=((1, 1),), w_max=1)
        assert d.gf_eval(spectrum, -705.0) == math.exp(705.0)
        assert d.gf_eval(spectrum, complex(-705.0, 0.0)) == math.exp(705.0)
        assert d.gf_eval(spectrum, -710.0) == math.inf
        assert d.gf_eval(spectrum, complex(-710.0, 0.0)).real == math.inf

    def test_a_term_past_the_float_range_keeps_its_phase(self):
        # inf times e^{-0j} would put nan in the imaginary part
        spectrum = d.WeightSpectrum(entries=((1, 1),), w_max=1)
        for term in (d.gf_eval(spectrum, complex(-710.0, 0.0)),
                     reference_gf_eval(spectrum, complex(-710.0, 0.0))):
            assert (term.real, term.imag) == (math.inf, 0.0)
        value = d.gf_eval(spectrum, complex(-710.0, 1.0))  # phase -1
        assert (value.real, value.imag) == (math.inf, -math.inf)

    def test_huge_counts_do_not_overflow(self):
        spectrum = d.weight_spectrum(mem_equal(), 1100)
        value = d.gf_eval(spectrum, math.log(2) + 0.01)
        assert math.isfinite(value)


class TestCharacteristicRoot:
    def test_equal_weights(self):
        estimate = d.characteristic_root(d.symbols({"0": 1, "1": 1}))
        assert abs(estimate.value - math.log(2)) <= 1e-15
        assert estimate.residual <= 1e-15
        lo, hi = estimate.bracket
        assert lo <= math.log(2) <= hi and hi - lo <= 1e-14

    def test_unequal_weights_hit_golden_ratio(self):
        estimate = d.characteristic_root(d.symbols({"0": 1, "1": 2}))
        assert abs(estimate.value - LN_GOLDEN) <= 1e-15
        lo, hi = estimate.bracket
        assert lo <= LN_GOLDEN <= hi and hi - lo <= 1e-14

    def test_singleton_is_exactly_zero(self):
        estimate = d.characteristic_root(d.symbols({"a": 1}))
        assert estimate.value == 0.0
        assert estimate.iterations == 0

    def test_bisection_certificate(self):
        alphabet = d.symbols({"a": "1/2", "b": "4/3", "c": 3})
        estimate = d.characteristic_root(alphabet)
        weights = [float(sym.weight) for sym in alphabet]

        def target(s):
            return sum(math.exp(-w * s) for w in weights)

        lo, hi = estimate.bracket
        assert target(lo) >= 1.0 >= target(hi)
        assert hi - lo <= 1e-14

    def test_target_monotone_on_bracket(self):
        alphabet = d.symbols({"a": 1, "b": "5/2"})
        estimate = d.characteristic_root(alphabet)
        samples = np.linspace(0.0, estimate.bracket[1] + 1.0, 10)
        values = [
            sum(math.exp(-float(sym.weight) * s) for sym in alphabet)
            for s in samples
        ]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_empty_alphabet_rejected(self):
        with pytest.raises(d.InvalidSystemError):
            d.characteristic_root(())


class TestPerron:
    @pytest.mark.parametrize(
        "matrix, rho",
        [
            (np.ones((3, 3)), 3.0),
            (np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]]),
             2.0 + math.sqrt(2.0)),
            # periodic: the kernel needs no +I shift to converge here
            (np.array([[0.0, 1.0], [1.0, 0.0]]), 1.0),
        ],
        ids=["all_ones", "tridiagonal", "periodic_flip"],
    )
    def test_known_perron_root(self, matrix, rho):
        result = perron_of(matrix)
        assert result.lo <= rho <= result.hi
        assert abs(result.hi - rho) < 1e-12
        assert (result.right > 0).all() and (result.left > 0).all()

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(solvers, "PERRON_MAX_ITER", 1)
        with pytest.raises(d.EstimatorError, match="did not settle"):
            perron_of(np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]]))

    def test_fast_mixing_fsm_needs_no_dense_solve(self, monkeypatch):
        fsm = permutation_fsm(np.random.default_rng(7), 240)
        solves = count_calls(monkeypatch, np.linalg, "solve")
        estimate = d.fsm_capacity(fsm)
        assert solves == []
        assert_bracket_confirmed(fsm, estimate.bracket)

    @pytest.mark.parametrize("n", [2, 200])
    def test_periodic_cycle_certifies_through_the_dense_path(self, monkeypatch, n):
        # power steps on a periodic matrix never settle; rho is the
        # geometric mean of the cycle's weights (the flip's when n = 2)
        q = np.linspace(1.0, 2.0, n) if n > 2 else np.ones(2)
        builds = count_calls(monkeypatch, solvers, "dense")
        result = perron(n, np.arange(n), q, (np.arange(n) + 1) % n)
        rho = math.exp(np.log(q).mean())
        assert builds == [1]
        assert result.lo * (1 - 1e-14) <= rho <= result.hi * (1 + 1e-14)
        assert abs(result.hi - rho) < 1e-12 * rho
        assert (result.right > 0).all() and (result.left > 0).all()

    def test_an_iterate_below_the_float_floor_goes_to_the_dense_path(self, monkeypatch):
        # a 10-cycle closed by an edge of 1e-305, plus a self-loop at state 0:
        # the first power step puts 1e-306 at state 9, under _FLOOR
        n = 10
        src, dst = np.r_[np.arange(n), 0], np.r_[(np.arange(n) + 1) % n, 0]
        q = np.r_[np.ones(n - 1), 1e-305, 1.0]
        builds = count_calls(monkeypatch, solvers, "dense")
        result = perron(n, src, q, dst)
        assert builds == [1]
        rho = max(abs(np.linalg.eigvals(solvers.dense(n, src, q, dst))))
        assert result.lo <= rho <= result.hi

    def test_a_singular_solve_keeps_the_first_bounds(self, monkeypatch):
        # power steps on a 3-cycle with a chord stall, so Noda runs, and a
        # solve that fails leaves it the CW bounds of the uniform iterate
        matrix = np.array([[0.0, 0.5, 0.0], [0.0, 0.0, 1.0], [1.5, 0.0, 0.5]])
        rho = max(abs(np.linalg.eigvals(matrix)))

        def singular(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(solvers.np.linalg, "solve", singular)
        result = perron_of(matrix)
        assert (result.lo, result.hi) == (0.5, 2.0)
        assert result.lo <= rho <= result.hi

    @settings(max_examples=12, derandomize=True, deadline=None, database=None)
    @given(fsm=permutation_fsms(), s=st.sampled_from((0.0, 0.1, 0.5, 1.0)))
    @example(fsm=cycle_with_loop(200), s=0.0)
    @example(fsm=cycle_with_loop(200), s=0.02)
    @example(fsm=cycle_with_loop(3), s=0.5)
    @example(fsm=d.make_rll(1, 3), s=0.4)
    @example(fsm=d.make_rll(2, 7), s=0.1)
    @example(fsm=d.make_rll(1, 30), s=1.0)
    def test_left_vector_meets_the_right_sides_bounds(self, fsm, s):
        # the left side starts from the right side's upper bound; its vector
        # must still be as good a Perron vector of M^T as the bounds say
        src, weights, dst = fsm.edges
        q = np.exp(-weights * s)
        result = perron(fsm.num_states, src, q, dst)
        ratios = solvers.dense(fsm.num_states, src, q, dst).T @ result.left / result.left
        slack = 8 * solvers.PERRON_TOL * result.hi
        assert result.lo - slack <= ratios.min()
        assert ratios.max() <= result.hi + slack


class TestFsmCapacity:
    def test_transition_matrix_matches_a_loop(self):
        fsm = d.make_rll(1, 3)
        parallel = d.WeightedFsm(2, 0, (
            (0, d.Symbol("a", "1/3"), 1), (0, d.Symbol("b", "5/2"), 1),
            (1, d.Symbol("a", 2), 0),
        ))
        for machine in (fsm, parallel):
            expected = np.zeros((machine.num_states, machine.num_states))
            for src, sym, dst in machine.transitions:
                expected[src, dst] += math.exp(-float(sym.weight) * 0.7)
            assert np.allclose(
                transition_matrix(machine, 0.7), expected, rtol=1e-15, atol=0.0
            )

    def test_binary_self_loops(self):
        fsm = d.make_memoryless(d.symbols({"0": 1, "1": 1})).fsm
        assert abs(d.fsm_capacity(fsm).value - math.log(2)) < 1e-9

    def test_golden_mean_agrees_with_characteristic_equation(self):
        # both reduce to x + x^2 = 1
        spectral = d.fsm_capacity(d.make_golden_mean())
        root = d.characteristic_root(d.symbols({"0": 1, "1": 2}))
        assert abs(spectral.value - root.value) <= 1e-9
        assert abs(spectral.value - LN_GOLDEN) < 1e-9

    def test_rll_1_3_value(self):
        estimate = d.fsm_capacity(d.make_rll(1, 3))
        assert abs(estimate.value - 0.3822) <= 1e-3
        # independent route: the root of x^-2 + x^-3 + x^-4 = 1
        root = bisect_root(
            lambda s: math.exp(-2 * s) + math.exp(-3 * s) + math.exp(-4 * s) - 1,
            0.0, 1.0,
        )
        assert abs(estimate.value - root) < 1e-10

    def test_rll_1_3_cross_checks_against_spectrum(self):
        estimate = d.fsm_capacity(d.make_rll(1, 3))
        empirical = d.empirical_capacity(d.weight_spectrum(rll_system(1, 3), 60))
        assert abs(estimate.value - empirical.value) < 0.01

    def test_capacity_monotone_in_k(self):
        assert d.fsm_capacity(d.make_rll(1, 2)).value < d.fsm_capacity(
            d.make_rll(1, 3)
        ).value

    @pytest.mark.parametrize(
        "alpha",
        [{"0": 1, "1": 1}, {"0": 1, "1": 2}, {"a": "1/2", "b": "3/4", "c": 2}],
    )
    def test_solver_agreement_with_characteristic_root(self, alpha):
        alphabet = d.symbols(alpha)
        root = d.characteristic_root(alphabet)
        spectral = d.fsm_capacity(d.make_memoryless(alphabet).fsm)
        assert abs(root.value - spectral.value) <= 1e-10

    def test_radius_monotone_on_bracket(self):
        fsm = d.make_rll(1, 3)
        estimate = d.fsm_capacity(fsm)
        samples = np.linspace(0.0, estimate.bracket[1] + 0.5, 10)
        radii = [perron_of(transition_matrix(fsm, s)).hi for s in samples]
        assert all(a > b for a, b in zip(radii, radii[1:]))

    def test_bisection_certificate(self):
        fsm = d.make_golden_mean()
        estimate = d.fsm_capacity(fsm)
        lo, hi = estimate.bracket
        assert perron_of(transition_matrix(fsm, lo)).lo >= 1.0
        assert perron_of(transition_matrix(fsm, hi)).hi <= 1.0

    def test_no_cycle_duck_typed_input(self):
        src, weights, dst = np.array([0]), np.array([1.0]), np.array([1])
        fake = types.SimpleNamespace(
            num_states=2, edges=(src, weights, dst),
            components=strong_components([[1], []]),
        )
        with pytest.raises(d.InvalidSystemError, match="cycle"):
            d.fsm_capacity(fake)

    def test_cycle_with_self_loop_matches_closed_form(self, monkeypatch):
        # slow mixing: the second eigenvalue of M(s) nears the Perron root,
        # so the power steps give up and the dense path certifies
        n = 200
        fsm = cycle_with_loop(n)
        root = bisect_root(lambda s: math.exp(-s) + math.exp(-n * s) - 1, 0.0, 1.0)
        builds = count_calls(monkeypatch, solvers, "dense")
        solves = count_calls(monkeypatch, np.linalg, "solve")
        estimate = d.fsm_capacity(fsm)
        assert builds and solves
        # a bound, not a pin: the left side's Noda starts from the right
        # side's certified bound, so it settles in a solve or two
        assert len(solves) <= 16
        assert abs(estimate.value - root) < 1e-12
        assert estimate.bracket[0] <= root <= estimate.bracket[1]
        chain = d.maxent_chain(fsm)
        assert abs(chain.analytic_entropy_rate() - root) < 1e-9

    @pytest.mark.parametrize(
        "edges",
        [
            ((0, "a", 0), (0, "b", 0), (0, "c", 1), (1, "a", 1)),
            ((0, "a", 0), (0, "b", 1), (1, "a", 1), (1, "b", 1)),
        ],
        ids=["two_loops_upstream", "two_loops_downstream"],
    )
    def test_reducible_fsm_takes_the_largest_component(self, edges):
        fsm = d.WeightedFsm(2, 0, tuple(
            (src, d.Symbol(label, 1), dst) for src, label, dst in edges
        ))
        estimate = d.fsm_capacity(fsm)
        assert abs(estimate.value - math.log(2)) < 1e-12
        assert estimate.bracket[0] <= math.log(2) <= estimate.bracket[1]

    def test_tiny_perron_entries_keep_their_accuracy(self):
        # two 1/100 loops set the root, 100 ln 2; there the 7-weight edges
        # scale to 1e-211, and so does state 1's Perron entry
        fsm = d.WeightedFsm(2, 0, (
            (0, d.Symbol("a", "1/100"), 0), (0, d.Symbol("b", "1/100"), 0),
            (0, d.Symbol("c", 7), 1), (1, d.Symbol("a", 7), 0),
        ))
        root = 100 * math.log(2)
        estimate = d.fsm_capacity(fsm)
        assert abs(estimate.value - root) < 1e-12
        assert estimate.bracket[0] <= root <= estimate.bracket[1]

    def test_cycle_that_underflows_is_certified_on_the_rest(self):
        # the 4000-weight cycle through state 2 is e^-1925 at the root: zero
        # in floating point, so M(s) is reducible there and rho is golden
        estimate = d.fsm_capacity(underflowing_cycle())
        lo, hi = estimate.bracket
        assert abs(estimate.value - LN_GOLDEN) < 1e-12
        assert lo <= LN_GOLDEN <= hi and hi - lo < 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_bracket_certified_on_random_fsms(self, seed):
        rng = np.random.default_rng(seed)
        fsm = permutation_fsm(rng, int(rng.integers(20, 61)))
        assert_bracket_confirmed(fsm, d.fsm_capacity(fsm).bracket)

    @settings(max_examples=12, derandomize=True, deadline=None, database=None)
    @given(fsm=permutation_fsms())
    @example(fsm=permutation_fsm(np.random.default_rng(3), 2))
    @example(fsm=permutation_fsm(np.random.default_rng(3), 300, "abcd"))
    def test_bracket_confirmed_by_eigvals_on_both_perron_paths(self, fsm):
        assert_bracket_confirmed(fsm, d.fsm_capacity(fsm).bracket)

    def test_newton_cap_raises(self, monkeypatch):
        monkeypatch.setattr(solvers, "NEWTON_MAX_ITER", 0)
        alphabet = d.symbols({"0": 1, "1": 2})
        with pytest.raises(d.EstimatorError, match="did not settle"):
            d.fsm_capacity(d.make_memoryless(alphabet).fsm)
        with pytest.raises(d.EstimatorError, match="did not settle"):
            d.characteristic_root(alphabet)


class TestAbscissaEstimate:
    def test_equal_weights(self, monkeypatch):
        monkeypatch.setattr(capacity, "PROBE_DELTA", 0.1)
        spectrum = d.weight_spectrum(mem_equal(), 30)
        estimate = d.abscissa_estimate(spectrum)
        assert abs(estimate.value - math.log(2)) < 1e-12
        assert estimate.method == "abscissa"
        # below the abscissa the truncated series has already blown past 100
        assert d.gf_eval(spectrum, estimate.value - 0.1) > 100
        # above it the partial sums settle near the closed-form limit
        z = 2 * math.exp(-(math.log(2) + 0.1))
        closed = z * (1 - z ** 30) / (1 - z)
        assert abs(d.gf_eval(spectrum, estimate.value + 0.1) - closed) < 1e-9

    def test_single_symbol(self):
        system = d.make_memoryless(d.symbols({"a": 1}))
        assert d.abscissa_estimate(d.weight_spectrum(system, 20)).value == 0.0

    def test_dyck_probe_consistent(self, monkeypatch):
        monkeypatch.setattr(capacity, "PROBE_DELTA", 0.2)
        spectrum = d.weight_spectrum(dyck(), 40)
        assert 0.63 <= d.abscissa_estimate(spectrum).value <= 0.70

    def test_too_dense_spectrum_is_rejected(self):
        from conftest import too_dense_spectrum

        with pytest.raises(d.EstimatorError, match="densifies"):
            d.abscissa_estimate(too_dense_spectrum(n_cover=25, w_max=25))

    def test_probe_contradiction_is_an_error(self):
        # huge early counts, flat tail: the trailing window says capacity 0,
        # but the series at 0 + delta keeps growing
        from fractions import Fraction

        entries = [(Fraction(w), math.ceil(math.exp(1.5 * w))) for w in range(1, 31)]
        entries += [(Fraction(w), 1) for w in range(31, 41)]
        spectrum = d.WeightSpectrum(entries=tuple(entries), w_max=Fraction(40))
        with pytest.raises(d.EstimatorError, match="probe"):
            d.abscissa_estimate(spectrum)


@pytest.mark.parametrize("name", ["mem_equal", "mem_unequal", "golden_mean",
                                  "rll_1_3"])
def test_theorem_one_gap_closes_with_truncation(name):
    from conftest import ROOT_BASED_FACTORIES

    system = ROOT_BASED_FACTORIES[name]()
    if system.fsm.num_states == 1:
        root = d.characteristic_root(alphabet_of(system)).value
    else:
        root = d.fsm_capacity(system.fsm).value
    gaps = []
    for w_max in (10, 20, 40):
        estimate = d.abscissa_estimate(d.weight_spectrum(system, w_max))
        gaps.append(abs(estimate.value - root))
    assert gaps[2] <= 0.08
    # shrinks monotonically, up to a 0.01 noise window
    assert gaps[2] <= gaps[1] + 0.01
    assert gaps[1] <= gaps[0] + 0.01


@pytest.mark.parametrize("method, value, message", [
    ("bogus", 0.5, "unknown method tag: 'bogus'"),
    ("abscissa", 2.0, "value 2.0 outside bracket [0.0, 1.0]"),
], ids=["tag", "bracket"])
def test_capacity_estimate_checks_its_fields(method, value, message):
    with pytest.raises(ValueError) as caught:
        d.CapacityEstimate(value, method, (0.0, 1.0), 0.0, 0)
    assert str(caught.value) == message


class TestCombinatorialCapacity:
    def test_unknown_method_is_an_error(self):
        with pytest.raises(ValueError, match="bogus"):
            capacity.combinatorial_capacity(golden_mean_system(), 40, "bogus")

    def test_a_bad_w_max_raises_on_every_channel(self):
        # checked before the dispatch, so the root routes refuse it too
        bad = {"abc": "not a valid rational weight: 'abc'",
               "0": "w_max must be positive", "-3": "w_max must be positive"}
        for system in (mem_unequal(), golden_mean_system(), dyck()):
            for w_max, message in bad.items():
                with pytest.raises(ValueError) as caught:
                    capacity.combinatorial_capacity(system, w_max)
                assert str(caught.value) == message

    def test_auto_without_alphabet_or_fsm_takes_the_abscissa(self):
        bare = d.BranchSystem(0, mem_equal().expand)
        estimate = capacity.combinatorial_capacity(bare, 40)
        assert estimate.method == "abscissa"
        assert abs(estimate.value - math.log(2)) < 0.08

    @pytest.mark.parametrize("build, w_max, closed_form", CLOSED_FORMS)
    def test_certified_bracket_holds_the_closed_form(self, build, w_max, closed_form):
        estimate = capacity.combinatorial_capacity(build(), w_max)
        assert estimate.method in ("characteristic_root", "spectral_radius")
        assert estimate.bracket[0] <= closed_form <= estimate.bracket[1]
