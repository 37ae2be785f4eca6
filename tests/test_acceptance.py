"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `ACCEPTANCE <n>: PASS|FAIL` line (run pytest with -s to
see them live); the assertions carry the same tolerances as the printed
descriptions.
"""

import functools
import math
from fractions import Fraction

import numpy as np

import dncap as d
from conftest import (
    BUILTIN_FACTORIES,
    ROOT_BASED_FACTORIES,
    alphabet_of,
    dyck,
    golden_mean_system,
    mem_equal,
    mem_rational,
    mem_unequal,
    rll_system,
    too_dense_spectrum,
)
from oracles import LN_GOLDEN, naive_string_spectrum

LN2 = math.log(2)


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number}: FAIL - {description}")
                raise
            print(f"ACCEPTANCE {number}: PASS - {description}")

        return wrapper

    return decorate


@criterion(1, "equal-weight binary channel: all solvers give ln 2 within 1e-9")
def test_criterion_1_equal_weight_reproduction():
    alphabet = d.symbols({"0": 1, "1": 1})
    root = d.characteristic_root(alphabet)
    assert abs(root.value - LN2) <= 1e-9
    spectral = d.fsm_capacity(d.make_memoryless(alphabet).fsm)
    assert abs(spectral.value - LN2) <= 1e-9
    system = mem_equal()
    for level in range(1, 21):
        assert abs(d.solve_level_rate(system, level).rate - LN2) <= 1e-9
    report = d.verify_equality(system, 30, 20, tol=1e-9)
    assert report.verdict == "PASS"


@criterion(2, "unequal-weight binary channel: golden-ratio root and PMF")
def test_criterion_2_unequal_weight_reproduction():
    target = 0.4812118250596035  # ln((1 + sqrt 5) / 2)
    system = mem_unequal()
    comb = d.characteristic_root(alphabet_of(system))
    prob, _ = d.maxent_rate_estimate(system, 10)
    for value in (comb.value, prob.value):
        assert abs(value - target) <= 1e-9
        assert abs(math.exp(-value) + math.exp(-2 * value) - 1.0) <= 1e-9
    pmf = d.maxent_pmf(system, 1)
    golden = (1 + math.sqrt(5)) / 2
    assert abs(pmf.probs[("0",)] - 1 / golden) <= 1e-6
    assert abs(pmf.probs[("1",)] - 1 / golden ** 2) <= 1e-6


@criterion(3, "abscissa estimates close on the root values as w_max grows")
def test_criterion_3_theorem_one_at_desk_scale():
    for name, factory in ROOT_BASED_FACTORIES.items():
        system = factory()
        if system.fsm.num_states == 1:
            root = d.characteristic_root(alphabet_of(system)).value
        else:
            root = d.fsm_capacity(system.fsm).value
        gaps = {}
        for w_max in (10, 40):
            estimate = d.abscissa_estimate(d.weight_spectrum(system, w_max))
            gaps[w_max] = abs(estimate.value - root)
        assert gaps[40] <= 0.08, name
        assert gaps[40] <= gaps[10] + 1e-12, name


@criterion(4, "non-regular balanced-prefix channel: equality at depth 40")
def test_criterion_4_dyck_equality():
    report = d.verify_equality(dyck(), 40, 40, tol=0.06)
    assert report.verdict == "PASS"
    spectrum = d.weight_spectrum(dyck(), 40)
    growth = [log / w for w, log in zip(spectrum.float_weights, spectrum.log_counts)]
    rates = [sol.rate for sol in report.levels]
    for sequence in (growth, rates):
        assert all(b >= a - 0.01 for a, b in zip(sequence, sequence[1:]))
        assert sequence[-1] > sequence[0]
        assert all(value <= LN2 + 1e-12 for value in sequence)
    closed_form = math.log(math.comb(40, 20)) / 40
    assert abs(rates[-1] - closed_form) <= 1e-9


@criterion(5, "information inequality: no PMF beats the level optimum")
def test_criterion_5_information_inequality():
    cases = [
        (mem_unequal(), 3),
        (mem_equal(), 4),
        (golden_mean_system(), 5),
        (dyck(), 6),
        (rll_system(1, 3), 5),
    ]
    rng = np.random.default_rng(987654321)
    for system, level in cases:
        solution = d.solve_level_rate(system, level)
        optimum = d.maxent_pmf(system, level)
        support = sorted(optimum.probs)
        weights = {path: optimum.weights[path] for path in support}
        q = np.array([optimum.probs[path] for path in support])
        for _ in range(100):
            p = rng.dirichlet(np.ones(len(support)))
            pmf = d.LevelPmf(
                level=level,
                probs={path: float(x) for path, x in zip(support, p)},
                weights=weights,
            )
            gap, rate = d.kl_gap(pmf, system)
            assert rate <= solution.rate + 1e-12
            assert gap >= -1e-12
            if np.max(np.abs(p - q)) > 1e-6:
                assert rate < solution.rate
        gap, rate = d.kl_gap(optimum, system)
        assert gap == 0.0
        assert abs(rate - solution.rate) <= 1e-10


@criterion(6, "density screen: exponential spectrum fails, builtins fit K <= 2")
def test_criterion_6_density_check():
    synthetic = too_dense_spectrum(ratio=1.5, n_cover=31, w_max=40)
    report = d.density_check(synthetic)
    assert not report.passes
    assert report.fitted_K > 8.0
    for name, factory in BUILTIN_FACTORIES.items():
        w_max = 20 if name == "mem_rational" else 40
        builtin_report = d.density_check(d.weight_spectrum(factory(), w_max))
        assert builtin_report.passes, name
        assert builtin_report.fitted_K <= 2.0, name


@criterion(7, "exact counts agree with brute-force string enumeration")
def test_criterion_7_oracle_equivalence():
    for name, factory in BUILTIN_FACTORIES.items():
        system = factory()
        w_max = 6 if name == "mem_rational" else 12
        expected = naive_string_spectrum(system, w_max)
        spectrum = d.weight_spectrum(system, w_max)
        assert dict(spectrum.entries) == expected, name


@criterion(8, "maxentropic sampler reproduces ln(golden ratio) at 1e4 x 100")
def test_criterion_8_sampler_cross_check():
    fsm = d.make_golden_mean()
    chain = d.maxent_chain(fsm)
    samples = d.sample_paths(chain, 10_000, 100, seed=20260808)
    rate = d.empirical_entropy_rate(samples)
    assert abs(rate - LN_GOLDEN) <= 0.01
    assert all(fsm.accepts(path.labels) for path in samples.paths)
    rerun = d.sample_paths(chain, 10_000, 100, seed=20260808)
    assert d.samples_tsv(samples) == d.samples_tsv(rerun)


@criterion(9, "memoryless channels have level-independent optima")
def test_criterion_9_memoryless_invariance():
    rng = np.random.default_rng(31415926)
    for trial in range(20):
        size = int(rng.integers(2, 6))
        alphabet = []
        for i in range(size):
            q = int(rng.integers(1, 9))
            p = int(rng.integers(math.ceil(q / 4), 4 * q + 1))
            alphabet.append(d.Symbol(f"s{i}", Fraction(p, q)))
        assert all(
            Fraction(1, 4) <= sym.weight <= 4 for sym in alphabet
        )
        system = d.make_memoryless(alphabet)
        base = d.solve_level_rate(system, 1).rate
        worst = max(
            abs(d.solve_level_rate(system, level).rate - base)
            for level in range(2, 11)
        )
        assert worst <= 1e-10, f"trial {trial}: spread {worst}"
