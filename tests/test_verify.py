import math

import pytest

import dncap as d
from dncap import spectrum
from conftest import (
    counted, dyck, golden_mean_system, harmonic_dyck, harmonic_steps, mem_equal,
    mem_unequal, rll_system,
)
from oracles import LN_GOLDEN


class TestVerifyEquality:
    def test_equal_weights_pass_tight(self):
        report = d.verify_equality(mem_equal(), 30, 20, tol=1e-9)
        assert report.verdict == "PASS"
        assert abs(report.c_comb.value - math.log(2)) < 1e-9
        assert abs(report.c_prob.value - math.log(2)) < 1e-9
        assert report.ae_pass and report.io_pass

    def test_unequal_weights_pass_tight(self):
        report = d.verify_equality(mem_unequal(), 30, 10, tol=1e-9)
        assert report.verdict == "PASS"
        assert abs(report.c_comb.value - LN_GOLDEN) < 1e-9
        assert abs(report.c_prob.value - LN_GOLDEN) < 1e-9

    def test_regular_fsm_passes_at_level_resolution(self):
        # level rates approach the root like C/l, so the tolerance reflects
        # the deepest level computed, not the solver precision
        report = d.verify_equality(golden_mean_system(), 30, 30, tol=0.01)
        assert report.verdict == "PASS"
        assert report.c_comb.method == "spectral_radius"
        assert report.ae_pass and report.io_pass

    @pytest.mark.parametrize(
        "factory", [golden_mean_system, lambda: rll_system(1, 3)],
    )
    def test_root_based_sides_agree_tightly_for_regular_systems(self, factory):
        # the root-based maxent side of a regular channel is the stationary
        # maxentropic chain; its rate meets the spectral radius root at 1e-6
        system = factory()
        comb = d.fsm_capacity(system.fsm)
        chain = d.maxent_chain(system.fsm)
        assert abs(chain.analytic_entropy_rate() - comb.value) <= 1e-6

    def test_memoryless_sides_agree_tightly(self):
        for factory in (mem_equal, mem_unequal):
            report = d.verify_equality(factory(), 20, 8, tol=1e-6)
            assert report.verdict == "PASS"
            assert report.difference <= 1e-9

    def test_dyck_nonregular_pass(self):
        report = d.verify_equality(dyck(), 40, 40, tol=0.06)
        assert report.verdict == "PASS"
        assert report.c_comb.method == "abscissa"
        assert report.ae_pass and report.io_pass
        assert len(report.levels) == 40
        assert len(d.weight_spectrum(dyck(), 40)) == 40

    def test_dyck_gap_shrinks_with_depth(self):
        shallow = d.verify_equality(dyck(), 20, 20, tol=0.09)
        deep = d.verify_equality(dyck(), 40, 40, tol=0.06)
        assert math.log(2) - deep.c_comb.value < math.log(2) - shallow.c_comb.value
        assert math.log(2) - deep.c_prob.value < math.log(2) - shallow.c_prob.value

    def test_fail_verdict_when_tolerance_is_unreachable(self):
        # golden mean at shallow depth cannot meet 1e-9
        report = d.verify_equality(golden_mean_system(), 20, 10, tol=1e-9)
        assert report.verdict == "FAIL"

    def test_inconclusive_on_budget_exhaustion(self, monkeypatch):
        monkeypatch.setattr(spectrum, "LEVEL_BUDGET", 500)
        report = d.verify_equality(dyck(), 40, 40, tol=0.06)
        assert report.verdict == "INCONCLUSIVE"
        assert 0 < len(report.levels) < 40

    def test_cut_spectrum_walk_is_inconclusive(self, monkeypatch):
        # the spectrum walk to 40 needs about 900 expansions; cut at 500,
        # the abscissa reads the spectrum it counted exactly
        monkeypatch.setattr(spectrum, "LEVEL_BUDGET", 500)
        with pytest.raises(d.BudgetExceededError) as cut:
            d.weight_spectrum(dyck(), 40)
        report = d.verify_equality(dyck(), 40, 20, tol=0.06)
        assert report.verdict == "INCONCLUSIVE"
        assert len(report.levels) == 20
        assert report.c_comb == d.abscissa_estimate(cut.value.spectrum)

    def test_cut_spectrum_without_an_estimate_raises(self, monkeypatch):
        # one full depth leaves one spectrum entry, too few to estimate from
        monkeypatch.setattr(spectrum, "LEVEL_BUDGET", 2)
        with pytest.raises(d.BudgetExceededError, match="weight spectrum walk"):
            d.verify_equality(dyck(), 40, 40, tol=0.06)

    def test_sweep_cut_before_any_weight_reraises_its_error(self, monkeypatch):
        # the root's branches alone pass the budget: the cut spectrum is None
        monkeypatch.setattr(spectrum, "LEVEL_BUDGET", 0)
        with pytest.raises(d.BudgetExceededError) as caught:
            d.verify_equality(dyck(), 40, 40, tol=0.06)
        assert str(caught.value) == (
            "weight spectrum walk to w_max 40 exceeded budget of 0 expansions at weight 0.0"
        )
        assert caught.value.spectrum is None

    @pytest.mark.parametrize("factory", [golden_mean_system, mem_unequal])
    def test_regular_channels_walk_the_tree_once(self, factory):
        # only the abscissa reads the spectrum, so verify walks as often as
        # the maxent side alone
        verified, verify_calls = counted(factory())
        d.verify_equality(verified, 30, 20, tol=0.01)
        estimated, estimate_calls = counted(factory())
        d.maxent_rate_estimate(estimated, 20)
        assert verify_calls[0] == estimate_calls[0]

    def test_generators_expand_each_handle_once(self):
        # the sweep to weight 40 expands balances 0..40, and the level walk
        # to 40 finds them all in the shared system's memoized expand
        system, calls = counted(dyck())
        d.verify_equality(system, 40, 40, tol=0.06)
        assert calls[0] == 41

    @pytest.mark.parametrize("factory", [harmonic_dyck, harmonic_steps])
    def test_a_shared_graph_keeps_both_walks_bit_identical(self, factory):
        # the level walk reads the handles the sweep expanded from the shared
        # cache, and its rows still match a walk of their own bit for bit
        system = spectrum.shared(factory())
        swept = d.weight_spectrum(system, "9/2")
        levels = d.maxent_rate_estimate(system, 12)
        assert system.expand.cache_info().hits > 0
        assert swept == d.weight_spectrum(factory(), "9/2")
        assert levels == d.maxent_rate_estimate(factory(), 12)
        # so do the level sampler's draws, here and over several Dyck blocks;
        # factory's distinct weights grow exponentially, so it stops at 12
        dyck_system = spectrum.shared(dyck())
        d.weight_spectrum(dyck_system, 300)
        for walked, fresh, level in ((system, factory(), 12), (dyck_system, dyck(), 300)):
            assert (d.samples_tsv(d.sample_level_paths(walked, level, 5, seed=3))
                    == d.samples_tsv(d.sample_level_paths(fresh, level, 5, seed=3)))

    def test_regular_verdict_needs_no_spectrum_entries(self):
        # up to weight 3/2 the golden mean's spectrum has one entry, weight 1
        report = d.verify_equality(golden_mean_system(), "3/2", 8, 0.1)
        assert report.verdict == "PASS"
        assert report.c_comb.method == "spectral_radius"

    @pytest.mark.parametrize("w_max", ["-3", "0", "abc", float("nan"), float("inf")])
    def test_w_max_is_checked_on_every_channel(self, w_max):
        for factory in (mem_equal, golden_mean_system, dyck):
            with pytest.raises(ValueError):
                d.verify_equality(factory(), w_max, 8, 0.1)

    def test_shallow_spectrum_fails_the_probe_loudly(self):
        # at w_max = 10 the trailing dyck estimate is still so far below the
        # abscissa that the series diverges at estimate + delta; the
        # estimator must refuse rather than return a bad abscissa
        with pytest.raises(d.EstimatorError, match="probe"):
            d.verify_equality(dyck(), 10, 10, tol=0.06)

    @pytest.mark.parametrize(
        "factory,w_max,l_max,tol",
        [
            (mem_equal, 20, 10, 1e-9),
            (mem_unequal, 20, 10, 1e-9),
            (golden_mean_system, 30, 30, 0.01),
            (lambda: rll_system(1, 3), 30, 30, 0.01),
            (dyck, 40, 40, 0.06),
        ],
    )
    def test_epsilon_probes_pass_on_builtins(self, factory, w_max, l_max, tol):
        report = d.verify_equality(factory(), w_max, l_max, tol=tol)
        assert report.ae_pass
        assert report.io_pass


def test_report_json_shape():
    report = d.verify_equality(mem_equal(), 10, 5, tol=1e-9)
    doc = report.to_json_dict()
    assert set(doc) == {"c_comb", "c_prob", "difference", "epsilon_probes", "verdict"}
    assert set(doc["c_comb"]) == {
        "method", "value", "bracket", "residual", "iterations",
    }
    assert set(doc["epsilon_probes"]) == {"ae_pass", "io_pass"}
    assert doc["verdict"] == "PASS"
