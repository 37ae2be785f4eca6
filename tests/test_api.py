"""The public API exposes results, not tuning knobs."""

import dataclasses
import inspect

import pytest

import dncap as d
from dncap import capacity, cli, maxent, sampler, specfile, spectrum, systems
from dncap.capacity import combinatorial_capacity
from dncap.cli import build_parser
from dncap.maxent import enumerate_level_paths
from conftest import dyck

# fixed module constants: spectrum.TAIL_FRACTION, spectrum.LEVEL_BUDGET,
# spectrum.DENSITY_POLY_CAP, capacity.PROBE_DELTA, capacity.DIVERGENCE_THRESHOLD
TUNING = {"tail_fraction", "budget", "poly_cap", "delta", "divergence_threshold"}


def test_no_public_function_takes_a_tuning_parameter():
    functions = [getattr(d, name) for name in d.__all__]
    knobs = {
        f.__name__: sorted(TUNING & set(inspect.signature(f).parameters))
        for f in functions if inspect.isfunction(f)
    }
    assert {name: params for name, params in knobs.items() if params} == {}


def test_test_only_exports_are_gone():
    for name in ("check_label_uniqueness", "growth_sequence", "memoryless_fsm",
                 "level_support", "enumerate_level_paths", "parse_system",
                 "parse_weight"):
        assert name not in d.__all__
        assert not hasattr(d, name)


def test_removed_private_paths_stay_gone():
    # a block table reduces its own row totals; usage errors are ValueErrors
    assert "ln_total" not in inspect.signature(sampler._table).parameters
    assert not hasattr(cli, "_UsageError")


def test_capacity_estimators_return_one_estimate():
    # the probe's totals are gf_eval's and its verdicts hold once it returns
    for module in (d, capacity):
        assert not hasattr(module, "ConvergenceProbe")
    assert not hasattr(capacity, "_EXP_OVERFLOW")
    spectrum = d.weight_spectrum(dyck(), 40)
    for estimator in (d.abscissa_estimate, d.empirical_capacity):
        assert isinstance(estimator(spectrum), d.CapacityEstimate)


def test_graph_wrappers_are_gone():
    # an FSM's edges and components are read from the FSM itself
    assert "transition_matrix" not in d.__all__
    for name in ("transition_matrix", "transition_list"):
        assert not hasattr(d, name)
        assert not hasattr(capacity, name)


def test_what_the_channel_determines_is_not_an_input():
    assert [f.name for f in dataclasses.fields(d.BranchSystem)] == [
        "root", "expand", "fsm",
    ]
    for name in ("MEMORYLESS", "FSM", "GENERATOR"):
        assert not hasattr(systems, name)
    assert list(inspect.signature(combinatorial_capacity).parameters) == [
        "system", "w_max", "method",
    ]
    assert list(inspect.signature(d.maxent_chain).parameters) == ["fsm"]
    assert list(inspect.signature(d.maxent_pmf).parameters) == ["system", "level"]
    assert list(inspect.signature(d.kl_gap).parameters) == ["pmf", "system"]
    assert list(inspect.signature(d.fsm_to_branch_system).parameters) == ["fsm"]
    assert list(inspect.signature(d.make_memoryless).parameters) == ["alphabet"]
    report_fields = {f.name for f in dataclasses.fields(d.VerifyReport)}
    assert not {"growth", "system"} & report_fields
    assert list(inspect.signature(d.VerifyReport.to_json_dict).parameters) == ["self"]
    assert not hasattr(d.LevelPmf, "total")


def test_every_option_has_a_program_caller():
    # one series, one density fit and one route per channel
    assert list(inspect.signature(d.gf_eval).parameters) == ["spectrum", "s"]
    assert list(inspect.signature(d.density_check).parameters) == ["spectrum"]
    commands = build_parser()._subparsers._group_actions[0].choices
    [method] = [a for a in commands["capacity"]._actions if a.dest == "method"]
    assert method.choices == ("auto", "abscissa")
    with pytest.raises(ValueError, match="unknown capacity method"):
        combinatorial_capacity(dyck(), 40, "spectral")


def test_a_chain_is_checked_against_its_fsm_once_when_built():
    # construction checks the rows; no sample is walked through the FSM again
    assert not hasattr(sampler, "_check_accepted")


def test_a_chain_is_one_probability_per_transition():
    # arrays aligned with fsm.edges, no (symbol, next state, prob) rows
    assert [f.name for f in dataclasses.fields(d.MaxentChain)] == [
        "fsm", "capacity", "probs", "right_eigvec", "stationary",
    ]
    assert d.MaxentChain.__eq__ is object.__eq__  # compared by identity


def test_fsm_rows_and_the_chain_each_take_one_path():
    # one loop reads every row; the chain solves its one component directly
    assert not hasattr(specfile, "_fsm_columns")
    assert not hasattr(capacity, "_fsm_root")


def test_one_budget_lives_in_spectrum():
    assert list(inspect.signature(spectrum.frontier_walk).parameters) == [
        "system", "level",
    ]
    assert not hasattr(maxent, "LEVEL_BUDGET")
    assert not hasattr(maxent, "_level_walk")


def test_the_budget_is_read_when_a_walk_starts(monkeypatch):
    # a copy taken at import would miss the patch
    monkeypatch.setattr(spectrum, "LEVEL_BUDGET", 7)
    for run, walk in [(lambda: d.weight_spectrum(dyck(), 40), "weight spectrum walk"),
                      (lambda: d.solve_level_rate(dyck(), 40), "level walk"),
                      (lambda: enumerate_level_paths(dyck(), 6),
                       "explicit path enumeration")]:
        with pytest.raises(d.BudgetExceededError, match=f"^{walk}.* budget of 7\\b"):
            run()
