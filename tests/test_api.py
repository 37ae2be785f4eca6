"""The public API exposes results, not tuning knobs."""

import inspect

import dncap as d

# fixed module constants: spectrum.TAIL_FRACTION, maxent.LEVEL_BUDGET,
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
    for name in ("check_label_uniqueness", "growth_sequence"):
        assert name not in d.__all__
        assert not hasattr(d, name)
