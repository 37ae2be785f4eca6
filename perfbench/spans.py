"""Spans around dncap's public functions, installed from outside the package.

``Tracer.install`` replaces each listed function with a timing wrapper in
every loaded ``dncap`` module that holds a reference to it, so calls made
through imported names are seen as well.  Spans nest through a stack: a
span's self time is its duration minus the time of the spans it encloses.
A listed function that the package no longer has is recorded as absent.
"""

import importlib
import sys
import time
from dataclasses import dataclass, field

# (module, function, counters): the counters a wrapper derives from the
# call's arguments and result; see _count_one below.
TRACED = (
    ("cli", "main", ()),
    ("specfile", "load_system", ()),
    ("spectrum", "weight_spectrum", ("entries",)),
    ("spectrum", "spectrum_tsv", ()),
    ("maxent", "level_support", ()),
    ("maxent", "solve_level_rate", ()),
    ("maxent", "maxent_rate_estimate", ("levels", "truncated")),
    ("maxent", "level_report_tsv", ()),
    ("capacity", "characteristic_root", ()),
    ("capacity", "fsm_capacity", ("iterations",)),
    ("capacity", "transition_matrix", ()),
    ("capacity", "abscissa_estimate", ()),
    ("solvers", "bisect_decreasing", ("evals",)),
    ("solvers", "spectral_radius_nonneg", ()),
    ("solvers", "power_iteration", ("iterations", "capped")),
    ("sampler", "maxent_chain", ()),
    ("sampler", "sample_paths", ("symbols",)),
    ("sampler", "sample_level_paths", ("symbols",)),
    ("sampler", "samples_tsv", ()),
    ("verify", "verify_equality", ()),
)


@dataclass
class Stats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    counters: dict = field(default_factory=dict)

    def add(self, name, value):
        self.counters[name] = self.counters.get(name, 0) + value


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class Tracer:
    """Installs and removes the spans; ``stats`` holds one pass's numbers."""

    def __init__(self):
        self.stats: dict[str, Stats] = {}
        self.absent: list[str] = []
        self._stack: list[list[float]] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self):
        """Wrap every listed function, with fresh statistics."""
        self.stats = {}
        self.absent = []
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "dncap"]
        for module_name, func_name, counters in TRACED:
            key = f"{module_name}.{func_name}"
            module = importlib.import_module(f"dncap.{module_name}")
            original = getattr(module, func_name, None)
            if original is None:
                self.absent.append(key)
                continue
            self.stats[key] = Stats()
            wrapper = self._wrap(key, original, counters)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._restore.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def _wrap(self, key, original, counters):
        stack = self._stack
        tracer = self

        def traced(*args, **kwargs):
            stats = tracer.stats[key]
            if "evals" in counters:
                args, kwargs = _count_evals(stats, args, kwargs)
            frame = [0.0]  # time spent in enclosed spans
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - frame[0]
            _count(stats, counters, args, kwargs, result)
            return result

        traced.__wrapped__ = original
        return traced


def _count_evals(stats, args, kwargs):
    """Wrap bisect_decreasing's target so each evaluation is counted."""
    f = _arg(args, kwargs, 0, "f")

    def counted(x):
        stats.add("evals", 1)
        return f(x)

    if args:
        return (counted,) + tuple(args[1:]), kwargs
    return args, dict(kwargs, f=counted)


def _count(stats, counters, args, kwargs, result):
    for name in counters:
        try:
            _count_one(stats, name, args, kwargs, result)
        except (AttributeError, IndexError, KeyError, TypeError):
            # The function's signature or result changed; leave the counter
            # unset so it reads as absent instead of crashing the run.
            stats.counters.setdefault(name, None)


def _count_one(stats, name, args, kwargs, result):
    if name == "entries":
        stats.add(name, len(result.entries))
    elif name == "levels":
        stats.add(name, len(result[1]))
    elif name == "truncated":
        stats.add(name, int(len(result[1]) < _arg(args, kwargs, 1, "l_max")))
    elif name == "iterations":
        iterations = result.iterations if hasattr(result, "iterations") else result[2]
        stats.add(name, iterations)
    elif name == "capped":
        solvers = sys.modules["dncap.solvers"]
        cap = _arg(args, kwargs, 2, "max_iter", getattr(solvers, "POWER_MAX_ITER", None))
        stats.add(name, int(cap is not None and result[2] >= cap))
    elif name == "symbols":
        stats.add(name, len(result.paths) * result.steps)
