"""Seeded workloads: the spec documents the CLI receives and the jobs run on them.

``build(workload, seed)`` is a pure function of its arguments: the same seed
gives byte-identical spec files.  The seed permutes state numbering, start
states, transition order and labels, and draws the small random FSM and the
alphabets (the large random FSMs are fixed draws that it relabels), while
the sizes that set the cost of each job stay fixed, so that runs on
different seeds measure about the same amount of work.
"""

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

WHY = {
    "fsm_slow_mixing": (
        "capacity/verify/sample on FSMs whose second eigenvalue nears the Perron "
        "root (cycle with chord to 200 states, rll k=30, golden mean): power "
        "iteration under bisection dominates"
    ),
    "fsm_wide": (
        "capacity and short sample jobs on fast-mixing random FSMs of 100-400 "
        "states: the same Perron layer converges in a few hundred steps, so dense "
        "O(n^3) solves can lose"
    ),
    "nonregular_walk": (
        "enumerate/maxent/verify on the Dyck prefix channel and rational "
        "alphabets: the exact frontier walk and Fraction arithmetic dominate, the "
        "Perron layer is never called"
    ),
    "sampling": (
        "sample jobs at stated count x steps on golden mean, rll(2,7), random "
        "FSMs and Dyck levels (one deeper than 1024): the per-symbol sampler "
        "loop dominates"
    ),
}


@dataclass(frozen=True)
class Defect:
    """A known program defect a job is expected to trip until it is fixed.

    A failure is attributed to the defect when the oracle's failure string
    starts with one of ``kinds``; any other failure leaves the run incorrect.
    """

    name: str
    kinds: tuple[str, ...]
    note: str


POWER_CAP = Defect(
    "power_iteration_cap",
    ("value:",),
    "power_iteration returns at POWER_MAX_ITER without converging, so the "
    "200-state cycle's capacity misses its closed form by ~3e-8",
)
DEEP_LEVEL = Defect(
    "deep_level_overflow",
    ("exception: OverflowError", "exception: RecursionError"),
    "level sampling past depth 1024 converts a big-int count to float "
    "(OverflowError) or recurses once per depth (RecursionError)",
)


@dataclass(frozen=True)
class Spec:
    name: str
    doc: dict
    family: str
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Job:
    command: str
    spec: str
    opts: tuple[tuple[str, str], ...] = ()
    defect: Defect | None = None

    @property
    def name(self) -> str:
        flags = " ".join(f"{k} {v}" for k, v in self.opts if k != "--seed")
        return f"{self.command} {self.spec} {flags}".strip()

    @property
    def symbols(self) -> int:
        """Stated sample size, count x steps; zero for other commands."""
        if self.command != "sample":
            return 0
        opts = dict(self.opts)
        return int(opts["--count"]) * int(opts["--steps"])

    def argv(self, spec_dir: Path) -> list[str]:
        argv = [self.command, str(spec_dir / f"{self.spec}.json")]
        for flag, value in self.opts:
            argv += [flag, value]
        return argv


def _fsm(rng, states, start, edges):
    """An FSM spec with seeded state numbering and transition order."""
    perm = list(range(states))
    rng.shuffle(perm)
    transitions = [
        {"from": perm[src], "label": label, "weight": weight, "to": perm[dst]}
        for src, label, weight, dst in edges
    ]
    rng.shuffle(transitions)
    return {
        "kind": "fsm",
        "states": states,
        "start": perm[start],
        "transitions": transitions,
    }


def cycle_chord(rng, name, n):
    """An n-cycle plus a self-loop: capacity solves e^{-s} + e^{-ns} = 1."""
    edges = [(i, "a", "1", (i + 1) % n) for i in range(n)] + [(0, "b", "1", 0)]
    return Spec(name, _fsm(rng, n, rng.randrange(n), edges), "cycle_chord", {"n": n})


def rll(rng, name, d, k):
    """The (d, k) run-length graph written out as an FSM."""
    edges = [(i, "0", "1", i + 1) for i in range(k)]
    edges += [(i, "1", "1", 0) for i in range(d, k + 1)]
    return Spec(name, _fsm(rng, k + 1, 0, edges), "rll", {"d": d, "k": k})


def golden(rng, name):
    edges = [(0, "0", "1", 0), (0, "1", "1", 1), (1, "0", "1", 0)]
    return Spec(name, _fsm(rng, 2, rng.randrange(2), edges), "golden")


def random_fsm(rng, name, n, max_weight, degree=3, structure=None):
    """A union of ``degree`` random permutations, one of them an n-cycle.

    The cycle (label "a") makes it strongly connected and every state has
    in- and out-degree ``degree``.  Weights are integers from 1 to
    ``max_weight``.  ``structure`` draws the graph and weights (default:
    ``rng``); ``rng`` relabels states and picks the start state.
    """
    draw = structure or rng
    order = list(range(n))
    draw.shuffle(order)
    edges = [
        (state, "a", str(draw.randint(1, max_weight)), order[(i + 1) % n])
        for i, state in enumerate(order)
    ]
    for label in "bcdefgh"[: degree - 1]:
        perm = list(range(n))
        draw.shuffle(perm)
        edges += [
            (state, label, str(draw.randint(1, max_weight)), perm[state])
            for state in range(n)
        ]
    return Spec(name, _fsm(rng, n, rng.randrange(n), edges), "random_fsm", {"n": n})


def alphabet(rng, name):
    """A memoryless alphabet with weights p/q in (1, 2) for q = 2, 3, 5.

    Distinct denominators keep the weights distinct and their sums sparse,
    so the seed's choice of numerators barely changes the walk's cost.
    """
    labels = ["x", "y", "z"]
    rng.shuffle(labels)
    symbols = []
    for label, q in zip(labels, (2, 3, 5)):
        p = rng.choice([p for p in range(q + 1, 2 * q) if math.gcd(p, q) == 1])
        symbols.append({"label": label, "weight": f"{p}/{q}"})
    return Spec(name, {"kind": "memoryless", "symbols": symbols}, "alphabet")


def binary(rng, name):
    labels = ["0", "1"]
    rng.shuffle(labels)
    doc = {"kind": "memoryless", "symbols": [{"label": l, "weight": "1"} for l in labels]}
    return Spec(name, doc, "binary")


def dyck(name):
    return Spec(name, {"kind": "builtin", "name": "dyck_prefix"}, "dyck")


def _sample(rng, spec, count, steps, defect=None):
    opts = (("--count", str(count)), ("--steps", str(steps)),
            ("--seed", str(rng.randrange(2 ** 31))))
    return Job("sample", spec, opts, defect)


def _fsm_slow_mixing(rng):
    specs = [
        cycle_chord(rng, "cycle200", 200),
        cycle_chord(rng, "cycle60", 60),
        rll(rng, "rll_10_30", 10, 30),
        rll(rng, "rll_2_20", 2, 20),
        golden(rng, "golden"),
    ]
    tol = (("--tol", "0.1"),)
    jobs = [
        Job("capacity", "cycle200", defect=POWER_CAP),
        Job("capacity", "cycle60"),
        Job("capacity", "rll_10_30"),
        Job("capacity", "rll_2_20"),
        Job("capacity", "golden"),
        Job("verify", "golden", tol),
        Job("verify", "rll_2_20", tol),
        Job("verify", "cycle60", tol),
        _sample(rng, "golden", 500, 50),
        _sample(rng, "rll_10_30", 300, 50),
        _sample(rng, "cycle60", 100, 60),
        Job("enumerate", "cycle60", (("--wmax", "1200"),)),
        Job("maxent", "rll_10_30", (("--lmax", "80"),)),
    ]
    return specs, jobs


def _fsm_wide(rng):
    # Power iteration needs 6k to 17k steps per capacity solve depending on
    # the random instance, which would swamp run-to-run comparisons.  So the
    # graphs are fixed draws, one per size, and the seed relabels them.
    specs = [
        random_fsm(rng, f"wide{n}", n, 4, structure=random.Random(f"fsm_wide:{n}"))
        for n in (100, 200, 300, 400)
    ]
    specs.append(rll(rng, "rll_3_12", 3, 12))
    jobs = [Job("capacity", f"wide{n}") for n in (100, 200, 300, 400)]
    jobs += [
        _sample(rng, "wide100", 200, 40),
        _sample(rng, "wide200", 200, 40),
        Job("enumerate", "rll_3_12", (("--wmax", "800"),)),
        Job("maxent", "rll_3_12", (("--lmax", "60"),)),
        Job("verify", "rll_3_12", (("--tol", "0.1"),)),
    ]
    return specs, jobs


def _scaled_wmax(spec, base):
    """base x the alphabet's geometric-mean weight, so the number of weight
    sums under the bound, and with it the walk's cost, hardly depends on the
    drawn weights."""
    weights = [Fraction(sym["weight"]) for sym in spec.doc["symbols"]]
    mean = math.prod(float(w) for w in weights) ** (1.0 / len(weights))
    return str(Fraction(round(base * mean * 10), 10))


def _nonregular_walk(rng):
    specs = [dyck("dyck"), alphabet(rng, "alphabet"), binary(rng, "binary")]
    wmax = _scaled_wmax(specs[1], 16)
    jobs = [
        Job("enumerate", "dyck", (("--wmax", "800"),)),
        Job("maxent", "dyck", (("--lmax", "200"),)),
        Job("verify", "dyck", (("--wmax", "80"), ("--lmax", "80"), ("--tol", "0.06"))),
        Job("capacity", "dyck", (("--wmax", "200"),)),
        Job("enumerate", "alphabet", (("--wmax", wmax),)),
        Job("maxent", "alphabet", (("--lmax", "14"),)),
        Job("verify", "alphabet", (("--wmax", wmax), ("--lmax", "10"), ("--tol", "0.05"))),
        Job("capacity", "alphabet"),
        Job("maxent", "binary", (("--lmax", "200"),)),
        Job("verify", "binary", (("--lmax", "60"),)),
        _sample(rng, "dyck", 300, 100),
    ]
    return specs, jobs


def _sampling(rng):
    specs = [
        golden(rng, "golden"),
        rll(rng, "rll_2_7", 2, 7),
        random_fsm(rng, "random30", 30, 3),
        random_fsm(rng, "random250", 250, 3, structure=random.Random("sampling:250")),
        dyck("dyck"),
    ]
    # The small jobs of the other commands run first, while the heap is still
    # small: placed after the 10^6-symbol sample they timed less steadily.
    jobs = [
        Job("enumerate", "rll_2_7", (("--wmax", "4000"),)),
        Job("capacity", "rll_2_7"),
        Job("capacity", "random250"),
        Job("maxent", "golden", (("--lmax", "250"),)),
        Job("verify", "rll_2_7", (("--wmax", "200"), ("--lmax", "150"), ("--tol", "0.1"))),
        _sample(rng, "golden", 10000, 100),
        _sample(rng, "rll_2_7", 1000, 100),
        _sample(rng, "random30", 500, 100),
        _sample(rng, "dyck", 100, 200),
        _sample(rng, "dyck", 4, 1040, DEEP_LEVEL),
    ]
    return specs, jobs


_BUILDERS = {
    "fsm_slow_mixing": _fsm_slow_mixing,
    "fsm_wide": _fsm_wide,
    "nonregular_walk": _nonregular_walk,
    "sampling": _sampling,
}


def build(workload: str, seed: int) -> tuple[list[Spec], list[Job]]:
    """The workload's specs and job list for one seed."""
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"))


def write_specs(specs: list[Spec], spec_dir: Path) -> None:
    spec_dir.mkdir(parents=True, exist_ok=True)
    for spec in specs:
        text = json.dumps(spec.doc, indent=1, sort_keys=True) + "\n"
        (spec_dir / f"{spec.name}.json").write_text(text, encoding="utf-8")
