"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import run as bench  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _channel(spec):
    return oracles.Channel(spec.doc, spec.family, spec.params)


def _rng():
    return random.Random("test")


@pytest.mark.parametrize("spec, truth", [
    (workloads.golden(_rng(), "g"), math.log((1 + math.sqrt(5)) / 2)),
    (workloads.binary(_rng(), "b"), math.log(2)),
    (workloads.rll(_rng(), "r", 0, 1), math.log((1 + math.sqrt(5)) / 2)),
])
def test_closed_forms(spec, truth):
    assert abs(_channel(spec).capacity() - truth) < 1e-15


def test_perturbed_capacity_fails_its_oracle():
    ch = _channel(workloads.cycle_chord(_rng(), "c", 20))
    c = ch.capacity()
    good = {"method": "spectral_radius", "value": c, "bracket": [c, c]}
    assert oracles.check_capacity_doc(ch, good, "40") is None
    for delta in (1e-6, -1e-6, 1e-8):
        bad = dict(good, value=c + delta, bracket=[c + delta, c + delta])
        assert oracles.check_capacity_doc(ch, bad, "40").startswith("value:")
        assert oracles.bracket_missed(ch, bad)


def test_perturbed_random_fsm_capacity_fails_eigvals_check():
    ch = _channel(workloads.random_fsm(_rng(), "r", 12, 3))
    c = ch.capacity()
    assert abs(ch.rho(c) - 1.0) < 1e-12
    doc = {"method": "spectral_radius", "value": c + 1e-6, "bracket": [c, c + 2e-6]}
    assert oracles.check_capacity_doc(ch, doc, "40").startswith("value:")


def test_perturbed_sample_row_fails_rewalk():
    spec = workloads.golden(_rng(), "g")
    ch = _channel(spec)
    c = ch.capacity()
    v = ch.perron_vector()
    state, labels, logp = ch.start, "", 0.0
    for _ in range(8):  # follow the label-"0" edges, which exist from both states
        w, dst = ch.step[(state, "0")]
        logp += -float(w) * c + math.log(v[dst]) - math.log(v[state])
        labels, state = labels + "0", dst
    opts = {"--count": "1", "--steps": "8"}
    row = f"# labels\tweight\tlog_prob\n{labels}\t8\t{logp!r}\n"
    assert oracles.check_sample(ch, opts, 0, row) is None
    bad = f"# labels\tweight\tlog_prob\n{labels}\t8\t{logp * (1 + 1e-5)!r}\n"
    assert oracles.check_sample(ch, opts, 0, bad).startswith("value:")
    illegal = "# labels\tweight\tlog_prob\n" + "1" * 8 + f"\t8\t{logp!r}\n"
    assert oracles.check_sample(ch, opts, 0, illegal).startswith("walk:")


def test_exact_count_dp_matches_closed_forms():
    dyck = _channel(workloads.dyck("d"))
    assert [c for _, c in dyck.spectrum(6)] == [1, 2, 3, 6, 10, 20]
    fib = _channel(workloads.rll(_rng(), "r", 0, 1))
    assert [c for _, c in fib.spectrum(6)] == [2, 3, 5, 8, 13, 21]
    alphabet = oracles.Channel(
        {"kind": "memoryless", "symbols": [{"label": "x", "weight": "1/2"},
                                           {"label": "y", "weight": "1"}]},
        "alphabet", {},
    )
    assert alphabet.spectrum(2) == [(oracles.Fraction(k, 2), c) for k, c in
                                    zip(range(1, 5), [1, 2, 3, 5])]


def test_raising_job_is_counted_and_does_not_abort(tmp_path):
    cli = bench.import_dncap()
    specs, jobs = workloads.build("fsm_wide", 1)
    jobs = [j for j in jobs if j.spec == "rll_3_12" or j.name.startswith("sample wide100")]
    specs = [s for s in specs if s.name in {j.spec for j in jobs}]
    workloads.write_specs(specs, tmp_path)

    class RaisesOnFirstJob:
        def main(self, argv):
            if argv[0] == jobs[0].command:
                raise RuntimeError("injected")
            return cli.main(argv)

    runner = bench.Runner(RaisesOnFirstJob(), jobs, specs, tmp_path)
    record = runner.run_pass(traced=False)
    assert [(job, reason.split(":")[1].strip()) for job, reason in record["failures"]] == [
        (jobs[0], "RuntimeError")
    ]
    failures, unexplained, by_job = bench.tally([record, record])
    assert len(failures) == 2 and len(unexplained) == 2
    assert by_job[jobs[0].name]["count"] == 2
    metrics = bench.end_to_end_metrics([record], [0.1], 2 * len(jobs), 2)
    assert metrics["ok_frac"]["value"] == pytest.approx(1 - 2 / (2 * len(jobs)))
    assert all(record["per_command"][j.command] > 0 for j in jobs)


def test_known_defect_failures_are_attributed_only_by_kind():
    job = workloads.Job("capacity", "cycle200", defect=workloads.POWER_CAP)
    assert bench.attributed(job, "value: 3.1e-08 off")
    assert not bench.attributed(job, "exit: code 3")
    assert not bench.attributed(workloads.Job("capacity", "x"), "value: off")


def test_spans_nest_count_and_restore(tmp_path, monkeypatch):
    cli = bench.import_dncap()
    import dncap.solvers

    original = dncap.solvers.power_iteration
    monkeypatch.setattr(spans, "TRACED", spans.TRACED + (("solvers", "no_such_kernel", ()),))
    spec = workloads.golden(_rng(), "golden")
    workloads.write_specs([spec], tmp_path)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.main(["capacity", str(tmp_path / "golden.json")]) == 0
    finally:
        tracer.uninstall()
    assert tracer.absent == ["solvers.no_such_kernel"]
    assert dncap.solvers.power_iteration is original
    stats = tracer.stats
    assert stats["cli.main"].calls == stats["capacity.fsm_capacity"].calls == 1
    assert stats["solvers.bisect_decreasing"].counters["evals"] > 10
    assert stats["solvers.power_iteration"].calls == stats["solvers.spectral_radius_nonneg"].calls
    assert 0 <= stats["cli.main"].self_s < stats["cli.main"].total_s


@pytest.mark.parametrize("workload", sorted(workloads.WHY))
def test_generator_is_byte_identical_for_a_seed(workload, tmp_path):
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        specs, _ = workloads.build(workload, seed)
        workloads.write_specs(specs, tmp_path / name)

    def tree(name):
        return {p.name: p.read_bytes() for p in sorted((tmp_path / name).iterdir())}

    assert tree("a") == tree("b")
    assert tree("a") != tree("c")
    assert [j.argv(tmp_path) for j in workloads.build(workload, 7)[1]] == [
        j.argv(tmp_path) for j in workloads.build(workload, 7)[1]
    ]


def test_declared_metrics_match_benchmark_json():
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert declared == bench.END_TO_END
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert declared == bench.PER_LAYER
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(workloads.WHY)
    for entry in BENCHMARK["workloads"]:
        assert entry["why"] == workloads.WHY[entry["name"]]


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metric_names_match_benchmark_json(trace, section):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fsm_wide", "--seed", "1",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "fsm_wide",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
