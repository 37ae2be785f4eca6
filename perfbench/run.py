"""dncap benchmark: seeded CLI workloads, oracle-checked, timed end to end.

Run from the repository root:

    python3 perfbench/run.py --workload fsm_wide --seed 1 --seconds 20 --trace 0

One process, one closed-loop client: each job is an in-process call to
``dncap.cli.main(argv)`` on spec files generated from ``--seed``.  The job
list is run at least twice and then for about ``--seconds``; times are
medians over passes, each job's time scaled to reference machine speed (see speed.py).  Outputs are checked against ``oracles.py`` after each pass,
outside the timed region.  With ``--trace 1`` passes alternate between
untraced and traced (spans around dncap's public functions, see spans.py),
and the per-layer metrics are printed instead of the end-to-end ones.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``correct`` is true when every
failed job failed the way a known, named defect makes it fail (see
``workloads.Defect``); the failures themselves are still counted.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import workloads

# Pinned to one thread in this process and in every child it starts (they
# inherit the environment), so dense linear algebra stays on one core.  Set
# in main() before anything imports numpy.
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
COMMANDS = ("enumerate", "capacity", "maxent", "sample", "verify")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "enumerate_s": "s",
    "capacity_s": "s",
    "maxent_s": "s",
    "sample_s": "s",
    "verify_s": "s",
    "symbols_per_s": "1/s",
    "ok_frac": "frac",
    "peak_rss_mb": "MB",
}

# Per-layer metrics read from the spans: "<module>.<function>.<stat>" where
# stat is calls, self_s, or a counter recorded in spans.TRACED.
SPAN_METRICS = (
    "cli.main.self_s",
    "specfile.load_system.calls",
    "specfile.load_system.self_s",
    "spectrum.spectrum_tsv.self_s",
    "maxent.level_report_tsv.self_s",
    "sampler.samples_tsv.self_s",
    "spectrum.weight_spectrum.calls",
    "spectrum.weight_spectrum.self_s",
    "spectrum.weight_spectrum.entries",
    "maxent.level_support.calls",
    "maxent.level_support.self_s",
    "maxent.solve_level_rate.calls",
    "maxent.solve_level_rate.self_s",
    "maxent.maxent_rate_estimate.calls",
    "maxent.maxent_rate_estimate.self_s",
    "maxent.maxent_rate_estimate.levels",
    "maxent.maxent_rate_estimate.truncated",
    "capacity.fsm_capacity.calls",
    "capacity.fsm_capacity.self_s",
    "capacity.fsm_capacity.iterations",
    "capacity.transition_matrix.calls",
    "solvers.bisect_decreasing.calls",
    "solvers.bisect_decreasing.self_s",
    "solvers.bisect_decreasing.evals",
    "solvers.spectral_radius_nonneg.calls",
    "solvers.spectral_radius_nonneg.self_s",
    "solvers.power_iteration.calls",
    "solvers.power_iteration.self_s",
    "solvers.power_iteration.iterations",
    "solvers.power_iteration.capped",
    "capacity.characteristic_root.self_s",
    "capacity.abscissa_estimate.self_s",
    "sampler.maxent_chain.calls",
    "sampler.maxent_chain.self_s",
    "sampler.sample_paths.calls",
    "sampler.sample_paths.self_s",
    "sampler.sample_paths.symbols",
    "sampler.sample_level_paths.calls",
    "sampler.sample_level_paths.self_s",
    "sampler.sample_level_paths.symbols",
    "verify.verify_equality.self_s",
)

# Self time of every traced function in these modules, over traced wall_s.
LAYER_SHARES = {
    "layer.capacity_solvers.share": ("capacity", "solvers"),
    "layer.spectrum_maxent.share": ("spectrum", "maxent"),
    "layer.sampler.share": ("sampler",),
}

PER_LAYER = dict(
    {name: ("s" if name.endswith("self_s") else "count") for name in SPAN_METRICS},
    **{name: "frac" for name in LAYER_SHARES},
    **{"capacity.bracket_misses": "count", "trace.overhead_frac": "frac"},
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Child mode used to time set-up: generate and write specs, then exit.
    parser.add_argument("--setup-probe", default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_dncap():
    """Import dncap from this checkout's src/, never from site-packages."""
    sys.path.insert(0, str(SRC))
    import dncap.cli

    if Path(dncap.cli.__file__).resolve().parent != (SRC / "dncap").resolve():
        raise ImportError(f"dncap imported from {dncap.cli.__file__}, not {SRC}")
    return dncap.cli


def setup_probe(args) -> int:
    import_dncap()
    specs, _ = workloads.build(args.workload, args.seed)
    workloads.write_specs(specs, Path(args.setup_probe))
    print("ready", flush=True)
    return 0


def time_setup(args, work: Path) -> list[float]:
    """Wall time from process start to first job ready, in fresh children."""
    times = []
    for i in range(SETUP_PROBES):
        argv = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", "0", "--setup-probe", str(work / f"probe{i}"),
        ]
        before = speed.edge_samples()
        start = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as child:
            try:
                line = child.stdout.readline()
                elapsed = time.perf_counter() - start
                child.wait(timeout=PROBE_TIMEOUT_S)
            except BaseException:
                child.kill()
                child.wait()
                raise
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {child.returncode}")
        times.append(elapsed * speed.scale(before + speed.edge_samples()))
    return times


def environment(seed: int) -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
        "nproc": nproc,
        "seed": seed,
        "git_commit": git_commit(),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Runner:
    """Runs job passes against dncap.cli and judges their outputs."""

    def __init__(self, cli, jobs, specs, spec_dir, tracer=None):
        import oracles  # imports numpy, so only after main() pinned BLAS threads

        self.cli = cli
        self.jobs = jobs
        self.spec_dir = spec_dir
        self.tracer = tracer
        self.oracles = oracles
        self.channels = {s.name: oracles.Channel(s.doc, s.family, s.params) for s in specs}
        self._verdicts = {}

    def run_job(self, job):
        """One closed-loop call: (speed probe, exit code, stdout, exception)."""
        out, err = io.StringIO(), io.StringIO()
        argv = job.argv(self.spec_dir)
        exc = rc = None
        with speed.SpeedProbe() as probe:
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = self.cli.main(argv)
            except Exception as error:  # a job that raises is a failed job, not a crash
                exc = error
        return probe, rc, out.getvalue(), exc

    def judge(self, index, rc, out, exc):
        """(failure or None, bracket missed) for one job's output, memoized."""
        job = self.jobs[index]
        if exc is not None:
            return f"exception: {type(exc).__name__}: {str(exc)[:200]}", False
        key = (index, rc, len(out), hash(out))
        if key not in self._verdicts:
            ch = self.channels[job.spec]
            opts = dict(job.opts)
            try:
                failure = self.oracles.CHECKS[job.command](ch, opts, rc, out)
            except (ValueError, KeyError, IndexError, TypeError) as error:
                failure = f"format: unreadable {job.command} output ({error!r})"
            missed = False
            if job.command == "capacity" and rc == 0 and failure is None:
                doc = json.loads(out.strip().splitlines()[-1])
                missed = self.oracles.bracket_missed(ch, doc)
            self._verdicts[key] = (failure, missed)
        return self._verdicts[key]

    def run_pass(self, traced: bool) -> dict:
        gc.collect()
        if traced:
            self.tracer.install()
        results = []
        try:
            for job in self.jobs:
                results.append(self.run_job(job))
        finally:
            if traced:
                self.tracer.uninstall()
        per_command = dict.fromkeys(COMMANDS, 0.0)
        failures = []
        symbols = 0
        misses = 0
        for index, (probe, rc, out, exc) in enumerate(results):
            job = self.jobs[index]
            per_command[job.command] += probe.scaled_s
            failure, missed = self.judge(index, rc, out, exc)
            misses += missed
            if failure is None:
                symbols += job.symbols
            else:
                failures.append((job, failure))
        return {
            "traced": traced,
            "wall_s": sum(r[0].scaled_s for r in results),
            "unscaled_wall_s": sum(r[0].own_s for r in results),
            # Spans include the probe's samples, so layer shares divide by this.
            "elapsed_s": sum(r[0].elapsed_s for r in results),
            "per_command": per_command,
            "symbols": symbols,
            "failures": failures,
            "bracket_misses": misses,
            "stats": dict(self.tracer.stats) if traced else None,
        }


def attributed(job, reason) -> bool:
    """Whether a failure is the known defect the job is expected to trip."""
    return job.defect is not None and reason.startswith(job.defect.kinds)


def tally(passes):
    """All failures, the unexplained ones, and a per-job summary."""
    failures = [f for p in passes for f in p["failures"]]
    unexplained = [(job, reason) for job, reason in failures if not attributed(job, reason)]
    by_job = {}
    for job, reason in failures:
        entry = by_job.setdefault(job.name, {"job": job.name, "count": 0, "reason": reason})
        entry["count"] += 1
        entry["defect"] = job.defect.name if attributed(job, reason) else None
    return failures, unexplained, by_job


def end_to_end_metrics(passes, setup_times, attempted, failed) -> dict:
    med = statistics.median
    values = {
        "setup_s": med(setup_times),
        "wall_s": med(p["wall_s"] for p in passes),
        "symbols_per_s": med(p["symbols"] / p["per_command"]["sample"] for p in passes),
        "ok_frac": (attempted - failed) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    for command in COMMANDS:
        values[f"{command}_s"] = med(p["per_command"][command] for p in passes)
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_layer_metrics(untraced, traced) -> dict:
    med = statistics.median

    def stat(p, name):
        module, func, field = name.rsplit(".", 2)
        stats = p["stats"].get(f"{module}.{func}")
        if stats is None:
            return 0
        if field == "calls":
            return stats.calls
        if field == "self_s":
            return stats.self_s
        return stats.counters.get(field) or 0

    def share(p, modules):
        busy = sum(s.self_s for key, s in p["stats"].items() if key.split(".")[0] in modules)
        return busy / p["elapsed_s"]

    values = {name: med(stat(p, name) for p in traced) for name in SPAN_METRICS}
    for name, modules in LAYER_SHARES.items():
        values[name] = med(share(p, modules) for p in traced)
    values["capacity.bracket_misses"] = med(p["bracket_misses"] for p in traced)
    values["trace.overhead_frac"] = (
        med(p["wall_s"] for p in traced) / med(p["wall_s"] for p in untraced) - 1.0
    )
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


def run(args, work: Path) -> int:
    import spans

    setup_times = [] if args.trace else time_setup(args, work)
    cli = import_dncap()
    specs, jobs = workloads.build(args.workload, args.seed)
    spec_dir = work / "specs"
    workloads.write_specs(specs, spec_dir)
    tracer = spans.Tracer() if args.trace else None
    runner = Runner(cli, jobs, specs, spec_dir, tracer)

    passes = []
    deadline = time.perf_counter() + args.seconds
    while True:
        # Traced runs alternate untraced and traced passes, starting untraced.
        start = time.perf_counter()
        passes.append(runner.run_pass(traced=bool(args.trace) and len(passes) % 2 == 1))
        took = time.perf_counter() - start
        # At least two passes; another one starts only if half of it fits.
        if len(passes) > 1 and deadline - time.perf_counter() < 0.5 * took:
            break

    attempted = len(jobs) * len(passes)
    failures, unexplained, by_job = tally(passes)
    print(json.dumps({
        "benchmark": "dncap",
        "workload": args.workload,
        "why": workloads.WHY[args.workload],
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": len(passes),
        "pass_wall_s": [p["wall_s"] for p in passes],
        "unscaled_pass_wall_s": [p["unscaled_wall_s"] for p in passes],
        "jobs": [job.name for job in jobs],
        "environment": environment(args.seed),
        "trace_absent": tracer.absent if tracer else [],
    }))
    print(json.dumps({
        "failed_frac": len(failures) / attempted,
        "failures": list(by_job.values()),
        "defects": {
            job.defect.name: job.defect.note for job in jobs if job.defect
        },
    }))
    if args.trace:
        # The first pass runs cold; leave it out of the overhead baseline
        # when a warm untraced pass exists.
        untraced = [p for p in passes if not p["traced"]]
        untraced = untraced[1:] or untraced
        traced = [p for p in passes if p["traced"]]
        metrics = per_layer_metrics(untraced, traced)
    else:
        metrics = end_to_end_metrics(passes, setup_times, attempted, len(failures))
    print(json.dumps({
        "correct": not unexplained,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


def main(argv=None) -> int:
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    args = parse_args(argv)
    if args.setup_probe:
        return setup_probe(args)
    if not (SRC / "dncap" / "__init__.py").is_file():
        print(f"error: no dncap sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


if __name__ == "__main__":
    sys.exit(main())
