"""Command-line front end: enumerate, capacity, maxent, sample, verify.

Exit codes are a stable contract: 0 success (or verify PASS), 1 parse or
validation failure or output that cannot be written, 2 verify FAIL, 3 verify
INCONCLUSIVE, or a run stopped by the work or sample budget, by an
estimator's contradiction, by running out of memory or by a weight or path
weight past the float range.  All numeric output is locale-independent with
17 significant digits.
"""

import argparse
import functools
import json
import os
import sys

from .capacity import combinatorial_capacity
from .errors import BudgetExceededError, EstimatorError
from .maxent import level_report_tsv, maxent_rate_estimate
from .sampler import maxent_chain, sample_level_paths, sample_paths, samples_tsv
from .specfile import load_system
from .spectrum import density_check, empirical_capacity, spectrum_tsv, weight_spectrum
from .verify import FAIL, INCONCLUSIVE, PASS, verify_equality


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the CLI reserves 2 for
    # verify FAIL, so route usage problems through the normal error path.
    def error(self, message):
        raise ValueError(message)


_STDOUT_SLICE = 1 << 16  # characters a write takes; one large write misses a closed pipe


def _write_out(text: str, out: str | None):
    if out in (None, "-"):
        for start in range(0, len(text), _STDOUT_SLICE):
            sys.stdout.write(text[start:start + _STDOUT_SLICE])
    else:
        try:
            with open(out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {out}: {exc.strerror or exc}") from None


def _cmd_enumerate(args) -> int:
    system, _ = load_system(args.spec)
    spectrum = weight_spectrum(system, args.wmax)
    # both summaries can fail; compute them before writing anything
    estimate = empirical_capacity(spectrum)
    report = density_check(spectrum)
    _write_out(spectrum_tsv(spectrum), args.out)
    print(f"# empirical capacity: {estimate.value:.17g} nats/weight")
    print(
        "# density: fitted_K={:.17g} fitted_L={:.17g} passes={}".format(
            report.fitted_K, report.fitted_L, report.passes
        )
    )
    return 0


def _cmd_capacity(args) -> int:
    system, _ = load_system(args.spec)
    estimate = combinatorial_capacity(system, args.wmax, args.method)
    print(json.dumps(estimate.to_json_dict()))
    return 0


def _cmd_maxent(args) -> int:
    system, _ = load_system(args.spec)
    estimate, levels = maxent_rate_estimate(system, args.lmax)
    _write_out(level_report_tsv(levels), args.out)
    doc = estimate.to_json_dict()
    doc["estimator"] = "maxent_level_rates"
    doc["levels_computed"] = len(levels)
    print("# " + json.dumps(doc))
    return 0


def _cmd_sample(args) -> int:
    system, _ = load_system(args.spec)
    if system.fsm is None:
        samples = sample_level_paths(system, args.steps, args.count, args.seed)
    else:
        chain = maxent_chain(system.fsm)
        samples = sample_paths(chain, args.count, args.steps, args.seed)
    _write_out(samples_tsv(samples), args.out)
    return 0


def _cmd_verify(args) -> int:
    system, echo = load_system(args.spec)
    report = verify_equality(system, args.wmax, args.lmax, args.tol)
    print(json.dumps({"system": echo, **report.to_json_dict()}))
    return {PASS: 0, FAIL: 2, INCONCLUSIVE: 3}[report.verdict]


def build_parser() -> argparse.ArgumentParser:
    """A new parser; ``main`` builds one at its first call and keeps it."""
    parser = _Parser(
        prog="dncap",
        description="capacity and maxentropic sources for constrained channels",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="weight spectrum TSV plus summary")
    p.add_argument("spec", help="system spec JSON file")
    p.add_argument("--wmax", required=True, help="weight bound (rational)")
    p.add_argument("--out", default=None, help="TSV output path (default stdout)")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("capacity", help="capacity estimate as JSON")
    p.add_argument("spec")
    p.add_argument("--method", choices=("auto", "abscissa"), default="auto")
    p.add_argument("--wmax", default="40", help="spectrum bound for abscissa")
    p.set_defaults(func=_cmd_capacity)

    p = sub.add_parser("maxent", help="per-level rate table plus estimate")
    p.add_argument("spec")
    p.add_argument("--lmax", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_maxent)

    p = sub.add_parser("sample", help="draw maxentropic sample paths")
    p.add_argument("spec")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("verify", help="capacity equality verdict as JSON")
    p.add_argument("spec")
    p.add_argument("--wmax", default="40")
    p.add_argument("--lmax", type=int, default=40)
    p.add_argument("--tol", type=float, default=1e-6)
    p.set_defaults(func=_cmd_verify)
    return parser


# Parsing leaves a parser as it was, so one per process serves every call.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        code = args.func(args)
        if sys.stdout is not None:  # a full disk shows at the flush
            sys.stdout.flush()
        return code
    except OSError as exc:  # stdout closed early, as by `| head`, or unwritable
        if not isinstance(exc, BrokenPipeError):
            print(f"error: cannot write stdout: {exc.strerror or exc}", file=sys.stderr)
        try:  # point it at devnull, so the flush at exit has nothing to report
            stdout = sys.stdout.fileno()
        except (AttributeError, OSError, ValueError):  # no descriptor
            return 1
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stdout)
        os.close(devnull)
        return 1
    except ValueError as exc:  # usage, SpecFileError, InvalidSystemError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (BudgetExceededError, EstimatorError, MemoryError, OverflowError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
