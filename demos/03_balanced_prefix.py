"""A non-regular channel: balanced-prefix parenthesis strings.

No finite-state machine accepts exactly the strings whose every prefix has
nonnegative parenthesis balance, so there is no spectral-radius shortcut.
The capacity still comes out of the generating function: the counts are the
central binomial coefficients, the growth rate climbs toward ln 2, and the
per-level entropy optima climb along the very same trajectory.
"""

import math

import dncap as d
from dncap.capacity import PROBE_DELTA


def main():
    system = d.make_dyck_prefix()
    print("counts by length (central binomials):")
    spectrum = d.weight_spectrum(system, 40)
    print(" ", spectrum.counts[:10], "...")
    assert spectrum.counts[11] == math.comb(12, 6) == 924

    estimate = d.abscissa_estimate(spectrum).value
    print(f"abscissa estimate from counts to 40: {estimate:.9f}")
    print(f"  series at estimate + {PROBE_DELTA}: settles near "
          f"{d.gf_eval(spectrum, estimate + PROBE_DELTA):.4f}")
    print(f"  series at estimate - {PROBE_DELTA}: already at "
          f"{d.gf_eval(spectrum, estimate - PROBE_DELTA):.4g} and climbing")
    print(f"  ln 2 = {math.log(2):.9f} (the true limit; the gap closes "
          f"like ln(w)/w)")

    print()
    print("per-level entropy optima (same numbers, other pipeline):")
    _, levels = d.maxent_rate_estimate(system, 40)
    for sol in levels[::8]:
        print(f"  depth {sol.level:>2}: support {sol.support_size:>14,}  "
              f"rate {sol.rate:.9f}")
    print(f"  depth 40 closed form ln C(40,20)/40 = "
          f"{math.log(math.comb(40, 20)) / 40:.9f}")

    print()
    report = d.verify_equality(system, 40, 40, tol=0.06)
    print(f"equality harness at depth 40: {report.verdict} "
          f"(|difference| = {report.difference:.2e})")
    print(f"  epsilon probes: below-capacity a.e. {report.ae_pass}, "
          f"near-capacity i.o. {report.io_pass}")

    print()
    print("exact sampling from the depth-12 optimum (no stationary chain")
    print("exists for this channel; branch probabilities follow subtree sums):")
    samples = d.sample_level_paths(system, 12, count=5, seed=4)
    for path in samples.paths:
        print(f"  {''.join(path.labels)}   log-probability {path.log_prob:.4f}")


if __name__ == "__main__":
    main()
