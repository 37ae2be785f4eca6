"""Generating functions up close: convergence, divergence, and density.

The capacity of a channel is the abscissa of convergence of its generating
function sum N(w_k) e^{-w_k s}.  Partial sums make that visible: above the
abscissa they settle, below it they blow up.  The whole story needs the
weight sequence to stay polynomially dense; a channel with exponentially
many distinct weights per unit interval breaks the count-based capacity
definition, and the density check flags it.
"""

import math
from fractions import Fraction

import dncap as d


def main():
    system = d.make_memoryless(d.symbols({"0": 1, "1": 1}))
    spectrum = d.weight_spectrum(system, 30)
    capacity = math.log(2)

    print("partial sums of the generating function, binary channel:")
    print(f"{'truncation':>10} {'s = ln2 + 0.1':>16} {'s = ln2 - 0.1':>16}")
    for w in (5, 10, 20, 30):
        truncated = d.weight_spectrum(system, w)
        above = d.gf_eval(truncated, capacity + 0.1)
        below = d.gf_eval(truncated, capacity - 0.1)
        print(f"{w:>10} {above:>16.6f} {below:>16.2f}")
    print("  (left column converges, right column is off to infinity)")

    print()
    print("the same series at a complex point keeps the real-part behavior:")
    z = d.gf_eval(spectrum, complex(capacity + 0.1, 2.0))
    print(f"  Phi(ln2 + 0.1 + 2i) ~ {z:.6f}")

    print()
    print("a rationally weighted alphabet stays on an exact grid:")
    grid = d.make_memoryless(d.symbols({"0": "1/3", "1": "1/2"}))
    gspec = d.weight_spectrum(grid, 20)
    print(f"  first weights: {[str(w) for w in gspec.weights[:6]]}")
    report = d.density_check(gspec)
    passes = all(k <= 6 * n for n, k in zip(report.checkpoints, report.k_of_n))
    print(f"  density bound 6 n^1: passes = {passes} "
          f"(at most 6 new weights per unit interval)")

    print()
    print("an exponentially dense weight set defeats count-based capacity:")
    entries = []
    cumulative = 0
    for n in range(1, 26):
        target = math.ceil(1.5 ** n)
        fresh = target - cumulative
        for j in range(1, fresh + 1):
            entries.append((Fraction(n - 1) + Fraction(j, fresh + 1), 1))
        cumulative = target
    dense = d.WeightSpectrum(entries=tuple(entries), w_max=Fraction(25))
    report = d.density_check(dense)
    print(f"  every count is 1, yet {len(dense)} distinct weights below 25")
    print(f"  fitted growth exponent {report.fitted_K:.1f} -> passes = "
          f"{report.passes}")
    empirical = d.empirical_capacity(dense)
    print(f"  count-based capacity would claim {empirical.value:.3f} nats,")
    print("  which is why the abscissa estimator refuses such spectra:")
    try:
        d.abscissa_estimate(dense)
    except d.EstimatorError as exc:
        print(f"    EstimatorError: {exc}")


if __name__ == "__main__":
    main()
