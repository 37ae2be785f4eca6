"""Two binary channels, solved three ways.

The unconstrained binary channel with unit weights has capacity ln 2; give
the symbol "1" weight 2 instead and the capacity drops to the log of the
golden ratio.  This script reproduces both numbers from raw counts, from the
characteristic equation, and from the per-level entropy optima, and prints
the maxentropic symbol distribution of the weighted channel.
"""

import math

import dncap as d


def show(title, estimate):
    print(f"  {title:<28} {estimate.value:.12f}  (method={estimate.method})")


def main():
    print("=== equal weights: labels 0 and 1, both weight 1 ===")
    equal_alphabet = d.symbols({"0": 1, "1": 1})
    equal = d.make_memoryless(equal_alphabet)
    spectrum = d.weight_spectrum(equal, 30)
    print("  counts at weight 1..6:", spectrum.counts[:6])
    empirical = d.empirical_capacity(spectrum)
    show("empirical (counts)", empirical)
    show("characteristic root", d.characteristic_root(equal_alphabet))
    cprob, _ = d.maxent_rate_estimate(equal, 10)
    show("max entropy rate", cprob)
    print(f"  ln 2                       {math.log(2):.12f}")

    print()
    print("=== unequal weights: 0 costs 1, 1 costs 2 ===")
    unequal_alphabet = d.symbols({"0": 1, "1": 2})
    unequal = d.make_memoryless(unequal_alphabet)
    spectrum = d.weight_spectrum(unequal, 30)
    print("  counts at weight 1..8:", spectrum.counts[:8], "(Fibonacci)")
    empirical = d.empirical_capacity(spectrum)
    show("empirical (counts)", empirical)
    root = d.characteristic_root(unequal_alphabet)
    show("characteristic root", root)
    cprob, _ = d.maxent_rate_estimate(unequal, 10)
    show("max entropy rate", cprob)
    golden = (1 + math.sqrt(5)) / 2
    print(f"  ln((1+sqrt 5)/2)           {math.log(golden):.12f}")

    print()
    print("the capacity-achieving symbol distribution is golden-ratio tilted:")
    rate = d.solve_level_rate(unequal, 1).rate
    pmf = d.maxent_pmf(unequal, 1)
    for (label,), prob in sorted(pmf.probs.items()):
        print(f"  P({label}) = {prob:.6f}")
    entropy, avg = d.entropy_and_avg_weight(pmf)
    print(f"  entropy {entropy:.6f} nats / average weight {avg:.6f}"
          f" = {entropy / avg:.12f}")

    print()
    print("a fair coin is strictly worse on this channel:")
    fair = d.LevelPmf(
        level=1,
        probs={("0",): 0.5, ("1",): 0.5},
        weights=pmf.weights,
    )
    gap, fair_rate = d.kl_gap(fair, unequal)
    print(f"  rate {fair_rate:.6f} vs optimum {rate:.6f}"
          f"  (KL gap {gap:.6f} nats)")


if __name__ == "__main__":
    main()
