"""Run-length-limited channels: spectral capacity and maxentropic sampling.

Storage-style constraints live on finite-state machines.  The golden-mean
machine forbids "11"; the (d, k) machines bound every run of zeros.  Their
capacity is the s at which the spectral radius of the weighted transition
matrix crosses one, and the capacity-achieving source is an explicit Markov
chain obtained by tilting each transition with the Perron eigenvector.
"""

import math

import dncap as d


def main():
    print("=== golden mean: binary, no two ones in a row ===")
    fsm = d.make_golden_mean()
    system = d.fsm_to_branch_system(fsm)
    print("  path counts by length:", d.weight_spectrum(system, 10).counts)
    capacity = d.fsm_capacity(fsm)
    print(f"  spectral-radius capacity: {capacity.value:.12f}")
    print(f"  ln(golden ratio):         {math.log((1 + 5 ** 0.5) / 2):.12f}")
    print(f"  solver bracket width:     {capacity.bracket[1] - capacity.bracket[0]:.2e}")

    chain = d.maxent_chain(fsm)
    print("  maxent chain at the unconstrained state:")
    # one probability per transition; state 0's, in its outgoing order
    start_probs = chain.probs[fsm.edges[0] == 0].tolist()
    for (sym, dst), prob in zip(fsm.outgoing[0], start_probs):
        print(f"    emit {sym.label} -> state {dst}   p = {prob:.6f}")
    stationary = tuple(round(p, 6) for p in chain.stationary.tolist())
    print(f"  stationary distribution: {stationary}")
    print(f"  analytic entropy rate:   {chain.analytic_entropy_rate():.12f}")

    samples = d.sample_paths(chain, count=2000, steps=200, seed=1)
    print(f"  sampled 2000 x 200 steps: empirical rate "
          f"{d.empirical_entropy_rate(samples):.6f}")
    assert all(fsm.accepts(p.labels) for p in samples.paths)
    print("  every sampled sequence re-validated against the machine")

    print()
    print("=== (d, k) run-length machines ===")
    for dd, kk in ((0, 1), (1, 2), (1, 3), (2, 7)):
        cap = d.fsm_capacity(d.make_rll(dd, kk))
        print(f"  rll({dd},{kk}): {cap.value:.9f} nats "
              f"= {cap.value / math.log(2):.6f} bits/symbol")
    print("  (capacity grows with k and shrinks with d, as it must)")

    print()
    print("=== the two routes agree ===")
    for dd, kk in ((1, 2), (1, 3)):
        fsm = d.make_rll(dd, kk)
        spectral = d.fsm_capacity(fsm)
        empirical = d.empirical_capacity(
            d.weight_spectrum(d.fsm_to_branch_system(fsm), 60)
        )
        print(f"  rll({dd},{kk}): spectral {spectral.value:.6f} vs "
              f"counts-to-60 {empirical.value:.6f}")


if __name__ == "__main__":
    main()
