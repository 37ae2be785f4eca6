"""Survey: combinatorial capacity vs maximum entropy rate, side by side.

The two quantities are defined by different limits (count growth vs optimal
entropy per weight) and computed here by different pipelines, yet they agree
on every channel in the cabinet, regular or not.  Tolerances reflect the
estimator resolution: exact-root methods agree to solver precision, while
trajectory-based sides close in like ln(depth)/depth.
"""

import dncap as d


CHANNELS = [
    ("binary, equal weights", d.make_memoryless(d.symbols({"0": 1, "1": 1})),
     30, 12, 1e-9),
    ("binary, weights 1 and 2", d.make_memoryless(d.symbols({"0": 1, "1": 2})),
     30, 12, 1e-9),
    ("rational weights 1/3, 1/2",
     d.make_memoryless(d.symbols({"0": "1/3", "1": "1/2"})), 20, 12, 1e-9),
    ("golden mean (no 11)", d.fsm_to_branch_system(d.make_golden_mean()),
     30, 30, 0.02),
    ("rll(1,3)", d.fsm_to_branch_system(d.make_rll(1, 3)),
     40, 30, 0.02),
    ("balanced prefix (non-regular)", d.make_dyck_prefix(), 40, 40, 0.06),
]


def main():
    header = (f"{'channel':<30} {'C_comb':>12} {'C_prob':>12} "
              f"{'|diff|':>10} {'tol':>8} verdict")
    print(header)
    print("-" * len(header))
    for name, system, w_max, l_max, tol in CHANNELS:
        report = d.verify_equality(system, w_max, l_max, tol=tol)
        print(f"{name:<30} {report.c_comb.value:>12.8f} "
              f"{report.c_prob.value:>12.8f} {report.difference:>10.2e} "
              f"{tol:>8.0e} {report.verdict}")
    print()
    print("C_comb methods: characteristic root (memoryless), spectral radius")
    print("(FSM), abscissa of convergence (generator); C_prob is always the")
    print("trailing maximum of the per-level entropy optima.")


if __name__ == "__main__":
    main()
