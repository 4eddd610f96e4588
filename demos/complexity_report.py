"""Measure how many submodular minimizations each solver spends.

The sweep's breakpoint search is a divide-and-conquer recursion: every
probe costs one plain submodular minimization, and the number of probes
per user tracks the number of distinct minimizer-chain sets it uncovers.
A true parametric solver could share work across all probes of one user
and bring the per-user cost down to a single minimization-equivalent;
this implementation deliberately keeps plain minimizations (simple and
exactly verifiable), so the interesting quantity is measured, not
asserted: how the call count grows with the number of users, compared to
the fixed-point baseline that re-solves a full truncation per round.

Run:  python3 demos/complexity_report.py [seed]
"""

import random
import sys

import omnirate.dilworth
from omnirate import BitPoolSource, iter_parametric, mda_reference


def random_model(rng, users, bits=10):
    universe = [f"b{k}" for k in range(bits)]
    return BitPoolSource(
        [rng.sample(universe, rng.randint(1, bits)) for _ in range(users)]
    )


def baseline_calls(model):
    """Minimizations spent by the fixed-point baseline, counted by wrapping
    the `minimize` that coordinate saturation looks up; restored after."""
    real = omnirate.dilworth.minimize
    calls = 0

    def counted(oracle):
        nonlocal calls
        calls += 1
        return real(oracle)

    omnirate.dilworth.minimize = counted
    try:
        mda_reference(model)
    finally:
        omnirate.dilworth.minimize = real
    return calls


def main(seed=20240):
    rng = random.Random(seed)
    print("submodular-minimization call counts, 15 random sources per size")
    print(f"{'users':>5s} {'sweep mean':>11s} {'sweep/user':>11s} "
          f"{'probes/user':>12s} {'baseline mean':>14s} {'baseline/user':>14s}")
    for users in range(2, 8):
        sweep_calls, probe_rates, base_calls = [], [], []
        for _ in range(15):
            model = random_model(rng, users)
            # one minimization per probe, so the probe record is the count
            probes = sum(len(s.last_probes) for s in iter_parametric(model))
            sweep_calls.append(probes)
            probe_rates.append(probes / (users - 1))
            base_calls.append(baseline_calls(model))
        mean = sum(sweep_calls) / len(sweep_calls)
        base_mean = sum(base_calls) / len(base_calls)
        print(f"{users:5d} {mean:11.1f} {mean / users:11.2f} "
              f"{sum(probe_rates) / len(probe_rates):12.2f} "
              f"{base_mean:14.1f} {base_mean / users:14.2f}")
    print(
        "\nreading the table: the sweep visits each user once and spends one\n"
        "minimization per chain probe, so calls/user grows slowly with the\n"
        "breakpoint count; the baseline multiplies a full |V|-step truncation\n"
        "by however many alpha updates it needs.  With a shared parametric\n"
        "minimizer the sweep column would flatten to ~1 call-equivalent per\n"
        "user; that substitution changes constants only, never outputs."
    )


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 20240)
