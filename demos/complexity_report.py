"""Measure how many submodular minimizations each solver spends.

The sweep's breakpoint search is a divide-and-conquer recursion: every
probe costs one plain submodular minimization, and the number of probes
per user tracks the number of distinct minimizer-chain sets it uncovers.
Each probe's minimization runs only on the sublattice its parent probes
leave open, so the table also reports how many non-anchor blocks those
bracketed lattices have, and how many of the sweep's minimizations each
backend solved (brute enumeration / min cut / min-norm-point).
A true parametric solver could share work across all probes of one user
and bring the per-user cost down to a single minimization-equivalent;
this implementation deliberately keeps plain minimizations (simple and
exactly verifiable), so the interesting quantity is measured, not
asserted: how the call count grows with the number of users, compared to
the fixed-point baseline that re-solves a full truncation per round.
The successive-omniscience search (`find_complimentary`) sweeps only the
axis [0, alpha_bar], so the paper's O(|V| SFM) claim for it shows as a
flat calls-per-user column.

Run:  python3 demos/complexity_report.py [seed]
"""

import random
import sys
from collections import Counter

import omnirate.dilworth
import omnirate.par
from omnirate import (BitPoolSource, find_complimentary, iter_parametric,
                      mda_reference, sfm)

BACKENDS = {"minimize_brute": "brute", "minimize_cut": "cut", "minimize_mnp": "mnp"}


def random_model(rng, users, bits=10):
    universe = [f"b{k}" for k in range(bits)]
    return BitPoolSource(
        [rng.sample(universe, rng.randint(1, bits)) for _ in range(users)]
    )


def sfm_blocks(module, solve, model):
    """Run `solve(model)` and list the non-anchor block count of every SFM
    call it makes, counted by wrapping the `minimize` that `module` looks
    up, and count the calls each `sfm` backend gets; restored after.
    Returns the solve's result, that list and the backend counts."""
    real = module.minimize
    blocks = []
    backends = Counter()

    def counted(oracle):
        blocks.append(len(oracle.non_anchor_blocks))
        return real(oracle)

    def backend(name, fn):
        def run(oracle):
            backends[BACKENDS[name]] += 1
            return fn(oracle)
        return run

    saved = {name: getattr(sfm, name) for name in BACKENDS}
    module.minimize = counted
    for name, fn in saved.items():
        setattr(sfm, name, backend(name, fn))
    try:
        result = solve(model)
    finally:
        module.minimize = real
        for name, fn in saved.items():
            setattr(sfm, name, fn)
    return result, blocks, backends


def sweep_probes(model):
    # one minimization per probe, so the probe record is the count
    return sum(len(s.last_probes) for s in iter_parametric(model))


def so_calls_per_user(model):
    """SFM calls of `find_complimentary` per user its truncated sweep adds."""
    plan, blocks, _ = sfm_blocks(omnirate.par, find_complimentary, model)
    reached = plan.found_at_iteration if plan is not None else model.size
    return len(blocks) / (reached - 1)


def main(seed=20240):
    rng = random.Random(seed)
    print("submodular-minimization call counts, 15 random sources per size")
    print(f"{'users':>5s} {'sweep mean':>11s} {'sweep/user':>11s} "
          f"{'probes/user':>12s} {'so/user':>8s} {'blocks max/mean':>16s} "
          f"{'brute/cut/mnp':>14s} "
          f"{'baseline mean':>14s} {'baseline/user':>14s}")
    for users in (*range(2, 8), 10, 13, 16):
        sweep_calls, probe_rates, so_rates, base_calls, blocks = [], [], [], [], []
        backends = Counter()
        for _ in range(15):
            model = random_model(rng, users)
            probes, sweep_blocks, sweep_backends = sfm_blocks(
                omnirate.par, sweep_probes, model)
            sweep_calls.append(probes)
            probe_rates.append(probes / (users - 1))
            so_rates.append(so_calls_per_user(model))
            blocks.extend(sweep_blocks)
            backends += sweep_backends
            base_calls.append(len(sfm_blocks(omnirate.dilworth, mda_reference, model)[1]))
        mean = sum(sweep_calls) / len(sweep_calls)
        base_mean = sum(base_calls) / len(base_calls)
        block_stats = f"{max(blocks)} / {sum(blocks) / len(blocks):.2f}"
        backend_stats = "/".join(str(backends[b]) for b in BACKENDS.values())
        print(f"{users:5d} {mean:11.1f} {mean / users:11.2f} "
              f"{sum(probe_rates) / len(probe_rates):12.2f} "
              f"{sum(so_rates) / len(so_rates):8.2f} {block_stats:>16s} "
              f"{backend_stats:>14s} "
              f"{base_mean:14.1f} {base_mean / users:14.2f}")
    print(
        "\nreading the table: the sweep visits each user once and spends one\n"
        "minimization per chain probe, so calls/user grows slowly with the\n"
        "breakpoint count; 'so/user' is the same count for the successive-\n"
        "omniscience search, per user its sweep on [0, alpha_bar] adds (one\n"
        "minimization at alpha_bar, plus the chain search below it once a\n"
        "block forms); 'blocks' is the largest and the mean number of\n"
        "non-anchor blocks a sweep minimization sees on its bracketed\n"
        "lattice, and 'brute/cut/mnp' the sweep calls each backend solved\n"
        f"over the 15 sources (bit pools go to the min cut above {sfm.CUT_CROSSOVER}\n"
        "blocks).  The baseline multiplies a full |V|-step truncation\n"
        "by however many alpha updates it needs.  With a shared parametric\n"
        "minimizer the sweep column would flatten to ~1 call-equivalent per\n"
        "user; that substitution changes constants only, never outputs."
    )


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 20240)
