"""Walk through the parametric sweep on the five-user demo source.

The sweep processes users one at a time while tracking, for *every*
sum-rate estimate alpha in [0, H(V)] simultaneously, the finest partition
minimizing the truncated cost and a rate vector in its base polyhedron.
This script prints the segmented tables after each user, then reads the
minimum sum-rate solution off the final state and cross-checks it against
the fixed-alpha solver and the brute-force enumerator.

Run:  python3 demos/psp_sweep.py
"""

from fractions import Fraction

from omnirate import (BitPoolSource, brute_min_sum_rate,
                      coordinate_saturation, extract_psp, iter_parametric)

FIVE_USERS = ["abcdfgij", "abcfij", "efhi", "bcej", "bcdhi"]


def show_state(state, minimizations):
    print(f"\n--- after user {state.carrier_size} "
          f"(submodular minimizations so far: {minimizations}) ---")
    # every end of a user's rate function; the partition table's are among them
    for k, (lower, upper, rates) in enumerate(state.rate_view):
        span = f"{'(' if k else '['}{lower}, {upper}]"
        rates = ", ".join(map(str, rates))
        print(f"  {span:12s} {str(state.partition_at(upper)):28s} ({rates})")
    if state.last_chain is not None:
        sets = "  ".join("{" + ",".join(map(str, sorted(s))) + "}"
                         for s in state.last_chain.sets)
        alphas = ", ".join(str(a) for a in state.last_chain.alphas)
        print(f"  minimizer chain: {sets}   switching at alpha = {alphas}")
        print(f"  probes tried: {list(map(str, state.last_probes))}")


def main():
    model = BitPoolSource(FIVE_USERS)
    print(f"{model.size} users over bits {''.join(model.bit_names)}; "
          f"H(V) = {model.total_entropy}")

    final = None
    minimizations = 0
    for state in iter_parametric(model):
        minimizations += len(state.last_probes)  # one per recorded probe; forced probes run none
        show_state(state, minimizations)
        if state.carrier_size >= 2:
            local = extract_psp(state)
            print(f"  prefix solution: R_CO(V_{state.carrier_size}) = "
                  f"{local.min_sum_rate}, rates {tuple(map(str, local.rates))}")
        final = state

    psp = extract_psp(final)
    print("\n=== solution for the full ground set ===")
    print(f"critical points: {', '.join(map(str, psp.critical_points))}")
    print(f"minimum sum-rate R_CO(V) = {psp.min_sum_rate}")
    print(f"finest maximizer: {psp.finest_maximizer}")
    print(f"optimal rate vector: ({', '.join(map(str, psp.rates))})")

    # Sanity: the swept state replays fixed-alpha runs exactly.
    for alpha in (Fraction(3), Fraction(23, 4), psp.min_sum_rate):
        fixed = coordinate_saturation(model, alpha)
        assert final.partition_at(alpha) == fixed.partition
        assert final.rates_at(alpha) == fixed.rates
        print(f"fixed-alpha check at alpha={alpha}: partition {fixed.partition}, ok")

    value, finest = brute_min_sum_rate(model)
    assert (value, finest) == (psp.min_sum_rate, psp.finest_maximizer)
    print(f"brute-force enumeration agrees: R_CO = {value}")


if __name__ == "__main__":
    main()
