"""Trace the piecewise-linear truncation for every prefix of users.

For a fixed partition P the cost sum_{C in P} (alpha - H(V) + H(C)) is a
line in alpha with slope |P|; the truncation is the lower envelope of all
those lines, so it is piecewise linear, strictly increasing, and its
breakpoints are exactly where the minimizing partition coarsens.  This
script prints each prefix's segments (the same data `omnirate
truncation-csv` emits) and evaluates the segment ends, reproducing the
labelled turning points of the envelope plots.

Run:  python3 demos/truncation_breakpoints.py
"""

from omnirate import BitPoolSource, iter_parametric, partition_entropy

FIVE_USERS = ["abcdfgij", "abcfij", "efhi", "bcej", "bcdhi"]


def main():
    model = BitPoolSource(FIVE_USERS)
    total = model.total_entropy
    for state in iter_parametric(model):
        i = state.carrier_size
        print(f"\ntruncation over users 1..{i}")
        print(f"  {'segment':14s} {'slope':>5s} {'intercept':>9s}   value at ends")
        previous_end = None
        for k, (lower, upper, part) in enumerate(state.table):
            slope = len(part)
            intercept = partition_entropy(model, part) - slope * total
            lo_val = slope * lower + intercept
            hi_val = slope * upper + intercept
            span = f"{'(' if k else '['}{lower}, {upper}]"
            print(f"  {span:14s} {slope:5d} {str(intercept):>9s}   "
                  f"({lower}, {lo_val}) -> ({upper}, {hi_val})"
                  f"   {part}")
            if previous_end is not None:
                assert lo_val == previous_end, "envelope must be continuous"
            previous_end = hi_val
        # at alpha = H(V) the cheapest partition costs exactly H(prefix)
        assert previous_end == model.entropy(state.users)


if __name__ == "__main__":
    main()
