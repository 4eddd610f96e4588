"""Two-stage omniscience: local first, global after, same total rate.

A subset C is worth finishing first when doing so cannot raise the total
broadcast budget: H(V) - H(C) + R_CO(C) <= R_CO(V).  Such subsets show up
directly in the parametric sweep: evaluate the segmented partition at any
lower bound on R_CO(V) and every nonsingleton block there qualifies.  The
merge point of that block also hands over its local optimal rate vector
for free.

Run:  python3 demos/successive_omniscience.py
"""

from fractions import Fraction

from omnirate import (BitPoolSource, brute_min_sum_rate, decompose_rates,
                      find_complimentary, iter_parametric, lower_bound_alpha,
                      plan_from_state, run_parametric, verify_complimentary)

FIVE_USERS = ["abcdfgij", "abcfij", "efhi", "bcej", "bcdhi"]


def describe(model, plan):
    subset = "{" + ",".join(map(str, plan.local_users)) + "}"
    print(f"  subset {subset}, found after user {plan.found_at_iteration}")
    print(f"  merge point alpha_C = {plan.local_alpha}")
    print(f"  local rate vector {tuple(map(str, plan.local_rates))} "
          f"summing to R_CO({subset}) = {plan.local_min_sum_rate}")
    local_rate, _ = brute_min_sum_rate(model, plan.subset)
    assert local_rate == plan.local_min_sum_rate
    assert plan.local_alpha == (model.total_entropy - model.entropy(plan.subset)
                                + plan.local_min_sum_rate)


def main():
    model = BitPoolSource(FIVE_USERS)
    _, psp = run_parametric(model)
    bound = lower_bound_alpha(model)
    print(f"R_CO(V) = {psp.min_sum_rate}; singleton bound alpha-bar = {bound}")

    print("\nplan under the default bound:")
    plan = find_complimentary(model)
    describe(model, plan)
    assert verify_complimentary(model, plan.subset, bound)

    print("\nplan under the tighter caller-supplied bound 25/4:")
    tighter = Fraction(25, 4)
    *_, last = iter_parametric(model, tighter)
    override = plan_from_state(last, tighter)
    describe(model, override)
    assert verify_complimentary(model, override.subset, tighter)

    print("\nsplitting the optimal global rate vector around the first plan:")
    local, residual = decompose_rates(psp.rates, plan)
    print(f"  {tuple(map(str, psp.rates))} = {tuple(map(str, local))} "
          f"+ {tuple(map(str, residual))}")
    assert sum(residual) + plan.local_min_sum_rate == psp.min_sum_rate

    print("\nindependent sources never yield a plan:")
    loner = BitPoolSource(["x", "y", "z"])
    assert find_complimentary(loner) is None
    print("  three users with disjoint bits -> no complimentary subset")


if __name__ == "__main__":
    main()
