"""Successive omniscience: pick a subset that can reach omniscience first.

A nonsingleton proper subset C is *complimentary* when letting its members
reach local omniscience first does not increase the eventual global sum
rate, which happens exactly when H(V) - H(C) + R(C) <= R(V) (R denotes the
minimum sum-rate of a carrier).  Equivalently, f_alpha(C) equals the
Dilworth truncation of C at any alpha <= R(V).

The search rides the parametric sweep: evaluate the segmented partition at
the singleton lower bound alpha_bar <= R(V) (`lower_bound_alpha`) and any
nonsingleton block found there is complimentary.  The block's own solution
comes for free: the alpha where its sub-blocks finish merging in the
segmented partition equals H(V) - H(C) + R(C), and the stored rate vector
evaluated there, restricted to C, attains local omniscience in C at sum
rate R(C).

Both the block and its merge point lie at or below alpha_bar, so the sweep
runs on the truncated axis [0, alpha_bar] only (see `par`): per user one
minimization at alpha_bar finds the chain top, and the chain search below
it runs only when that top is more than the new user.  A user whose top is
its own singleton costs that one probe and one table map, and the search
skips reading a plan off that state: no block can have formed at
alpha_bar.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .dilworth import AlphaFunction, dilworth_truncation
from .errors import DecompositionError, DomainError, InternalError
from .model import SourceModel, as_rational, mask_users, value_str
from .par import ParState, iter_parametric


@dataclass(frozen=True)
class SOPlan:
    """A complimentary subset plus the rate vector for its local omniscience.

    `local_users` lists C ascending and `local_rates` is the parallel rate
    vector summing to `local_min_sum_rate` (= R(C)); `local_alpha` is the
    merge point H(V) - H(C) + R(C).
    """

    subset: frozenset[int]
    local_alpha: Fraction
    local_users: tuple[int, ...]
    local_rates: tuple[Fraction, ...]
    local_min_sum_rate: Fraction
    found_at_iteration: int
    ground_size: int


def lower_bound_alpha(model: SourceModel) -> Fraction:
    """(|V| H(V) - sum_i H({i})) / (|V| - 1): a guaranteed lower bound on R(V).

    This is the all-singletons evaluation of the partition form of the
    minimum sum-rate problem, hence never exceeds the maximum; it is tight
    for |V| = 2 where no other multi-block partition exists.
    """
    n = model.size
    singles = sum(map(model.entropy_int, (1 << k for k in range(n))))
    return Fraction(n * model.total_int - singles, (n - 1) * model.scale)


def plan_from_state(state: ParState, alpha_bar: Fraction) -> SOPlan | None:
    """The plan read off one sweep state at alpha_bar; None if none shows up.

    The first nonsingleton block of the segmented partition at alpha_bar is
    the complimentary subset (when alpha_bar is at most the minimum
    sum-rate; past it the block can be the whole ground set, which raises
    DomainError).  Its rate vector is the stored one at the alpha where its
    sub-blocks finish merging: the lower end of the first segment of the
    partition table that holds it.  For a bound other than
    `lower_bound_alpha`, read the last state of `iter_parametric(model,
    alpha_bar)`.
    """
    partition = state.partition_at(alpha_bar)
    block = next((b for b in partition.masks if b & (b - 1)), None)
    if block is None:
        return None
    merge_alpha = next((lower for lower, _, p in state.table if block in p.masks), None)
    if merge_alpha is None:
        raise InternalError("block found at alpha_bar but absent from the table")
    model = state.model
    if block.bit_count() == model.size:  # the ground set merges at R_CO
        raise DomainError(f"alpha_bar {value_str(alpha_bar)} is past R_CO = "
                          f"{value_str(merge_alpha)}: the ground set is not complimentary")
    users = tuple(sorted(mask_users(block)))
    rates = tuple(state.rate_of(u, merge_alpha) for u in users)
    local_sum = sum(rates, Fraction(0))
    expected = Fraction(model.total_int - model.entropy_int(block), model.scale) + local_sum
    if merge_alpha != expected:
        raise InternalError(
            f"merge point {merge_alpha} disagrees with H(V) - H(C) + R(C) = {expected}"
        )
    return SOPlan(frozenset(users), merge_alpha, users, rates, local_sum,
                  state.carrier_size, model.size)


def find_complimentary(model: SourceModel) -> SOPlan | None:
    """Search the sweep for a complimentary subset; None if none shows up.

    The sweep runs at alpha_bar = `lower_bound_alpha(model)` and stops at
    the first iteration whose segmented partition has a nonsingleton block
    there (earliest possible plan).
    """
    alpha_bar = lower_bound_alpha(model)
    for state in iter_parametric(model, alpha_bar):
        if state.carrier_size == 1 or state.last_chain.masks[-1].bit_count() == 1:
            continue  # the new user is alone at alpha_bar: no block has formed
        plan = plan_from_state(state, alpha_bar)
        if plan is not None:
            return plan
    return None


def verify_complimentary(model: SourceModel, subset, alpha) -> bool:
    """True iff f_alpha(C) equals the Dilworth truncation of C at alpha.

    For alpha at most the minimum sum-rate this certifies that C is
    complimentary.  C must be a nonsingleton proper subset of the ground
    set.
    """
    subset = frozenset(subset)
    if len(subset) < 2:
        raise DomainError("a complimentary subset must have at least 2 users")
    if subset == model.ground_set:
        raise DomainError("a complimentary subset must be a proper subset")
    alpha = as_rational(alpha)
    direct = AlphaFunction(model, alpha)(subset)
    return direct == dilworth_truncation(model, alpha, subset)


def decompose_rates(global_rates, plan: SOPlan):
    """Split a global omniscience rate vector into local-first + remainder.

    Returns (local, residual) where `local` is the plan's rate vector
    zero-extended to the ground set and residual = global - local.  The
    residual is not guaranteed nonnegative for an arbitrary optimal global
    vector; a negative coordinate means this particular global vector
    cannot follow the plan, reported as DecompositionError.
    """
    global_rates = tuple(as_rational(r) for r in global_rates)
    if len(global_rates) != plan.ground_size:
        raise DomainError(
            f"global rate vector of length {len(global_rates)} does not cover "
            f"the ground set of size {plan.ground_size}"
        )
    local = [Fraction(0)] * plan.ground_size
    for u, r in zip(plan.local_users, plan.local_rates):
        local[u - 1] = r
    residual = tuple(g - l for g, l in zip(global_rates, local))
    if any(r < 0 for r in residual):
        raise DecompositionError(
            "global rate vector is incompatible with the plan: residual has a "
            "negative coordinate"
        )
    return tuple(local), residual
