"""Parametric sweep: the whole alpha axis in one pass per user.

Instead of running coordinate saturation at a single alpha, the sweep keeps
the partition and the rate vector as segmented functions of alpha on
[0, H(V)] and extends them one user at a time.  The state after user i is
exact for every alpha simultaneously: its partition at alpha equals the
finest Dilworth minimizer over the first i users and its rate vector lies
in the corresponding base polyhedron.

Per added user i the minimal minimizer of the fusion function is itself a
segmented quantity: a nested chain of user sets

    {i} = S_q < ... < S_1 < S_0 = V_i

switching at critical points a_q < ... < a_1 < a_0 = H(V), with S_q active
on [0, a_q] and S_j on (a_{j+1}, a_j].  The chain sets are found by a
divide-and-conquer search (`strong_map_chain`) that probes the crossing
alpha of two partition cost lines and recurses on both sides; each probe
issues one plain submodular minimization.  The critical points then solve
the per-chain-pair affine equations r_alpha(S_{j-1} \\ S_j) =
H(S_{j-1}) - H(S_j), whose left side is piecewise affine and strictly
increasing where the equation is relevant (`solve_chain_breakpoints`).

The final segmented partition is the principal sequence of partitions of
the ground set; its second-from-top breakpoint is the minimum sum-rate and
the rate vector evaluated there is an optimal rate vector.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

from .dilworth import coordinate_saturation
from .errors import DomainError, InternalError
from .model import SourceModel, as_rational, partition_entropy
from .partition import AffineValue, AlphaInterval, Partition, Segmented, split_pieces
from .sfm import FusionOracle, minimize


@dataclass(frozen=True)
class StateSlice:
    """Partition plus affine rate vector valid on one alpha segment."""

    partition: Partition
    rates: tuple[AffineValue, ...]


@dataclass(frozen=True)
class Probe:
    """One divide-and-conquer probe: the alpha tried and its bracketing pair."""

    alpha: Fraction
    p_down: Partition
    p_up: Partition


@dataclass(frozen=True)
class MinimizerChain:
    """Nested minimal-minimizer sets with their critical points.

    sets[0] = {i} is active on [0, alphas[0]] and sets[m] on
    (alphas[m-1], alphas[m]]; alphas[-1] = H(V) and sets[-1] = V_i.
    Adjacent equal alphas denote an empty segment (the set is never the
    minimizer below H(V)).
    """

    sets: tuple[frozenset[int], ...]
    alphas: tuple[Fraction, ...]


@dataclass(frozen=True)
class ParState:
    """Segmented sweep state for the prefix carrier 1..carrier_size.

    `table` maps alpha segments to StateSlice values; `last_chain` and
    `last_probes` document the iteration that produced this state (None and
    () for the base state).  Each probe issued exactly one submodular
    minimization, so the sweep's SFM count is the sum of len(last_probes).
    """

    model: SourceModel
    carrier_size: int
    table: Segmented
    last_chain: MinimizerChain | None = field(default=None, compare=False)
    last_probes: tuple[Probe, ...] = field(default=(), compare=False)

    @property
    def users(self) -> tuple[int, ...]:
        return tuple(range(1, self.carrier_size + 1))

    def partition_at(self, alpha) -> Partition:
        return self.table.value_at(alpha).partition

    def rates_at(self, alpha) -> tuple[Fraction, ...]:
        alpha = as_rational(alpha)
        return tuple(r.at(alpha) for r in self.table.value_at(alpha).rates)

    @property
    def partition_view(self) -> Segmented:
        """Segmented partition only; adjacent equal partitions merged."""
        return self.table.map(lambda s: s.partition)

    @property
    def rate_view(self) -> Segmented:
        """Segmented affine rate vector only; adjacent equal vectors merged."""
        return self.table.map(lambda s: s.rates)


@dataclass(frozen=True)
class PSPResult:
    """Principal sequence of partitions with the sum-rate solution it carries.

    `critical_points[m]` is the upper endpoint of the segment on which
    `partitions[m]` is the finest minimizer; the last critical point is the
    total entropy of the carrier.  `min_sum_rate` equals the second-largest
    critical point whenever the chain ends at the one-block partition, and
    degenerates to the total entropy when it does not (sources that split
    into independent groups).
    """

    users: tuple[int, ...]
    critical_points: tuple[Fraction, ...]
    partitions: tuple[Partition, ...]
    min_sum_rate: Fraction
    finest_maximizer: Partition
    rates: tuple[Fraction, ...]


def initial_state(model: SourceModel) -> ParState:
    """Sweep state after user 1: one block, r_1 = alpha - H(V) + H({1})."""
    top = model.total_entropy
    rate = AffineValue(model.entropy({1}) - top, Fraction(1))
    slice_ = StateSlice(Partition([{1}]), (rate,))
    return ParState(model, 1, Segmented.constant(top, slice_))


def _extended_table(state: ParState, user: int) -> Segmented:
    """State table with block {user} appended and its rate at alpha - H(V)."""
    fresh = AffineValue(-state.model.total_entropy, Fraction(1))

    def extend(slice_: StateSlice) -> StateSlice:
        return StateSlice(
            Partition(slice_.partition.blocks + (frozenset({user}),)),
            slice_.rates + (fresh,),
        )

    return state.table.map(extend)


def _oracle_at(model: SourceModel, table: Segmented, users, anchor_user: int,
               alpha: Fraction) -> FusionOracle:
    slice_ = table.value_at(alpha)
    rates = {u: r.at(alpha) for u, r in zip(users, slice_.rates)}
    return FusionOracle(model, alpha, slice_.partition.blocks,
                        frozenset({anchor_user}), rates)


def fusion_oracle_at(state: ParState, user: int, alpha) -> FusionOracle:
    """The fusion problem user `user` would solve at `alpha` on top of `state`.

    Exposed for checks: the returned oracle evaluates f~ on the pre-update
    lattice of iteration `user`.
    """
    if user != state.carrier_size + 1:
        raise DomainError(
            f"state covers users 1..{state.carrier_size}; next user is "
            f"{state.carrier_size + 1}, not {user}"
        )
    alpha = as_rational(alpha)
    table = _extended_table(state, user)
    return _oracle_at(state.model, table, range(1, user + 1), user, alpha)


def strong_map_chain(state: ParState, p_down: Partition, p_up: Partition, *,
                     probes: list[Probe] | None = None) -> set[frozenset[int]]:
    """All distinct minimal-minimizer sets for the next user, by recursion.

    `p_down` must strictly refine `p_up`; both partition the extended
    carrier.  Each call probes the alpha where the partition cost lines of
    p_down and p_up cross, takes the minimal minimizer there, fuses it into
    the stored partition at that alpha and either stops (the fused result
    equals p_down) or recurses on the two subintervals.  The extended
    carrier V_i itself is an implied top element and never returned.
    """
    user = state.carrier_size + 1
    table = _extended_table(state, user)
    users = tuple(range(1, user + 1))
    if probes is None:
        probes = []
    return _chain_search(state.model, table, users, user, p_down, p_up, probes)


def _chain_search(model, table, users, anchor, p_down, p_up,
                  probes) -> set[frozenset[int]]:
    if p_down == p_up or not p_down.refines(p_up):
        raise DomainError("need p_down strictly finer than p_up")
    h_down = partition_entropy(model, p_down)
    h_up = partition_entropy(model, p_up)
    alpha = model.total_entropy - (h_down - h_up) / (len(p_down) - len(p_up))
    probes.append(Probe(alpha, p_down, p_up))

    oracle = _oracle_at(model, table, users, anchor, alpha)
    found = minimize(oracle)
    fused_partition = Partition(oracle.blocks).merge_blocks(found.minimal)
    if fused_partition == p_down:
        return {found.minimal}
    lower = _chain_search(model, table, users, anchor, p_down, fused_partition,
                          probes)
    upper = _chain_search(model, table, users, anchor, fused_partition, p_up,
                          probes)
    return lower | upper


def solve_chain_breakpoints(state: ParState, chain_sets) -> list[Fraction]:
    """Critical points for a nested chain of minimal-minimizer sets.

    For each adjacent pair S_small < S_big the crossing alpha solves the
    affine equation r_alpha(S_big \\ S_small) = H(S_big) - H(S_small) on the
    segmented rate vector.  Segments are scanned from low alpha up and the
    first root wins, which lands in the region where the left side is
    strictly increasing; a boundary root belongs to the lower (upper-closed)
    segment by the half-open convention.  Returns the crossings in chain
    order with H(V) appended for the top set.
    """
    chain = sorted(chain_sets, key=len)
    for small, big in zip(chain, chain[1:]):
        if not small < big:
            raise InternalError(f"chain sets not nested: {sorted(small)} vs {sorted(big)}")
    model = state.model
    alphas: list[Fraction] = []
    for small, big in zip(chain, chain[1:]):
        diff = sorted(big - small)
        target = model.entropy(big) - model.entropy(small)
        alphas.append(_solve_rate_equation(state, diff, target))
    alphas.append(model.total_entropy)
    if any(a > b for a, b in zip(alphas, alphas[1:])):
        raise InternalError(f"critical points out of order: {alphas}")
    return alphas


def _solve_rate_equation(state: ParState, users: list[int], target: Fraction) -> Fraction:
    positions = [u - 1 for u in users]
    for interval, slice_ in state.table:
        total = AffineValue(Fraction(0), Fraction(0))
        for p in positions:
            total = total + slice_.rates[p]
        if total.slope == 0:
            if total.intercept == target:
                raise InternalError(
                    "rate equation is flat and equal on a whole segment"
                )
            continue
        root = (target - total.intercept) / total.slope
        if interval.contains(root):
            return root
    raise InternalError(
        f"no segment solves r_alpha({users}) = {target}; upstream state is inconsistent"
    )


def parametric_iteration(state: ParState) -> ParState:
    """Extend the sweep state from carrier 1..i-1 to 1..i.

    Finds the minimizer chain and its critical points, refines the segment
    tiling by those points, and applies the per-segment update: the new
    user's rate gains f~(S_j) (an affine value) and the blocks of S_j fuse.
    Empty chain segments (equal adjacent critical points) are dropped.
    """
    user = state.carrier_size + 1
    if user > state.model.size:
        raise DomainError("state already covers the whole ground set")
    probes: list[Probe] = []
    carrier = frozenset(range(1, user + 1))
    found = strong_map_chain(
        state,
        Partition.singletons(carrier),
        Partition.whole(carrier),
        probes=probes,
    )
    chain = sorted(found | {carrier}, key=len)
    alphas = solve_chain_breakpoints(state, chain)
    if chain[0] != frozenset({user}):
        raise InternalError("minimizer chain must start at the new user's singleton")

    extended = _extended_table(state, user)
    cuts = [a for a in alphas[:-1]]
    pieces = split_pieces(extended.pieces, cuts)

    new_pieces = []
    for interval, slice_ in pieces:
        m = bisect_left(alphas, interval.upper)
        fused = chain[m]
        blocks_inside = [b for b in slice_.partition.blocks if b <= fused]
        if frozenset().union(*blocks_inside) != fused:
            raise InternalError(
                f"minimizer {sorted(fused)} is not a block union on {interval}"
            )
        gain = AffineValue(state.model.entropy(fused), Fraction(0))
        for u in sorted(fused - {user}):
            gain = gain - slice_.rates[u - 1]
        new_rate = AffineValue(-state.model.total_entropy, Fraction(1)) + gain
        rates = slice_.rates[:-1] + (new_rate,)
        new_pieces.append(
            (interval, StateSlice(slice_.partition.merge_blocks(fused), rates))
        )

    return ParState(
        state.model, user, Segmented(new_pieces),
        last_chain=MinimizerChain(tuple(chain), tuple(alphas)),
        last_probes=tuple(probes),
    )


def iter_parametric(model: SourceModel) -> Iterator[ParState]:
    """Yield the sweep state after each user 1, 2, ..., n.

    This is the hand-off interface for a growing ground set: the state
    after user i is everything user i+1 needs (plus H(V)) to continue.
    """
    state = initial_state(model)
    yield state
    for _ in range(2, model.size + 1):
        state = parametric_iteration(state)
        yield state


def run_parametric(model: SourceModel) -> tuple[ParState, PSPResult]:
    """Full sweep over all users plus the extracted solution."""
    state = None
    for state in iter_parametric(model):
        pass
    return state, extract_psp(state)


def extract_psp(state: ParState) -> PSPResult:
    """Read the principal sequence and sum-rate solution off a sweep state."""
    return _psp_from_views(state.users, state.partition_view, state.rate_view)


def _psp_from_views(users, partition_view: Segmented, rate_view: Segmented) -> PSPResult:
    critical = partition_view.upper_breakpoints()
    partitions = tuple(value for _, value in partition_view)
    whole = Partition.whole(users)
    if len(users) == 1:
        min_rate = Fraction(0)
        rates = (Fraction(0),)
        return PSPResult(tuple(users), critical, partitions, min_rate, whole, rates)
    if partitions[-1] == whole:
        # Standard shape: the one-block partition occupies the top segment
        # and the minimum sum-rate is where it begins.
        min_rate = critical[-2]
    else:
        # The source splits into independent groups: the finest minimizer
        # never reaches one block below the top, so the minimum sum-rate is
        # the whole entropy.
        min_rate = critical[-1]
    finest_maximizer = partition_view.value_at(min_rate)
    rates = tuple(r.at(min_rate) for r in rate_view.value_at(min_rate))
    return PSPResult(tuple(users), critical, partitions, min_rate,
                     finest_maximizer, rates)


def prefix_psp(state: ParState) -> PSPResult:
    """Solution for the prefix carrier of a mid-sweep state.

    The stored state lives on the global axis [0, H(V)]; shifting alpha by
    H(V) - H(prefix) and clipping to [0, H(prefix)] turns it into the
    principal sequence of the prefix, from which the prefix's minimum
    sum-rate and optimal rate vector read off as usual.
    """
    model = state.model
    users = state.users
    shift = model.entropy(users) - model.total_entropy  # <= 0
    new_top = model.entropy(users)
    pieces = []
    for interval, slice_ in state.table:
        upper = interval.upper + shift
        if upper < 0:
            continue
        lower = interval.lower + shift
        shifted_rates = tuple(
            AffineValue(r.intercept - r.slope * shift, r.slope) for r in slice_.rates
        )
        value = StateSlice(slice_.partition, shifted_rates)
        if upper == 0:
            pieces.append((AlphaInterval(Fraction(0), Fraction(0), False), value))
        elif lower < 0:
            pieces.append((AlphaInterval(Fraction(0), upper, False), value))
        else:
            pieces.append((AlphaInterval(lower, upper, interval.lower_open), value))
    table = Segmented(pieces)
    if table.top != new_top:
        raise InternalError("prefix shift did not land on the prefix entropy")
    shifted = ParState(model, state.carrier_size, table)
    return _psp_from_views(users, shifted.partition_view, shifted.rate_view)


def mda_reference(model: SourceModel) -> tuple[Fraction, Partition, tuple[Fraction, ...]]:
    """Baseline fixed-point iteration on alpha, as an independent cross-check.

    Starting from the all-singletons partition, repeatedly set alpha to the
    crossing of the current partition's cost line with the one-block line
    and re-run coordinate saturation, until the partition stabilizes.  The
    converged alpha is the minimum sum-rate; the partition and rate vector
    are the same solution the parametric sweep extracts.
    """
    current = Partition.singletons(model.users)
    h_total = model.total_entropy
    for _ in range(model.size):
        if len(current) == 1:
            raise InternalError("reference iteration coarsened past the solution")
        alpha = h_total - (partition_entropy(model, current) - h_total) / (len(current) - 1)
        result = coordinate_saturation(model, alpha)
        if result.partition == current:
            return alpha, current, result.rates
        current = result.partition
    raise InternalError("reference iteration did not converge within |V| rounds")
