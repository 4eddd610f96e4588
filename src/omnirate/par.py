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

switching at critical points a_q < ... < a_1 < a_0 = H(V) (the axis top),
with S_q active on [0, a_q] and S_j on (a_{j+1}, a_j].  The chain sets are
found by a divide-and-conquer search (`strong_map_chain`) that probes the
crossing alpha of two partition cost lines and recurses on both sides;
each probe issues one plain submodular minimization.

Each probe's minimization runs on a bracketed sublattice, not on the whole
fusion lattice of its alpha.  Three facts make that exact:

* the minimal minimizer m(alpha) is monotone: alpha' <= alpha implies
  m(alpha') <= m(alpha) (the nesting of the chain above);
* the stored partition P(alpha') refines P(alpha) for alpha' <= alpha, so a
  set that is a union of blocks at alpha is one at every lower alpha';
* if the minimal minimizer lies in a sublattice, it is also the minimal
  minimizer of the function restricted to that sublattice.

So once probes at a < b have returned m(a) and m(b), every probe at
alpha' in [a, b] has m(a) <= m(alpha') <= m(b).  Its lattice shrinks to the
blocks of P(alpha') inside m(b) (restriction), with the blocks meeting m(a)
contracted into one anchor (contraction): m(alpha') is a union of blocks
that contains m(a), so it contains every block meeting m(a).  The search
hands each lower child the bracket (inner, m(alpha)) and each upper child
(m(alpha), outer), starting from ({i}, V_i).

With the chain sets known, the critical points solve the per-chain-pair
affine equations r_alpha(S_{j-1} \\ S_j) = H(S_{j-1}) - H(S_j), whose left
side is piecewise affine and strictly increasing where the equation is
relevant (`solve_chain_breakpoints`).

The sweep can also run on a truncated axis [0, top], top < H(V): successive
omniscience reads the state at one lower bound only (`so`).  The state at
alpha depends only on the state at alpha, so the state on [0, top] after
user i follows from the one on [0, top] after user i-1, and only the chain
top S_0 changes.  On the whole axis S_0 = V_i is implied and costs nothing;
on a truncated one S_0 = m(top), found by one probe at top on the whole
lattice ({i}, V_i).  The rest of the chain is the lower child of that
probe: the partitions (singletons, P(top) with S_0 fused) and the bracket
({i}, S_0).  Their cost lines cross at or below top, because the fused
partition is optimal at top and has fewer blocks (a flatter line), and
every child's probe lies between its parent's, so no probe leaves the
axis.  With top = H(V) that child is the whole-axis top call; with
S_0 = {i} monotonicity leaves no chain below it.  The initial rate
r_1 = alpha - H(V) + H({1}) refers to H(V) whatever the top: the axis is
cut, not shifted.  The principal sequence needs the whole axis, so
`extract_psp` and `prefix_psp` reject a truncated state.

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
from .partition import AffineValue, Partition, Segmented, singleton
from .sfm import FusionOracle, minimize


@dataclass(frozen=True)
class StateSlice:
    """Partition plus affine rate vector valid on one alpha segment."""

    partition: Partition
    rates: tuple[AffineValue, ...]


@dataclass(frozen=True)
class Probe:
    """One divide-and-conquer probe: the alpha tried and its bracketing pair.

    The probe at the top of a cut axis is not a crossing; it records the
    whole lattice's pair (singletons, one block).
    """

    alpha: Fraction
    p_down: Partition
    p_up: Partition


@dataclass(frozen=True)
class MinimizerChain:
    """Nested minimal-minimizer sets with their critical points.

    sets[0] = {i} is active on [0, alphas[0]] and sets[m] on
    (alphas[m-1], alphas[m]]; alphas[-1] is the axis top and sets[-1] the
    set active there (V_i on the whole axis [0, H(V)]).  Adjacent equal
    alphas denote an empty segment (the set is never the minimizer below
    the top).
    """

    sets: tuple[frozenset[int], ...]
    alphas: tuple[Fraction, ...]


@dataclass(frozen=True)
class ParState:
    """Segmented sweep state for the prefix carrier 1..carrier_size.

    `table` maps the alpha segments of the axis [0, table.top] to StateSlice
    values; the top is H(V) unless the sweep was started truncated (see
    `initial_state`).  `last_chain` and
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


def initial_state(model: SourceModel, top=None) -> ParState:
    """Sweep state after user 1 on the axis [0, top]: one block,
    r_1 = alpha - H(V) + H({1}).

    `top` defaults to H(V).  A lower top truncates the axis without
    shifting it: the rate still refers to H(V).
    """
    total = model.total_entropy
    top = total if top is None else as_rational(top)
    if not 0 <= top <= total:
        raise DomainError(f"axis top {top} outside [0, {total}]")
    rate = AffineValue(model.entropy({1}) - total, Fraction(1))
    slice_ = StateSlice(Partition([singleton(1)]), (rate,))
    return ParState(model, 1, Segmented.constant(top, slice_))


def _extended_table(state: ParState, user: int) -> Segmented:
    """State table with block {user} appended and its rate at alpha - H(V)."""
    fresh = AffineValue(-state.model.total_entropy, Fraction(1))
    block = singleton(user)

    def extend(slice_: StateSlice) -> StateSlice:
        # user is the largest id, so appending its block keeps the order
        return StateSlice(
            Partition._from_canonical(slice_.partition.blocks + (block,)),
            slice_.rates + (fresh,),
        )

    return state.table.map(extend)


def _oracle_at(model: SourceModel, slice_: StateSlice, alpha: Fraction,
               inner: frozenset[int], outer: frozenset[int]) -> FusionOracle:
    """Fusion oracle at `alpha` on the sublattice between `inner` and `outer`.

    The blocks of the slice's partition inside `outer` are kept (restriction)
    and those meeting `inner` fuse into the anchor (contraction); only the
    users of `outer` get rates.  `outer` must be a union of blocks holding
    `inner`, which the bracket argument guarantees; a violation means the
    search state is corrupt.
    """
    anchor_blocks, rest = [], []
    for b in slice_.partition.blocks:
        if not b.isdisjoint(inner):
            anchor_blocks.append(b)
        elif b <= outer:
            rest.append(b)
    # A lone block is kept as is, so a shared singleton stays shared in the
    # partitions the sweep stores.
    anchor = (anchor_blocks[0] if len(anchor_blocks) == 1
              else frozenset().union(*anchor_blocks))
    if not anchor <= outer or len(anchor) + sum(map(len, rest)) != len(outer):
        raise InternalError(
            f"bracket {sorted(inner)} <= {sorted(outer)} is not a block union "
            f"at alpha {alpha}"
        )
    rates = {u: slice_.rates[u - 1].at(alpha) for u in outer}
    # Anchor last: on the whole lattice that is where the new user's
    # singleton sits, so `fusion_oracle_at` keeps the partition's order.
    return FusionOracle(model, alpha, (*rest, anchor), anchor, rates)


def fusion_oracle_at(state: ParState, user: int, alpha) -> FusionOracle:
    """The fusion problem user `user` would solve at `alpha` on top of `state`.

    Exposed for checks: the returned oracle evaluates f~ on the whole
    pre-update lattice of iteration `user`, not on the bracketed sublattice
    a chain-search probe at `alpha` minimizes over.
    """
    if user != state.carrier_size + 1:
        raise DomainError(
            f"state covers users 1..{state.carrier_size}; next user is "
            f"{state.carrier_size + 1}, not {user}"
        )
    alpha = as_rational(alpha)
    slice_ = _extended_table(state, user).value_at(alpha)
    return _oracle_at(state.model, slice_, alpha, singleton(user),
                      frozenset(range(1, user + 1)))


def strong_map_chain(state: ParState, p_down: Partition, p_up: Partition, *,
                     probes: list[Probe] | None = None) -> set[frozenset[int]]:
    """All distinct minimal-minimizer sets for the next user, by recursion.

    `p_down` must strictly refine `p_up`; both partition the extended
    carrier.  Each call probes the alpha where the partition cost lines of
    p_down and p_up cross, takes the minimal minimizer there, fuses it into
    the stored partition at that alpha and either stops (the fused result
    equals p_down) or recurses on the two subintervals.  The extended
    carrier V_i itself is an implied top element and never returned.

    Each probe minimizes only over the sublattice its parent probes leave
    open.  The minimal minimizer S* found at alpha bounds every probe of
    the lower subinterval from above and every probe of the upper one from
    below; the top probe's bracket is ({i}, V_i).  Since m(alpha) grows
    with alpha and the stored partitions coarsen with it, each sublattice
    still holds its probe's minimal minimizer, so the answers are the
    whole-lattice ones (the bracket argument in the module docstring).
    """
    user = state.carrier_size + 1
    table = _extended_table(state, user)
    if probes is None:
        probes = []
    return _chain_search(state.model, table, p_down, p_up, singleton(user),
                         frozenset(range(1, user + 1)), probes)


def _chain_search(model, table, p_down, p_up, inner, outer,
                  probes) -> set[frozenset[int]]:
    if p_down == p_up or not p_down.refines(p_up):
        raise DomainError("need p_down strictly finer than p_up")
    h_down = partition_entropy(model, p_down)
    h_up = partition_entropy(model, p_up)
    alpha = model.total_entropy - (h_down - h_up) / (len(p_down) - len(p_up))
    probes.append(Probe(alpha, p_down, p_up))
    found, fused_partition = _probe(model, table, alpha, inner, outer)
    if fused_partition == p_down:
        return {found}
    lower = _chain_search(model, table, p_down, fused_partition, inner, found,
                          probes)
    upper = _chain_search(model, table, fused_partition, p_up, found, outer,
                          probes)
    return lower | upper


def _probe(model, table, alpha, inner, outer) -> tuple[frozenset[int], Partition]:
    """Minimal minimizer at `alpha` on the bracket (inner, outer), and the
    stored partition at `alpha` with it fused."""
    slice_ = table.value_at(alpha)
    found = minimize(_oracle_at(model, slice_, alpha, inner, outer)).minimal
    return found, slice_.partition.merge_blocks(found)


def solve_chain_breakpoints(state: ParState, chain_sets) -> list[Fraction]:
    """Critical points for a nested chain of minimal-minimizer sets.

    For each adjacent pair S_small < S_big the crossing alpha solves the
    affine equation r_alpha(S_big \\ S_small) = H(S_big) - H(S_small) on the
    segmented rate vector.  Segments are scanned from low alpha up and the
    first root wins, which lands in the region where the left side is
    strictly increasing; a boundary root belongs to the lower (upper-closed)
    segment by the half-open convention.  Returns the crossings in chain
    order with the axis top appended for the top set.
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
    alphas.append(state.table.top)
    if any(a > b for a, b in zip(alphas, alphas[1:])):
        raise InternalError(f"critical points out of order: {alphas}")
    return alphas


def _solve_rate_equation(state: ParState, users: list[int], target: Fraction) -> Fraction:
    positions = [u - 1 for u in users]
    for k, (lower, upper, slice_) in enumerate(state.table):
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
        if root <= upper and (lower < root or k == 0 <= root):
            return root
    raise InternalError(
        f"no segment solves r_alpha({users}) = {target}; upstream state is inconsistent"
    )


def parametric_iteration(state: ParState) -> ParState:
    """Extend the sweep state from carrier 1..i-1 to 1..i.

    Finds the minimizer chain and its critical points, adds those points to
    the segment ends, and applies the per-segment update: the new
    user's rate gains f~(S_j) (an affine value) and the blocks of S_j fuse.
    Empty chain segments (equal adjacent critical points) are dropped.

    The chain's top set T is the set active at the axis top: V_i on the
    whole axis, else m(top), found by one probe at top over the whole
    lattice.  The chain below T is the lower child of a probe at top.
    """
    model = state.model
    user = state.carrier_size + 1
    if user > model.size:
        raise DomainError("state already covers the whole ground set")
    extended = _extended_table(state, user)
    top = extended.top
    inner = singleton(user)
    carrier = frozenset(range(1, user + 1))
    singletons = Partition.singletons(carrier)
    probes: list[Probe] = []
    if top == model.total_entropy:
        top_set, top_partition = carrier, Partition.whole(carrier)
    else:
        probes.append(Probe(top, singletons, Partition.whole(carrier)))
        top_set, top_partition = _probe(model, extended, top, inner, carrier)
    chain = [inner]
    if top_set != inner:
        # m is monotone, so T = {i} leaves nothing below it to search
        found = _chain_search(model, extended, singletons, top_partition,
                              inner, top_set, probes)
        chain = sorted(found | {top_set}, key=len)
    alphas = solve_chain_breakpoints(state, chain)
    if chain[0] != inner:
        raise InternalError("minimizer chain must start at the new user's singleton")

    new_pieces = []
    for upper in sorted(set(extended.uppers).union(alphas)):
        slice_ = extended.value_at(upper)
        fused = chain[bisect_left(alphas, upper)]
        try:
            partition = slice_.partition.merge_blocks(fused)
        except DomainError:
            raise InternalError(
                f"minimizer {sorted(fused)} is not a block union on the segment "
                f"ending at {upper}"
            ) from None
        gain = AffineValue(model.entropy(fused), Fraction(0))
        for u in sorted(fused - {user}):
            gain = gain - slice_.rates[u - 1]
        new_rate = AffineValue(-model.total_entropy, Fraction(1)) + gain
        rates = slice_.rates[:-1] + (new_rate,)
        new_pieces.append((upper, StateSlice(partition, rates)))

    return ParState(
        model, user, Segmented(new_pieces),
        last_chain=MinimizerChain(tuple(chain), tuple(alphas)),
        last_probes=tuple(probes),
    )


def iter_parametric(model: SourceModel, top=None) -> Iterator[ParState]:
    """Yield the sweep state after each user 1, 2, ..., n on the axis [0, top].

    This is the hand-off interface for a growing ground set: the state
    after user i is everything user i+1 needs (plus H(V)) to continue.
    `top` defaults to H(V) (see `initial_state`).
    """
    state = initial_state(model, top)
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
    _require_whole_axis(state)
    return _psp_from_views(state.users, state.partition_view, state.rate_view)


def _require_whole_axis(state: ParState) -> None:
    """The principal sequence needs the state on all of [0, H(V)]."""
    if state.table.top != state.model.total_entropy:
        raise DomainError(
            f"state axis stops at {state.table.top}, below H(V) = "
            f"{state.model.total_entropy}"
        )


def _psp_from_views(users, partition_view: Segmented, rate_view: Segmented) -> PSPResult:
    critical = partition_view.uppers
    partitions = partition_view.values
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
    _require_whole_axis(state)
    model = state.model
    users = state.users
    shift = model.entropy(users) - model.total_entropy  # <= 0
    new_top = model.entropy(users)
    pieces = []
    for _, upper, slice_ in state.table:
        upper += shift
        if upper >= 0:
            shifted_rates = tuple(
                AffineValue(r.intercept - r.slope * shift, r.slope) for r in slice_.rates
            )
            pieces.append((upper, StateSlice(slice_.partition, shifted_rates)))
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
