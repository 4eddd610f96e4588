"""Parametric sweep: the whole alpha axis in one pass per user.

Instead of running coordinate saturation at a single alpha, the sweep keeps
the partition and each user's rate as segmented functions of alpha on
[0, H(V)] and extends them one user at a time.  The state after user i is
exact for every alpha simultaneously: its partition at alpha equals the
finest Dilworth minimizer over the first i users and its rate vector lies
in the corresponding base polyhedron.  User i's rate is fixed by iteration
i: later iterations only add users and fuse blocks, so each rate function
is written once and the partition table is all that changes.

Per added user i the minimal minimizer of the fusion function is itself a
segmented quantity: a nested chain of user sets

    {i} = S_q < ... < S_1 < S_0 = V_i

switching at critical points a_q < ... < a_1 < a_0 = H(V) (the axis top),
with S_q active on [0, a_q] and S_j on (a_{j+1}, a_j].  The chain sets are
found by a divide-and-conquer search (`_chain_search`) that probes the
crossing alpha of two partition cost lines and searches both sides; each
probe issues one submodular minimization unless its bracket forces it.

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
(m(alpha), outer), starting from ({i}, V_i).  A collapsed child bracket
(inner == outer) holds no crossing, since m cannot switch from a set to
itself, so it is pruned: every probe has inner strictly inside outer.

The critical points come from the same search.  At a terminal probe
(m(alpha) fused into the stored partition gives back p_down), p_down and
p_up are adjacent pieces of the lower envelope over the probe's bracket
(the Eisner-Severance argument), so m switches from the bracket's inner set
to its outer set exactly at the probe's alpha: the inner set's critical
point.  The walk emits them in order (lower child before upper), and
`solve_chain_breakpoints` checks that order rather than sorting, and each
point exactly: r_alpha(S_{j-1} \\ S_j) = H(S_{j-1}) - H(S_j).

A probe needs no minimization when its bracket forces the answer: with A
the union of the blocks of P(alpha) meeting inner, if one block of P(alpha)
inside outer is not in A and P(alpha) v outer = p_up, then m(alpha) = A.
The search gives p_up = P(alpha*) v outer for an alpha* >= alpha, and P(alpha)
refines P(alpha*), so P(alpha) v outer refines p_up: equal block counts mean
equal partitions.  Were m(alpha) = outer, p_up would be the finest optimal
partition at alpha; p_down, whose line meets p_up's there, would be optimal
too and so coarsen p_up, yet it strictly refines it.  The bracket leaves A
and outer only, so m(alpha) = A: a forced probe builds no oracle and runs no SFM.

Every stored block B is tight: on each segment its users' rates sum to
f_alpha(B) = alpha - H(V) + H(B), as in coordinate saturation.  So a probe's
oracle takes its rates from block entropies (`sfm.saturation_oracle`, shared
with `dilworth`), and on a segment with chain set S_j the update gives the
new user H(S_j) - sum H(B) + (k - 1) H(V) + (1 - k) alpha over the k stored
blocks B inside S_j - {i}.  The tests' `TestTightBlocks` gates this; at run
time `solve_chain_breakpoints` checks it against the per-user rates.  The
probes therefore read only the partition table, never a rate, and the new
user's rate is the one value each iteration writes besides it.

Probes run on block bitmasks and ints over the model's entropy scale d: a
pending bracket carries its two partitions' entropies, so a probe sums one
new partition, and its crossing H(V) - (h_down - h_up) / k is one
`Fraction` over d * k.  A rate segment is the int pair (c, s) of
c / d + s * alpha; `ParState` reads it as `Fraction` and `AffineValue` views.

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
S_0 = {i} monotonicity leaves no chain below it, so such an iteration
costs one probe, one table map that appends the block {i}, and the
constant rate function alpha - H(V) + H({i}).  The initial rate
r_1 = alpha - H(V) + H({1}) refers to H(V) whatever the top: the axis is
cut, not shifted.  The principal sequence needs the whole axis, so
`extract_psp` rejects a truncated state.

The segmented partition after user i, shifted down by H(V) - H(V_i), is
the principal sequence of partitions of V_i; its second-from-top
breakpoint is the minimum sum-rate and the rate vector evaluated there is
an optimal rate vector (`extract_psp`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

from .dilworth import check_alpha, coordinate_saturation
from .errors import DomainError, InternalError
from .model import SourceModel, as_rational, mask_users, partition_entropy
from .partition import AffineValue, Partition, Segmented
from .sfm import FusionOracle, minimize, saturation_oracle


@dataclass(frozen=True)
class MinimizerChain:
    """Nested minimal-minimizer sets, as user bitmasks, with their critical points.

    masks[0] = {i} is active on [0, alphas[0]] and masks[m] on
    (alphas[m-1], alphas[m]]; alphas[-1] is the axis top and masks[-1] the
    set active there (V_i on the whole axis [0, H(V)]).  Adjacent equal
    alphas denote an empty segment (the set is never the minimizer below
    the top).  `sets` is the frozenset view, built when read.
    """

    masks: tuple[int, ...]
    alphas: tuple[Fraction, ...]

    @property
    def sets(self) -> tuple[frozenset[int], ...]:
        return tuple(map(mask_users, self.masks))


@dataclass(frozen=True)
class ParState:
    """Segmented sweep state for the prefix carrier 1..carrier_size.

    `table` maps the alpha segments of the axis [0, table.top] to the
    partition there; the top is H(V) unless the sweep was started truncated
    (see `initial_state`).  `rates[u - 1]` is user u's rate on that axis as
    int pairs (c, s), c / d + s * alpha over the model's scale d, written by
    iteration u and shared by every later state.  `last_chain` and
    `last_probes` document the iteration that produced this state (None and
    () for the base state).  `last_probes` holds the alpha of each probe
    that ran an SFM, in the order they ran (a cut axis's top probe first),
    so the sweep's SFM count is the sum of len(last_probes); a forced probe
    (module docstring) shows only in `last_chain`, as its critical point.
    """

    model: SourceModel
    carrier_size: int
    table: Segmented
    rates: tuple[Segmented, ...]
    last_chain: MinimizerChain | None = field(default=None, compare=False)
    last_probes: tuple[Fraction, ...] = field(default=(), compare=False)

    @property
    def users(self) -> tuple[int, ...]:
        return tuple(range(1, self.carrier_size + 1))

    def partition_at(self, alpha) -> Partition:
        return self.table.value_at(alpha)

    def rate_of(self, user: int, alpha) -> Fraction:
        if not 1 <= user <= self.carrier_size:
            raise DomainError(f"user {user} is not in the carrier 1..{self.carrier_size}")
        c, s = self.rates[user - 1].value_at(alpha)
        p, q = as_rational(alpha).as_integer_ratio()
        return Fraction(c * q + s * p * self.model.scale, self.model.scale * q)

    def rates_at(self, alpha) -> tuple[Fraction, ...]:
        alpha = as_rational(alpha)
        return tuple(self.rate_of(u, alpha) for u in self.users)

    @property
    def rate_view(self) -> Segmented:
        """Segmented `AffineValue` rate vector, on the union of the users' segment ends."""
        d = self.model.scale
        uppers = sorted(set().union(*(r.uppers for r in self.rates)))
        return Segmented((u, tuple(AffineValue(Fraction(c, d), Fraction(s))
                                   for c, s in (r.value_at(u) for r in self.rates)))
                         for u in uppers)


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
    top = model.total_entropy if top is None else check_alpha(model, top)
    return ParState(model, 1, Segmented.constant(top, Partition([(1,)])),
                    (Segmented.constant(top, _new_rate(model, 1)),))


def _new_rate(model: SourceModel, fused: int, stored=()) -> tuple[int, int]:
    """The new user's rate (c, s) where its minimizer is the bitmask `fused`:
    the k `stored` blocks B inside it are tight, so c / d + s * alpha is
    H(fused) - sum (alpha - H(V) + H(B)) - H(V) + alpha."""
    return (model.entropy_int(fused) - sum(map(model.entropy_int, stored))
            + (len(stored) - 1) * model.total_int, 1 - len(stored))


def _bracket_blocks(partition: Partition, alpha: Fraction, inner: int, outer: int) -> tuple:
    """The blocks of `partition` meeting `inner` (the anchor's parts) and the
    rest inside `outer`, a union of blocks holding `inner` by the bracket
    argument: a violation means the search state is corrupt."""
    anchor_blocks, rest = [], []
    for b in partition.masks:
        if b & inner:
            anchor_blocks.append(b)
        elif not b & ~outer:
            rest.append(b)
    if sum(anchor_blocks) + sum(rest) != outer:  # disjoint masks: their sum is their union
        raise InternalError(
            f"bracket {sorted(mask_users(inner))} <= {sorted(mask_users(outer))} "
            f"is not a block union at alpha {alpha}"
        )
    return anchor_blocks, rest


def fusion_oracle_at(state: ParState, alpha) -> FusionOracle:
    """The fusion problem the next user would solve at `alpha` on top of `state`.

    It evaluates f~ on the whole pre-update lattice of the next iteration:
    a cut axis's top probe minimizes it and the checks read it, while the
    chain search's probes minimize over bracketed sublattices, the same
    builder on the blocks that `_bracket_blocks` keeps and contracts.
    """
    user = state.carrier_size + 1
    if user > state.model.size:
        raise DomainError("state already covers the whole ground set")
    alpha = as_rational(alpha)
    return saturation_oracle(state.model, alpha, state.partition_at(alpha).masks,
                             (1 << (user - 1),))


def _chain_search(model, table, p_down, p_up, inner, outer) -> tuple[dict, tuple]:
    """Probe where the lines of `p_down` (strictly finer) and `p_up` cross, on
    the bracket (inner, outer) of user bitmasks, and walk both sides whose
    bracket has not collapsed, lower first, unless fusing gives p_down;
    return {inner mask: alpha} of the terminal probes, in order, and the
    alphas of the probes that ran an SFM, in the order they ran.  Any other
    probe's fused partition must have a block count strictly between theirs,
    or InternalError, so even a wrong minimizer cannot make the walk loop."""
    if p_down == p_up or not p_down.refines(p_up):
        raise DomainError("need p_down strictly finer than p_up")
    total, d, entropy = model.total_int, model.scale, model.entropy_int
    crossings, probes = {}, []
    pending = [(p_down, p_up, inner, outer, sum(map(entropy, p_down.masks)),
                sum(map(entropy, p_up.masks)))]
    while pending:
        p_down, p_up, inner, outer, h_down, h_up = pending.pop()
        k = len(p_down) - len(p_up)
        alpha = Fraction(total * k - h_down + h_up, d * k)
        partition = table.value_at(alpha)
        anchor_blocks, rest = _bracket_blocks(partition, alpha, inner, outer)
        # forced: one block beyond the anchor, and P(alpha) v outer has p_up's block count
        if len(rest) == 1 and len(partition) + 1 - len(anchor_blocks) - len(rest) == len(p_up):
            found = sum(anchor_blocks)
        else:
            probes.append(alpha)
            found = minimize(saturation_oracle(model, alpha, rest, anchor_blocks)).mask
        fused = partition.merge_mask(found)
        if fused == p_down:  # terminal: m switches from inner to outer at alpha
            crossings[inner] = alpha
            continue
        if not len(p_up) < len(fused) < len(p_down):
            raise InternalError(f"probe at alpha {alpha} fuses to {fused}, not strictly "
                                f"between {p_down} and {p_up}")
        # collapsed brackets are pruned; the lower side is pushed last, so the
        # whole of it is walked first
        h_fused = sum(map(entropy, fused.masks))
        if found != outer:
            pending.append((fused, p_up, found, outer, h_fused, h_up))
        if found != inner:
            pending.append((p_down, fused, inner, found, h_down, h_fused))
    return crossings, tuple(probes)


def solve_chain_breakpoints(state: ParState, crossings) -> MinimizerChain:
    """The minimizer chain from each set's critical point, {user bitmask:
    alpha} in the order given (the top set last, at the axis top), checked:
    the sets nest up from the new user's singleton, the points are in order,
    and at the point a of each pair S_small < S_big the segmented rates
    satisfy r_a(S_big \\ S_small) = H(S_big) - H(S_small) exactly.
    At a = p/q that is sum (c q + s p d) = (H(S_big) - H(S_small)) d q in ints.
    """
    masks, alphas = tuple(crossings), tuple(crossings.values())
    for small, big in zip(masks, masks[1:]):
        if small & ~big:  # keys are distinct, so a subset is a strict one
            raise InternalError(f"chain sets not nested: {sorted(mask_users(small))} "
                                f"vs {sorted(mask_users(big))}")
    if masks[0] != 1 << state.carrier_size:
        raise InternalError("minimizer chain must start at the new user's singleton")
    cuts = [alpha.as_integer_ratio() for alpha in alphas]
    if (any(p * b > a * q for (p, q), (a, b) in zip(cuts, cuts[1:]))
            or cuts[-1] != state.table.ends[-1]):
        raise InternalError(f"critical points out of order: {list(alphas)}")
    d, entropy = state.model.scale, state.model.entropy_int
    for small, big, alpha, (p, q) in zip(masks, masks[1:], alphas, cuts):
        sent, rest = 0, big & ~small
        while rest:  # the users of S_big \ S_small, lowest bit first
            c, s = state.rates[(rest & -rest).bit_length() - 1].value_at(alpha)
            sent, rest = sent + q * c + p * d * s, rest & (rest - 1)
        if sent != (entropy(big) - entropy(small)) * q:
            raise InternalError(f"critical point {alpha} of {sorted(mask_users(small))} < "
                                f"{sorted(mask_users(big))} misses its rate equation")
    return MinimizerChain(masks, alphas)


def parametric_iteration(state: ParState) -> ParState:
    """Extend the sweep state from carrier 1..i-1 to 1..i.

    Finds the minimizer chain and its critical points, adds those points to
    the segment ends, and applies the per-segment update: the blocks of S_j
    fuse and the new user's rate is written from block entropies; the
    earlier users' rates are kept as they are.  Empty chain segments (equal
    adjacent critical points) are dropped.

    The chain's top set T is the set active at the axis top: V_i on the
    whole axis, else m(top), found by one probe at top over the whole
    lattice.  The chain below T is the lower child of a probe at top.  A
    top of T = {i} ends the iteration there: m is monotone, so {i} is the
    minimizer on all of [0, top]: the new user joins every partition as a
    block, in one table map, at its singleton's tight rate.
    """
    model = state.model
    user = state.carrier_size + 1
    if user > model.size:
        raise DomainError("state already covers the whole ground set")
    top = state.table.top
    inner = 1 << (user - 1)
    carrier = range(1, user + 1)
    # `with_user` past its carrier check, so that every segment shares one `inner`
    extended = state.table.map(lambda p: Partition._of((*p.masks, inner)))
    if top.numerator * model.scale == model.total_int * top.denominator:  # top == H(V)
        top_probes, top_set, top_partition = (), 2 * inner - 1, Partition.whole(carrier)
    else:
        top_probes, top_set = (top,), minimize(fusion_oracle_at(state, top)).mask
        if top_set == inner:
            return ParState(model, user, extended,
                            state.rates + (Segmented.constant(top, _new_rate(model, inner)),),
                            last_chain=MinimizerChain((inner,), (top,)),
                            last_probes=top_probes)
        top_partition = extended.value_at(top).merge_mask(top_set)
    crossings, probes = _chain_search(model, extended, Partition.singletons(carrier),
                                      top_partition, inner, top_set)
    crossings[top_set] = top
    chain = solve_chain_breakpoints(state, crossings)

    # One walk merges the table's int ends i with the chain's j, both sorted up to
    # top; equal adjacent chain ends are empty segments, so j skips them.
    partitions, rates = [], []
    ends, cuts = extended.ends, [alpha.as_integer_ratio() for alpha in chain.alphas]
    i = j = 0
    while i < len(ends):
        (p, q), cut = ends[i], cuts[j]
        order = cut[0] * q - p * cut[1]  # the sign of chain end - table end
        upper = chain.alphas[j] if order < 0 else extended.uppers[i]
        partition, fused = extended.values[i], chain.masks[j]
        stored = [b for b in partition.masks[:-1] if not b & ~fused]
        if inner + sum(stored) != fused:
            raise InternalError(f"minimizer {sorted(mask_users(fused))} is not a block "
                                f"union on the segment ending at {upper}")
        partitions.append((upper, partition.merge_mask(fused)))
        rates.append((upper, _new_rate(model, fused, stored)))
        i += order >= 0
        while order <= 0 and j < len(cuts) and cuts[j] == cut:
            j += 1

    return ParState(
        model, user, Segmented(partitions), state.rates + (Segmented(rates),),
        last_chain=chain,
        last_probes=top_probes + probes,
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
    """The principal sequence of the state's carrier 1..i and its sum-rate solution.

    The state lives on the global axis [0, H(V)]; shifting alpha by
    H(V_i) - H(V), which is 0 once every user is in, and clipping to
    [0, H(V_i)] gives the principal sequence of V_i, from which its minimum
    sum-rate and an optimal rate vector read off.  The shift needs the
    state on the whole axis, so a truncated state raises DomainError.
    """
    model = state.model
    if state.table.top != model.total_entropy:
        raise DomainError(
            f"state axis stops at {state.table.top}, below H(V) = {model.total_entropy}"
        )
    users = state.users
    carrier_entropy = model.entropy(users)
    shift = carrier_entropy - model.total_entropy  # <= 0
    table = Segmented((upper + shift, partition) for _, upper, partition in state.table
                      if upper + shift >= 0)
    if table.top != carrier_entropy:
        raise InternalError("carrier shift did not land on the carrier entropy")
    critical, partitions = table.uppers, table.values
    whole = Partition.whole(users)
    if len(users) == 1:
        return PSPResult(users, critical, partitions, Fraction(0), whole, (Fraction(0),))
    if partitions[-1] == whole:
        # Standard shape: the one-block partition occupies the top segment
        # and the minimum sum-rate is where it begins.
        min_rate = critical[-2]
    else:
        # The carrier splits into independent groups: the finest minimizer
        # never reaches one block below the top, so the minimum sum-rate is
        # the whole entropy.
        min_rate = critical[-1]
    return PSPResult(users, critical, partitions, min_rate,
                     table.value_at(min_rate), state.rates_at(min_rate - shift))


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
