"""Submodular minimization over a fusion lattice of partition blocks.

The inner problem solved here, many times per sweep, is

    minimize  f~(X~) = alpha - H(V) + H(X~) - r(X~)

over all X~ that are unions of blocks of a carrier partition Q and contain
a designated anchor block.  f~ is submodular on that block lattice because
it is an entropy-derived submodular function minus a modular rate term, so
the minimizers are closed under intersection and the minimal minimizer
exists.

`minimize` is the one entry point, with one exact backend per lattice (k
non-anchor blocks):

* `minimize_cut` on a `BitPoolSource` with k > CUT_CROSSOVER: f~ is then a
  maximum-weight closure, solved by one int max-flow on the bipartite
  network source -> blocks -> shared bit groups -> sink, whose residual
  network gives the minimal minimizer.  It has no size cap.
* `minimize_brute` on every other lattice: all 2^k anchored block unions in
  Gray-code order, refusing k > BRUTE_LIMIT = MAX_TABLE_USERS - 1 with a
  CapacityError that no explicit table reaches.

`minimize_mnp`, the Fujishige-Wolfe minimum-norm-point algorithm on the
base polytope of f~ contracted onto the anchor, is the reference that tests
check both backends against.

All solvers work on user bitmasks and ints.  The oracle holds its blocks
as user bitmasks and their rate sums as ints over one shared denominator
`scale`, a multiple of the model's entropy scale, so a call converts
nothing: brute reads entropies from `SourceModel.entropy_int` and compares
plain ints, the cut reads each bit's holders from
`BitPoolSource.bit_holders` and keeps every set of blocks in its network
as one bitmask, and min-norm-point, the independent reference, reads
`Fraction`s from `SourceModel.entropy_of_mask`.  Nothing is rounded: the
min-norm-point's linear algebra is fraction-free and the flow is over
ints, so the answers are the exact ones.

Every solver returns the same canonical answer: the minimum value and the
minimal minimizer (the intersection of all minimizers) as a user bitmask.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Sequence

from .errors import CapacityError, DomainError, InternalError, SolverError
from .model import MAX_TABLE_USERS, BitPoolSource, SourceModel, mask_users

# Bit-pool lattices with more non-anchor blocks than this go to the min cut:
# per call on fresh bench models, the bipartite-flow cut ties brute
# enumeration at 5 blocks and overtakes it at 6 (CHANGES.md has the per-k
# table).
CUT_CROSSOVER = 5
# Brute enumeration's cap: the largest lattice `minimize` sends it from an
# explicit table, whose anchor is one of its MAX_TABLE_USERS users.  Those
# 2^19 unions took 0.4-0.5 s on a 20-user table (2-vCPU Xeon), min-norm-point
# 8 ms.
BRUTE_LIMIT = MAX_TABLE_USERS - 1
_MNP_ITERATION_CAP = 10_000


@dataclass(frozen=True)
class FusionOracle:
    """Evaluator for f~ on the anchored block lattice of one saturation step.

    `blocks` is the carrier partition as user bitmasks with the anchor, the
    block that every candidate must contain, last; `rates` is parallel to
    it, each block's exact rate sum as an int over the shared denominator
    `scale`, a positive multiple of the model's entropy scale; `alpha` is
    the sum-rate estimate.
    Submodularity of the evaluator needs no check: it holds for any rates.
    `saturation_oracle` builds every production oracle.
    """

    model: SourceModel
    alpha: Fraction
    blocks: tuple[int, ...]
    rates: tuple[int, ...]
    scale: int

    @property
    def anchor(self) -> int:
        return self.blocks[-1]

    @property
    def non_anchor_blocks(self) -> tuple[int, ...]:
        return self.blocks[:-1]

    def f_tilde(self, fused) -> Fraction:
        """f~(X~) = alpha - H(V) + H(X~) - r(X~) for a block union X~ holding the anchor."""
        fused = self.model._checked_mask(fused)
        rate = covered = 0
        for block, block_rate in zip(self.blocks, self.rates):
            if not block & ~fused:
                rate += block_rate
                covered |= block
        if covered != fused or self.anchor & ~fused:
            raise DomainError("candidate must be a union of blocks containing the anchor")
        return (self.alpha - self.model.total_entropy + self.model.entropy_of_mask(fused)
                - Fraction(rate, self.scale))


def saturation_oracle(model: SourceModel, alpha: Fraction, blocks,
                      anchor_parts) -> FusionOracle:
    """The oracle of adding one user at `alpha` to a partition of tight blocks.

    Each block B of `blocks` and of `anchor_parts` but the last, the new
    user's singleton, all user bitmasks, has rate f_alpha(B) = alpha - H(V)
    + H(B); the singleton enters at alpha - H(V), and the anchor (the parts'
    mask sum: they are disjoint) at the sum of their rates.  With alpha = p/q
    and d the model's entropy scale, every rate is an int over d * q.
    """
    d, q, k, entropy = model.scale, alpha.denominator, len(blocks), model.entropy_int
    base = alpha.numerator * d - q * model.total_int
    rates = [base + q * entropy(b) for b in (*blocks, *anchor_parts[:-1])]
    return FusionOracle(model, alpha, (*blocks, sum(anchor_parts)),
                        (*rates[:k], base + sum(rates[k:])), d * q)


@dataclass(frozen=True)
class SfmResult:
    """The minimum of f~ and its minimal minimizer, the user bitmask `mask`.

    `evaluations` is the backend's work count: f~ values read by brute and
    min-norm-point, augmenting paths by the cut (0 when the greedy pour
    alone is a maximum flow).
    """

    min_value: Fraction
    mask: int
    evaluations: int = field(compare=False, default=0)

    @property
    def minimal(self) -> frozenset[int]:
        return mask_users(self.mask)


def _min_value(oracle: FusionOracle, num: int) -> Fraction:
    """alpha - H(V) - r(anchor) + num / scale, built as one Fraction: f~ at a
    union whose H(X~) - r(X~ minus the anchor) is num / scale.  The oracle's
    scale must be a multiple of the model's."""
    a, scale, model = oracle.alpha, oracle.scale, oracle.model
    rest = model.total_int * (scale // model.scale) + oracle.rates[-1] - num
    return Fraction(a.numerator * scale - a.denominator * rest, a.denominator * scale)


def _fused(oracle: FusionOracle, choice: int) -> int:
    """The anchor's mask plus the non-anchor blocks whose bits are set in `choice`."""
    return oracle.anchor + sum(b for j, b in enumerate(oracle.non_anchor_blocks)
                               if choice >> j & 1)


def minimize_brute(oracle: FusionOracle) -> SfmResult:
    """Exhaustive solver: enumerate every anchored union of blocks.

    The 2^k unions are visited in Gray-code order, so each step toggles one
    block: its user mask is xor-ed into the union and its int rate added or
    subtracted, and the entropy is read straight from
    `SourceModel.entropy_int`.  Up to the constant alpha - H(V) - r(anchor),
    a union's value times `scale` is the int
    entropy_int * (scale // model.scale) - rate, so the walk compares plain
    ints.  The minimum is that constant plus the best value over `scale`.
    An oracle whose scale is not a multiple of the model's raises
    DomainError.

    The minimal minimizer is accumulated as the intersection of all
    minimizers seen, a bitmask of block choices; the minimizers are closed
    under intersection, so it is itself a minimizer.
    """
    k = len(oracle.non_anchor_blocks)
    if k > BRUTE_LIMIT:
        raise CapacityError(
            f"brute enumeration capped at {BRUTE_LIMIT} non-anchor blocks, got {k}"
        )
    model, scale = oracle.model, oracle.scale
    if scale % model.scale:
        raise DomainError(f"the oracle's scale {scale} is not a multiple of "
                          f"the model's entropy scale {model.scale}")
    factor = scale // model.scale
    users, masks, rates = oracle.anchor, oracle.non_anchor_blocks, oracle.rates
    entropy = model.entropy_int
    best = entropy(users) * factor
    choice = minimal = rate = 0
    for step in range(1, 1 << k):
        j = (step & -step).bit_length() - 1
        users ^= masks[j]
        if choice >> j & 1:
            rate -= rates[j]
        else:
            rate += rates[j]
        choice ^= 1 << j
        value = entropy(users) * factor - rate
        if value < best:
            best = value
            minimal = choice
        elif value == best:
            minimal &= choice
    return SfmResult(_min_value(oracle, best), _fused(oracle, minimal), 1 << k)


def minimize_mnp(oracle: FusionOracle) -> SfmResult:
    """Fujishige-Wolfe minimum-norm-point solver in exact rationals.

    Works on g(S) = f~(anchor u S~) - f~(anchor) over the non-anchor blocks
    (contraction keeps submodularity exact and encodes the anchor
    constraint).  g is read through the same block masks and int block
    rates as `minimize_brute`, cached per block-choice bitmask; the greedy
    vertex builds its chain of unions one mask at a time.  With exact
    arithmetic the optimality test <x, x> <= min_v <x, v> is decided
    exactly, so the extreme minimizers are read directly off the sign
    pattern of the norm point x: strictly negative coordinates give the
    minimal minimizer, nonpositive ones the maximal, and the two must reach
    the same value.  Raises SolverError past _MNP_ITERATION_CAP iterations.
    """
    k = len(oracle.non_anchor_blocks)
    if k == 0:
        return SfmResult(oracle.f_tilde(mask_users(oracle.anchor)), oracle.anchor, 1)

    anchor_mask, masks = oracle.anchor, oracle.non_anchor_blocks
    entropy = oracle.model.entropy_of_mask
    anchor_h = entropy(anchor_mask)
    cache: dict[int, Fraction] = {0: Fraction(0)}

    def greedy(weights: Sequence[Fraction]) -> tuple[Fraction, ...]:
        vertex = [Fraction(0)] * k
        choice = rate = 0
        users = anchor_mask
        prev = Fraction(0)
        for j in sorted(range(k), key=weights.__getitem__):
            choice |= 1 << j
            users |= masks[j]
            rate += oracle.rates[j]
            cur = cache.get(choice)
            if cur is None:
                cur = cache[choice] = entropy(users) - anchor_h - Fraction(rate, oracle.scale)
            vertex[j] = cur - prev
            prev = cur
        return tuple(vertex)

    x = greedy([Fraction(0)] * k)
    corral = [x]
    coeffs = [Fraction(1)]

    for _ in range(_MNP_ITERATION_CAP):
        q = greedy(x)
        if dot_exact(x, q) >= dot_exact(x, x):
            break
        corral.append(q)
        coeffs.append(Fraction(0))
        while True:
            lambdas, y = _affine_minimizer(corral)
            if all(l >= 0 for l in lambdas):
                coeffs, x = lambdas, y
            else:
                # Step toward y as far as conv(corral) allows, then drop the
                # vertices whose coefficient hit zero.
                theta = min(c / (c - l) for c, l in zip(coeffs, lambdas) if l < 0)
                coeffs = [theta * l + (1 - theta) * c for c, l in zip(coeffs, lambdas)]
            keep = [j for j, c in enumerate(coeffs) if c > 0]
            dropped = len(keep) < len(corral)
            corral = [corral[j] for j in keep]
            coeffs = [coeffs[j] for j in keep]
            x = tuple(
                sum((c * v[j] for c, v in zip(coeffs, corral)), Fraction(0))
                for j in range(k)
            )
            if not dropped or x == y:
                break
    else:
        raise SolverError("minimum-norm-point iteration cap exceeded")

    minimal = _fused(oracle, sum(1 << j for j in range(k) if x[j] < 0))
    maximal = _fused(oracle, sum(1 << j for j in range(k) if x[j] <= 0))
    value = oracle.f_tilde(mask_users(minimal))
    if value != oracle.f_tilde(mask_users(maximal)):
        raise InternalError("extreme minimizers disagree on the minimum value")
    return SfmResult(value, minimal, len(cache))


def _affine_minimizer(vertices: list[tuple[Fraction, ...]]):
    """Minimum-norm point of the affine hull of `vertices`, exactly.

    The vertices are scaled to ints by the lcm of their coordinates'
    denominators; the affine minimizer's coefficients do not depend on that
    scale.  The bordered Gram system [[0, 1^T], [1, G]] (mu, lam) = (1, 0),
    with G symmetric and filled by halves, is then solved by fraction-free
    Gauss-Jordan elimination (Bareiss 1968): step t replaces every entry
    off the pivot row by (p*a - b*c) / p', where p is the current pivot and
    p' the previous one.  By Sylvester's determinant identity each entry
    after step t is the determinant of a (t+1)-by-(t+1) matrix of entries
    of the row-permuted system, an int, so every division is exact; a
    nonzero remainder would mean corrupted state and raises InternalError.
    At the end every diagonal entry is the determinant det, so
    lam_i = num_i / det and the point is sum(num_i * v_i) / (det * scale).
    """
    m = len(vertices)
    n = len(vertices[0])
    scale = lcm(*(c.denominator for v in vertices for c in v))
    ints = [[c.numerator * (scale // c.denominator) for c in v] for v in vertices]
    size = m + 1
    aug = [[0] * (size + 1) for _ in range(size)]
    aug[0][size] = 1
    for i in range(m):
        aug[0][i + 1] = aug[i + 1][0] = 1
        for j in range(i, m):
            aug[i + 1][j + 1] = aug[j + 1][i + 1] = sum(
                a * b for a, b in zip(ints[i], ints[j]))

    prev = 1
    for col in range(size):
        pivot = next((r for r in range(col, size) if aug[r][col]), None)
        if pivot is None:
            raise InternalError("degenerate corral in min-norm-point solver")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        prow = aug[col]
        p = prow[col]
        for r in range(size):
            if r == col:
                continue
            row = aug[r]
            factor = row[col]
            updated = []
            for v, w in zip(row, prow):
                q, rem = divmod(p * v - factor * w, prev)
                if rem:
                    raise InternalError("inexact division in fraction-free elimination")
                updated.append(q)
            aug[r] = updated
        prev = p

    det = prev
    nums = [aug[j + 1][size] for j in range(m)]
    lambdas = [Fraction(num, det) for num in nums]
    point = tuple(
        Fraction(sum(num * v[c] for num, v in zip(nums, ints)), det * scale)
        for c in range(n)
    )
    return lambdas, point


def dot_exact(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def minimize_cut(oracle: FusionOracle) -> SfmResult:
    """Exact solver for bit-pool sources: one s-t minimum cut.

    On a `BitPoolSource`, H(anchor u S~) - H(anchor) counts the bits that the
    blocks of S~ add to the anchor's, so up to the constant
    alpha - H(V) + H(anchor) - r(anchor), `scale` times f~ is
    scale * |new bits of S~| - (int rates of S~).  Minimizing it is a
    maximum-weight closure (Picard 1976): blocks are projects worth their
    int rate, new bits are resources costing `scale` each.  Each block is
    named by its rep, its lowest user's bit, and every set of blocks is a
    mask of reps.  The new bits are grouped in one pass by the blocks that
    add them, their cover (read off `BitPoolSource.bit_holders`); a bit
    only one block adds is folded into that block's weight.  The network is
    bipartite: source -> block with capacity its weight when that is
    positive, block -> group uncuttable, group -> sink with capacity
    scale * (group size), its room.  A block of weight <= 0 gets no source
    arc and so carries no flow.  The source side of a minimum cut is a
    minimizer and the cut value is P + scale * (f~ - constant), with P the
    sum of the positive weights.

    The flow (`_max_flow`) pours the blocks' weight greedily into the
    groups, then places the rest on shortest augmenting paths.  Once no
    path is left, the blocks reachable from the source in the residual
    network form the minimal minimizer.  The minimum is the constant less
    the weight left over `scale`.  `evaluations` is the number of
    augmenting paths.
    """
    model = oracle.model
    if not isinstance(model, BitPoolSource):
        raise DomainError("the min-cut solver needs a bit-pool source")
    anchor_mask, masks = oracle.anchor, oracle.non_anchor_blocks
    anchor_bits = model.bits_of_mask(anchor_mask)
    weights, groups = _closure_network(model, anchor_mask, masks, oracle.rates, oracle.scale)
    left, reached, paths = _max_flow(weights, list(groups), list(groups.values()))
    minimal = sum(1 << j for j, mask in enumerate(masks) if mask & reached)
    value = _min_value(oracle, anchor_bits.bit_count() * oracle.scale - sum(left.values()))
    return SfmResult(value, _fused(oracle, minimal), paths)


def _closure_network(model: BitPoolSource, anchor_mask: int, masks: Sequence[int],
                     rates: Sequence[int], scale: int):
    """The blocks' weights and the shared bit groups of `minimize_cut`.

    Returns, per block rep, its int rate (`rates` ends with the anchor's)
    less `scale` per new bit that it alone adds, and per cover of two or
    more blocks its room, scale times the number of new bits those blocks
    add.  The new bits are counted in one pass by the users of the lattice
    holding them; each distinct holder mask then becomes its cover by
    swapping each non-rep user for its block's rep (on singleton blocks the
    holder mask is the cover).
    """
    lattice = reps = 0
    rep_of = {}  # a non-rep user's bit -> its block's rep
    weights = {}
    for mask, rate in zip(masks, rates[:-1]):
        lattice |= mask
        rep = mask & -mask
        reps |= rep
        weights[rep] = rate
        mask ^= rep
        while mask:
            low = mask & -mask
            rep_of[low] = rep
            mask ^= low
    # A bit is new when the lattice holds it and the anchor does not.
    by_holders = Counter(held & lattice for held in model.bit_holders
                         if not held & anchor_mask)
    by_holders.pop(0, None)
    groups: dict[int, int] = {}
    for held, count in by_holders.items():
        cover = held & reps
        others = held ^ cover
        while others:
            low = others & -others
            cover |= rep_of[low]
            others ^= low
        if cover & (cover - 1):  # added by two or more blocks
            groups[cover] = groups.get(cover, 0) + scale * count
        else:
            weights[cover] -= scale * count
    return weights, groups


def _max_flow(weights: dict[int, int], covers: list[int], room: list[int]):
    """Maximum flow source -> blocks -> groups -> sink, on ints and rep masks.

    Block rep j's source arc has capacity max(weights[j], 0), each arc from
    a block to a group whose cover holds it is uncuttable, and group g's
    arc to the sink has capacity room[g], a list that the flow consumes.
    The greedy pour fills each group in turn from `cover & holding`, the
    blocks of its cover that still hold weight, lowest rep first; what is
    left then goes along shortest augmenting paths block -> group
    (-> block -> group)* whose group -> block steps are reverse arcs,
    undoing flow already placed.  The search grows one level at a time: a
    group joins when its cover meets the blocks reached last, and the
    blocks it carries flow from join the next level.  Returns the weight
    each block has left, the blocks that the source reaches in the final
    residual network and the number of augmenting paths.
    """
    left = {rep: w for rep, w in weights.items() if w > 0}
    holding = sum(left)
    flow: dict[tuple[int, int], int] = {}  # (g, j) -> flow on the arc j -> g
    carrying = [0] * len(covers)
    for g, cover in enumerate(covers):
        pour, r = cover & holding, room[g]
        while pour and r:
            j = pour & -pour
            w = left[j]
            if w > r:
                left[j], flow[g, j], r = w - r, r, 0
            else:
                left[j], flow[g, j], r = 0, w, r - w
                holding ^= j
            carrying[g] |= j
            pour ^= j
        room[g] = r
    paths = 0
    while True:
        # via_block[g] is the block group g was reached from and via_group[j]
        # the group a block reached through a reverse arc was reached from.
        reached = frontier = holding
        via_block: dict[int, int] = {}
        via_group: dict[int, int] = {}
        end = -1
        while frontier and end < 0:
            nxt = 0
            for g, cover in enumerate(covers):
                hit = cover & frontier
                if not hit or g in via_block:
                    continue
                via_block[g] = hit & -hit
                if room[g]:
                    end = g
                    break
                fresh = carrying[g] & ~reached
                reached |= fresh
                nxt |= fresh
                while fresh:
                    j = fresh & -fresh
                    via_group[j] = g
                    fresh ^= j
            frontier = nxt
        if end < 0:
            return left, reached, paths
        paths += 1
        # Walk the path back from `end`: each (g, j) of `forward` is an arc
        # block -> group that gains flow, each of `backward` one whose flow
        # the path undoes.
        forward, backward = [], []
        g = end
        while g >= 0:
            j = via_block[g]
            forward.append((g, j))
            g = via_group.get(j, -1)
            if g >= 0:
                backward.append((g, j))
        amount = min(room[end], left[j], *(flow[arc] for arc in backward))
        room[end] -= amount
        left[j] -= amount
        if not left[j]:
            holding ^= j
        for g, j in forward:
            flow[g, j] = flow.get((g, j), 0) + amount
            carrying[g] |= j
        for g, j in backward:
            flow[g, j] -= amount
            if not flow[g, j]:
                carrying[g] ^= j


def minimize(oracle: FusionOracle) -> SfmResult:
    """The minimum of f~ and its minimal minimizer, from one of two exact backends.

    A bit-pool lattice of more than CUT_CROSSOVER non-anchor blocks goes to
    the min cut, whatever its size; every other lattice goes to brute
    enumeration, which raises CapacityError past BRUTE_LIMIT blocks (only a
    source of more than MAX_TABLE_USERS users that is not a bit pool can get
    there).
    """
    if len(oracle.non_anchor_blocks) > CUT_CROSSOVER and isinstance(oracle.model, BitPoolSource):
        return minimize_cut(oracle)
    return minimize_brute(oracle)
