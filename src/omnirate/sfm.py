"""Submodular minimization over a fusion lattice of partition blocks.

The inner problem solved here, many times per sweep, is

    minimize  f~(X~) = alpha - H(V) + H(X~) - r(X~)

over all X~ that are unions of blocks of a carrier partition Q and contain
a designated anchor block.  f~ is submodular on that block lattice because
it is an entropy-derived submodular function minus a modular rate term, so
the minimizers form a lattice and the componentwise-minimal and -maximal
minimizers both exist.

`minimize` is the one entry point, with one exact backend per lattice (k
non-anchor blocks):

* `minimize_cut` on a `BitPoolSource` with k > CUT_CROSSOVER: f~ is then a
  maximum-weight closure, solved by one int s-t max-flow whose residual
  network gives both extreme minimizers.  It has no size cap.
* `minimize_brute` on every other lattice: all 2^k anchored block unions in
  Gray-code order, refusing k > BRUTE_LIMIT with a CapacityError that no
  explicit table (at most MAX_TABLE_USERS users) reaches.

`minimize_mnp`, the Fujishige-Wolfe minimum-norm-point algorithm on the
base polytope of f~ contracted onto the anchor, is the reference that tests
check both backends against.

All solvers work on user bitmasks and ints.  Once per call they compute
the anchor's mask, one mask per non-anchor block and the oracle's block
rate sums scaled to ints by the lcm of their denominators; brute and
min-norm-point read entropies from `SourceModel.entropy_of_mask`, the cut
reads the pooled bits from `BitPoolSource.bits_of_mask`.  Nothing is
rounded: values are compared by cross-multiplication, the min-norm-point's
linear algebra is fraction-free and the flow is over ints, so the answers
are the exact ones.

Every solver returns the same canonical answer: the minimum value, the
minimal minimizer (intersection of all minimizers) and the maximal
minimizer (union), each expressed as a set of users.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Sequence

from .errors import CapacityError, DomainError, InternalError, SolverError
from .model import BitPoolSource, SourceModel, subset_mask

# Bit-pool lattices with more non-anchor blocks than this go to the min cut:
# per call on fresh bench models, the cut overtakes brute enumeration at 6
# blocks (CHANGES.md has the per-k table).
CUT_CROSSOVER = 5
# Brute enumeration's cap.  `minimize` sends it explicit tables of at most
# MAX_TABLE_USERS users, so at most 19 non-anchor blocks: their 2^19 unions
# took 0.4-0.5 s on a 20-user table (2-vCPU Xeon), min-norm-point 8 ms.
BRUTE_LIMIT = 24
_MNP_ITERATION_CAP = 10_000


@dataclass(frozen=True)
class FusionOracle:
    """Evaluator for f~ on the anchored block lattice of one saturation step.

    `blocks` is the carrier partition with the anchor, the block that every
    candidate must contain, last; `rates` is parallel to it, the exact rate
    sum of each block; `alpha` is the sum-rate estimate.  Submodularity of
    the evaluator needs no check: it holds for any rates.
    """

    model: SourceModel
    alpha: Fraction
    blocks: tuple[frozenset[int], ...]
    rates: tuple[Fraction, ...]

    @property
    def anchor(self) -> frozenset[int]:
        return self.blocks[-1]

    @property
    def non_anchor_blocks(self) -> tuple[frozenset[int], ...]:
        return self.blocks[:-1]

    def f_tilde(self, fused: frozenset[int]) -> Fraction:
        """f~(X~) = alpha - H(V) + H(X~) - r(X~) for a block union X~ holding the anchor."""
        rate, size = Fraction(0), 0
        for block, block_rate in zip(self.blocks, self.rates):
            if block <= fused:
                rate += block_rate
                size += len(block)
        if size != len(fused) or not self.anchor <= fused:
            raise DomainError("candidate must be a union of blocks containing the anchor")
        return self.alpha - self.model.total_entropy + self.model.entropy(fused) - rate


@dataclass(frozen=True)
class SfmResult:
    """The minimum of f~ and its extreme minimizers.

    `evaluations` is the backend's work count: f~ values read by brute and
    min-norm-point, max-flow phases by the cut.
    """

    min_value: Fraction
    minimal: frozenset[int]
    maximal: frozenset[int]
    evaluations: int = field(compare=False, default=0)


def _scaled_lattice(oracle: FusionOracle):
    """Per-call set-up shared by the backends.

    Returns the anchor's user mask, one user mask per non-anchor block, each
    block's rate sum as an int over a common denominator, and that
    denominator `scale` (the lcm of the block sums' denominators).
    """
    sums = oracle.rates[:-1]
    scale = lcm(*(s.denominator for s in sums))
    return (subset_mask(oracle.anchor), [subset_mask(b) for b in oracle.non_anchor_blocks],
            [s.numerator * (scale // s.denominator) for s in sums], scale)


def _offset(oracle: FusionOracle) -> Fraction:
    """alpha - H(V) - r(anchor): f~(X~) less H(X~) - r(X~ minus the anchor)."""
    return oracle.alpha - oracle.model.total_entropy - oracle.rates[-1]


def _fused(oracle: FusionOracle, choice: int) -> frozenset[int]:
    """The anchor plus the non-anchor blocks whose bits are set in `choice`."""
    rest = oracle.non_anchor_blocks
    chosen = [rest[j] for j in range(len(rest)) if choice >> j & 1]
    return oracle.anchor.union(*chosen) if chosen else oracle.anchor


def minimize_brute(oracle: FusionOracle) -> SfmResult:
    """Exhaustive solver: enumerate every anchored union of blocks.

    The 2^k unions are visited in Gray-code order, so each step toggles one
    block: its user mask is xor-ed into the union and its int rate added or
    subtracted, and the entropy is read straight from
    `SourceModel.entropy_of_mask`.  Up to the constant alpha - H(V) - r(anchor),
    a union's value times `scale` is (h.numerator*scale - rate*h.denominator)
    / h.denominator, and two such values are compared by cross-multiplying,
    so the walk stays on ints (bit-pool entropies have denominator 1) and
    rational tables stay exact without a model-wide lcm.  The minimum is
    that constant plus the best value over `scale`.

    The minimal minimizer is accumulated as the intersection of all
    minimizers seen and the maximal one as their union, both as bitmasks of
    block choices; the minimizer lattice guarantees both are themselves
    minimizers.
    """
    k = len(oracle.non_anchor_blocks)
    if k > BRUTE_LIMIT:
        raise CapacityError(
            f"brute enumeration capped at {BRUTE_LIMIT} non-anchor blocks, got {k}"
        )
    users, masks, rates, scale = _scaled_lattice(oracle)
    entropy = oracle.model.entropy_of_mask
    h = entropy(users)
    best_num, best_den = h.numerator * scale, h.denominator
    choice = minimal = maximal = rate = 0
    for step in range(1, 1 << k):
        j = (step & -step).bit_length() - 1
        users ^= masks[j]
        if choice >> j & 1:
            rate -= rates[j]
        else:
            rate += rates[j]
        choice ^= 1 << j
        h = entropy(users)
        den = h.denominator
        num = h.numerator * scale - rate * den
        lhs = num * best_den
        rhs = best_num * den
        if lhs < rhs:
            best_num, best_den = num, den
            minimal = maximal = choice
        elif lhs == rhs:
            minimal &= choice
            maximal |= choice
    return SfmResult(_offset(oracle) + Fraction(best_num, best_den * scale),
                     _fused(oracle, minimal), _fused(oracle, maximal), 1 << k)


def minimize_mnp(oracle: FusionOracle, iteration_cap: int = _MNP_ITERATION_CAP) -> SfmResult:
    """Fujishige-Wolfe minimum-norm-point solver in exact rationals.

    Works on g(S) = f~(anchor u S~) - f~(anchor) over the non-anchor blocks
    (contraction keeps submodularity exact and encodes the anchor
    constraint).  g is read through the same block masks and int block
    rates as `minimize_brute`, cached per block-choice bitmask; the greedy
    vertex builds its chain of unions one mask at a time.  With exact
    arithmetic the optimality test <x, x> <= min_v <x, v> is decided
    exactly, so the extreme minimizers are read directly off the sign
    pattern of the norm point x: strictly negative coordinates give the
    minimal minimizer, nonpositive ones the maximal.  Raises SolverError if
    the iteration cap is hit.
    """
    k = len(oracle.non_anchor_blocks)
    if k == 0:
        return SfmResult(oracle.f_tilde(oracle.anchor), oracle.anchor, oracle.anchor, 1)

    anchor_mask, masks, rates, scale = _scaled_lattice(oracle)
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
            rate += rates[j]
            cur = cache.get(choice)
            if cur is None:
                cur = cache[choice] = entropy(users) - anchor_h - Fraction(rate, scale)
            vertex[j] = cur - prev
            prev = cur
        return tuple(vertex)

    x = greedy([Fraction(0)] * k)
    corral = [x]
    coeffs = [Fraction(1)]

    for _ in range(iteration_cap):
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
    value = oracle.f_tilde(minimal)
    if value != oracle.f_tilde(maximal):
        raise InternalError("extreme minimizers disagree on the minimum value")
    return SfmResult(value, minimal, maximal, len(cache))


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
    int rate, new bits are resources costing `scale` each.  A bit that only
    one block adds is folded into that block's weight; the other new bits
    are grouped by the set of blocks that adds them, one node per group
    with capacity scale * (group size) to the sink and an uncuttable edge
    from each of its blocks.  A block of positive weight gets an edge of
    that capacity from the source, one of negative weight an edge to the
    sink.  The source side of a minimum cut is then a minimizer and the cut
    value is P + scale * (f~ - constant), with P the sum of the positive
    weights.

    After one int max-flow, the blocks reachable from the source in the
    residual network form the minimal minimizer, and the blocks that cannot
    reach the sink the maximal one; blocks of weight 0 or adding no new bit
    need no special case.  `evaluations` is the number of max-flow phases.
    """
    model = oracle.model
    if not isinstance(model, BitPoolSource):
        raise DomainError("the min-cut solver needs a bit-pool source")
    anchor_mask, masks, rates, scale = _scaled_lattice(oracle)
    anchor_bits = model.bits_of_mask(anchor_mask)
    adds = [model.bits_of_mask(m) & ~anchor_bits for m in masks]
    k = len(adds)
    # (cover, bits): the new bits added by exactly the blocks set in cover.
    groups: list[tuple[int, int]] = []
    for j, added in enumerate(adds):
        split = []
        for cover, bits in groups:
            inside = bits & added
            if inside:
                split.append((cover | 1 << j, inside))
                added ^= inside
            if inside != bits:
                split.append((cover, bits ^ inside))
        if added:
            split.append((1 << j, added))
        groups = split
    weights = list(rates)
    shared = []
    for cover, bits in groups:
        if cover & (cover - 1):  # added by two or more blocks
            shared.append((cover, scale * bits.bit_count()))
        else:
            weights[cover.bit_length() - 1] -= scale * bits.bit_count()
    positive = sum(w for w in weights if w > 0)
    # Nodes: blocks 0..k-1, source k, sink k+1, then one per shared group.
    # residual[u][v] is the residual capacity of the arc u -> v; every arc
    # has its reverse entry, so residual[v] also lists the arcs into v.
    source, sink = k, k + 1
    residual: list[dict[int, int]] = [{} for _ in range(k + 2 + len(shared))]
    for j, w in enumerate(weights):
        if w > 0:
            residual[source][j] = w
            residual[j][source] = 0
        elif w < 0:
            residual[j][sink] = -w
            residual[sink][j] = 0
    # No flow exceeds `positive`, so positive + 1 is never saturated.
    for node, (cover, c) in enumerate(shared, start=k + 2):
        arcs = residual[node]
        while cover:
            low = cover & -cover
            j = low.bit_length() - 1
            residual[j][node] = positive + 1
            arcs[j] = 0
            cover ^= low
        arcs[sink] = c
        residual[sink][node] = 0

    flow, phases, reached = _max_flow(residual, source, sink, positive)
    reaches_sink = [False] * len(residual)
    reaches_sink[sink] = True
    queue = [sink]
    for v in queue:
        for u in residual[v]:
            if residual[u][v] and not reaches_sink[u]:
                reaches_sink[u] = True
                queue.append(u)
    minimal = sum(1 << j for j in range(k) if reached[j])
    maximal = sum(1 << j for j in range(k) if not reaches_sink[j])
    value = (_offset(oracle) + anchor_bits.bit_count()
             + Fraction(flow - positive, scale))
    return SfmResult(value, _fused(oracle, minimal), _fused(oracle, maximal), phases)


def _max_flow(residual: list[dict[int, int]], source: int, sink: int,
              limit: int) -> tuple[int, int, list[bool]]:
    """Dinic's maximum flow on an int network, leaving `residual` residual.

    `limit` must bound the flow (the capacity out of the source).  Returns
    the flow value, the number of blocking-flow phases and, per node,
    whether the source reaches it in the final residual network.  A level
    graph path visits each node once, so the recursion is at most as deep
    as the network has nodes.
    """
    n = len(residual)
    flow = phases = 0
    while True:
        level = [-1] * n
        level[source] = 0
        queue = [source]
        for u in queue:
            for v, c in residual[u].items():
                if c and level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        if level[sink] < 0:
            return flow, phases, [d >= 0 for d in level]

        def push(u: int, most: int) -> int:
            # Send up to `most` from u to the sink along the level graph.  A
            # node that cannot pass on all it is offered leaves the level
            # graph for the rest of the phase.
            if u == sink:
                return most
            arcs = residual[u]
            deeper = level[u] + 1
            sent = 0
            for v, c in arcs.items():
                if c and level[v] == deeper:
                    got = push(v, min(most - sent, c))
                    if got:
                        arcs[v] = c - got
                        residual[v][u] += got
                        sent += got
                        if sent == most:
                            return sent
            level[u] = -1
            return sent

        flow += push(source, limit)
        phases += 1


def minimize(oracle: FusionOracle) -> SfmResult:
    """Canonical extreme minimizers of f~, from one of two exact backends.

    A bit-pool lattice of more than CUT_CROSSOVER non-anchor blocks goes to
    the min cut, whatever its size; every other lattice goes to brute
    enumeration, which raises CapacityError past BRUTE_LIMIT blocks (only a
    source that is neither a bit pool nor an explicit table can get there).
    """
    if len(oracle.non_anchor_blocks) > CUT_CROSSOVER and isinstance(oracle.model, BitPoolSource):
        return minimize_cut(oracle)
    return minimize_brute(oracle)
