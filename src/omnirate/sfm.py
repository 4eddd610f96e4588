"""Submodular minimization over a fusion lattice of partition blocks.

The inner problem solved here, many times per sweep, is

    minimize  f~(X~) = alpha - H(V) + H(X~) - r(X~)

over all X~ that are unions of blocks of a carrier partition Q and contain
a designated anchor block.  f~ is submodular on that block lattice because
it is an entropy-derived submodular function minus a modular rate term, so
the minimizers form a lattice and the componentwise-minimal and -maximal
minimizers both exist.

`minimize` is the one entry point.  It picks a backend by lattice size:

* `minimize_brute` enumerates all 2^(k) anchored block unions (k non-anchor
  blocks) in Gray-code order.  It runs for k <= AUTO_BRUTE_LIMIT.
* `minimize_mnp` runs the Fujishige-Wolfe minimum-norm-point algorithm on
  the base polytope of the function contracted onto the anchor, entirely in
  exact arithmetic, and reads both extreme minimizers off the sign pattern
  of the norm point.  It runs above the limit; if it hits its iteration
  cap, `minimize` falls back to brute enumeration.

Both backends work on user bitmasks and ints.  Once per call they compute
the anchor's mask, one mask per non-anchor block and each block's rate sum
scaled to an int by the lcm of those sums' denominators; entropies come
straight from `SourceModel.entropy_of_mask`.  Nothing is rounded: values
are compared by cross-multiplication and the min-norm-point's linear
algebra is fraction-free, so the answers are the exact ones.

Both backends return the same canonical answer: the minimum value, the
minimal minimizer (intersection of all minimizers) and the maximal
minimizer (union), each expressed as a set of users.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Mapping, Sequence

from .errors import CapacityError, DomainError, InternalError, SolverError
from .model import SourceModel, subset_mask

# 2^11 brute evaluations is still instantaneous; larger lattices go to the
# min-norm-point path.
AUTO_BRUTE_LIMIT = 11
BRUTE_LIMIT = 24
_MNP_ITERATION_CAP = 10_000


@dataclass(frozen=True)
class FusionOracle:
    """Evaluator for f~ on the anchored block lattice of one saturation step.

    `blocks` is the carrier partition (anchor included), `anchor` the block
    that every candidate must contain, `rates` the current rate of every
    user in the carrier, and `alpha` the sum-rate estimate.  Submodularity
    of the evaluator needs no check: it holds for any modular `rates`.
    """

    model: SourceModel
    alpha: Fraction
    blocks: tuple[frozenset[int], ...]
    anchor: frozenset[int]
    rates: Mapping[int, Fraction]

    def __post_init__(self):
        if self.anchor not in self.blocks:
            raise DomainError("anchor must be one of the carrier blocks")

    @property
    def non_anchor_blocks(self) -> tuple[frozenset[int], ...]:
        return tuple(b for b in self.blocks if b != self.anchor)

    def f_tilde(self, fused: frozenset[int]) -> Fraction:
        """f~(X~) = alpha - H(V) + H(X~) - r(X~); X~ must contain the anchor."""
        if not self.anchor <= fused:
            raise DomainError("candidate must contain the anchor block")
        rate = sum((self.rates[u] for u in fused), Fraction(0))
        return self.alpha - self.model.total_entropy + self.model.entropy(fused) - rate


@dataclass(frozen=True)
class SfmResult:
    min_value: Fraction
    minimal: frozenset[int]
    maximal: frozenset[int]
    evaluations: int = field(compare=False, default=0)


def _scaled_lattice(oracle: FusionOracle):
    """Per-call set-up shared by both backends.

    Returns the anchor's user mask, one user mask per non-anchor block, each
    block's rate sum as an int over a common denominator, and that
    denominator `scale` (the lcm of the block sums' denominators).
    """
    rest = oracle.non_anchor_blocks
    sums = [sum((oracle.rates[u] for u in b), Fraction(0)) for b in rest]
    scale = lcm(*(s.denominator for s in sums))
    return (subset_mask(oracle.anchor), [subset_mask(b) for b in rest],
            [s.numerator * (scale // s.denominator) for s in sums], scale)


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
    rational tables stay exact without a model-wide lcm.

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
    minimal_set = _fused(oracle, minimal)
    return SfmResult(oracle.f_tilde(minimal_set), minimal_set,
                     _fused(oracle, maximal), 1 << k)


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
    the iteration cap is hit (callers may fall back to minimize_brute).
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


def minimize(oracle: FusionOracle) -> SfmResult:
    """Canonical extreme minimizers of f~, with the backend picked by size.

    Brute enumeration on lattices of at most AUTO_BRUTE_LIMIT non-anchor
    blocks, min-norm-point above it.  If min-norm-point fails to converge
    the call falls back to brute enumeration, so the answer is the same
    exact one either way.
    """
    if len(oracle.non_anchor_blocks) <= AUTO_BRUTE_LIMIT:
        return minimize_brute(oracle)
    try:
        return minimize_mnp(oracle)
    except SolverError:
        return minimize_brute(oracle)
