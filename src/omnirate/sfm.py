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
  blocks).  It runs for k <= AUTO_BRUTE_LIMIT and is the in-repo reference
  oracle.
* `minimize_mnp` runs the Fujishige-Wolfe minimum-norm-point algorithm on
  the base polytope of the function contracted onto the anchor, entirely in
  exact rational arithmetic, and reads both extreme minimizers off the sign
  pattern of the norm point.  It runs above the limit; if it hits its
  iteration cap, `minimize` falls back to brute enumeration.

Both backends return the same canonical answer: the minimum value, the
minimal minimizer (intersection of all minimizers) and the maximal
minimizer (union), each expressed as a set of users.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import CapacityError, DomainError, InternalError, SolverError
from .model import SourceModel

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


def minimize_brute(oracle: FusionOracle) -> SfmResult:
    """Reference solver: enumerate every anchored union of blocks.

    The minimal minimizer is accumulated as the intersection of all
    minimizers seen and the maximal one as their union; the minimizer
    lattice guarantees both are themselves minimizers.
    """
    rest = oracle.non_anchor_blocks
    if len(rest) > BRUTE_LIMIT:
        raise CapacityError(
            f"brute enumeration capped at {BRUTE_LIMIT} non-anchor blocks, got {len(rest)}"
        )
    best = oracle.f_tilde(oracle.anchor)
    minimal = maximal = oracle.anchor
    evaluations = 1
    for choice in range(1, 1 << len(rest)):
        fused = set(oracle.anchor)
        for k in range(len(rest)):
            if choice & (1 << k):
                fused |= rest[k]
        fused = frozenset(fused)
        value = oracle.f_tilde(fused)
        evaluations += 1
        if value < best:
            best = value
            minimal = maximal = fused
        elif value == best:
            minimal = minimal & fused
            maximal = maximal | fused
    return SfmResult(best, minimal, maximal, evaluations)


def minimize_mnp(oracle: FusionOracle, iteration_cap: int = _MNP_ITERATION_CAP) -> SfmResult:
    """Fujishige-Wolfe minimum-norm-point solver in exact rationals.

    Works on g(S) = f~(anchor u S~) - f~(anchor) over the non-anchor blocks
    (contraction keeps submodularity exact and encodes the anchor
    constraint).  With exact arithmetic the optimality test
    <x, x> <= min_v <x, v> is decided exactly, so the extreme minimizers
    are read directly off the sign pattern of the norm point x: strictly
    negative coordinates give the minimal minimizer, nonpositive ones the
    maximal.  Raises SolverError if the iteration cap is hit (callers may
    fall back to minimize_brute).
    """
    rest = oracle.non_anchor_blocks
    k = len(rest)
    anchor_value = oracle.f_tilde(oracle.anchor)
    if k == 0:
        return SfmResult(anchor_value, oracle.anchor, oracle.anchor, 1)

    cache: dict[int, Fraction] = {0: Fraction(0)}

    def g_of_mask(mask: int) -> Fraction:
        value = cache.get(mask)
        if value is None:
            fused = set(oracle.anchor)
            for j in range(k):
                if mask & (1 << j):
                    fused |= rest[j]
            value = oracle.f_tilde(frozenset(fused)) - anchor_value
            cache[mask] = value
        return value

    def greedy(weights: Sequence[Fraction]) -> tuple[Fraction, ...]:
        order = sorted(range(k), key=lambda j: weights[j])
        vertex = [Fraction(0)] * k
        mask = 0
        prev = Fraction(0)
        for j in order:
            mask |= 1 << j
            cur = g_of_mask(mask)
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

    minimal = set(oracle.anchor)
    maximal = set(oracle.anchor)
    for j in range(k):
        if x[j] < 0:
            minimal |= rest[j]
        if x[j] <= 0:
            maximal |= rest[j]
    minimal = frozenset(minimal)
    maximal = frozenset(maximal)
    value = oracle.f_tilde(minimal)
    if value != oracle.f_tilde(maximal):
        raise InternalError("extreme minimizers disagree on the minimum value")
    return SfmResult(value, minimal, maximal, len(cache))


def _affine_minimizer(vertices: list[tuple[Fraction, ...]]):
    """Minimum-norm point of the affine hull of `vertices`, exactly.

    Solves the bordered Gram system [[0, 1^T], [1, G]] (mu, lam) = (1, 0)
    by fraction-exact Gaussian elimination and returns (lam, sum lam_i v_i).
    """
    m = len(vertices)
    gram = [[dot_exact(a, b) for b in vertices] for a in vertices]
    size = m + 1
    aug = [[Fraction(0)] * (size + 1) for _ in range(size)]
    aug[0][0] = Fraction(0)
    for j in range(m):
        aug[0][j + 1] = Fraction(1)
        aug[j + 1][0] = Fraction(1)
    for i in range(m):
        for j in range(m):
            aug[i + 1][j + 1] = gram[i][j]
    aug[0][size] = Fraction(1)

    for col in range(size):
        pivot = next((r for r in range(col, size) if aug[r][col] != 0), None)
        if pivot is None:
            raise InternalError("degenerate corral in min-norm-point solver")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = aug[col][col]
        aug[col] = [v / inv for v in aug[col]]
        for r in range(size):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [v - factor * w for v, w in zip(aug[r], aug[col])]

    lambdas = [aug[j + 1][size] for j in range(m)]
    n = len(vertices[0])
    point = tuple(
        sum((l * v[j] for l, v in zip(lambdas, vertices)), Fraction(0))
        for j in range(n)
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
