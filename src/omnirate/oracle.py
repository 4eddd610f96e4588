"""Brute-force reference implementations used by tests and `verify`.

Everything here trades speed for transparency: partition enumeration is
bounded by Bell(8) = 4140, so carriers are capped at 8 users.  These
oracles are deliberately independent of the saturation/parametric code
paths they are used to check.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator

from .dilworth import AlphaFunction, check_alpha, check_carrier
from .errors import CapacityError, DomainError, InternalError
from .model import SourceModel
from .partition import Partition

MAX_ENUM_USERS = 8


def partitions_of(items: Iterable[int], max_size: int = MAX_ENUM_USERS) -> Iterator[Partition]:
    """All partitions of `items`, each exactly once, via restricted growth strings.

    A restricted growth string assigns item k the label of its block, where
    a new block may only take the smallest unused label; this enumerates
    every set partition once.
    """
    items = tuple(sorted(set(items)))
    n = len(items)
    if n > max_size:
        raise CapacityError(
            f"partition enumeration capped at {max_size} items, got {n}"
        )
    if n == 0:
        raise CapacityError("cannot enumerate partitions of the empty set")

    labels = [0] * n

    def walk(k: int, used: int) -> Iterator[Partition]:
        if k == n:
            blocks: list[list[int]] = [[] for _ in range(used)]
            for idx, lab in enumerate(labels):
                blocks[lab].append(items[idx])
            yield Partition(blocks)
            return
        for lab in range(used + 1):
            labels[k] = lab
            yield from walk(k + 1, max(used, lab + 1))

    return walk(1, 1) if n > 1 else iter([Partition([items])])


def brute_min_sum_rate(model: SourceModel, carrier=None) -> tuple[Fraction, Partition]:
    """Exact minimum sum-rate of the subsystem on `carrier`, by enumeration.

    Maximizes sum_{C in P} (H(carrier) - H(C)) / (|P| - 1) over all
    partitions with more than one block and returns the finest maximizer
    (the maximizer every other maximizer coarsens).
    """
    users = check_carrier(model, carrier)
    if len(users) < 2:
        raise DomainError("minimum sum-rate needs a carrier of at least 2 users")
    h_total = model.entropy(users)
    best: Fraction | None = None
    argmax: list[Partition] = []
    for p in partitions_of(users):
        if len(p) < 2:
            continue
        value = sum(
            (h_total - model.entropy(c) for c in p), Fraction(0)
        ) / (len(p) - 1)
        if best is None or value > best:
            best = value
            argmax = [p]
        elif value == best:
            argmax.append(p)
    finest = next((p for p in argmax if all(p.refines(q) for q in argmax)), None)
    if finest is None:
        raise InternalError("maximizer set has no finest element")
    return best, finest


def brute_dilworth(model: SourceModel, alpha, carrier=None) -> tuple[Fraction, Partition]:
    """Exact Dilworth truncation and its finest minimizer, by enumeration.

    The finest minimizer is the meet (common refinement) of all minimizing
    partitions; the minimizer lattice guarantees the meet minimizes too,
    which is re-checked here.
    """
    alpha = check_alpha(model, alpha)
    users = check_carrier(model, carrier)
    f_alpha = AlphaFunction(model, alpha)
    best: Fraction | None = None
    argmin: list[Partition] = []
    for p in partitions_of(users):
        value = sum((f_alpha(c) for c in p), Fraction(0))
        if best is None or value < best:
            best = value
            argmin = [p]
        elif value == best:
            argmin.append(p)
    finest = argmin[0]
    for p in argmin[1:]:
        finest = _meet(finest, p)
    meet_value = sum((f_alpha(c) for c in finest), Fraction(0))
    if meet_value != best:
        raise InternalError("meet of minimizers does not minimize")
    return best, finest


def _meet(p: Partition, q: Partition) -> Partition:
    blocks = []
    for b in p.blocks:
        for c in q.blocks:
            inter = b & c
            if inter:
                blocks.append(inter)
    return Partition(blocks)


def check_achievable(model: SourceModel, rates, carrier=None) -> bool:
    """Multiterminal source-coding achievability of a rate vector.

    True iff r(X) >= H(X | carrier \\ X) for every nonempty X strictly
    inside the carrier (2^n - 2 constraints).
    """
    users = check_carrier(model, carrier)
    rates = tuple(Fraction(r) for r in rates)
    if len(rates) != len(users):
        raise InternalError(
            f"rate vector length {len(rates)} does not match carrier size {len(users)}"
        )
    h_total = model.entropy(users)
    n = len(users)
    for mask in range(1, (1 << n) - 1):
        subset_rate = Fraction(0)
        complement = []
        for k in range(n):
            if mask & (1 << k):
                subset_rate += rates[k]
            else:
                complement.append(users[k])
        if subset_rate < h_total - model.entropy(complement):
            return False
    return True
