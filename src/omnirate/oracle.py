"""Brute-force reference implementations used by tests and `verify`.

Everything here trades speed for transparency: partition enumeration is
bounded by Bell(8) = 4140, so carriers are capped at 8 users.  These
oracles are deliberately independent of the saturation/parametric code
paths they are used to check.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Iterator

from .dilworth import AlphaFunction, check_alpha, check_carrier
from .errors import CapacityError, DomainError, InternalError
from .model import MAX_TABLE_USERS, SourceModel, as_rational
from .partition import Partition

MAX_ENUM_USERS = 8


def partitions_of(items: Iterable[int]) -> Iterator[Partition]:
    """All partitions of `items`, each exactly once, via restricted growth strings.

    A restricted growth string assigns item k the label of its block, where
    a new block may only take the smallest unused label; this enumerates
    every set partition once.
    """
    items = tuple(sorted(set(items)))
    n = len(items)
    if n > MAX_ENUM_USERS:
        raise CapacityError(
            f"partition enumeration capped at {MAX_ENUM_USERS} items, got {n}"
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
    return Partition([b & c for b in p.blocks for c in q.blocks if b & c])


def check_achievable(model: SourceModel, rates, carrier=None) -> bool:
    """Multiterminal source-coding achievability of a rate vector.

    True iff r(X) >= H(X | carrier \\ X) for every nonempty X strictly
    inside the carrier (2^n - 2 constraints).  Rates must be exact
    (`as_rational`), one per carrier user; a float or Decimal, or a vector
    of another length, raises DomainError, and a carrier of more than
    MAX_TABLE_USERS users CapacityError.

    The subsets are walked in Gray-code order, each step toggling one user,
    with the rates as ints over the lcm of the model's scale and their
    denominators, so each constraint is r(X) + H(carrier \\ X) >= H(carrier)
    in ints.  Entropies are read uncached (`_entropy_of_mask`), so the walk
    leaves the model's cache as it was.  At MAX_TABLE_USERS (20) a random
    bit pool's check of its optimal rates, all 2^20 - 2 constraints, took
    1.3-1.4 s and under 2 KiB of tracemalloc peak (2-vCPU Xeon).
    """
    users = check_carrier(model, carrier)
    if len(users) > MAX_TABLE_USERS:
        raise CapacityError(f"achievability is checked on at most {MAX_TABLE_USERS} "
                            f"users, got {len(users)}")
    rates = tuple(as_rational(r) for r in rates)
    if len(rates) != len(users):
        raise DomainError(
            f"rate vector length {len(rates)} does not match carrier size {len(users)}"
        )
    scale = lcm(model.scale, *(r.denominator for r in rates))
    ints = [r.numerator * (scale // r.denominator) for r in rates]
    factor = scale // model.scale
    entropy = model._entropy_of_mask
    bits = [1 << (u - 1) for u in users]
    complement = sum(bits)
    bound = entropy(complement) * factor
    rate = 0  # r(X) * scale, X the carrier users outside `complement`
    for step in range(1, 1 << len(users)):
        k = (step & -step).bit_length() - 1
        complement ^= bits[k]
        rate += -ints[k] if complement & bits[k] else ints[k]
        if complement and rate + entropy(complement) * factor < bound:
            return False
    return True
