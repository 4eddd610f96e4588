"""Fixed-alpha Dilworth truncation via coordinate saturation.

For a sum-rate estimate alpha in [0, H(V)] define

    f_alpha(X) = alpha - H(V) + H(X)   for nonempty X,   f_alpha(empty) = 0.

The Dilworth truncation of f_alpha at a carrier is the minimum of
sum_{C in P} f_alpha(C) over all partitions P of the carrier.  The
coordinate-saturation procedure computes it exactly along with the finest
minimizing partition and a rate vector in the base polyhedron: starting
from r = (alpha - H(V)) * 1, it processes users in ascending order and
raises each user's coordinate by the saturation capacity, the minimum of
the fusion function f~ over anchored block unions (module `sfm`); the
minimal minimizer is then fused into the running partition.

Carriers may be arbitrary nonempty subsets of the ground set; users are
simply processed in ascending label order, which is the reduction of the
entropy function onto the carrier.  Note f_alpha always references the
*global* H(V), also for strict sub-carriers; that convention is what the
successive-omniscience criterion needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import DomainError
from .model import SourceModel, as_rational
from .partition import Partition
from .sfm import minimize, saturation_oracle


@dataclass(frozen=True)
class AlphaFunction:
    """f_alpha(X) = alpha - H(V) + H(X) with f_alpha(empty) = 0; submodular."""

    model: SourceModel
    alpha: Fraction

    def __call__(self, subset: Iterable[int]) -> Fraction:
        subset = frozenset(subset)
        if not subset:
            return Fraction(0)
        return self.alpha - self.model.total_entropy + self.model.entropy(subset)


@dataclass(frozen=True)
class DilworthResult:
    """Output of one saturation run over a carrier.

    `users` lists the carrier in ascending order and `rates` is the parallel
    rate vector; `value` equals sum(rates) and is the truncation value.
    """

    users: tuple[int, ...]
    rates: tuple[Fraction, ...]
    partition: Partition
    value: Fraction


def check_alpha(model: SourceModel, alpha) -> Fraction:
    value = as_rational(alpha)
    if not 0 <= value <= model.total_entropy:
        raise DomainError(f"alpha {alpha} outside [0, {model.total_entropy}]")
    return value


def check_carrier(model: SourceModel, carrier) -> tuple[int, ...]:
    if carrier is None:
        return model.users
    users = tuple(sorted(set(carrier)))
    if not users:
        raise DomainError("carrier must be nonempty")
    if not set(users) <= set(model.users):
        raise DomainError(f"carrier {users} is not a subset of the ground set")
    return users


def coordinate_saturation(model: SourceModel, alpha, carrier=None) -> DilworthResult:
    """Saturate rate coordinates one user at a time at a fixed alpha.

    Returns the finest partition minimizing f_alpha[.] over the carrier and
    a rate vector with r(X) <= f_alpha(X) for every nonempty X and
    r(carrier) equal to the truncation value.
    """
    alpha = check_alpha(model, alpha)
    users = check_carrier(model, carrier)
    base = alpha - model.total_entropy

    rates = [base + model.entropy(users[:1])]
    partition = Partition.singletons(users[:1])
    for user in users[1:]:
        # Each block C of the partition has r(C) = f_alpha(C): the raise below
        # gives a fused block M the sum r(M - {user}) + base + f~(M) = f_alpha(M).
        result = minimize(saturation_oracle(model, alpha, partition.masks, (1 << (user - 1),)))
        rates.append(base + result.min_value)
        partition = partition.with_user(user).merge_mask(result.mask)

    return DilworthResult(users, tuple(rates), partition, sum(rates, Fraction(0)))


def dilworth_truncation(model: SourceModel, alpha, carrier=None) -> Fraction:
    """min over partitions P of the carrier of sum_{C in P} f_alpha(C)."""
    return coordinate_saturation(model, alpha, carrier).value


def partition_value(model: SourceModel, alpha, partition: Partition) -> Fraction:
    """f_alpha[P] = sum of f_alpha(C) over the blocks of P."""
    f_alpha = AlphaFunction(model, as_rational(alpha))
    return sum((f_alpha(block) for block in partition), Fraction(0))
