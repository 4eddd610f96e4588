"""Partitions, affine-in-alpha values, and alpha-segmented containers.

The parametric sweep tracks quantities that are piecewise constant (or
piecewise affine) in the sum-rate estimate alpha over [0, H(V)].  Such a
quantity is fully determined by its critical points, so `Segmented` stores
exactly that: the sorted segment ends plus one value per segment.  The
interval convention throughout the package is half-open from above:
segments look like (lo, hi], except the lowest segment which is closed,
[0, hi].  A lowest end of 0 makes that segment the point [0, 0], which
represents a value valid only at alpha = 0.

`Segmented` keeps adjacent segments with equal values merged, so its ends
are meaningful breakpoints.

A `Partition` keeps each block as a user bitmask, the form in which probes,
fusion oracles and entropy ints read it; sets of users are views built on
demand, so a kept result (a whole principal sequence, say) holds only ints.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import or_
from typing import Any, Callable, Iterable, Iterator

from .errors import DomainError
from .model import as_rational, mask_users, subset_mask


class Partition:
    """A partition of a finite carrier set of users into disjoint nonempty blocks.

    Each block is a user bitmask (user u <-> bit u-1) in `masks`, in
    canonical order (lowest bit first), which makes equality, hashing and
    printing deterministic.  `blocks`, `carrier` and `block_of` are
    frozenset views built on demand, not kept.
    """

    __slots__ = ("masks",)

    def __init__(self, blocks: Iterable[Iterable[int]]):
        masks = [subset_mask(b) for b in blocks]
        if not masks:
            raise DomainError("a partition needs at least one block")
        if not all(masks):
            raise DomainError("partition blocks must be nonempty")
        if sum(m.bit_count() for m in masks) != reduce(or_, masks).bit_count():
            raise DomainError("partition blocks must be pairwise disjoint")
        object.__setattr__(self, "masks", tuple(sorted(masks, key=lambda m: m & -m)))

    @classmethod
    def _of(cls, masks: tuple[int, ...]) -> "Partition":
        """Wrap masks that the calling method has already checked."""
        partition = object.__new__(cls)
        object.__setattr__(partition, "masks", masks)
        return partition

    def __setattr__(self, name, value):
        raise AttributeError("Partition is immutable")

    @classmethod
    def singletons(cls, carrier: Iterable[int]) -> "Partition":
        return cls([(u,) for u in carrier])

    @classmethod
    def whole(cls, carrier: Iterable[int]) -> "Partition":
        return cls([carrier])

    @property
    def blocks(self) -> tuple[frozenset[int], ...]:
        """The blocks as sets of users, in canonical order (built on demand)."""
        return tuple(map(mask_users, self.masks))

    @property
    def carrier(self) -> frozenset[int]:
        """The union of the blocks (computed on demand, not stored)."""
        return mask_users(reduce(or_, self.masks))

    def __len__(self) -> int:
        return len(self.masks)

    def __iter__(self) -> Iterator[frozenset[int]]:
        return iter(self.blocks)

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self.masks == other.masks

    def __hash__(self) -> int:
        return hash(self.masks)

    def block_of(self, user: int) -> frozenset[int]:
        for b in self.masks if user > 0 else ():
            if b >> (user - 1) & 1:
                return mask_users(b)
        raise DomainError(f"user {user} is not in the carrier {sorted(self.carrier)}")

    def refines(self, other: "Partition") -> bool:
        """True iff every block of self is contained in some block of other."""
        if reduce(or_, self.masks) != reduce(or_, other.masks):
            raise DomainError("cannot compare partitions of different carriers")
        return all(not b & ~c for b in self.masks for c in other.masks if b & c)

    def with_user(self, user: int) -> "Partition":
        """This partition plus the block {user}, for a user above the carrier."""
        bit = 1 << (user - 1)
        if bit <= max(self.masks):
            raise DomainError(f"user {user} does not exceed the carrier {sorted(self.carrier)}")
        return Partition._of(self.masks + (bit,))

    def merge_blocks(self, fused: Iterable[int]) -> "Partition":
        """Replace the blocks whose union is `fused` by the single block `fused`."""
        return self.merge_mask(subset_mask(fused))

    def merge_mask(self, fused: int) -> "Partition":
        """`merge_blocks` with `fused` a user bitmask: it must be a union of whole
        blocks, or DomainError.  It takes the place of its lowest block, which
        keeps the order canonical; if it is one block already, this is returned."""
        merged, covered = [], 0
        for b in self.masks:
            if not b & fused:
                merged.append(b)
            elif not b & ~fused:
                if not covered:
                    merged.append(fused)
                covered |= b
        if covered != fused:
            raise DomainError(f"{sorted(mask_users(fused))} is not a union of "
                              f"whole blocks of {self}")
        return self if len(merged) == len(self.masks) else Partition._of(tuple(merged))

    def __str__(self) -> str:
        return "{" + ",".join(
            "{" + ",".join(str(u) for u in sorted(b)) + "}" for b in self.blocks
        ) + "}"

    def __repr__(self) -> str:
        return f"Partition({self})"


@dataclass(frozen=True)
class AffineValue:
    """An exact affine function of alpha: intercept + slope * alpha."""

    intercept: Fraction
    slope: Fraction

    @classmethod
    def of(cls, intercept, slope=0) -> "AffineValue":
        return cls(as_rational(intercept), as_rational(slope))

    def at(self, alpha: Fraction) -> Fraction:
        return self.intercept + self.slope * alpha

    def __add__(self, other: "AffineValue") -> "AffineValue":
        return AffineValue(self.intercept + other.intercept, self.slope + other.slope)

    def __sub__(self, other: "AffineValue") -> "AffineValue":
        return AffineValue(self.intercept - other.intercept, self.slope - other.slope)

    def __str__(self) -> str:
        if self.slope == 0:
            return str(self.intercept)
        if self.slope == 1:
            head = "a"
        elif self.slope == -1:
            head = "-a"
        else:
            head = f"{self.slope}a"
        if self.intercept == 0:
            return head
        sign = "+" if self.intercept > 0 else "-"
        return f"{head} {sign} {abs(self.intercept)}"


class Segmented:
    """A piecewise-constant map alpha -> value on [0, top], kept as breakpoints.

    `uppers` holds the segment ends, strictly increasing from uppers[0] >= 0
    to uppers[-1] == top, and `values[k]` is the value on segment k, which is
    [0, uppers[0]] for k == 0 and (uppers[k-1], uppers[k]] above it.  So
    uppers[0] == 0 is the closed point [0, 0].  Equal neighbouring values are
    merged on construction, so every end is a breakpoint.
    """

    __slots__ = ("uppers", "values")

    def __init__(self, pieces: Iterable[tuple[Fraction, Any]]):
        """Build from (upper, value) pairs in increasing order of upper."""
        uppers: list[Fraction] = []
        values: list[Any] = []
        for upper, value in pieces:
            if upper < 0 or (uppers and upper <= uppers[-1]):
                raise DomainError(
                    f"segment ends must be nonnegative and strictly increasing, got {upper}"
                )
            if values and values[-1] == value:
                uppers[-1] = upper
            else:
                uppers.append(upper)
                values.append(value)
        if not uppers:
            raise DomainError("a segmented container needs at least one segment")
        self.uppers = tuple(uppers)
        self.values = tuple(values)

    @classmethod
    def constant(cls, top: Fraction, value) -> "Segmented":
        return cls([(top, value)])

    @property
    def top(self) -> Fraction:
        return self.uppers[-1]

    def __iter__(self) -> Iterator[tuple[Fraction, Fraction, Any]]:
        """(lower, upper, value) per segment, from alpha = 0 up."""
        return zip((Fraction(0),) + self.uppers[:-1], self.uppers, self.values)

    def __len__(self) -> int:
        return len(self.uppers)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Segmented) and self.uppers == other.uppers
                and self.values == other.values)

    def __hash__(self) -> int:
        return hash((self.uppers, self.values))

    def value_at(self, alpha) -> Any:
        """The value on the segment containing alpha (half-open convention)."""
        value = as_rational(alpha)
        if not 0 <= value <= self.uppers[-1]:
            raise DomainError(f"alpha {alpha} outside [0, {self.top}]")
        return self.values[bisect_left(self.uppers, value)]

    def map(self, fn: Callable[[Any], Any]) -> "Segmented":
        """Apply fn to every value; equal adjacent results are re-merged."""
        return Segmented(zip(self.uppers, map(fn, self.values)))

    def __repr__(self) -> str:
        body = "; ".join(f"{'(' if k else '['}{lower}, {upper}] -> {value}"
                         for k, (lower, upper, value) in enumerate(self))
        return f"Segmented({body})"
