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
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Any, Callable, Iterable, Iterator

from .errors import DomainError
from .model import as_rational


@cache
def singleton(user: int) -> frozenset[int]:
    """The block {user}, one shared frozenset per user.

    Singleton blocks recur in every partition of a sweep and in every
    result a caller keeps, so sharing them keeps retained results small.
    """
    return frozenset((user,))


class Partition:
    """A partition of a finite carrier set into disjoint nonempty blocks.

    Blocks are kept in canonical order (sorted by smallest element), which
    makes equality, hashing and printing deterministic.
    """

    __slots__ = ("blocks",)

    def __init__(self, blocks: Iterable[Iterable[int]]):
        frozen = [frozenset(b) for b in blocks]
        if not frozen:
            raise DomainError("a partition needs at least one block")
        if any(not b for b in frozen):
            raise DomainError("partition blocks must be nonempty")
        carrier: set[int] = set()
        total = 0
        for b in frozen:
            carrier |= b
            total += len(b)
        if total != len(carrier):
            raise DomainError("partition blocks must be pairwise disjoint")
        object.__setattr__(self, "blocks", tuple(sorted(frozen, key=min)))

    @classmethod
    def _from_canonical(cls, blocks: tuple[frozenset[int], ...]) -> "Partition":
        """Wrap blocks already known to be nonempty, disjoint and in canonical
        order, skipping the constructor's checks."""
        partition = object.__new__(cls)
        object.__setattr__(partition, "blocks", blocks)
        return partition

    def __setattr__(self, name, value):
        raise AttributeError("Partition is immutable")

    @classmethod
    def singletons(cls, carrier: Iterable[int]) -> "Partition":
        return cls([singleton(u) for u in carrier])

    @classmethod
    def whole(cls, carrier: Iterable[int]) -> "Partition":
        return cls([set(carrier)])

    @property
    def carrier(self) -> frozenset[int]:
        """The union of the blocks (computed on demand, not stored)."""
        return frozenset().union(*self.blocks)

    def __len__(self) -> int:
        return len(self.blocks)

    def __iter__(self) -> Iterator[frozenset[int]]:
        return iter(self.blocks)

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self.blocks == other.blocks

    def __hash__(self) -> int:
        return hash(self.blocks)

    def block_of(self, user: int) -> frozenset[int]:
        for b in self.blocks:
            if user in b:
                return b
        raise DomainError(f"user {user} is not in the carrier {sorted(self.carrier)}")

    def refines(self, other: "Partition") -> bool:
        """True iff every block of self is contained in some block of other."""
        if self.carrier != other.carrier:
            raise DomainError("cannot compare partitions of different carriers")
        return all(any(b <= c for c in other.blocks) for b in self.blocks)

    def merge_blocks(self, fused: Iterable[int]) -> "Partition":
        """Replace the blocks whose union is `fused` by the single block `fused`.

        `fused` must be a union of whole blocks; anything that would split a
        block is a domain error.  Once that holds the result is a partition,
        so it is built without the constructor's checks; when `fused` is
        already a block, the result is this partition itself.
        """
        fused = frozenset(fused)
        if fused in self.blocks:
            return self
        inside = [b for b in self.blocks if b <= fused]
        covered: frozenset[int] = frozenset().union(*inside) if inside else frozenset()
        if covered != fused:
            raise DomainError(
                f"{sorted(fused)} is not a union of whole blocks of {self}"
            )
        rest = [b for b in self.blocks if not b <= fused]
        return Partition._from_canonical(tuple(sorted(rest + [fused], key=min)))

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
        alpha = as_rational(alpha)
        if not 0 <= alpha <= self.uppers[-1]:
            raise DomainError(f"alpha {alpha} outside [0, {self.top}]")
        return self.values[bisect_left(self.uppers, alpha)]

    def map(self, fn: Callable[[Any], Any]) -> "Segmented":
        """Apply fn to every value; equal adjacent results are re-merged."""
        return Segmented(zip(self.uppers, map(fn, self.values)))

    def __repr__(self) -> str:
        body = "; ".join(f"{'(' if k else '['}{lower}, {upper}] -> {value}"
                         for k, (lower, upper, value) in enumerate(self))
        return f"Segmented({body})"
