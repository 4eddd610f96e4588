"""Partitions, affine-in-alpha values, and alpha-segmented containers.

The parametric sweep tracks quantities that are piecewise constant (or
piecewise affine) in the sum-rate estimate alpha over [0, H(V)].  The
interval convention throughout the package is half-open from above:
segments look like (lo, hi], except the lowest segment which is closed,
[0, hi].  A degenerate closed point [0, 0] is permitted so that a value
valid only at alpha = 0 can be represented.

`Segmented` containers always tile their domain exactly and keep adjacent
segments with equal values merged, so segment boundaries are meaningful
breakpoints.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterable, Iterator

from .errors import DomainError
from .model import as_rational


class Partition:
    """A partition of a finite carrier set into disjoint nonempty blocks.

    Blocks are kept in canonical order (sorted by smallest element), which
    makes equality, hashing and printing deterministic.
    """

    __slots__ = ("blocks", "carrier")

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
        object.__setattr__(self, "carrier", frozenset(carrier))

    def __setattr__(self, name, value):
        raise AttributeError("Partition is immutable")

    @classmethod
    def singletons(cls, carrier: Iterable[int]) -> "Partition":
        return cls([{u} for u in carrier])

    @classmethod
    def whole(cls, carrier: Iterable[int]) -> "Partition":
        return cls([set(carrier)])

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
        block is a domain error.
        """
        fused = frozenset(fused)
        inside = [b for b in self.blocks if b <= fused]
        covered: frozenset[int] = frozenset().union(*inside) if inside else frozenset()
        if covered != fused:
            raise DomainError(
                f"{sorted(fused)} is not a union of whole blocks of {self}"
            )
        rest = [b for b in self.blocks if not b <= fused]
        return Partition(rest + [fused])

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

    def __neg__(self) -> "AffineValue":
        return AffineValue(-self.intercept, -self.slope)

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


@dataclass(frozen=True)
class AlphaInterval:
    """One segment of [0, H(V)]: (lower, upper], or [0, upper] when closed below.

    The only degenerate interval allowed is the closed point [0, 0].
    """

    lower: Fraction
    upper: Fraction
    lower_open: bool

    def __post_init__(self):
        if self.lower > self.upper:
            raise DomainError(f"empty interval: lower {self.lower} > upper {self.upper}")
        if self.lower == self.upper and (self.lower_open or self.lower != 0):
            raise DomainError("the only degenerate interval allowed is [0, 0]")
        if not self.lower_open and self.lower != 0:
            raise DomainError("only the lowest segment may be closed below")

    def contains(self, alpha: Fraction) -> bool:
        if self.lower_open:
            return self.lower < alpha <= self.upper
        return self.lower <= alpha <= self.upper

    def __str__(self) -> str:
        left = "(" if self.lower_open else "["
        return f"{left}{self.lower}, {self.upper}]"


class Segmented:
    """A piecewise-constant map alpha -> value on an exact tiling of [0, top].

    Pieces are (AlphaInterval, value) pairs; adjacent pieces with equal
    values are merged on construction so the tiling is maximal.
    """

    __slots__ = ("pieces",)

    def __init__(self, pieces: Iterable[tuple[AlphaInterval, Any]]):
        merged = _merge_equal_adjacent(list(pieces))
        if not merged:
            raise DomainError("a segmented container needs at least one piece")
        lo, _ = merged[0]
        if lo.lower != 0 or lo.lower_open:
            raise DomainError("the first segment must start closed at 0")
        for (a, _), (b, _) in zip(merged, merged[1:]):
            if b.lower != a.upper or not b.lower_open:
                raise DomainError(
                    f"segments must tile contiguously: {a} then {b}"
                )
        self.pieces = tuple(merged)

    @classmethod
    def constant(cls, top: Fraction, value) -> "Segmented":
        return cls([(AlphaInterval(Fraction(0), top, False), value)])

    @property
    def top(self) -> Fraction:
        return self.pieces[-1][0].upper

    def __iter__(self) -> Iterator[tuple[AlphaInterval, Any]]:
        return iter(self.pieces)

    def __len__(self) -> int:
        return len(self.pieces)

    def __eq__(self, other) -> bool:
        return isinstance(other, Segmented) and self.pieces == other.pieces

    def __hash__(self) -> int:
        return hash(self.pieces)

    def value_at(self, alpha) -> Any:
        """The value on the segment containing alpha (half-open convention)."""
        alpha = as_rational(alpha)
        if not Fraction(0) <= alpha <= self.top:
            raise DomainError(f"alpha {alpha} outside [0, {self.top}]")
        for interval, value in self.pieces:
            if interval.contains(alpha):
                return value
        raise DomainError(f"alpha {alpha} not covered (broken tiling)")

    def map(self, fn: Callable[[Any], Any]) -> "Segmented":
        """Apply fn to every value; equal adjacent results are re-merged."""
        return Segmented([(interval, fn(value)) for interval, value in self.pieces])

    def upper_breakpoints(self) -> tuple[Fraction, ...]:
        """Upper endpoints of all segments, ascending; the last one is `top`."""
        return tuple(interval.upper for interval, _ in self.pieces)

    def __repr__(self) -> str:
        body = "; ".join(f"{interval} -> {value}" for interval, value in self.pieces)
        return f"Segmented({body})"


def _merge_equal_adjacent(pieces):
    merged: list[tuple[AlphaInterval, Any]] = []
    for interval, value in pieces:
        if merged and merged[-1][1] == value:
            prev, _ = merged[-1]
            merged[-1] = (
                AlphaInterval(prev.lower, interval.upper, prev.lower_open),
                value,
            )
        else:
            merged.append((interval, value))
    return merged


def split_pieces(pieces, cuts):
    """Split a piece list at every alpha in `cuts`, preserving values.

    A cut at 0 turns a lowest segment [0, hi] into [0, 0] plus (0, hi];
    cuts on existing boundaries or outside a piece are no-ops.  Returns a
    plain list, not a Segmented, because the result is intentionally not
    re-merged (callers rewrite the values piecewise afterwards).
    """
    out = list(pieces)
    for cut in sorted(set(cuts)):
        split: list[tuple[AlphaInterval, Any]] = []
        for interval, value in out:
            if interval.lower < cut < interval.upper:
                split.append((AlphaInterval(interval.lower, cut, interval.lower_open), value))
                split.append((AlphaInterval(cut, interval.upper, True), value))
            elif cut == 0 and interval.lower == 0 and not interval.lower_open and interval.upper > 0:
                split.append((AlphaInterval(Fraction(0), Fraction(0), False), value))
                split.append((AlphaInterval(Fraction(0), interval.upper, True), value))
            else:
                split.append((interval, value))
        out = split
    return out
