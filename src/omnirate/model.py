"""Source models: ground sets of users and exact entropy oracles.

Users are labelled 1..n (n >= 2).  Subsets of users are passed around as
plain iterables and handled internally as bitmasks (user u <-> bit u-1),
which keeps entropy lookups cheap during exhaustive enumeration.

All entropies are `fractions.Fraction`.  Exactness matters: every
breakpoint comparison downstream is an exact set-membership decision on a
half-open interval, so no tolerances appear anywhere in the package.

Two oracle flavours are provided:

* `BitPoolSource` -- every user holds a set of named independent uniform
  bits; H(X) is the size of the union of the members' bit sets.  Such
  functions are always entropic (monotone, submodular).
* `EntropyTable` -- an explicit table of H(X) for *every* nonempty subset.
  Tables are accepted as data even when inconsistent; `validate` reports
  monotonicity/submodularity violations instead of raising.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import CapacityError, DomainError

# Full explicit tables need 2^n - 1 entries; beyond this the representation
# itself is impractical, so reject at construction time.
MAX_TABLE_USERS = 24


def as_rational(value) -> Fraction:
    """Coerce ints, strings like '5/2' or '6.5', and Fractions to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise DomainError(f"not an exact rational: {value!r}")


def subset_mask(users: Iterable[int]) -> int:
    mask = 0
    for u in users:
        mask |= 1 << (u - 1)
    return mask


def mask_users(mask: int) -> frozenset[int]:
    users = set()
    u = 1
    while mask:
        if mask & 1:
            users.add(u)
        mask >>= 1
        u += 1
    return frozenset(users)


class SourceModel(ABC):
    """A ground set 1..size plus an exact entropy oracle H: 2^V -> Q."""

    def __init__(self, size: int):
        if size < 2:
            raise DomainError(f"a source needs at least 2 users, got {size}")
        self._size = size
        self._full_mask = (1 << size) - 1
        self._cache: dict[int, Fraction] = {0: Fraction(0)}

    @property
    def size(self) -> int:
        return self._size

    @property
    def users(self) -> tuple[int, ...]:
        return tuple(range(1, self._size + 1))

    @property
    def ground_set(self) -> frozenset[int]:
        return frozenset(range(1, self._size + 1))

    @property
    def total_entropy(self) -> Fraction:
        """H(V), the entropy of the whole source."""
        return self.entropy_of_mask(self._full_mask)

    def entropy(self, subset: Iterable[int]) -> Fraction:
        """H(X) for X given as an iterable of user labels; H(empty) = 0."""
        mask = subset_mask(subset)
        if mask & ~self._full_mask:
            raise DomainError(
                f"subset {sorted(mask_users(mask))} is not contained in 1..{self._size}"
            )
        return self.entropy_of_mask(mask)

    def entropy_of_mask(self, mask: int) -> Fraction:
        """H(X) with X encoded as a bitmask (low-level fast path, no domain check)."""
        value = self._cache.get(mask)
        if value is None:
            value = self._entropy_of_mask(mask)
            self._cache[mask] = value
        return value

    def conditional_entropy(self, subset: Iterable[int], given: Iterable[int]) -> Fraction:
        """H(X|Y) = H(X u Y) - H(Y)."""
        x = subset_mask(subset)
        y = subset_mask(given)
        if (x | y) & ~self._full_mask:
            raise DomainError("conditional entropy arguments must be subsets of the ground set")
        return self.entropy_of_mask(x | y) - self.entropy_of_mask(y)

    @abstractmethod
    def _entropy_of_mask(self, mask: int) -> Fraction:
        ...


class BitPoolSource(SourceModel):
    """Each user holds a nonempty set of named independent uniform bits."""

    def __init__(self, bits_per_user: Sequence[Iterable[str]]):
        super().__init__(len(bits_per_user))
        pools = [frozenset(b) for b in bits_per_user]
        for u, pool in enumerate(pools, start=1):
            if not pool:
                raise DomainError(f"user {u} holds no bits")
        self.bits_per_user = tuple(pools)
        names = sorted(set().union(*pools))
        index = {name: i for i, name in enumerate(names)}
        self.bit_names = tuple(names)
        self._bit_masks = tuple(
            sum(1 << index[name] for name in pool) for pool in pools
        )

    def _entropy_of_mask(self, mask: int) -> Fraction:
        pooled = 0
        u = 0
        while mask:
            if mask & 1:
                pooled |= self._bit_masks[u]
            mask >>= 1
            u += 1
        return Fraction(pooled.bit_count())

    def __repr__(self):
        return f"BitPoolSource({len(self.bits_per_user)} users, {len(self.bit_names)} bits)"


class EntropyTable(SourceModel):
    """Explicit H(X) for every nonempty X; H(empty)=0 is implicit.

    The constructor only checks shape (full coverage, size cap); use
    `validate` to test monotonicity and submodularity.
    """

    def __init__(self, size: int, values: Mapping[frozenset[int] | tuple[int, ...], object]):
        if size > MAX_TABLE_USERS:
            raise CapacityError(
                f"explicit tables are capped at {MAX_TABLE_USERS} users, got {size}"
            )
        super().__init__(size)
        table: dict[int, Fraction] = {}
        for subset, value in values.items():
            mask = subset_mask(subset)
            if mask == 0:
                raise DomainError("the empty set must not appear in an entropy table")
            if mask & ~self._full_mask:
                raise DomainError(f"table key {sorted(subset)} is outside 1..{size}")
            if mask in table:
                raise DomainError(f"duplicate table entry for {sorted(subset)}")
            table[mask] = as_rational(value)
        if len(table) != self._full_mask:
            raise DomainError(
                f"entropy table must cover all {self._full_mask} nonempty subsets, "
                f"got {len(table)}"
            )
        self._table = table

    def _entropy_of_mask(self, mask: int) -> Fraction:
        return self._table[mask]

    def __repr__(self):
        return f"EntropyTable({self._size} users)"


@dataclass(frozen=True)
class Violation:
    """One failed entropy axiom, reported as data rather than an exception."""

    kind: str  # "monotonicity" or "submodularity"
    message: str

    def __str__(self):
        return f"{self.kind}: {self.message}"


def validate(model: SourceModel) -> list[Violation]:
    """Check the entropy axioms; an empty list means the model is consistent.

    Bit-pool sources are entropic by construction.  Tables are checked with
    the local (marginal) characterisations, which are equivalent to the full
    axioms: H(X) <= H(X+i) for monotonicity, and diminishing returns
    H(X+i) + H(X+j) >= H(X) + H(X+i+j) for submodularity.
    """
    if isinstance(model, BitPoolSource):
        return []
    n = model.size
    violations = []
    for mask in range(1 << n):
        outside = [u for u in range(1, n + 1) if not mask & (1 << (u - 1))]
        h_x = model.entropy_of_mask(mask)
        for a, i in enumerate(outside):
            with_i = mask | (1 << (i - 1))
            if model.entropy_of_mask(with_i) < h_x:
                violations.append(Violation(
                    "monotonicity",
                    f"H({_set_str(with_i)}) < H({_set_str(mask)})",
                ))
            for j in outside[a + 1:]:
                with_j = mask | (1 << (j - 1))
                with_ij = with_i | with_j
                lhs = model.entropy_of_mask(with_i) + model.entropy_of_mask(with_j)
                rhs = h_x + model.entropy_of_mask(with_ij)
                if lhs < rhs:
                    violations.append(Violation(
                        "submodularity",
                        f"H({_set_str(with_i)}) + H({_set_str(with_j)}) < "
                        f"H({_set_str(mask)}) + H({_set_str(with_ij)})",
                    ))
    return violations


def partition_entropy(model: SourceModel, blocks: Iterable[Iterable[int]]) -> Fraction:
    """Sum of H(C) over the blocks of a partition."""
    return sum((model.entropy(block) for block in blocks), Fraction(0))


def _set_str(mask: int) -> str:
    return "{" + ",".join(str(u) for u in sorted(mask_users(mask))) + "}"
