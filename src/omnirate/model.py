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
from itertools import compress
from math import lcm
from operator import gt, sub
from typing import Iterable, Mapping, Sequence

from .errors import CapacityError, DomainError

# Full explicit tables need 2^n - 1 entries, and parse and `validate` cost
# grows about 4x per two users.  `omnirate psp` on a 20-user rational
# rank-sum table (a 40 MB file) takes 13-15 s and 256 MiB on a 2-vCPU host,
# against 3-4 s and 82 MiB at 18 users; at about 3x memory per two users,
# 24 users would need some 2.5 GiB.  Larger tables are rejected, by the file
# parser at the first id past the cap.
MAX_TABLE_USERS = 20

# `validate` scales all 2^n values of a table to ints by the lcm of their
# denominators.  Distinct coprime denominators make that lcm grow with their
# product, so the lcm may have at most MAX_SCALED_BITS >> n bits (256 at 20
# users, 4096 at 16, 65536 at 12), and the scaled values about this many bits
# in all.
MAX_SCALED_BITS = 1 << 28


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
        return self.entropy_of_mask(self._checked_mask(subset))

    def entropy_of_mask(self, mask: int) -> Fraction:
        """H(X) with X encoded as a bitmask (low-level fast path, no domain check)."""
        value = self._cache.get(mask)
        if value is None:
            value = self._entropy_of_mask(mask)
            self._cache[mask] = value
        return value

    def conditional_entropy(self, subset: Iterable[int], given: Iterable[int]) -> Fraction:
        """H(X|Y) = H(X u Y) - H(Y)."""
        x = self._checked_mask(subset)
        y = self._checked_mask(given)
        return self.entropy_of_mask(x | y) - self.entropy_of_mask(y)

    def _checked_mask(self, users: Iterable[int]) -> int:
        """`subset_mask(users)`, checking each id against 1..size before its shift.

        A huge id would otherwise build a huge int, and id 0 or below a
        negative shift.
        """
        size = self._size
        mask = 0
        for u in users:
            if not 0 < u <= size:
                raise DomainError(f"user {u} is not in the ground set 1..{size}")
            mask |= 1 << (u - 1)
        return mask

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
        # every entropy is a bit count, so one Fraction per count serves all
        self._counts = tuple(map(Fraction, range(len(names) + 1)))

    def bits_of_mask(self, mask: int) -> int:
        """The union of the bit sets of the users in `mask`, as a mask over `bit_names`.

        Walks the set bits of `mask` only, lowest first.
        """
        bit_masks = self._bit_masks
        pooled = 0
        while mask:
            low = mask & -mask
            pooled |= bit_masks[low.bit_length() - 1]
            mask ^= low
        return pooled

    def _entropy_of_mask(self, mask: int) -> Fraction:
        return self._counts[self.bits_of_mask(mask).bit_count()]

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
        table: dict[int, Fraction] = {}
        for subset, value in values.items():
            users = tuple(subset)
            if not all(1 <= u <= size for u in users):
                raise DomainError(f"table key {sorted(users)} is outside 1..{size}")
            add_table_entry(table, subset_mask(users), as_rational(value))
        self._adopt(size, table)

    @classmethod
    def from_masks(cls, size: int, table: dict[int, Fraction]) -> EntropyTable:
        """A table on 1..size from entries already keyed by bitmask.

        The keys must be nonempty, distinct and within 1..size (as
        `add_table_entry` fills them), and size at most MAX_TABLE_USERS:
        `modelfile` checks each id against the cap at its line, before it
        shifts.  Only coverage is checked here.  The dict is kept, not copied.
        """
        model = cls.__new__(cls)
        model._adopt(size, table)
        return model

    def _adopt(self, size: int, table: dict[int, Fraction]) -> None:
        super().__init__(size)
        if len(table) != self._full_mask:
            raise DomainError(
                f"entropy table covers {len(table)} subsets but needs all "
                f"{self._full_mask} nonempty subsets of 1..{size}"
            )
        self._table = table

    def _entropy_of_mask(self, mask: int) -> Fraction:
        return self._table[mask]

    def __repr__(self):
        return f"EntropyTable({self._size} users)"


def add_table_entry(table: dict[int, Fraction], mask: int, value: Fraction) -> None:
    """Store H(X) = value under X's bitmask; the empty set and repeated keys are errors.

    Ids must already be checked: every bit of `mask` names a user of the table.
    """
    if not mask:
        raise DomainError("the empty set must not appear in an entropy table")
    if mask in table:
        raise DomainError(f"duplicate table entry for {_set_str(mask)}")
    table[mask] = value


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
    axioms, on the marginal gains g_i(X) = H(X+i) - H(X) for X without i:
    monotonicity is g_i(X) >= 0, and diminishing returns
    g_i(X+j) <= g_i(X) for every j > i is submodularity
    (H(X+i) + H(X+j) >= H(X) + H(X+i+j)).

    H is read once per mask through the model's uncached oracle, so the
    entropy cache is left as it was, and scaled to ints by the lcm of its
    denominators, so every comparison is an exact int comparison.  An lcm
    past the MAX_SCALED_BITS budget raises CapacityError.  Each g_i and each
    of its pairings along a bit j is built and compared slice by slice
    (`_bit_pairs`); only a slice that holds a violation is walked mask by
    mask.  Violations are listed by mask, then i, then j, monotonicity
    first.
    """
    if isinstance(model, BitPoolSource):
        return []
    n = model.size
    values = [Fraction(0), *map(model._entropy_of_mask, range(1, 1 << n))]
    denominators = {v.denominator for v in values}
    budget = MAX_SCALED_BITS >> n
    scale = 1
    for d in denominators:
        scale = lcm(scale, d)
        if scale.bit_length() > budget:
            raise CapacityError(
                f"validate: the lcm of the denominators of the {n}-user table "
                f"exceeds {budget} bits ({MAX_SCALED_BITS} bits over 2^{n} values)"
            )
    h = [v.numerator * (scale // v.denominator) for v in values]
    size = len(h)
    half = size >> 1
    found = []  # (X, i, j), j = -1 for monotonicity
    for i in range(n):
        low = (1 << i) - 1
        # g[p] = g_i(X), where p is X with bit i squeezed out, so bit j > i
        # of X is bit j - 1 of p.
        g = [0] * half
        for lo, hi, squeezed in _bit_pairs(size, 1 << i):
            g[squeezed] = map(sub, h[hi], h[lo])
        if min(g) < 0:
            found += [(p >> i << (i + 1) | p & low, i, -1)
                      for p, gain in enumerate(g) if gain < 0]
        for j in range(i + 1, n):
            for lo, hi, _ in _bit_pairs(half, 1 << (j - 1)):
                if any(map(gt, g[hi], g[lo])):
                    found += [(p >> i << (i + 1) | p & low, i, j)
                              for p in compress(range(half)[lo], map(gt, g[hi], g[lo]))]
    found.sort()
    violations = []
    for mask, i, j in found:
        with_i = mask | 1 << i
        if j < 0:
            violations.append(Violation(
                "monotonicity",
                f"H({_set_str(with_i)}) < H({_set_str(mask)})",
            ))
        else:
            with_j = mask | 1 << j
            violations.append(Violation(
                "submodularity",
                f"H({_set_str(with_i)}) + H({_set_str(with_j)}) < "
                f"H({_set_str(mask)}) + H({_set_str(with_i | with_j)})",
            ))
    return violations


def _bit_pairs(length: int, bit: int):
    """Slices pairing the entries of a mask-indexed list with and without `bit`.

    Yields (lo, hi, squeezed): `lo` selects entries whose index lacks `bit`,
    `hi` the entries at those indices plus `bit`, and `squeezed` where the
    same entries sit in a list of length // 2 indexed with `bit` removed.
    Low bits give a few long strided slices, high bits a few contiguous
    blocks; either way at most about sqrt(length) slices.
    """
    span = 2 * bit
    if bit * span <= length:
        for r in range(bit):
            yield slice(r, length, span), slice(r + bit, length, span), slice(r, length >> 1, bit)
    else:
        for start in range(0, length, span):
            half = start >> 1
            yield (slice(start, start + bit), slice(start + bit, start + span),
                   slice(half, half + bit))


def partition_entropy(model: SourceModel, blocks: Iterable[Iterable[int]]) -> Fraction:
    """Sum of H(C) over the blocks of a partition."""
    return sum((model.entropy(block) for block in blocks), Fraction(0))


def _set_str(mask: int) -> str:
    return "{" + ",".join(str(u) for u in sorted(mask_users(mask))) + "}"
