"""Source models: ground sets of users and exact entropy oracles.

Users are labelled 1..n (n >= 2).  Subsets of users are passed around as
plain iterables and handled internally as bitmasks (user u <-> bit u-1),
which keeps entropy lookups cheap during exhaustive enumeration.

Each model owns an int scale d and serves H(X) * d as an int
(`entropy_int`), which the sweep and its solvers read; H(X) as a
`fractions.Fraction` (`entropy`, `entropy_of_mask`) is that int over d,
built on each read.  Exactness matters: every breakpoint comparison
downstream is an exact set-membership decision on a half-open interval, so
no tolerances appear anywhere in the package.

Two oracle flavours are provided:

* `BitPoolSource` -- every user holds a set of named independent uniform
  bits; H(X) is the size of the union of the members' bit sets.  Such
  functions are always entropic (monotone, submodular).
* `EntropyTable` -- an explicit table of H(X) for *every* nonempty subset,
  held as one flat list of ints over the lcm of the values' denominators.
  Tables are accepted as data even when inconsistent; `validate` reports
  monotonicity/submodularity violations instead of raising.
"""

from __future__ import annotations

import re
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
# rank-sum table (a 40 MB file) takes 9-10 s and 217 MiB on a 2-vCPU host,
# against about 2 s and 78 MiB at 18 users; the parser's dict of `Fraction`
# values sets that peak.  At about 3x memory per two users, 24 users would
# need some 2 GiB.  Larger tables are rejected, by the file parser at the
# first id past the cap.
MAX_TABLE_USERS = 20

# A table's entropy scale is the lcm of the denominators of its 2^n values.
# Distinct coprime denominators make that lcm grow with their product, so
# the lcm may have at most MAX_SCALED_BITS >> n bits (256 at 20 users, 4096
# at 16, 65536 at 12), and the scaled values about this many bits in all.
MAX_SCALED_BITS = 1 << 28

# Largest decimal exponent magnitude of a rational written as text: no digit
# string `int` reads (4300 digits at most) reaches 10**4300, and a larger one
# would only make `Fraction` spend seconds building a huge int for 9 bytes.
MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")  # as `fractions` reads it


def as_rational(value) -> Fraction:
    """Coerce ints, strings like '5/2' or '6.5' (`_parse_value`), and
    Fractions to an exact Fraction; anything else raises DomainError."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return _parse_value(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise DomainError(f"not an exact rational: {value!r}")


def _parse_value(text: str) -> Fraction:
    """`Fraction(text)`: the same value, or the same exception, on every input.

    The common forms, an optionally signed integer and `p/q` with plain
    digits, are built from `int`s, which costs about half of what the
    `fractions` regex does.  Everything else (decimals, exponents,
    underscores, inner spaces, a sign after the `/`) goes to `Fraction`,
    except that an exponent past +-`MAX_EXPONENT` raises ValueError.
    """
    num, slash, den = text.partition("/")
    digits = num[1:] if num.startswith(("+", "-")) else num
    if digits.isdecimal() and (den.isdecimal() or not slash):
        return Fraction(int(num), int(den or 1))
    exponent = _EXPONENT.search(text)
    if exponent and abs(int(exponent[1])) > MAX_EXPONENT:
        raise ValueError(f"exponent of {text!r} is past +-{MAX_EXPONENT}")
    return Fraction(text)


def subset_mask(users: Iterable[int]) -> int:
    mask = 0
    for u in users:
        if u < 1:
            raise DomainError(f"user ids start at 1, got {u}")
        mask |= 1 << (u - 1)
    return mask


def mask_users(mask: int) -> frozenset[int]:
    users = []
    while mask:
        low = mask & -mask
        users.append(low.bit_length())
        mask ^= low
    return frozenset(users)


class SourceModel(ABC):
    """A ground set 1..size plus an exact entropy oracle H: 2^V -> Q, served
    as ints over one positive int scale per model (`scale`, `entropy_int`)."""

    scale: int

    def __init__(self, size: int):
        if size < 2:
            raise DomainError(f"a source needs at least 2 users, got {size}")
        self._size = size
        self._full_mask = (1 << size) - 1
        self._cache: dict[int, int] = {0: 0}

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

    @property
    def total_int(self) -> int:
        """H(V) * scale."""
        return self.entropy_int(self._full_mask)

    def entropy_of_mask(self, mask: int) -> Fraction:
        """H(X) as a `Fraction`, X a bitmask: `entropy_int` over the scale, no domain check."""
        return Fraction(self.entropy_int(mask), self.scale)

    def entropy_int(self, mask: int) -> int:
        """H(X) * scale, an int, with X a bitmask; cached per mask, no domain check."""
        value = self._cache.get(mask)
        if value is None:
            value = self._cache[mask] = self._entropy_of_mask(mask)
        return value

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
    def _entropy_of_mask(self, mask: int) -> int:
        """H(X) * scale for a nonempty X, uncached."""


class BitPoolSource(SourceModel):
    """Each user holds a nonempty set of named independent uniform bits (scale 1)."""

    scale = 1

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
        # per user the mask of its bits, and per bit the mask of its holders
        masks, holders = [0] * len(pools), [0] * len(names)
        for u, pool in enumerate(pools):
            user, mask = 1 << u, 0
            for name in pool:
                i = index[name]
                mask |= 1 << i
                holders[i] |= user
            masks[u] = mask
        self._bit_masks = tuple(masks)
        self.bit_holders = tuple(holders)

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

    def _entropy_of_mask(self, mask: int) -> int:
        return self.bits_of_mask(mask).bit_count()

    def __repr__(self):
        return f"BitPoolSource({len(self.bits_per_user)} users, {len(self.bit_names)} bits)"


class EntropyTable(SourceModel):
    """Explicit H(X) for every nonempty X; H(empty)=0 is implicit.

    The values are held as one int per mask, H(X) * scale, in a flat list
    with H(empty) = 0 at index 0.  The constructor only checks shape (full
    coverage, size cap) and the scale's budget; use `validate` to test
    monotonicity and submodularity.
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
        shifts.  Only coverage and the scale's budget are checked here.
        """
        model = cls.__new__(cls)
        model._adopt(size, table)
        return model

    def _adopt(self, size: int, table: dict[int, Fraction]) -> None:
        """Scale the values by the lcm of their denominators into the flat list.

        CapacityError when that lcm has more than MAX_SCALED_BITS >> size bits.
        """
        super().__init__(size)
        if len(table) != self._full_mask:
            raise DomainError(
                f"entropy table covers {len(table)} subsets but needs all "
                f"{self._full_mask} nonempty subsets of 1..{size}"
            )
        budget = MAX_SCALED_BITS >> size
        scale = 1
        for d in {v.denominator for v in table.values()}:
            scale = lcm(scale, d)
            if scale.bit_length() > budget:
                raise CapacityError(
                    f"the lcm of the denominators of the {size}-user table "
                    f"exceeds {budget} bits ({MAX_SCALED_BITS} bits over 2^{size} values)"
                )
        values = [0] * (self._full_mask + 1)
        for mask, value in table.items():
            values[mask] = value.numerator * (scale // value.denominator)
        self.scale = scale
        self._values = values

    def entropy_int(self, mask: int) -> int:
        """H(X) * scale, read straight from the flat list, so not cached."""
        return self._values[mask]

    _entropy_of_mask = entropy_int

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

    H is the table's flat list of scaled ints, read with no oracle call, so
    the entropy cache is left as it was and every comparison is an exact
    int comparison.  Each g_i and each of its pairings along a bit j is
    built and compared slice by slice (`_bit_pairs`); only a slice that
    holds a violation is walked mask by mask.  Violations are listed by
    mask, then i, then j, monotonicity first.
    """
    if isinstance(model, BitPoolSource):
        return []
    n = model.size
    h = model._values
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
    """Sum of H(C) over the blocks of a partition: the int entropies, over the scale."""
    return Fraction(sum(map(model.entropy_int, map(model._checked_mask, blocks))), model.scale)


def _set_str(mask: int) -> str:
    return "{" + ",".join(str(u) for u in sorted(mask_users(mask))) + "}"
