import copy
import pickle
import random
from bisect import bisect_left
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from omnirate import AffineValue, DomainError, Partition, Segmented, iter_parametric
from omnirate.model import as_rational, subset_mask, value_str

AF = AffineValue.of


class TestPartition:
    def test_singletons_refine_everything(self):
        fine = Partition.singletons([1, 2, 3])
        assert fine.refines(Partition([[1, 2], [3]]))

    def test_incomparable(self):
        assert not Partition([[1, 2], [3]]).refines(Partition([[1, 3], [2]]))

    def test_chain_member_refines_top(self):
        assert Partition([[1, 2, 5], [3], [4]]).refines(Partition.whole([1, 2, 3, 4, 5]))

    def test_carrier_mismatch(self):
        with pytest.raises(DomainError):
            Partition([[1], [2]]).refines(Partition([[1], [2], [3]]))

    def test_merge_two_singletons(self):
        assert Partition([[1], [2]]).merge_mask(subset_mask([1, 2])) == Partition([[1, 2]])

    def test_merge_existing_block_is_identity(self):
        p = Partition([[1, 2], [3]])
        assert p.merge_mask(subset_mask([1, 2])) == p

    def test_merge_across_blocks(self):
        p = Partition([[1, 2], [3], [4], [5]])
        assert p.merge_mask(subset_mask([1, 2, 5])) == Partition([[1, 2, 5], [3], [4]])

    def test_merge_refusing_to_split(self):
        with pytest.raises(DomainError):
            Partition([[1, 2], [3]]).merge_mask(subset_mask([1, 3]))

    def test_canonical_order_and_str(self):
        p = Partition([[4], [3], [5, 2, 1]])
        assert str(p) == "{{1,2,5},{3},{4}}"

    def test_rejects_overlap_and_empty(self):
        with pytest.raises(DomainError):
            Partition([[1, 2], [2, 3]])
        with pytest.raises(DomainError):
            Partition([[1], []])

    def test_block_of(self):
        p = Partition([[1, 2], [3]])
        assert p.block_of(2) == frozenset({1, 2})
        with pytest.raises(DomainError):
            p.block_of(9)


@st.composite
def block_lists(draw, n):
    """A random partition of 1..n as a list of user lists, in random order."""
    labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    blocks: dict[int, list[int]] = {}
    for u in draw(st.permutations(range(1, n + 1))):
        blocks.setdefault(labels[u - 1], []).append(u)
    return draw(st.permutations(list(blocks.values())))


def canonical(blocks):
    """The frozenset reference: blocks as sets, sorted by their smallest user."""
    return tuple(sorted(map(frozenset, blocks), key=min))


@st.composite
def partition_pairs(draw):
    n = draw(st.integers(1, 10))
    return n, draw(block_lists(n)), draw(block_lists(n))


class TestPartitionAgainstFrozensets:
    """The bitmask-backed Partition against plain frozenset reasoning."""

    @settings(max_examples=200, deadline=None)
    @given(partition_pairs())
    def test_views_equality_and_hash(self, pair):
        n, first, second = pair
        p, q = Partition(first), Partition(second)
        expected = canonical(first)
        assert p.blocks == tuple(p) == expected and len(p) == len(expected)
        assert p.masks == tuple(sum(1 << (u - 1) for u in b) for b in expected)
        assert p.carrier == frozenset(range(1, n + 1))
        assert str(p) == "{" + ",".join(
            "{" + ",".join(map(str, sorted(b))) + "}" for b in expected) + "}"
        for u in range(1, n + 1):
            assert p.block_of(u) == next(b for b in expected if u in b)
        for u in (0, n + 1):
            with pytest.raises(DomainError):
                p.block_of(u)
        assert (p == q) == (expected == canonical(second))
        assert p == Partition([reversed(b) for b in reversed(first)])
        assert hash(p) == hash(Partition(list(reversed(first))))

    @settings(max_examples=200, deadline=None)
    @given(partition_pairs())
    def test_refines(self, pair):
        n, first, second = pair
        p, q = Partition(first), Partition(second)
        assert p.refines(q) == all(any(b <= c for c in canonical(second))
                                   for b in canonical(first))
        assert p.refines(Partition.whole(range(1, n + 1)))
        assert Partition.singletons(range(1, n + 1)).refines(p)
        # the same number of users on another carrier
        moved = [[n + 1 if u == 1 else u for u in b] for b in second]
        with pytest.raises(DomainError, match="different carriers"):
            p.refines(Partition(moved))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 10).flatmap(
        lambda n: st.tuples(st.just(n), block_lists(n), st.sets(st.integers(0, 4), min_size=2),
                            st.just(set()) | st.sets(st.integers(1, n + 1), max_size=2))))
    def test_merge_blocks(self, case):
        n, blocks, picked, toggled = case
        p, expected = Partition(blocks), canonical(blocks)
        # a union of some blocks, with up to two users toggled in or out
        fused = frozenset().union(*(b for k, b in enumerate(expected) if k in picked))
        fused = (fused ^ frozenset(toggled)) or expected[0]
        inside = [b for b in expected if b <= fused]
        if frozenset().union(*inside) != fused:
            with pytest.raises(DomainError, match="not a union of whole blocks"):
                p.merge_mask(subset_mask(fused))
            return
        merged = p.merge_mask(subset_mask(fused))
        assert merged.blocks == canonical([b for b in expected if not b <= fused] + [fused])
        assert merged.refines(p) == (len(inside) == 1) and p.refines(merged)
        if fused in expected:
            assert merged is p
        assert p.with_user(n + 1) == Partition([*blocks, [n + 1]])
        with pytest.raises(DomainError):
            p.with_user(n)


class TestAffineValue:
    def test_componentwise_equality(self):
        assert AF(0, 1) != AF(0, 2)
        assert AF(1, 0) == AF(1, 0)


def scan(uppers, values, alpha):
    """Reference lookup: segment 0 is [0, u0], segment k is (u_{k-1}, u_k]."""
    for k, (upper, value) in enumerate(zip(uppers, values)):
        lower = uppers[k - 1] if k else Fraction(0)
        if (lower <= alpha if k == 0 else lower < alpha) and alpha <= upper:
            return value
    raise AssertionError(f"alpha {alpha} in no segment")


def random_ends(rng):
    ends = sorted({Fraction(rng.randint(0, 40), rng.randint(1, 4))
                   for _ in range(rng.randint(1, 6))})
    if rng.random() < 0.5 and ends[0] != 0:
        ends.insert(0, Fraction(0))
    return ends


class TestSegmentLookup:
    def test_half_open_membership(self):
        seg = Segmented([(Fraction(4), "low"), (Fraction(10), "high")])
        assert seg.value_at(4) == "low"
        assert seg.value_at(Fraction(401, 100)) == "high"
        assert seg.value_at(10) == "high"

    def test_closed_bottom(self):
        seg = Segmented([(Fraction(4), "low"), (Fraction(10), "high")])
        assert seg.value_at(0) == seg.value_at(4) == "low"

    def test_degenerate_point(self):
        seg = Segmented([(Fraction(0), "point"), (Fraction(10), "rest")])
        assert seg.value_at(0) == "point"
        assert list(seg)[0] == (0, 0, "point")
        # a repeated end would be an empty or degenerate segment above 0
        with pytest.raises(DomainError):
            Segmented([(Fraction(3), "a"), (Fraction(3), "b")])
        with pytest.raises(DomainError):
            Segmented([(Fraction(0), "a"), (Fraction(0), "b")])

    def test_reversed_bounds(self):
        with pytest.raises(DomainError):
            Segmented([(Fraction(5), "a"), (Fraction(4), "b")])

    def test_lookup_matches_linear_scan(self):
        rng = random.Random(8080)
        for _ in range(300):
            ends = random_ends(rng)
            values = list(range(len(ends)))  # all distinct, so nothing merges
            seg = Segmented(zip(ends, values))
            lowers = [Fraction(0), *ends[:-1]]
            assert list(seg) == list(zip(lowers, ends, values))
            probes = {Fraction(0), *ends, *((a + b) / 2 for a, b in zip(lowers, ends))}
            for alpha in probes:
                assert seg.value_at(alpha) == scan(ends, values, alpha)
            if len(ends) > 1:
                k = rng.randrange(1, len(ends))
                swapped = ends[:k - 1] + [ends[k], ends[k - 1]] + ends[k + 1:]
                for bad in (swapped, ends[:k] + ends[k - 1:]):
                    with pytest.raises(DomainError):
                        Segmented(zip(bad, values + [len(values)]))
            with pytest.raises(DomainError):
                Segmented(zip([-ends[-1] - 1, *ends], values + [len(values)]))


def two_user_partition_segments():
    # The segmented partition the sweep produces for the first two users of
    # the golden source: singletons up to 4, then one block.
    return Segmented([
        (Fraction(4), Partition([[1], [2]])),
        (Fraction(10), Partition([[1, 2]])),
    ])


class TestSegmented:
    def test_value_at_closed_boundary(self):
        seg = two_user_partition_segments()
        assert seg.value_at(4) == Partition([[1], [2]])

    def test_value_just_above_boundary(self):
        seg = two_user_partition_segments()
        assert seg.value_at(Fraction(4) + Fraction(1, 1000)) == Partition([[1, 2]])

    def test_constant_everywhere(self):
        seg = Segmented.constant(Fraction(10), "x")
        for alpha in (0, 1, Fraction(19, 2), 10):
            assert seg.value_at(alpha) == "x"

    def test_out_of_range(self):
        seg = two_user_partition_segments()
        with pytest.raises(DomainError):
            seg.value_at(Fraction(21, 2))
        with pytest.raises(DomainError):
            seg.value_at(-1)

    def test_map_remerges_equal_values(self):
        seg = two_user_partition_segments()
        assert len(seg.map(len)) == 2           # 2 blocks vs 1 block
        assert len(seg.map(lambda p: p.carrier)) == 1

    def test_merge_on_construction(self):
        seg = Segmented([
            (Fraction(4), "a"),
            (Fraction(7), "a"),
            (Fraction(10), "b"),
        ])
        assert len(seg) == 2
        assert list(seg) == [(0, 7, "a"), (7, 10, "b")]

    def test_must_start_at_zero(self):
        seg = Segmented([(Fraction(1), "a"), (Fraction(10), "b")])
        assert list(seg)[0] == (0, 1, "a")
        assert seg.value_at(0) == "a"
        with pytest.raises(DomainError):
            Segmented([(Fraction(-1), "a")])

    @pytest.mark.parametrize("pieces", [
        [(Fraction(-10**5000, 3), "a")],
        [(Fraction(10**5000), "a"), (Fraction(10**5000 - 1), "b")],
    ], ids=["negative", "not-increasing"])
    def test_bad_end_past_the_digit_limit(self, pieces):
        # str() of such an end raises ValueError; the message names its size,
        # as the huge-alpha checks of `value_at` do.
        with pytest.raises(DomainError, match="-bit rational>$"):
            Segmented(pieces)

    def test_degenerate_first_piece(self):
        seg = Segmented([
            (Fraction(0), "point"),
            (Fraction(10), "rest"),
        ])
        assert seg.value_at(0) == "point"
        assert seg.value_at(Fraction(1, 7)) == "rest"
        assert seg.uppers == (Fraction(0), Fraction(10))


class FractionSegmented:
    """The reference: `Segmented` as it was with `Fraction` ends only, checked
    by `Fraction` comparisons and looked up by a bisect over them."""

    def __init__(self, pieces):
        uppers, values = [], []
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
        self.uppers, self.values = tuple(uppers), tuple(values)

    def value_at(self, alpha):
        value = as_rational(alpha)
        if not 0 <= value <= self.uppers[-1]:
            raise DomainError(f"alpha {value_str(alpha)} outside [0, {value_str(self.uppers[-1])}]")
        return self.values[bisect_left(self.uppers, value)]


def outcome(call):
    """What a call gives: ("value", v), or ("error", its DomainError message)."""
    try:
        return "value", call()
    except DomainError as exc:
        return "error", str(exc)


# Large primes (and 1): random ends over them have large, coprime denominators.
PRIMES = (1, 1_000_003, 998_244_353, 1_000_000_007, 2**31 - 1, 2**61 - 1)
TINY = Fraction(1, 2**89 - 1)


@st.composite
def segment_pieces(draw):
    """(upper, value) pieces: ends over large prime denominators, mostly in
    increasing order, at times with a swapped or repeated end, and values
    from a small set so that equal neighbours merge."""
    count = draw(st.integers(1, 8))
    ends = sorted({Fraction(draw(st.integers(0, 50 * q)), q)
                   for q in draw(st.lists(st.sampled_from(PRIMES), min_size=count,
                                          max_size=count))})
    tamper = draw(st.sampled_from(["none", "none", "swap", "repeat", "negative"]))
    if tamper == "swap" and len(ends) > 1:
        k = draw(st.integers(1, len(ends) - 1))
        ends[k - 1], ends[k] = ends[k], ends[k - 1]
    elif tamper == "repeat":
        k = draw(st.integers(0, len(ends) - 1))
        ends.insert(k, ends[k])
    elif tamper == "negative":
        ends.insert(0, -ends[-1] - TINY)
    values = draw(st.lists(st.integers(0, 2), min_size=len(ends), max_size=len(ends)))
    return list(zip(ends, values))


def queries(ends):
    """Each end, just below and above it, 0, top, below 0 and above top, as
    Fractions, as strings, and as ints where the value is one (or floored)."""
    top = max(ends)
    points = {Fraction(0), top, -TINY, top + TINY, Fraction(-1), top + 1}
    for end in ends:
        points |= {end, end - TINY, end + TINY}
    for point in sorted(points):
        yield point
        yield str(point)
        yield point.numerator // point.denominator


class TestIntEndsAgainstFractionEnds:
    """`Segmented`'s int-pair ends against the `Fraction` reference: the same
    segments, values and `DomainError` messages."""

    @settings(max_examples=300, deadline=None)
    @given(segment_pieces())
    def test_construction_and_lookup(self, pieces):
        expected = outcome(lambda: FractionSegmented(pieces))
        built = outcome(lambda: Segmented(pieces))
        if expected[0] == "error":
            assert built == expected
            return
        reference, seg = expected[1], built[1]
        assert (seg.uppers, seg.values) == (reference.uppers, reference.values)
        assert seg.ends == tuple(u.as_integer_ratio() for u in reference.uppers)
        for alpha in queries([upper for upper, _ in pieces]):
            assert outcome(lambda: seg.value_at(alpha)) == outcome(
                lambda: reference.value_at(alpha))

    @pytest.mark.parametrize("round_trip", [lambda x: pickle.loads(pickle.dumps(x)),
                                            copy.copy, copy.deepcopy],
                             ids=["pickle", "copy", "deepcopy"])
    def test_state_round_trips_with_int_ends(self, five_user, round_trip):
        *_, state = iter_parametric(five_user)
        copied = round_trip(state)
        for before, after in zip((state.table, *state.rates), (copied.table, *copied.rates)):
            assert after.ends == before.ends and after.uppers == before.uppers
            for alpha in (*before.uppers, Fraction(13, 2) - TINY, Fraction(0)):
                assert after.value_at(alpha) == before.value_at(alpha)
        assert copied.rates_at(Fraction(13, 2)) == state.rates_at(Fraction(13, 2))
