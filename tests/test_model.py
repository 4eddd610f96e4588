import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from omnirate import (BitPoolSource, CapacityError, DomainError, EntropyTable,
                      Partition, Violation, brute_min_sum_rate, mda_reference,
                      partition_entropy, run_parametric, validate)
from omnirate.model import MAX_TABLE_USERS, as_rational, mask_users, subset_mask

from conftest import coprime_rank_sum_table, random_bitpool, rank_sum_table


def full_table(size, entries):
    return EntropyTable(size, {tuple(k): v for k, v in entries.items()})


class TestEntropy:
    def test_whole_pool(self, five_user):
        assert five_user.entropy(five_user.users) == 10
        assert five_user.total_entropy == 10

    def test_empty_set(self, five_user):
        assert five_user.entropy([]) == 0

    def test_pair(self, five_user):
        assert five_user.entropy([1, 2]) == 8

    def test_singletons(self, five_user):
        assert [five_user.entropy([u]) for u in five_user.users] == [8, 6, 4, 4, 5]

    def test_outside_ground_set(self, five_user):
        with pytest.raises(DomainError):
            five_user.entropy([1, 6])

    @pytest.mark.parametrize("user", [0, -3, 4 * 10**8])
    def test_bad_user_id_fails_fast(self, five_user, user):
        # Each id is checked before its shift: no negative shift count, and
        # no huge mask for an id far past the ground set.
        started = time.perf_counter()
        with pytest.raises(DomainError, match=f"user {user} is not in the ground set 1..5"):
            five_user.entropy([1, user])
        assert time.perf_counter() - started < 0.1

    def test_bit_counts_shared_across_models(self):
        # a small pool and one with more bits, built after it, both stay
        # exact and serve Fractions
        small = BitPoolSource(["a", "ab"])
        bits = 12
        big = BitPoolSource([[f"b{k}" for k in range(bits)], ["b0"], ["extra"]])
        assert [big.entropy(s) for s in ([1], [2], [3], [2, 3], [1, 3], [1, 2, 3])] == \
            [bits, 1, 1, 2, bits + 1, bits + 1]
        assert big.total_entropy == bits + 1
        assert [small.entropy(s) for s in ([], [1], [2], [1, 2])] == [0, 1, 2, 2]
        assert all(isinstance(big.entropy_of_mask(m), Fraction) for m in range(8))

    def test_exact_and_order_independent(self, five_user):
        straight = five_user.entropy([1, 3, 5])
        assert straight == five_user.entropy([5, 3, 1])
        assert straight == five_user.entropy([1, 3, 5])
        assert isinstance(straight, Fraction)


class TestValidate:
    def test_bitpool_always_valid(self, five_user):
        assert validate(five_user) == []

    def test_submodularity_violation(self):
        table = full_table(2, {(1,): 2, (2,): 2, (1, 2): 5})
        violations = validate(table)
        assert len(violations) == 1
        assert violations[0].kind == "submodularity"

    def test_monotonicity_violation(self):
        table = full_table(2, {(1,): 3, (2,): 1, (1, 2): 2})
        violations = validate(table)
        assert len(violations) == 1
        assert violations[0].kind == "monotonicity"

    def test_consistent_table(self, five_user):
        entries = {}
        n = five_user.size
        for mask in range(1, 1 << n):
            users = tuple(sorted(mask_users(mask)))
            entries[users] = five_user.entropy(users)
        assert validate(full_table(n, entries)) == []


def reference_validate(model):
    """`validate` as it was written with `Fraction` sums, kept as the reference."""
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
                    f"H({set_str(with_i)}) < H({set_str(mask)})",
                ))
            for j in outside[a + 1:]:
                with_j = mask | (1 << (j - 1))
                with_ij = with_i | with_j
                lhs = model.entropy_of_mask(with_i) + model.entropy_of_mask(with_j)
                rhs = h_x + model.entropy_of_mask(with_ij)
                if lhs < rhs:
                    violations.append(Violation(
                        "submodularity",
                        f"H({set_str(with_i)}) + H({set_str(with_j)}) < "
                        f"H({set_str(mask)}) + H({set_str(with_ij)})",
                    ))
    return violations


def set_str(mask):
    return "{" + ",".join(str(u) for u in sorted(mask_users(mask))) + "}"


def table_values(table):
    return {tuple(sorted(mask_users(mask))): table.entropy_of_mask(mask)
            for mask in range(1, 1 << table.size)}


# Large, pairwise coprime denominators: their lcm overflows any fixed width.
PRIMES = (7919, 104729, 1299709, 15485863, 179424673, 2147483647)


def perturbed(rng, base, moves):
    """`base` with `moves` values moved by +-k/p for large primes p, some below 0."""
    values = table_values(base)
    for key in rng.sample(sorted(values), moves):
        step = Fraction(rng.choice((-1, 1)) * rng.randint(1, 3), rng.choice(PRIMES))
        if rng.random() < 0.3:
            step -= values[key] + 1  # pushes the value below 0
        values[key] += step
    return EntropyTable(base.size, values)


def differential_corpus(seed=9412):
    """130 seeded tables of 2..7 users, valid and broken, with exact ties.

    * rank-sum polymatroids (`conftest.rank_sum_table`), valid, with ties
      wherever a user's private part is 0 or two users share no term;
    * the same tables with a few values moved by +-1/p for large primes p,
      some below 0, so the lcm of the denominators is huge;
    * small-integer tables (values in -1..3), where equalities are common.
    """
    rng = random.Random(seed)
    tables = []
    for _ in range(50):
        tables.append(rank_sum_table(rng, rng.randint(2, 7)))
    for _ in range(50):
        base = rank_sum_table(rng, rng.randint(2, 7))
        tables.append(perturbed(rng, base, rng.randint(1, min(6, (1 << base.size) - 1))))
    for _ in range(30):
        n = rng.randint(2, 6)
        tables.append(EntropyTable(n, {
            tuple(sorted(mask_users(mask))): rng.randint(-1, 3)
            for mask in range(1, 1 << n)
        }))
    return tables


def wide_corpus(seed=2718):
    """Eighteen perturbed rank-sum tables of 8..10 users.

    Here the pairings along the high bits i and j are split into many
    slices, and violations sit in a few of them.
    """
    rng = random.Random(seed)
    return [perturbed(rng, rank_sum_table(rng, n), rng.randint(1, 4))
            for n in (8, 9, 10) for _ in range(6)]


class TestValidateAgainstFractionReference:
    def test_identical_violation_lists(self):
        kinds = set()
        clean = broken = 0
        for table in differential_corpus():
            expected = reference_validate(table)
            assert validate(table) == expected
            kinds.update(v.kind for v in expected)
            clean += not expected
            broken += bool(expected)
        assert kinds == {"monotonicity", "submodularity"}
        assert clean >= 40 and broken >= 40

    def test_identical_violation_lists_at_eight_to_ten_users(self):
        kinds = set()
        total = 0
        for table in wide_corpus():
            expected = reference_validate(table)
            assert validate(table) == expected
            kinds.update(v.kind for v in expected)
            total += len(expected)
        assert kinds == {"monotonicity", "submodularity"}
        assert total >= 600

    def test_corpus_has_exact_ties_and_huge_lcm(self):
        # An equality is not a violation; a `<=` slip must show here.
        mono_ties = submod_ties = 0
        huge = False
        for table in differential_corpus():
            n = table.size
            h = [table.entropy_of_mask(mask) for mask in range(1 << n)]
            huge = huge or max(v.denominator for v in h) > 2**31
            for mask in range(1 << n):
                for i in range(n):
                    bi = 1 << i
                    if mask & bi:
                        continue
                    mono_ties += h[mask | bi] == h[mask]
                    for j in range(i + 1, n):
                        bj = 1 << j
                        if not mask & bj:
                            submod_ties += (h[mask | bi] + h[mask | bj]
                                            == h[mask] + h[mask | bi | bj])
        assert mono_ties > 100 and submod_ties > 100 and huge

    def test_reads_each_mask_once(self):
        # validate reads the table's flat int list: it makes no oracle call
        # and leaves the model's entropy cache as it found it.
        table = rank_sum_table(random.Random(5), 6)
        table.entropy_of_mask(0b101)
        cache = dict(table._cache)
        seen = []
        for name in ("entropy_int", "_entropy_of_mask", "entropy_of_mask"):
            def spy(mask, original=getattr(table, name)):
                seen.append(mask)
                return original(mask)
            setattr(table, name, spy)
        assert validate(table) == []
        assert seen == []
        assert table._cache == cache

    def test_lcm_past_the_budget_is_a_capacity_error(self):
        # 4095 distinct denominators near 2^40: their lcm is far past the
        # MAX_SCALED_BITS >> 12 = 65536 bits a 12-user table may scale by,
        # so building the table raises.
        values = {tuple(mask_users(mask)): Fraction(1, (1 << 40) + mask)
                  for mask in range(1, 1 << 12)}
        started = time.perf_counter()
        with pytest.raises(CapacityError, match="exceeds 65536 bits"):
            EntropyTable(12, values)
        assert time.perf_counter() - started < 2

    def test_lcm_budget_boundary(self, monkeypatch):
        # 40 bits over 2^2 values: the lcm may have 10 bits, not 11.
        monkeypatch.setattr("omnirate.model.MAX_SCALED_BITS", 40)
        h = {(1,): 1, (2,): 1, (1, 2): 2}
        validate(full_table(2, {k: Fraction(v, 1 << 9) for k, v in h.items()}))
        with pytest.raises(CapacityError, match="exceeds 10 bits"):
            validate(full_table(2, {k: Fraction(v, 1 << 10) for k, v in h.items()}))


class TestTableShape:
    def test_missing_subset_rejected(self):
        with pytest.raises(DomainError):
            full_table(2, {(1,): 1, (2,): 1})

    def test_empty_subset_rejected(self):
        with pytest.raises(DomainError):
            full_table(2, {(): 0, (1,): 1, (2,): 1, (1, 2): 2})

    def test_single_user_rejected(self):
        with pytest.raises(DomainError):
            full_table(1, {(1,): 1})

    def test_size_cap(self):
        with pytest.raises(CapacityError):
            EntropyTable(25, {})

    def test_size_cap_boundary(self):
        with pytest.raises(CapacityError):
            EntropyTable(MAX_TABLE_USERS + 1, {})
        with pytest.raises(DomainError, match="covers 0 subsets"):
            EntropyTable(MAX_TABLE_USERS, {})

    def test_huge_key_rejected_before_any_shift(self):
        # 1 << (10**9 - 1) would be a 125 MB int; the range check comes first.
        with pytest.raises(DomainError, match="outside"):
            full_table(2, {(1,): 1, (2,): 1, (1, 10**9): 2})

    def test_duplicate_key_rejected(self):
        with pytest.raises(DomainError, match="duplicate"):
            EntropyTable(2, {(1,): 1, (2,): 1, (1, 2): 2, frozenset({2, 1}): 2})

    def test_empty_bit_pool_rejected(self):
        with pytest.raises(DomainError):
            BitPoolSource(["ab", ""])


class TestMaskHelpers:
    def test_round_trip(self):
        assert mask_users(subset_mask([2, 5, 7])) == frozenset({2, 5, 7})
        assert subset_mask([]) == 0


@given(st.integers(min_value=0, max_value=10**6))
def test_bitpool_submodular_on_random_subsets(seed):
    rng = random.Random(seed)
    model = random_bitpool(rng, max_users=6, max_bits=8)
    n = model.size
    x = frozenset(u for u in model.users if rng.random() < 0.5)
    y = frozenset(u for u in model.users if rng.random() < 0.5)
    hx, hy = model.entropy(x), model.entropy(y)
    assert hx + hy >= model.entropy(x & y) + model.entropy(x | y)
    # monotone under inclusion
    assert model.entropy(x | y) >= hx


def test_partition_entropy(five_user):
    assert partition_entropy(five_user, [[1, 2, 5], [3], [4]]) == 9 + 4 + 4


class TestAsRational:
    def test_accepted_forms(self):
        assert [as_rational(v) for v in (3, Fraction(5, 2), "13/2", "-4", " 6.5 ", "1.5e-3")] \
            == [3, Fraction(5, 2), Fraction(13, 2), -4, Fraction(13, 2), Fraction(3, 2000)]

    @pytest.mark.parametrize("value", ["abc", "1/0", "1e10000000", "", "1/", 0.5, None])
    def test_refused_values_are_domain_errors(self, value):
        with pytest.raises(DomainError, match="not an exact rational"):
            as_rational(value)

    def test_an_exponent_past_the_cap_fails_fast(self, five_user):
        # refused by the exponent cap before `Fraction` builds a huge int
        state, _ = run_parametric(five_user)
        started = time.perf_counter()
        with pytest.raises(DomainError, match="not an exact rational: '1e10000000'"):
            state.partition_at("1e10000000")
        assert time.perf_counter() - started < 1


class TestIntEntropyScale:
    def test_bit_pool_scale_is_one_and_ints_are_bit_counts(self, five_user):
        assert five_user.scale == 1
        for mask in range(1 << five_user.size):
            assert five_user.entropy_int(mask) == five_user.bits_of_mask(mask).bit_count()
            assert five_user.entropy_of_mask(mask) == five_user.entropy_int(mask)

    def test_mixed_denominators_scale_to_exact_ints(self):
        table = coprime_rank_sum_table()
        assert validate(table) == []
        assert table.scale == 420
        assert len({table.entropy_of_mask(m).denominator for m in range(64)}) >= 6
        for mask in range(1 << 6):
            assert Fraction(table.entropy_int(mask), table.scale) == table.entropy_of_mask(mask)
        blocks = [[1, 2], [3], [4, 5, 6]]
        assert partition_entropy(table, blocks) == sum(
            (table.entropy(b) for b in blocks), Fraction(0))

    def test_sweep_on_mixed_denominators_matches_the_references(self):
        # Summing numerators without the common scale gives wrong sums here.
        table = coprime_rank_sum_table()
        _, psp = run_parametric(table)
        rate, finest, rates = mda_reference(table)
        brute_rate, brute_finest = brute_min_sum_rate(table)
        assert psp.min_sum_rate == rate == brute_rate
        assert psp.finest_maximizer == finest == brute_finest
        assert psp.rates == rates
        assert len(psp.partitions) > 2 and psp.finest_maximizer != Partition.whole(range(1, 7))
        # int reads scale the table's values; none is copied into the cache
        assert table._cache == {0: 0}
