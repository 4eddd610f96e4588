import random
from decimal import Decimal
from fractions import Fraction
from itertools import combinations

import pytest

from omnirate import (BitPoolSource, CapacityError, DomainError, Partition,
                      brute_dilworth, brute_min_sum_rate, check_achievable,
                      dilworth_truncation, partitions_of, run_parametric)
from omnirate.model import MAX_TABLE_USERS

from conftest import random_alpha, random_bitpool, rank_sum_table, spread_bitpool

BELL = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203, 7: 877, 8: 4140}


class TestPartitionEnumeration:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_counts_match_bell_numbers(self, n):
        seen = list(partitions_of(range(1, n + 1)))
        assert len(seen) == BELL[n]
        assert len(set(seen)) == BELL[n]

    def test_capacity_cap(self):
        with pytest.raises(CapacityError):
            list(partitions_of(range(1, 10)))


class TestBruteMinSumRate:
    def test_golden_source(self, five_user):
        value, finest = brute_min_sum_rate(five_user)
        assert value == Fraction(13, 2)
        assert finest == Partition([[1, 2, 5], [3], [4]])

    def test_two_user_prefix(self, five_user):
        # Only one multi-block partition exists for two users.
        value, finest = brute_min_sum_rate(five_user, [1, 2])
        h = five_user.entropy([1, 2])
        expected = (h - five_user.entropy([1])) + (h - five_user.entropy([2]))
        assert value == expected == 2
        assert finest == Partition([[1], [2]])

    def test_three_users_each_missing_one_bit(self):
        model = BitPoolSource(["ab", "bc", "ca"])
        value, finest = brute_min_sum_rate(model)
        assert value == Fraction(3, 2)
        assert finest == Partition.singletons([1, 2, 3])

    def test_three_users_sharing_one_bit(self):
        # Everybody already knows everything: no exchange needed.
        model = BitPoolSource(["w", "w", "w"])
        value, _ = brute_min_sum_rate(model)
        assert value == 0

    def test_singleton_carrier_rejected(self, five_user):
        with pytest.raises(DomainError):
            brute_min_sum_rate(five_user, [3])


class TestBruteDilworth:
    def test_mid_segment_value(self, five_user):
        value, finest = brute_dilworth(five_user, 5)
        assert value == 1
        assert finest == Partition([[1, 2], [3], [4], [5]])

    def test_top_alpha(self, five_user):
        value, finest = brute_dilworth(five_user, 10)
        assert value == 10
        assert finest == Partition.whole(five_user.users)

    def test_matches_saturation(self):
        rng = random.Random(808)
        for _ in range(20):
            model = random_bitpool(rng, max_users=5, max_bits=9)
            alpha = random_alpha(rng, model)
            value, _ = brute_dilworth(model, alpha)
            assert value == dilworth_truncation(model, alpha)


class TestCheckAchievable:
    def test_optimal_vector(self, five_user):
        rates = (Fraction(9, 2), 0, Fraction(1, 2), Fraction(1, 2), 1)
        assert check_achievable(five_user, rates)

    def test_zero_vector(self, five_user):
        assert not check_achievable(five_user, [0, 0, 0, 0, 0])

    def test_below_minimum_sum_always_fails(self, five_user):
        eps = Fraction(1, 10)
        rates = [Fraction(9, 2) - eps, 0, Fraction(1, 2), Fraction(1, 2), 1]
        assert not check_achievable(five_user, rates)
        # any vector summing below the minimum sum-rate must fail
        rng = random.Random(3)
        for _ in range(20):
            cut = [Fraction(rng.randrange(0, 50), 10) for _ in range(5)]
            total = sum(cut)
            if total >= Fraction(13, 2):
                scale = Fraction(63, 10) / total if total else 0
                cut = [c * scale for c in cut]
            assert not check_achievable(five_user, cut)

    @pytest.mark.parametrize("inexact", [4.5, Decimal("4.5")])
    def test_inexact_rates_rejected(self, five_user, inexact):
        # 4.5 is the optimal vector's first rate: accepting it would pass
        with pytest.raises(DomainError):
            check_achievable(five_user, [inexact, 0, Fraction(1, 2), Fraction(1, 2), 1])
        assert check_achievable(five_user, ["9/2", 0, "1/2", Fraction(1, 2), 1])

    def test_wrong_length_is_a_domain_error(self, five_user):
        # a caller's mistake, as in `so.decompose_rates`, not an internal bug
        for rates, carrier in (([1] * 4, None), ([1] * 6, None), ([1, 1], [1, 2, 3])):
            with pytest.raises(DomainError, match=f"length {len(rates)} does not match"):
                check_achievable(five_user, rates, carrier)

    def test_slack_added_stays_achievable(self, five_user):
        rates = [Fraction(9, 2) + 1, 0, Fraction(1, 2), Fraction(1, 2), 1]
        assert check_achievable(five_user, rates)

    def test_agrees_with_each_constraint(self):
        # Against r(X) >= H(carrier) - H(carrier \ X) subset by subset, in
        # Fractions: optimal, nudged and free rates, on whole and partial
        # carriers of bit pools and rational tables.  No entropy is cached.
        rng = random.Random(4243)
        outcomes = []
        for k in range(60):
            model = random_bitpool(rng, 7, 10) if k % 2 else rank_sum_table(rng, rng.randint(2, 6))
            _, psp = run_parametric(model)
            nudged = list(psp.rates)
            nudged[rng.randrange(model.size)] += Fraction(rng.choice([-1, 1]), rng.randint(1, 30))
            users = sorted(rng.sample(model.users, rng.randint(1, model.size)))
            free = [Fraction(rng.randint(-2, 12), rng.randint(1, 6)) for _ in users]
            for rates, carrier in ((psp.rates, None), (nudged, None), (free, users)):
                if isinstance(model, BitPoolSource):
                    model = BitPoolSource(model.bits_per_user)
                outcome = check_achievable(model, rates, carrier)
                assert model._cache == {0: 0}
                assert outcome == meets_each_constraint(model, rates, carrier or model.users)
                outcomes.append(outcome)
        assert outcomes.count(True) > 90 and outcomes.count(False) > 40

    def test_sixteen_users(self):
        model = spread_bitpool(random.Random(16), 16)
        _, psp = run_parametric(model)
        rates = list(psp.rates)
        assert check_achievable(model, rates)
        rates[-1] -= Fraction(1, 3)
        assert not check_achievable(model, rates)

    def test_carrier_past_the_table_cap(self, monkeypatch):
        # 2^21 - 2 constraints: refused before any subset's entropy is read.
        pool = BitPoolSource([f"b{u}" for u in range(MAX_TABLE_USERS + 1)])
        monkeypatch.setattr(pool, "entropy_int", None)
        with pytest.raises(CapacityError, match="at most 20 users, got 21"):
            check_achievable(pool, [1] * 21)


def meets_each_constraint(model, rates, users) -> bool:
    """r(X) >= H(users) - H(users \\ X) for every nonempty X strictly inside
    `users`, one subset at a time, in Fractions."""
    total = model.entropy(users)
    for size in range(1, len(users)):
        for inside in combinations(range(len(users)), size):
            rest = [u for k, u in enumerate(users) if k not in inside]
            if sum(rates[k] for k in inside) < total - model.entropy(rest):
                return False
    return True
