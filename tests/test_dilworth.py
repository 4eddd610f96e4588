import random
from fractions import Fraction
from itertools import combinations

import pytest

from omnirate import (DomainError, Partition, brute_dilworth,
                      coordinate_saturation, dilworth, dilworth_truncation,
                      mda_reference, run_parametric)
from omnirate.dilworth import AlphaFunction
from omnirate.model import mask_users

from conftest import partition_value, random_alpha, random_bitpool, rank_sum_table


class TestCoordinateSaturation:
    def test_two_users_low_alpha(self, five_user):
        res = coordinate_saturation(five_user, 3, [1, 2])
        assert res.rates == (Fraction(1), Fraction(-1))
        assert res.partition == Partition([[1], [2]])

    def test_two_users_high_alpha(self, five_user):
        res = coordinate_saturation(five_user, 6, [1, 2])
        assert res.rates == (Fraction(4), Fraction(0))
        assert res.partition == Partition([[1, 2]])

    def test_full_carrier_at_optimum(self, five_user):
        res = coordinate_saturation(five_user, Fraction(13, 2))
        assert res.rates == (Fraction(9, 2), Fraction(0), Fraction(1, 2),
                             Fraction(1, 2), Fraction(1))
        assert res.partition == Partition([[1, 2, 5], [3], [4]])
        assert res.value == Fraction(13, 2)

    def test_alpha_out_of_range(self, five_user):
        with pytest.raises(DomainError):
            coordinate_saturation(five_user, 11)
        with pytest.raises(DomainError):
            coordinate_saturation(five_user, Fraction(-1, 2))

    def test_bad_carrier(self, five_user):
        with pytest.raises(DomainError):
            coordinate_saturation(five_user, 3, [])
        with pytest.raises(DomainError):
            coordinate_saturation(five_user, 3, [4, 9])

    def test_rank_sum_tables_with_mixed_denominators(self, monkeypatch):
        # Each step scales its blocks' f_alpha values to ints over one
        # denominator, through the oracle builder the sweep's probes share;
        # every rate is checked against f_alpha in Fractions.  At R_CO the
        # rates and partition equal those of mda_reference and of the
        # parametric sweep; many steps mix block denominators.
        real_minimize = dilworth.minimize
        mixed = []

        def recorded(oracle):
            rates = [Fraction(r, oracle.scale) for r in oracle.rates]
            f_alpha = AlphaFunction(model, alpha)
            assert rates[:-1] == [f_alpha(mask_users(b)) for b in oracle.non_anchor_blocks]
            assert rates[-1] == alpha - model.total_entropy
            denominators = {r.denominator for r in rates}
            mixed.append(len(denominators) > 1)
            return real_minimize(oracle)

        rng = random.Random(5077)
        for _ in range(25):
            model = rank_sum_table(rng, rng.randint(3, 7))
            alpha, partition, rates = mda_reference(model)
            _, psp = run_parametric(model)
            with monkeypatch.context() as patch:
                patch.setattr(dilworth, "minimize", recorded)
                res = coordinate_saturation(model, alpha)
            assert (res.rates, res.partition) == (rates, partition)
            assert (alpha, partition, rates) == (psp.min_sum_rate, psp.finest_maximizer, psp.rates)
        assert sum(mixed) > len(mixed) // 2


class TestTruncationValue:
    def test_at_optimum(self, five_user):
        assert dilworth_truncation(five_user, Fraction(13, 2)) == Fraction(13, 2)

    def test_at_zero(self, five_user):
        # all-singleton minimizer: sum of H({i}) - H(V) over users
        assert dilworth_truncation(five_user, 0) == -23

    def test_single_user_carrier(self, five_user):
        for alpha in (0, 3, Fraction(19, 2)):
            assert dilworth_truncation(five_user, alpha, [1]) == Fraction(alpha) - 2


class TestPartitionValue:
    def test_whole_carrier_cancels(self, five_user):
        p = Partition.whole(five_user.users)
        for alpha in (0, Fraction(7, 3), 10):
            assert partition_value(five_user, alpha, p) == alpha

    def test_singletons_at_breakpoint(self, five_user):
        p = Partition.singletons(five_user.users)
        assert partition_value(five_user, 4, p) == -3

    def test_three_block_partition(self, five_user):
        p = Partition([[1, 2, 5], [3], [4]])
        assert partition_value(five_user, 6, p) == 5


class TestAgainstBruteForce:
    def test_random_models_match_enumeration(self):
        rng = random.Random(555)
        for _ in range(25):
            model = random_bitpool(rng, max_users=6, max_bits=8)
            alpha = random_alpha(rng, model)
            res = coordinate_saturation(model, alpha)
            value, finest = brute_dilworth(model, alpha)
            assert res.value == value
            assert res.partition == finest
            assert sum(res.rates, Fraction(0)) == value

    def test_non_prefix_carrier(self, five_user):
        rng = random.Random(556)
        for carrier in ([2, 5], [1, 3, 4], [2, 3, 5], [1, 4, 5]):
            alpha = random_alpha(rng, five_user)
            res = coordinate_saturation(five_user, alpha, carrier)
            value, finest = brute_dilworth(five_user, alpha, carrier)
            assert res.value == value
            assert res.partition == finest


class TestBasePolyhedronMembership:
    def test_rate_vector_dominated_everywhere(self):
        rng = random.Random(99)
        for _ in range(15):
            model = random_bitpool(rng, max_users=5, max_bits=7)
            alpha = random_alpha(rng, model)
            res = coordinate_saturation(model, alpha)
            f_alpha = AlphaFunction(model, alpha)
            users = res.users
            for size in range(1, len(users) + 1):
                for combo in combinations(users, size):
                    lhs = sum(res.rates[users.index(u)] for u in combo)
                    assert lhs <= f_alpha(combo)
            assert sum(res.rates, Fraction(0)) == res.value

    def test_every_other_minimizer_is_coarser(self):
        from omnirate.oracle import partitions_of
        rng = random.Random(100)
        for _ in range(10):
            model = random_bitpool(rng, max_users=5, max_bits=6)
            alpha = random_alpha(rng, model)
            res = coordinate_saturation(model, alpha)
            for p in partitions_of(model.users):
                value = partition_value(model, alpha, p)
                assert value >= res.value
                if value == res.value:
                    assert res.partition.refines(p)


class TestPiecewiseStructure:
    def test_slope_equals_block_count(self, five_user):
        # Within one segment of the principal sequence the truncation is a
        # line with slope equal to the number of blocks.
        probes = {
            (Fraction(1), Fraction(2)): 5,   # inside [0, 4]
            (Fraction(9, 2), Fraction(5)): 4,   # inside (4, 6]
            (Fraction(61, 10), Fraction(25, 4)): 3,   # inside (6, 6.5]
            (Fraction(7), Fraction(8)): 1,   # inside (6.5, 10]
        }
        for (a, b), blocks in probes.items():
            va = dilworth_truncation(five_user, a)
            vb = dilworth_truncation(five_user, b)
            assert (vb - va) / (b - a) == blocks
            assert len(coordinate_saturation(five_user, a).partition) == blocks

    def test_strictly_increasing(self, five_user):
        alphas = [Fraction(k, 3) for k in range(0, 31)]
        values = [dilworth_truncation(five_user, a) for a in alphas]
        assert all(x < y for x, y in zip(values, values[1:]))
