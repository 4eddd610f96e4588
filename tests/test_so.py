import random
from fractions import Fraction

import pytest

from omnirate import (BitPoolSource, DecompositionError, DomainError,
                      brute_min_sum_rate, check_achievable, decompose_rates,
                      find_complimentary, iter_parametric, lower_bound_alpha,
                      par, plan_from_state, run_parametric,
                      verify_complimentary)

from conftest import (corpus_models, plan_at, planted_pair_bitpool, rank_sum_table,
                      random_bitpool, twin_bitpool)

F = Fraction


class TestLowerBound:
    def test_golden_source(self, five_user):
        assert lower_bound_alpha(five_user) == F(23, 4)

    def test_never_exceeds_minimum_sum_rate(self, five_user):
        _, psp = run_parametric(five_user)
        assert lower_bound_alpha(five_user) <= psp.min_sum_rate

    def test_tight_for_two_users(self):
        # With two users the singleton partition is the only multi-block one,
        # so the bound is the minimum sum-rate itself.
        for bits in (["w", "wy"], ["ax", "ay"], ["abc", "cd"]):
            model = BitPoolSource(bits)
            value, _ = brute_min_sum_rate(model)
            assert lower_bound_alpha(model) == value


class TestFindComplimentary:
    def test_default_bound_prefers_earliest_iteration(self, five_user):
        plan = find_complimentary(five_user)
        assert plan.subset == frozenset({1, 2})
        assert plan.found_at_iteration == 2
        assert plan.local_alpha == 4
        assert plan.local_rates == (F(2), F(0))
        assert plan.local_min_sum_rate == 2

    def test_override_inspects_full_sweep(self, five_user):
        plan = plan_at(five_user, F(25, 4))
        assert plan.subset == frozenset({1, 2, 5})
        assert plan.found_at_iteration == 5
        assert plan.local_alpha == 6
        assert plan.local_rates == (F(4), F(0), F(1))
        assert plan.local_min_sum_rate == 5

    def test_independent_sources_have_no_plan(self):
        model = BitPoolSource(["x", "y", "z"])
        assert find_complimentary(model) is None
        # brute force: all partitions tie, the finest maximizer is singletons
        _, finest = brute_min_sum_rate(model)
        assert len(finest) == 3

    def test_bound_out_of_range(self, five_user):
        with pytest.raises(DomainError):
            plan_at(five_user, F(11))

    def test_plan_defining_inequality(self):
        # H(V) - H(C) + R(C) <= R(V), both sides from the brute oracle.
        rng = random.Random(2024)
        found = 0
        for _ in range(40):
            model = random_bitpool(rng, max_users=5, max_bits=8)
            plan = find_complimentary(model)
            if plan is None:
                continue
            found += 1
            r_local, _ = brute_min_sum_rate(model, plan.subset)
            r_global, _ = brute_min_sum_rate(model)
            assert plan.local_min_sum_rate == r_local
            assert model.total_entropy - model.entropy(plan.subset) + r_local <= r_global
            assert plan.local_alpha <= lower_bound_alpha(model)
        assert found > 5

    def test_local_vector_attains_local_omniscience(self):
        rng = random.Random(2025)
        for _ in range(30):
            model = random_bitpool(rng, max_users=6, max_bits=9)
            plan = find_complimentary(model)
            if plan is None:
                continue
            assert check_achievable(model, plan.local_rates, plan.local_users)
            assert sum(plan.local_rates) == plan.local_min_sum_rate


def whole_axis_plan(model, alpha_bar=None):
    """The plan read off the whole-axis sweep states: the default bound at
    the first iteration that shows a block, a given bound at the last."""
    states = list(iter_parametric(model))[1:]
    if alpha_bar is not None:
        return plan_from_state(states[-1], alpha_bar)
    bound = lower_bound_alpha(model)
    return next(filter(None, (plan_from_state(s, bound) for s in states)), None)


class TestTruncatedSearch:
    """The search sweeps only [0, alpha_bar]; its plans are the whole axis's."""

    def check_plans(self, rng, models):
        found = 0
        for model in models:
            plan = find_complimentary(model)
            assert plan == whole_axis_plan(model)
            found += plan is not None
            rate = run_parametric(model)[1].min_sum_rate
            for bound in (rate * F(rng.randrange(0, 1001), 1000), rate):
                assert plan_at(model, bound) == whole_axis_plan(model, bound)
        assert found > len(models) // 4

    def test_random_bitpools(self):
        rng = random.Random(6160)
        self.check_plans(rng, [random_bitpool(rng, max_users=8, max_bits=10)
                               for _ in range(60)])

    def test_bitpools_with_identical_users(self):
        rng = random.Random(6161)
        self.check_plans(rng, [twin_bitpool(rng, max_users=8, max_bits=8)
                               for _ in range(40)])

    def test_rational_rank_sum_tables(self):
        rng = random.Random(6162)
        self.check_plans(rng, [rank_sum_table(rng, rng.randint(2, 7))
                               for _ in range(30)])

    def test_golden_probes_stay_at_or_below_the_bound(self, five_user, monkeypatch):
        alphas = []
        real_minimize = par.minimize

        def counted(oracle):
            alphas.append(oracle.alpha)
            return real_minimize(oracle)

        monkeypatch.setattr(par, "minimize", counted)
        find_complimentary(five_user)
        # user 2 only: one probe at the bound, whose minimizer {1, 2} leads
        # to one chain probe below it, at 4; that probe's bracket ({2}, {1, 2})
        # has one block beyond the anchor, so its minimizer is forced
        assert alphas == [F(23, 4)]


class TestSingletonTops:
    """The default search reads no plan off a state whose chain top at the
    bound is the new user alone; it still returns the first plan that any
    state of its cut sweep shows."""

    def check_first_plans(self, models):
        for model in models:
            bound = lower_bound_alpha(model)
            plans = (plan_from_state(s, bound) for s in iter_parametric(model, bound))
            assert find_complimentary(model) == next(filter(None, plans), None)

    def test_corpus(self):
        self.check_first_plans(corpus_models())

    def test_planted_pairs(self):
        rng = random.Random(6163)
        self.check_first_plans([planted_pair_bitpool(rng, n) for n in range(10, 17)])


class TestVerifyComplimentary:
    def test_pair_at_default_bound(self, five_user):
        assert verify_complimentary(five_user, [1, 2], F(23, 4))

    def test_pair_below_merge_point(self, five_user):
        assert not verify_complimentary(five_user, [1, 2], 3)

    def test_triple_at_override(self, five_user):
        assert verify_complimentary(five_user, [1, 2, 5], F(25, 4))

    def test_domain_checks(self, five_user):
        with pytest.raises(DomainError):
            verify_complimentary(five_user, [3], 4)
        with pytest.raises(DomainError):
            verify_complimentary(five_user, five_user.users, 4)


class TestDecomposeRates:
    def test_pair_plan(self, five_user):
        plan = find_complimentary(five_user)
        total = (F(9, 2), F(0), F(1, 2), F(1, 2), F(1))
        local, residual = decompose_rates(total, plan)
        assert local == (F(2), F(0), F(0), F(0), F(0))
        assert residual == (F(5, 2), F(0), F(1, 2), F(1, 2), F(1))

    def test_zero_local_is_identity(self, five_user):
        from omnirate.so import SOPlan
        plan = SOPlan(frozenset({1, 2}), F(0), (1, 2), (F(0), F(0)), F(0), 2, 5)
        total = (F(9, 2), F(0), F(1, 2), F(1, 2), F(1))
        local, residual = decompose_rates(total, plan)
        assert residual == total and set(local) == {0}

    def test_triple_plan(self, five_user):
        plan = plan_at(five_user, F(25, 4))
        total = (F(9, 2), F(0), F(1, 2), F(1, 2), F(1))
        _, residual = decompose_rates(total, plan)
        assert residual == (F(1, 2), F(0), F(1, 2), F(1, 2), F(0))

    def test_incompatible_vector_is_signalled(self, five_user):
        plan = find_complimentary(five_user)  # needs r_1 >= 2
        skewed = (F(1), F(7, 2), F(1, 2), F(1, 2), F(1))
        with pytest.raises(DecompositionError):
            decompose_rates(skewed, plan)

    def test_dimension_mismatch(self, five_user):
        plan = find_complimentary(five_user)
        with pytest.raises(DomainError):
            decompose_rates((F(2), F(0)), plan)
