import random
from fractions import Fraction
from itertools import combinations

import pytest

from omnirate import (CapacityError, FusionOracle, minimize, minimize_brute,
                      minimize_mnp, sfm)
from omnirate.par import fusion_oracle_at, initial_state, iter_parametric

from conftest import random_bitpool


def oracle_for(model, alpha, blocks, anchor_user, rates):
    return FusionOracle(model, Fraction(alpha), tuple(frozenset(b) for b in blocks),
                        frozenset({anchor_user}), {u: Fraction(r) for u, r in rates.items()})


class TestBruteOnGoldenSource:
    def test_second_user_low_alpha(self, five_user):
        # State right before user 2 is processed at alpha = 3.
        o = oracle_for(five_user, 3, [[1], [2]], 2, {1: 1, 2: -7})
        res = minimize_brute(o)
        assert res.minimal == frozenset({2})
        assert res.min_value == o.f_tilde(frozenset({2})) == 6

    def test_second_user_high_alpha(self, five_user):
        o = oracle_for(five_user, 6, [[1], [2]], 2, {1: 4, 2: -4})
        res = minimize_brute(o)
        assert res.minimal == frozenset({1, 2})
        assert res.min_value == 4

    def test_single_block_lattice(self, five_user):
        o = oracle_for(five_user, 5, [[1]], 1, {1: -5})
        res = minimize_brute(o)
        assert res.minimal == res.maximal == frozenset({1})
        assert res.min_value == o.f_tilde(frozenset({1}))
        assert minimize_mnp(o) == res

    def test_mnp_iteration_cap_raises(self, five_user, monkeypatch):
        from omnirate import SolverError
        o = oracle_for(five_user, 6, [[1], [2]], 2, {1: 4, 2: -4})
        with pytest.raises(SolverError):
            minimize_mnp(o, iteration_cap=0)
        # Route this lattice to min-norm-point and make it hit its cap:
        # minimize must fall back to brute enumeration.
        failures = []

        def capped(oracle):
            try:
                return minimize_mnp(oracle, iteration_cap=0)
            except SolverError:
                failures.append(oracle)
                raise

        monkeypatch.setattr(sfm, "AUTO_BRUTE_LIMIT", 0)
        monkeypatch.setattr(sfm, "minimize_mnp", capped)
        assert minimize(o) == minimize_brute(o)
        assert failures == [o]

    def test_capacity_cap(self, five_user):
        blocks = [[1], [2]]
        o = oracle_for(five_user, 3, blocks, 2, {1: 1, 2: -7})
        object.__setattr__(o, "blocks", tuple(frozenset({k}) for k in range(1, 27)))
        with pytest.raises(CapacityError):
            minimize_brute(o)


class TestFifthUserProbe:
    """The fusion problem for user 5 at the first divide-and-conquer probe.

    At alpha = 23/4 the (4, 7] slice of the four-user state applies, so the
    carrier is {{1,2},{3},{4},{5}} with rates (15/4, 0, -1/4, -1/4, -17/4).
    The unique minimizer there is the singleton {5}: the segmented chain
    only switches to {1,2,5} above alpha = 6.
    """

    def build(self, five_user):
        a = Fraction(23, 4)
        return oracle_for(
            five_user, a,
            [[1, 2], [3], [4], [5]], 5,
            {1: a - 2, 2: 0, 3: a - 6, 4: a - 6, 5: a - 10},
        )

    def test_minimal_minimizer(self, five_user):
        res = minimize_brute(self.build(five_user))
        assert res.minimal == frozenset({5})
        assert res.min_value == 5

    def test_solvers_agree(self, five_user):
        o = self.build(five_user)
        assert minimize_mnp(o) == minimize_brute(o)

    def test_chain_set_appears_above_six(self, five_user):
        a = Fraction(64, 10)
        o = oracle_for(
            five_user, a,
            [[1, 2], [3], [4], [5]], 5,
            {1: a - 2, 2: 0, 3: a - 6, 4: a - 6, 5: a - 10},
        )
        res = minimize_brute(o)
        assert res.minimal == frozenset({1, 2, 5})


class TestMinimizerLattice:
    def test_closure_under_meet_and_join(self, five_user):
        rng = random.Random(41)
        for _ in range(40):
            model = random_bitpool(rng, max_users=6, max_bits=6)
            alpha = model.total_entropy * Fraction(rng.randrange(0, 11), 10)
            blocks = [[u] for u in model.users]
            anchor = model.size
            rates = {u: Fraction(rng.randrange(-8, 5)) for u in model.users}
            o = oracle_for(model, alpha, blocks, anchor, rates)
            candidates = []
            rest = o.non_anchor_blocks
            for r in range(len(rest) + 1):
                for combo in combinations(rest, r):
                    fused = frozenset({anchor}).union(*combo) if combo else frozenset({anchor})
                    candidates.append((o.f_tilde(fused), fused))
            best = min(v for v, _ in candidates)
            minimizers = [s for v, s in candidates if v == best]
            for x in minimizers:
                for y in minimizers:
                    assert o.f_tilde(x & y) == best
                    assert o.f_tilde(x | y) == best


class TestMinNormPointAgreesWithBrute:
    def test_random_oracles(self):
        rng = random.Random(90125)
        for trial in range(200):
            model = random_bitpool(rng, max_users=8, max_bits=10)
            n = model.size
            alpha = model.total_entropy * Fraction(rng.randrange(0, 101), 100)
            # random partition of the users with the anchor kept singleton
            anchor = rng.randint(1, n)
            others = [u for u in model.users if u != anchor]
            rng.shuffle(others)
            blocks = [[anchor]]
            for u in others:
                if blocks[-1] != [anchor] and rng.random() < 0.4:
                    blocks[-1].append(u)
                else:
                    blocks.append([u])
            rates = {
                u: Fraction(rng.randrange(-40, 25), rng.randrange(1, 5))
                for u in model.users
            }
            o = oracle_for(model, alpha, blocks, anchor, rates)
            assert len(o.non_anchor_blocks) <= 8
            brute = minimize_brute(o)
            mnp = minimize_mnp(o)
            assert mnp.min_value == brute.min_value, f"trial {trial}"
            assert mnp.minimal == brute.minimal, f"trial {trial}"
            assert mnp.maximal == brute.maximal, f"trial {trial}"

    def test_extremes_bracket_and_achieve(self, five_user):
        o = oracle_for(five_user, 6, [[1], [2], [3]], 3,
                       {1: 4, 2: 0, 3: -4})
        res = minimize_mnp(o)
        assert res.minimal <= res.maximal
        assert o.f_tilde(res.minimal) == o.f_tilde(res.maximal) == res.min_value


class TestSaturationCapacity:
    """min f~ equals the largest feasible raise of the anchor coordinate.

    Replays each saturation step of the golden source at a few alphas and
    checks that raising r_i by the minimum keeps r inside the polyhedron
    of f_alpha with at least one tight constraint through i.
    """

    @pytest.mark.parametrize("alpha", [Fraction(0), Fraction(3), Fraction(23, 4),
                                       Fraction(13, 2), Fraction(10)])
    def test_golden_source_steps(self, five_user, alpha):
        from omnirate import coordinate_saturation
        from omnirate.dilworth import AlphaFunction
        f_alpha = AlphaFunction(five_user, alpha)
        base = alpha - five_user.total_entropy
        for i in range(2, 6):
            prev = coordinate_saturation(five_user, alpha, list(range(1, i)))
            rates = {u: r for u, r in zip(prev.users, prev.rates)}
            rates[i] = base
            blocks = list(prev.partition.blocks) + [[i]]
            o = oracle_for(five_user, alpha, blocks, i, rates)
            res = minimize_brute(o)
            raised = dict(rates)
            raised[i] = base + res.min_value
            tight = False
            users = list(range(1, i + 1))
            for size in range(1, i + 1):
                for combo in combinations(users, size):
                    if i not in combo:
                        continue
                    lhs = sum(raised[u] for u in combo)
                    rhs = f_alpha(combo)
                    assert lhs <= rhs
                    tight = tight or lhs == rhs
            assert tight


def test_backends_agree_through_minimize(five_user):
    o = oracle_for(five_user, 3, [[1], [2]], 2, {1: 1, 2: -7})
    assert minimize(o) == minimize_brute(o) == minimize_mnp(o)


def test_fusion_oracle_helper_matches_manual(five_user):
    states = list(iter_parametric(five_user))
    o = fusion_oracle_at(states[3], 5, Fraction(23, 4))
    assert o.blocks == (frozenset({1, 2}), frozenset({3}), frozenset({4}), frozenset({5}))
    assert o.f_tilde(frozenset({5})) == 5
    assert o.f_tilde(frozenset({1, 2, 5})) == Fraction(21, 4)
