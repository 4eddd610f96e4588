import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st, target

from omnirate import (BitPoolSource, CapacityError, DomainError, FusionOracle,
                      InternalError, lower_bound_alpha, minimize, minimize_brute,
                      minimize_cut, par, sfm)
from omnirate.model import MAX_TABLE_USERS, SourceModel, mask_users, subset_mask
from omnirate.par import fusion_oracle_at, initial_state, iter_parametric
from omnirate.sfm import minimize_mnp

from conftest import (coprime_rank_sum_table, oracle_from_fractions, planted_pair_bitpool,
                      random_bitpool, rank_sum_table, spread_bitpool)


def lattice_oracle(model, alpha, blocks, anchor, rates):
    """The oracle on `blocks` with `anchor` moved last and the per-user
    `rates` summed per block."""
    blocks = [b for b in map(frozenset, blocks) if b != anchor] + [frozenset(anchor)]
    sums = [sum((Fraction(rates[u]) for u in b), Fraction(0)) for b in blocks]
    return oracle_from_fractions(model, Fraction(alpha), blocks, sums)


def oracle_for(model, alpha, blocks, anchor_user, rates):
    return lattice_oracle(model, alpha, blocks, {anchor_user}, rates)


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
        assert res.minimal == frozenset({1})
        assert res.min_value == o.f_tilde(frozenset({1}))
        assert minimize_mnp(o) == res

    def test_mnp_iteration_cap_raises(self, five_user, monkeypatch):
        from omnirate import SolverError
        o = oracle_for(five_user, 6, [[1], [2]], 2, {1: 4, 2: -4})
        monkeypatch.setattr(sfm, "_MNP_ITERATION_CAP", 0)
        with pytest.raises(SolverError):
            minimize_mnp(o)
        # A table lattice of 12 non-anchor blocks is solved by brute
        # enumeration: min-norm-point is no backend of minimize.
        def unreachable(oracle):
            raise SolverError("minimize reached min-norm-point")

        monkeypatch.setattr(sfm, "minimize_mnp", unreachable)
        model = rank_sum_table(random.Random(12), 13)
        o = oracle_for(model, model.total_entropy / 2, [[u] for u in model.users], 13,
                       {u: Fraction(u % 5 - 1, 3) for u in model.users})
        assert len(o.non_anchor_blocks) == 12
        assert minimize(o) == minimize_brute(o)

    def test_table_lattices_stay_under_the_brute_limit(self):
        # minimize sends every table lattice to brute enumeration.
        assert MAX_TABLE_USERS - 1 <= sfm.BRUTE_LIMIT

    def test_capacity_cap(self, five_user):
        blocks = [[1], [2]]
        o = oracle_for(five_user, 3, blocks, 2, {1: 1, 2: -7})
        object.__setattr__(o, "blocks", tuple(1 << k for k in range(26)))
        with pytest.raises(CapacityError):
            minimize_brute(o)

    def test_brute_limit_boundary(self, five_user, monkeypatch):
        # Exactly BRUTE_LIMIT non-anchor blocks solve; one more is refused.
        monkeypatch.setattr(sfm, "BRUTE_LIMIT", 3)
        rates = {u: 1 for u in range(1, 6)}
        at_limit = oracle_for(five_user, 6, [[1], [2], [3], [5]], 5, rates)
        assert minimize_brute(at_limit) == minimize_mnp(at_limit)
        past = oracle_for(five_user, 6, [[1], [2], [3], [4], [5]], 5, rates)
        with pytest.raises(CapacityError, match="capped at 3 non-anchor blocks, got 4"):
            minimize_brute(past)

    def test_mnp_iteration_cap_boundary(self, five_user, monkeypatch):
        # The top probe of user 5 needs exactly two min-norm-point
        # iterations: a cap of 2 solves it, a cap of 1 raises.
        from omnirate import SolverError
        state = list(iter_parametric(five_user))[3]
        o = fusion_oracle_at(state, Fraction(23, 4))
        assert len(o.non_anchor_blocks) == 3
        monkeypatch.setattr(sfm, "_MNP_ITERATION_CAP", 2)
        assert minimize_mnp(o) == minimize_brute(o)
        monkeypatch.setattr(sfm, "_MNP_ITERATION_CAP", 1)
        with pytest.raises(SolverError):
            minimize_mnp(o)

    def test_brute_limit_is_the_largest_table_lattice(self):
        # A source past the table cap that is no bit pool gets a lattice of
        # MAX_TABLE_USERS non-anchor blocks to brute enumeration, which
        # refuses it before reading any entropy.
        class Unread(SourceModel):
            scale = 1

            def _entropy_of_mask(self, mask):
                raise AssertionError("brute enumeration read an entropy")

        model = Unread(MAX_TABLE_USERS + 1)
        o = oracle_for(model, 1, [[u] for u in model.users], 1,
                       {u: 0 for u in model.users})
        assert len(o.non_anchor_blocks) == MAX_TABLE_USERS == 20
        with pytest.raises(CapacityError, match="capped at 19 non-anchor blocks, got 20"):
            minimize(o)


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
            rest = tuple(map(mask_users, o.non_anchor_blocks))
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

    def test_extremes_bracket_and_achieve(self, five_user):
        o = oracle_for(five_user, 6, [[1], [2], [3]], 3,
                       {1: 4, 2: 0, 3: -4})
        # minimize_mnp raises InternalError unless both extremes it reads off
        # the norm point reach the minimum
        res = minimize_mnp(o)
        assert o.f_tilde(res.minimal) == res.min_value


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
    o = fusion_oracle_at(states[3], Fraction(23, 4))
    assert tuple(map(mask_users, o.blocks)) == (
        frozenset({1, 2}), frozenset({3}), frozenset({4}), frozenset({5}))
    assert o.f_tilde(frozenset({5})) == 5
    assert o.f_tilde(frozenset({1, 2, 5})) == Fraction(21, 4)


def test_fusion_oracle_helper_needs_a_next_user(five_user):
    final = list(iter_parametric(five_user))[-1]
    with pytest.raises(DomainError, match="whole ground set"):
        fusion_oracle_at(final, Fraction(23, 4))


def enumerated_extremes(oracle):
    """Minimum and extreme minimizers by plain enumeration over f_tilde."""
    rest = tuple(map(mask_users, oracle.non_anchor_blocks))
    anchor = mask_users(oracle.anchor)
    values = {}
    for r in range(len(rest) + 1):
        for combo in combinations(rest, r):
            fused = anchor.union(*combo)
            values[fused] = oracle.f_tilde(fused)
    best = min(values.values())
    minimizers = [x for x, v in values.items() if v == best]
    return best, frozenset.intersection(*minimizers), frozenset.union(*minimizers)


class TestRationalTablesAgainstEnumeration:
    """Both backends against an enumeration that shares none of their code."""

    def test_random_rank_sum_tables(self):
        rng = random.Random(20231)
        ties = 0
        for trial in range(170):
            # The last 20 trials take a table over scale 420 and rates over
            # 11 or 13, coprime to it.
            if trial < 150:
                n = rng.randint(2, 7)
                model, wide, narrow = rank_sum_table(rng, n), range(1, 8), range(2, 6)
            else:
                n = 6
                model, wide, narrow = coprime_rank_sum_table(), (11, 13), (11, 13)
            carrier = list(range(1, rng.randint(2, n) + 1))
            anchor = rng.choice(carrier)
            others = [u for u in carrier if u != anchor]
            rng.shuffle(others)
            blocks = [[anchor]]
            for u in others:
                if blocks[-1] != [anchor] and rng.random() < 0.4:
                    blocks[-1].append(u)
                else:
                    blocks.append([u])
            if trial % 2:
                rates = {u: Fraction(rng.randrange(-30, 20), rng.choice(wide))
                         for u in carrier}
            else:
                # A greedy vertex with the anchor first and each block
                # contiguous: every prefix union of blocks ties at the
                # minimum, and a few nudged users break some of the ties.
                rates, prefix, prev = {}, set(), Fraction(0)
                for u in [u for b in blocks for u in b]:
                    prefix.add(u)
                    h = model.entropy(prefix)
                    rates[u] = h - prev
                    prev = h
                for u in rng.sample(carrier, rng.randint(0, 2)):
                    rates[u] += Fraction(rng.choice([-1, 1]), rng.choice(narrow))
            alpha = model.total_entropy * Fraction(rng.randint(0, 12), 12)
            o = oracle_for(model, alpha, blocks, anchor, rates)
            best, minimal, maximal = enumerated_extremes(o)
            ties += minimal != maximal
            for res in (minimize_brute(o), minimize_mnp(o)):
                assert (res.min_value, res.minimal) == (best, minimal), f"trial {trial}"
        assert ties >= 30

    def test_brute_refuses_a_scale_off_the_models(self):
        # Entropies over 420 cannot be read as ints over 11: a hand-built
        # oracle like this one would get a wrong answer, not an error.
        model = coprime_rank_sum_table()
        o = FusionOracle(model, Fraction(1), (0b1, 0b10, 0b100), (3, -5, 2), 11)
        for solve in (minimize_brute, minimize):
            with pytest.raises(DomainError, match="model's entropy scale 420"):
                solve(o)


def test_gray_walk_queries_each_union_once(monkeypatch):
    rng = random.Random(7)
    model = rank_sum_table(rng, 7)
    blocks = [[7], [1, 2], [3], [4], [5, 6]]
    o = oracle_for(model, Fraction(5, 3), blocks, 7,
                   {u: Fraction(u, 3) for u in model.users})
    walk = []
    walking = [True]
    real_entropy = model.entropy_int
    real_min_value = sfm._min_value

    def counted(mask):
        if walking[0]:
            walk.append(mask)
        return real_entropy(mask)

    def min_value(oracle, num):
        # The walk is over once the minimum is built (it reads H(V)).
        walking[0] = False
        return real_min_value(oracle, num)

    monkeypatch.setattr(model, "entropy_int", counted)
    monkeypatch.setattr(sfm, "_min_value", min_value)
    res = minimize_brute(o)
    unions = {subset_mask({7}.union(*combo))
              for r in range(5) for combo in combinations(map(set, blocks[1:]), r)}
    assert len(walk) == len(set(walk)) == 2 ** 4 == res.evaluations
    assert set(walk) == unions


def fraction_affine_minimizer(vertices):
    """Plain Fraction Gauss-Jordan on the bordered Gram system; None if singular."""
    m = len(vertices)
    size = m + 1
    rows = [[Fraction(0)] + [Fraction(1)] * m + [Fraction(1)]]
    for a in vertices:
        rows.append([Fraction(1)] + [sum((x * y for x, y in zip(a, b)), Fraction(0))
                                     for b in vertices] + [Fraction(0)])
    for col in range(size):
        pivot = next((r for r in range(col, size) if rows[r][col] != 0), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [v / rows[col][col] for v in rows[col]]
        for r in range(size):
            if r != col:
                factor = rows[r][col]
                rows[r] = [v - factor * w for v, w in zip(rows[r], rows[col])]
    lambdas = [rows[j + 1][size] for j in range(m)]
    point = tuple(sum((l * v[c] for l, v in zip(lambdas, vertices)), Fraction(0))
                  for c in range(len(vertices[0])))
    return lambdas, point


class TestAffineMinimizer:
    def test_matches_fraction_elimination(self):
        rng = random.Random(1968)
        solved = 0
        for trial in range(300):
            dim = rng.randint(1, 6)
            m = rng.randint(1, dim + 1)
            if trial % 2:
                coord = lambda: Fraction(rng.randint(-9, 9))
            else:
                coord = lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 8))
            corral = [tuple(coord() for _ in range(dim)) for _ in range(m)]
            expected = fraction_affine_minimizer(corral)
            if expected is None:
                with pytest.raises(InternalError):
                    sfm._affine_minimizer(corral)
                continue
            solved += 1
            lambdas, point = sfm._affine_minimizer(corral)
            assert (list(lambdas), point) == (expected[0], expected[1]), f"trial {trial}"
            assert sum(lambdas) == 1
        assert solved > 250

    def test_duplicated_vertex_raises(self):
        v = (Fraction(1, 2), Fraction(-3), Fraction(2, 7))
        w = (Fraction(0), Fraction(1), Fraction(5, 3))
        with pytest.raises(InternalError):
            sfm._affine_minimizer([v, w, v])


@st.composite
def bitpool_oracles(draw):
    """A fusion oracle on a random bit pool, block partition and anchor.

    Rates are p/q with q up to 6 and may be 0 or negative; the anchor may
    hold several users; some users may hold only anchor bits, so their
    blocks add no new bit.
    """
    n = draw(st.integers(2, 7))
    width = draw(st.integers(1, 8))
    pools = draw(st.lists(st.sets(st.integers(0, width - 1), min_size=1),
                          min_size=n, max_size=n))
    labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    blocks = {}
    for u, label in enumerate(labels, start=1):
        blocks.setdefault(label, set()).add(u)
    blocks = tuple(frozenset(b) for b in blocks.values())
    anchor = draw(st.sampled_from(blocks))
    anchor_bits = sorted(set().union(*(pools[u - 1] for u in anchor)))
    for u in draw(st.sets(st.integers(1, n))) - anchor:
        pools[u - 1] = draw(st.sets(st.sampled_from(anchor_bits), min_size=1))
    rates = {u: draw(st.fractions(-6, 6, max_denominator=6)) for u in range(1, n + 1)}
    alpha = draw(st.fractions(0, 3 * width, max_denominator=4))
    model = BitPoolSource([[f"b{k}" for k in pool] for pool in pools])
    return lattice_oracle(model, alpha, blocks, anchor, rates)


@st.composite
def shared_group_oracles(draw):
    """A fusion oracle on a bit pool of shared bit groups.

    Up to 9 users share n to 2n groups of 1-3 bits, each group held by two
    to three users or, in some pools, by any number of them, so a block
    adds several bits that other blocks add too; some users also hold a
    bit of their own.  Pools of 6-9 users are drawn as often as all others,
    since few blocks rarely need an augmenting path.  Blocks may hold
    several users and the anchor may be any of them; up to two users, or
    in some pools any number, hold only anchor bits, so their blocks add no
    new bit.  Rates are either p/q in [-6, 6] with q up to 6, or start on a
    greedy vertex of H with the anchor first, where many unions tie and the
    cut's flow is tight; its order is drawn, or half the time descending,
    against the pour's lowest-rep-first order, so the greedy pour often
    strands weight that only augmenting paths through reverse arcs place.
    Any set of users is then nudged by p/q in [-2, 2], which can make rates
    0 or negative.
    """
    n = draw(st.integers(2, 9) | st.integers(6, 9))
    widest = draw(st.sampled_from([3, n]))
    groups = draw(st.lists(st.tuples(st.sets(st.integers(1, n), min_size=2, max_size=widest),
                                     st.integers(1, 3)),
                           min_size=n, max_size=2 * n))
    pools = [set() for _ in range(n)]
    for g, (holders, size) in enumerate(groups):
        for u in holders:
            pools[u - 1] |= {f"g{g}.{k}" for k in range(size)}
    for u in draw(st.sets(st.integers(1, n))) | {u for u in range(1, n + 1) if not pools[u - 1]}:
        pools[u - 1].add(f"own{u}")
    order = draw(st.permutations(range(1, n + 1)))
    joins = draw(st.lists(st.sampled_from([False, False, True]), min_size=n - 1, max_size=n - 1))
    blocks, block = [], {order[0]}
    for u, join in zip(order[1:], joins):
        if not join:
            blocks.append(frozenset(block))
            block = set()
        block.add(u)
    blocks = tuple(blocks + [frozenset(block)])
    anchor = draw(st.sampled_from(blocks))
    anchor_bits = sorted(set().union(*(pools[u - 1] for u in anchor)))
    for u in draw(st.sets(st.integers(1, n), max_size=draw(st.sampled_from([2, n])))) - anchor:
        pools[u - 1] = draw(st.sets(st.sampled_from(anchor_bits), min_size=1))
    model = BitPoolSource(pools)
    if draw(st.sampled_from([False, False, True])):
        rates = {u: draw(st.fractions(-6, 6, max_denominator=6)) for u in model.users}
    else:
        rates = dict.fromkeys(anchor, Fraction(0))
        prefix, prev = set(anchor), model.entropy(anchor)
        rest = sorted(set(model.users) - anchor, reverse=True)
        for u in rest if draw(st.booleans()) else draw(st.permutations(rest)):
            prefix.add(u)
            h = model.entropy(prefix)
            rates[u] = h - prev
            prev = h
        for u in draw(st.sets(st.integers(1, n))):
            rates[u] += draw(st.fractions(-2, 2, max_denominator=6))
    alpha = draw(st.fractions(0, len(model.bit_names), max_denominator=4))
    return lattice_oracle(model, alpha, blocks, anchor, rates)


class TestMinCut:
    @settings(max_examples=200, deadline=None)
    @given(bitpool_oracles())
    def test_agrees_with_brute_and_mnp(self, oracle):
        cut = minimize_cut(oracle)
        assert cut == minimize_brute(oracle) == minimize_mnp(oracle)
        assert (cut.min_value, cut.minimal) == enumerated_extremes(oracle)[:2]

    @settings(max_examples=200, deadline=None)
    @given(shared_group_oracles())
    def test_agrees_on_shared_bit_groups(self, oracle):
        cut = minimize_cut(oracle)
        target(float(cut.evaluations))  # steer towards augmenting paths
        assert cut == minimize_brute(oracle) == minimize_mnp(oracle)
        assert (cut.min_value, cut.minimal) == enumerated_extremes(oracle)[:2]

    def test_shared_groups_reach_augmenting_paths(self):
        # Without target(), a fixed run of the shared-group strategy alone: a
        # real share of its oracles needs augmenting paths, some of them with
        # multi-user blocks and some with a new bit added by 4 or more blocks.
        paths, multi, wide = [], [], []

        @settings(max_examples=300, deadline=None, derandomize=True, database=None)
        @given(shared_group_oracles())
        def run(oracle):
            paths.append(minimize_cut(oracle).evaluations > 0)
            multi.append(paths[-1] and any(len(mask_users(b)) > 1 for b in oracle.blocks))
            anchor = oracle.anchor
            masks = oracle.non_anchor_blocks
            wide.append(paths[-1] and any(
                sum(1 for m in masks if m & held) >= 4
                for held in oracle.model.bit_holders if not held & anchor))

        run()
        assert sum(paths) >= len(paths) // 10 and any(multi) and any(wide)

    def test_special_blocks(self):
        # Anchor {1,2} holds a, b, c.  {3} and {4} add no new bit, {5} adds d
        # (its own) and e, {6} and {7} add only e, {8} adds its own g, h.
        model = BitPoolSource(["ab", "c", "a", "b", "de", "e", "e", "gh"])
        rates = {1: 1, 2: -2, 3: Fraction(1, 2), 4: -1, 5: 2, 6: 1, 7: 0,
                 8: Fraction(3, 2)}
        blocks = [[1, 2], [3], [4], [5], [6], [7], [8]]
        o = lattice_oracle(model, 7, blocks, {1, 2}, rates)
        res = minimize_cut(o)
        # {3} is free gain; {5} and {6} only pay off together; {7} costs and
        # gains nothing once e is paid for; {4} and {8} only cost.
        assert res.minimal == frozenset({1, 2, 3, 5, 6})
        assert enumerated_extremes(o)[2] == frozenset({1, 2, 3, 5, 6, 7})
        assert res.min_value == o.f_tilde(res.minimal) == Fraction(5, 2)
        assert res == minimize_brute(o) == minimize_mnp(o)

    def test_weight_stranded_by_the_greedy_pour(self):
        # Anchor {1} holds a; {2} adds x and y, {3} adds x, {4} adds y, so
        # x and y are groups shared by two blocks.  {2} pours its weight
        # into x first, which leaves {3} no room; only the path
        # {3} -> x -> {2} (a reverse arc) -> y places {3}'s weight.
        model = BitPoolSource(["a", "xy", "x", "y"])
        o = lattice_oracle(model, 3, [[2], [3], [4]], {1},
                           {1: 0, 2: 1, 3: Fraction(3, 2), 4: 0})
        res = minimize_cut(o)
        assert res.evaluations >= 1  # augmenting paths
        # {3} alone, {2,3} and {2,3,4} all cost 1/2 less than the anchor
        assert res.minimal == frozenset({1, 3})
        assert res == minimize_brute(o) == minimize_mnp(o)
        assert enumerated_extremes(o) == (res.min_value, res.minimal, frozenset({1, 2, 3, 4}))

    def test_top_probes_of_successive_omniscience(self, monkeypatch):
        # Every top probe at the bound, on the whole lattice of i - 1 blocks,
        # of 16-24-user spread and planted-pair pools.  The sweep cut at the
        # bound runs every user (`find_complimentary` stops at the first
        # plan, a prefix of the same probes), so the lattices reach 23 blocks.
        rng = random.Random(2718)
        models = [make(rng, n) for make in (spread_bitpool, planted_pair_bitpool)
                  for n in (16, 20, 24)]
        real_minimize = par.minimize
        paths = 0
        for model in models:
            bound = lower_bound_alpha(model)
            tops = []

            def recorded(oracle):
                carrier = mask_users(oracle.anchor).union(*map(mask_users, oracle.non_anchor_blocks))
                if oracle.alpha == bound and carrier == set(range(1, max(carrier) + 1)):
                    tops.append(oracle)
                return real_minimize(oracle)

            monkeypatch.setattr(par, "minimize", recorded)
            list(iter_parametric(model, bound))
            assert len(tops) == model.size - 1
            for oracle in tops:
                cut = minimize_cut(oracle)
                assert cut == minimize_mnp(oracle)
                paths += cut.evaluations
        assert paths > 0

    def test_refuses_tables(self):
        o = oracle_for(rank_sum_table(random.Random(3), 3), 1, [[1], [2], [3]], 3,
                       {1: 0, 2: 0, 3: 0})
        with pytest.raises(DomainError, match="bit-pool"):
            minimize_cut(o)

    def test_bit_pool_past_the_brute_limit(self):
        # BRUTE_LIMIT + 1 non-anchor blocks: minimize answers through the cut
        # with no CapacityError.  Rates on a greedy vertex of H, anchor
        # first, make every prefix of the order a minimizer; nudging a few
        # users breaks some of those ties.
        k = sfm.BRUTE_LIMIT + 1
        rng = random.Random(k)
        model = spread_bitpool(rng, k + 1)
        order = list(model.users)
        rng.shuffle(order)
        rates, prefix, prev = {}, set(), Fraction(0)
        for u in order:
            prefix.add(u)
            h = model.entropy(prefix)
            rates[u] = h - prev
            prev = h
        for u in rng.sample(order[1:], 4):
            rates[u] += Fraction(rng.choice([-1, 1]), rng.randint(2, 5))
        o = oracle_for(model, model.total_entropy, [[u] for u in model.users],
                       order[0], rates)
        assert len(o.non_anchor_blocks) == k
        with pytest.raises(CapacityError):
            minimize_brute(o)
        res = minimize(o)
        assert res == minimize_mnp(o)
        assert o.f_tilde(res.minimal) == res.min_value
        # a tie: some larger minimizer exists, and the cut picks the minimal one
        assert any(o.f_tilde(res.minimal | {u}) == res.min_value
                   for u in set(model.users) - res.minimal)
