import dataclasses
import gc
import random
import re
from fractions import Fraction

import pytest

from omnirate import (AffineValue, BitPoolSource, DomainError, EntropyTable,
                      InternalError, Partition, brute_min_sum_rate,
                      check_achievable, coordinate_saturation, find_complimentary,
                      minimize_brute, par, sfm)
from omnirate.par import (MinimizerChain, ParState, extract_psp,
                          fusion_oracle_at, initial_state, iter_parametric,
                          mda_reference, parametric_iteration, run_parametric,
                          solve_chain_breakpoints)
from omnirate.model import mask_users, subset_mask
from omnirate.partition import Segmented

from conftest import (axis_caps, coprime_rank_sum_table, corpus_models,
                      planted_pair_bitpool, random_alpha,
                      random_bitpool, rank_sum_table, spread_bitpool, twin_bitpool)

AF = AffineValue.of
F = Fraction


def seg(lo, hi, value):
    return (F(lo), F(hi), value)


def rate_rows(*rows):
    return [seg(lo, hi, tuple(AF(i, s) for i, s in coords)) for lo, hi, coords in rows]


# Expected segmented structures for the golden five-user source after each
# sweep iteration; affine entries are (intercept, slope) pairs.
EXPECTED_RATES = {
    2: rate_rows(
        (0, 4, [(-2, 1), (-4, 1)]),
        (4, 10, [(-2, 1), (0, 0)]),
    ),
    3: rate_rows(
        (0, 4, [(-2, 1), (-4, 1), (-6, 1)]),
        (4, 8, [(-2, 1), (0, 0), (-6, 1)]),
        (8, 10, [(-2, 1), (0, 0), (2, 0)]),
    ),
    4: rate_rows(
        (0, 4, [(-2, 1), (-4, 1), (-6, 1), (-6, 1)]),
        (4, 7, [(-2, 1), (0, 0), (-6, 1), (-6, 1)]),
        (7, 8, [(-2, 1), (0, 0), (-6, 1), (8, -1)]),
        (8, 10, [(-2, 1), (0, 0), (2, 0), (0, 0)]),
    ),
    5: rate_rows(
        (0, 4, [(-2, 1), (-4, 1), (-6, 1), (-6, 1), (-5, 1)]),
        (4, 6, [(-2, 1), (0, 0), (-6, 1), (-6, 1), (-5, 1)]),
        (6, F(13, 2), [(-2, 1), (0, 0), (-6, 1), (-6, 1), (1, 0)]),
        (F(13, 2), 7, [(-2, 1), (0, 0), (-6, 1), (-6, 1), (14, -2)]),
        (7, 8, [(-2, 1), (0, 0), (-6, 1), (8, -1), (0, 0)]),
        (8, 10, [(-2, 1), (0, 0), (2, 0), (0, 0), (0, 0)]),
    ),
}

EXPECTED_PARTITIONS = {
    2: [seg(0, 4, Partition([[1], [2]])),
        seg(4, 10, Partition([[1, 2]]))],
    3: [seg(0, 4, Partition.singletons([1, 2, 3])),
        seg(4, 8, Partition([[1, 2], [3]])),
        seg(8, 10, Partition([[1, 2, 3]]))],
    4: [seg(0, 4, Partition.singletons([1, 2, 3, 4])),
        seg(4, 7, Partition([[1, 2], [3], [4]])),
        seg(7, 10, Partition([[1, 2, 3, 4]]))],
    5: [seg(0, 4, Partition.singletons([1, 2, 3, 4, 5])),
        seg(4, 6, Partition([[1, 2], [3], [4], [5]])),
        seg(6, F(13, 2), Partition([[1, 2, 5], [3], [4]])),
        seg(F(13, 2), 10, Partition.whole([1, 2, 3, 4, 5]))],
}


@pytest.fixture(scope="module")
def golden_states(five_user):
    return {st.carrier_size: st for st in iter_parametric(five_user)}


class TestIterationGoldens:
    @pytest.mark.parametrize("i", [2, 3, 4, 5])
    def test_rate_segments(self, golden_states, i):
        assert list(golden_states[i].rate_view) == EXPECTED_RATES[i]

    @pytest.mark.parametrize("i", [2, 3, 4, 5])
    def test_partition_segments(self, golden_states, i):
        assert list(golden_states[i].table) == EXPECTED_PARTITIONS[i]


class TestChainSearch:
    def test_second_user_single_probe(self, five_user, golden_states):
        state = golden_states[1]
        carrier = frozenset({1, 2})
        after = parametric_iteration(state)
        probes = after.last_probes
        crossings = dict(zip(after.last_chain.sets[:-1], after.last_chain.alphas[:-1]))
        assert crossings == {frozenset({2}): F(4)}
        # crossing of the two-singleton line with the one-block line
        assert probes[0].alpha == 10 - (8 + 6 - 8)
        chain = solve_chain_breakpoints(state, {**crossings, carrier: F(10)})
        assert chain.sets == (frozenset({2}), carrier)
        assert chain.alphas == (F(4), F(10))
        assert after.last_chain == chain

    def test_fifth_user_chain_and_probes(self, golden_states):
        st = golden_states[5]
        assert st.last_chain == MinimizerChain(
            (frozenset({5}), frozenset({1, 2, 5}), frozenset({1, 2, 3, 4, 5})),
            (F(6), F(13, 2), F(10)),
        )
        assert st.last_probes[0].alpha == F(23, 4)

    def test_third_user_breakpoint(self, golden_states):
        st = golden_states[3]
        assert st.last_chain.sets == (frozenset({3}), frozenset({1, 2, 3}))
        assert st.last_chain.alphas == (F(8), F(10))

    def test_independent_two_user_chain_degenerates(self):
        model = BitPoolSource(["x", "y"])
        state = initial_state(model)
        carrier = frozenset({1, 2})
        final = parametric_iteration(state)
        chain = final.last_chain
        # the two-block set only ties at H(V): it is never selected below it
        assert chain.sets == (frozenset({2}), carrier)
        assert chain.alphas == (model.total_entropy, model.total_entropy)
        assert list(final.table) == [seg(0, 2, Partition([[1], [2]]))]

    def test_requires_strict_refinement(self, golden_states):
        carrier = frozenset({1, 2})
        p = Partition.singletons(carrier)
        with pytest.raises(DomainError):
            par._chain_search(golden_states[1].model, golden_states[1].table, p, p,
                              frozenset({2}), carrier, [])


def solved_breakpoints(state: ParState, sets) -> tuple[Fraction, ...]:
    """Critical points of a chain solved from the rate equations alone.

    For each adjacent pair S_small < S_big, the lowest alpha with
    r_alpha(S_big \\ S_small) = H(S_big) - H(S_small), scanning the
    segments of `state` (the state before the chain's iteration) from low
    alpha up; a root on a segment end belongs to the lower segment.  The
    top set's point is the axis top.  An independent reference for the
    points the chain search reads off its terminal probes.
    """
    model = state.model
    alphas = []
    for small, big in zip(sets, sets[1:]):
        target = model.entropy(big) - model.entropy(small)
        for k, (lower, upper, rates) in enumerate(state.rate_view):
            total = sum((rates[u - 1] for u in big - small), AF(0, 0))
            assert total.slope != 0 or total.intercept != target
            if total.slope == 0:
                continue
            root = (target - total.intercept) / total.slope
            if root <= upper and (lower < root or k == 0 <= root):
                alphas.append(root)
                break
        else:
            raise AssertionError(f"no segment solves the pair {sorted(small)} < {sorted(big)}")
    return (*alphas, state.table.top)


class TestCriticalPointsFromProbes:
    """The chain search's terminal probes give the critical points that the
    rate equations solve to, on whole and cut axes."""

    @staticmethod
    def models():
        rng = random.Random(6061)
        yield from corpus_models()
        yield from (twin_bitpool(rng, max_users=8, max_bits=8) for _ in range(40))
        yield from (rank_sum_table(rng, rng.randint(2, 7)) for _ in range(40))
        yield from (random_bitpool(rng, max_users=9, max_bits=12) for _ in range(20))
        yield from (spread_bitpool(rng, n) for n in (8, 12, 16))

    def test_match_the_rate_equation_solve(self):
        rng = random.Random(6062)
        iterations = 0
        for model in self.models():
            for top in axis_caps(rng, model)[1:]:
                states = list(iter_parametric(model, top))
                for prev, state in zip(states, states[1:]):
                    chain = state.last_chain
                    assert chain.alphas == solved_breakpoints(prev, chain.sets)
                    iterations += 1
        assert iterations > 2000

    @pytest.mark.parametrize("moved, to", [(0, F(25, 4)), (0, F(11, 2)),
                                           (1, F(27, 4)), (1, F(6)), (2, F(9))])
    def test_a_moved_crossing_raises(self, golden_states, moved, to):
        # User 5's chain {5} < {1,2,5} < V at 6 < 13/2 < 10; each move keeps
        # the order of the critical points.
        chain = golden_states[5].last_chain
        crossings = dict(zip(chain.sets, chain.alphas))
        assert solve_chain_breakpoints(golden_states[4], crossings) == chain
        crossings[chain.sets[moved]] = to
        with pytest.raises(InternalError):
            solve_chain_breakpoints(golden_states[4], crossings)

    def test_out_of_order_or_unnested_crossings_raise(self, golden_states):
        v = frozenset({1, 2, 3, 4, 5})
        state = golden_states[4]
        with pytest.raises(InternalError, match="out of order"):
            solve_chain_breakpoints(state, {frozenset({5}): F(13, 2),
                                            frozenset({1, 2, 5}): F(6), v: F(10)})
        with pytest.raises(InternalError, match="not nested"):
            solve_chain_breakpoints(state, {frozenset({3, 5}): F(6),
                                            frozenset({1, 2, 5}): F(13, 2), v: F(10)})

    def test_crossings_out_of_walk_order_raise(self, golden_states):
        # User 5's true chain and points, handed over top set first: the
        # chain is read in the order given, not sorted into shape.
        chain = golden_states[5].last_chain
        assert solve_chain_breakpoints(golden_states[4], dict(zip(chain.sets, chain.alphas))) == chain
        crossings = dict(zip(chain.sets[::-1], chain.alphas[::-1]))
        with pytest.raises(InternalError, match="not nested"):
            solve_chain_breakpoints(golden_states[4], crossings)

    def test_a_moved_intercept_raises_at_a_scale_above_one(self):
        # On the scale-420 table, one user's stored intercept moved by one
        # unit (1/420) breaks the rate equation of the next chain's pair
        # that holds the user.
        model = coprime_rank_sum_table()
        assert model.scale == 420
        states = list(iter_parametric(model))
        moved = 0
        for prev, state in zip(states, states[1:]):
            chain = state.last_chain
            crossings = dict(zip(chain.sets, chain.alphas))
            assert solve_chain_breakpoints(prev, crossings) == chain
            for small, big in zip(chain.sets, chain.sets[1:]):
                user = min(big - small)
                rates = list(prev.rates)
                rates[user - 1] = rates[user - 1].map(lambda r: (r[0] + 1, r[1]))
                copy = dataclasses.replace(prev, rates=tuple(rates))
                with pytest.raises(InternalError, match="misses its rate equation"):
                    solve_chain_breakpoints(copy, crossings)
                moved += 1
        assert moved >= 5


class TestRateOf:
    @pytest.mark.parametrize("user", [0, -1, 6])
    def test_user_outside_the_carrier(self, golden_states, user):
        with pytest.raises(DomainError, match=f"user {user} is not in the carrier 1..5"):
            golden_states[5].rate_of(user, F(13, 2))

    def test_user_past_a_prefix_carrier(self, golden_states):
        with pytest.raises(DomainError, match="user 4 is not in the carrier 1..3"):
            golden_states[3].rate_of(4, F(13, 2))

    def test_alpha_is_coerced(self, golden_states):
        state = golden_states[5]
        rates = state.rates_at(F(13, 2))
        assert [state.rate_of(u, "13/2") for u in state.users] == list(rates)
        assert [state.rate_of(u, 0) for u in state.users] == list(state.rates_at(0))


class TestAlphaRange:
    @pytest.mark.parametrize("alpha", ["1e4300", "-1e4300", "21/2", F(-1, 3)])
    def test_off_the_axis_named_as_given(self, five_user, golden_states, alpha):
        # '1e4300' is inside the exponent cap but has too many digits for
        # str(): every check names the value as the caller passed it.
        calls = [lambda: golden_states[5].partition_at(alpha),
                 lambda: coordinate_saturation(five_user, alpha),
                 lambda: find_complimentary(five_user, alpha),
                 lambda: next(iter_parametric(five_user, alpha))]
        for call in calls:
            with pytest.raises(DomainError, match=re.escape(f"alpha {alpha} outside [0, 10]")):
                call()


class TestRunParametric:
    def test_golden_solution(self, five_user):
        _, psp = run_parametric(five_user)
        assert psp.min_sum_rate == F(13, 2)
        assert psp.rates == (F(9, 2), F(0), F(1, 2), F(1, 2), F(1))
        assert psp.finest_maximizer == Partition([[1, 2, 5], [3], [4]])
        assert psp.critical_points == (F(4), F(6), F(13, 2), F(10))
        assert psp.partitions == tuple(v for _, _, v in EXPECTED_PARTITIONS[5])

    def test_identical_pair(self):
        # Two users with the same single bit: nothing needs to be sent.
        model = BitPoolSource(["w", "w"])
        _, psp = run_parametric(model)
        value, finest = brute_min_sum_rate(model)
        assert psp.min_sum_rate == value == 0
        assert psp.finest_maximizer == finest == Partition([[1], [2]])
        assert sum(psp.rates) == 0
        assert psp.critical_points == (F(0), F(1))

    def test_shared_plus_private_pair(self):
        # One shared bit plus one private bit: breakpoint at 1, then one block.
        model = BitPoolSource(["w", "wy"])
        _, psp = run_parametric(model)
        value, _ = brute_min_sum_rate(model)
        assert psp.min_sum_rate == value == 1
        assert sum(psp.rates) == 1
        assert psp.critical_points == (F(1), F(2))
        assert psp.partitions == (Partition([[1], [2]]), Partition([[1, 2]]))

    def test_kept_result_holds_no_frozenset(self):
        # A kept PSPResult should hold only ints, Fractions, tuples and
        # partitions of masks: every object reachable from it, classes aside.
        _, psp = run_parametric(spread_bitpool(random.Random(1), 16))
        seen, stack, kinds = set(), [psp], set()
        while stack:
            obj = stack.pop()
            if id(obj) in seen or isinstance(obj, type):
                continue
            seen.add(id(obj))
            kinds.add(type(obj))
            stack.extend(gc.get_referents(obj))
        assert Partition in kinds and len(psp.partitions) == 16
        assert not {frozenset, set, dict, list} & kinds

    def test_sweep_matches_fixed_alpha_everywhere(self, five_user, golden_states):
        rng = random.Random(1234)
        final = golden_states[5]
        for _ in range(20):
            alpha = random_alpha(rng, five_user)
            fixed = coordinate_saturation(five_user, alpha)
            assert final.partition_at(alpha) == fixed.partition
            assert final.rates_at(alpha) == fixed.rates


class TestPrefixExtraction:
    def test_two_user_prefix(self, golden_states):
        psp = extract_psp(golden_states[2])
        assert psp.min_sum_rate == 2
        assert psp.rates == (F(2), F(0))
        assert psp.critical_points == (F(2), F(8))
        assert psp.finest_maximizer == Partition([[1], [2]])

    def test_full_prefix_is_plain_extraction(self, five_user, golden_states):
        # once every user is in, the shift is 0: the reading is the table as stored
        final = golden_states[5]
        psp = extract_psp(final)
        assert psp.critical_points == final.table.uppers
        assert psp.partitions == final.table.values

    def test_three_user_prefix_matches_oracle(self, five_user, golden_states):
        psp = extract_psp(golden_states[3])
        value, finest = brute_min_sum_rate(five_user, [1, 2, 3])
        assert psp.min_sum_rate == value
        assert psp.finest_maximizer == finest
        assert check_achievable(five_user, psp.rates, [1, 2, 3])
        assert sum(psp.rates) == value

    def test_single_user_prefix(self, golden_states):
        psp = extract_psp(golden_states[1])
        assert psp.min_sum_rate == 0
        assert psp.rates == (F(0),)

    def test_clamped_degenerate_segment(self):
        # Identical first two users: the prefix axis shift lands the
        # singleton segment exactly on the point [0, 0].
        model = BitPoolSource(["w", "w", "xy"])
        states = {s.carrier_size: s for s in iter_parametric(model)}
        psp = extract_psp(states[2])
        assert psp.min_sum_rate == 0
        assert psp.critical_points == (F(0), F(1))
        assert psp.rates == (F(0), F(0))
        assert psp.finest_maximizer == Partition([[1], [2]])

    def test_every_prefix_matches_brute_oracle(self):
        rng = random.Random(30303)
        for _ in range(25):
            model = random_bitpool(rng, max_users=6, max_bits=12)
            for state in iter_parametric(model):
                i = state.carrier_size
                if i < 2:
                    continue
                psp = extract_psp(state)
                value, finest = brute_min_sum_rate(model, range(1, i + 1))
                assert psp.min_sum_rate == value
                assert psp.finest_maximizer == finest
                assert check_achievable(model, psp.rates, range(1, i + 1))
                assert sum(psp.rates, F(0)) == value


class TestMdaReference:
    def test_golden_source(self, five_user):
        value, partition, rates = mda_reference(five_user)
        assert value == F(13, 2)
        assert partition == Partition([[1, 2, 5], [3], [4]])
        assert rates == (F(9, 2), F(0), F(1, 2), F(1, 2), F(1))

    def test_identical_pair(self):
        value, partition, rates = mda_reference(BitPoolSource(["w", "w"]))
        assert value == 0
        assert sum(rates) == 0

    def test_pair_sharing_one_bit(self):
        # users share bit w, user 2 holds an extra private bit
        model = BitPoolSource(["w", "wy"])
        value, _, rates = mda_reference(model)
        assert value == brute_min_sum_rate(model)[0] == 1
        assert sum(rates) == 1

    def test_random_agreement_with_sweep(self):
        rng = random.Random(246)
        for _ in range(30):
            model = random_bitpool(rng, max_users=6, max_bits=10)
            _, psp = run_parametric(model)
            value, partition, rates = mda_reference(model)
            assert psp.min_sum_rate == value
            assert psp.finest_maximizer == partition
            assert psp.rates == rates

    def test_large_ground_set_uses_min_norm_point_path(self, monkeypatch):
        # Every minimization of a 12-user table sweep is checked against
        # min-norm-point; the fixed-point baseline must agree with the
        # sweep.  Bit pools go to the min cut above CUT_CROSSOVER blocks,
        # so the source is solved as an explicit table of its entropies.
        model = self.twelve_user_table()
        mnp_calls = []
        real_minimize = par.minimize

        def checked(oracle):
            mnp_calls.append(len(oracle.non_anchor_blocks))
            result = real_minimize(oracle)
            assert result == sfm.minimize_mnp(oracle)
            return result

        monkeypatch.setattr(par, "minimize", checked)
        _, psp = run_parametric(model)
        value, partition, rates = mda_reference(model)
        assert (psp.min_sum_rate, psp.finest_maximizer, psp.rates) == \
            (value, partition, rates)
        assert mnp_calls
        assert check_achievable(model, psp.rates)

    def test_large_ground_set_through_the_min_cut(self, monkeypatch):
        # The bit pool behind the table above, with every lattice forced
        # through the min cut: the same PSP as the default sweep and as the
        # table's.
        model = self.twelve_user_pool()
        _, psp = run_parametric(model)
        assert psp == run_parametric(self.twelve_user_table())[1]
        cut_calls = []
        real_cut = sfm.minimize_cut

        def counted(oracle):
            cut_calls.append(len(oracle.non_anchor_blocks))
            return real_cut(oracle)

        monkeypatch.setattr(sfm, "CUT_CROSSOVER", -1)
        monkeypatch.setattr(sfm, "minimize_cut", counted)
        monkeypatch.setattr(sfm, "minimize_brute", None)
        monkeypatch.setattr(sfm, "minimize_mnp", None)
        _, forced = run_parametric(model)
        assert forced == psp
        assert cut_calls

    @staticmethod
    def twelve_user_pool():
        rng = random.Random(22)
        universe = [f"b{k}" for k in range(15)]
        return BitPoolSource(
            [rng.sample(universe, rng.randint(1, 15)) for _ in range(12)]
        )

    def twelve_user_table(self):
        pool = self.twelve_user_pool()
        return EntropyTable.from_masks(
            12, {mask: pool.entropy_of_mask(mask) for mask in range(1, 1 << 12)})

    @pytest.mark.parametrize("n", [24, 32])
    def test_spread_bitpool_past_the_brute_limit(self, n, monkeypatch):
        # The bench's sweep-bitpool recipe at larger sizes: the top probes
        # of the late users still see more than 11 non-anchor blocks.
        # Those bit-pool lattices go to the min cut, and each cut call is
        # checked against brute enumeration (min-norm-point past
        # BRUTE_LIMIT).
        blocks = []
        real_minimize = par.minimize
        real_cut = sfm.minimize_cut
        cut_blocks = []

        def counted(oracle):
            blocks.append(len(oracle.non_anchor_blocks))
            return real_minimize(oracle)

        def checked(oracle):
            k = len(oracle.non_anchor_blocks)
            cut_blocks.append(k)
            result = real_cut(oracle)
            reference = minimize_brute if k <= sfm.BRUTE_LIMIT else sfm.minimize_mnp
            assert result == reference(oracle)
            return result

        monkeypatch.setattr(par, "minimize", counted)
        monkeypatch.setattr(sfm, "minimize_cut", checked)
        model = spread_bitpool(random.Random(n), n)
        _, psp = run_parametric(model)
        # The baseline's saturations reach past BRUTE_LIMIT blocks: too many
        # to check each one.
        monkeypatch.setattr(sfm, "minimize_cut", real_cut)
        value, partition, rates = mda_reference(model)
        assert (psp.min_sum_rate, psp.finest_maximizer, psp.rates) == \
            (value, partition, rates)
        assert max(blocks) > 11
        assert cut_blocks == [k for k in blocks if k > sfm.CUT_CROSSOVER]


class TestBracketedProbes:
    """Every probe's bracketed minimization against the whole fusion lattice.

    Each probe minimizes only over the sublattice its parent probes leave
    open.  Its minimal minimizer must be the one `minimize_brute` finds on
    the whole lattice that `fusion_oracle_at` builds at the probe's alpha,
    and the sublattice may never have more non-anchor blocks.  Each call is
    checked as it happens, so a wrong bracket fails at its first probe.
    """

    def check_sweeps(self, models, monkeypatch, tops=lambda model: (None,)):
        blocks = {"restricted": 0, "full": 0}
        alphas = []
        prev = []
        real_minimize = par.minimize

        def checked(oracle):
            state = prev[-1]
            reference = fusion_oracle_at(state, oracle.alpha)
            result = real_minimize(oracle)
            assert result.minimal == minimize_brute(reference).minimal
            assert len(oracle.non_anchor_blocks) <= len(reference.non_anchor_blocks)
            blocks["restricted"] += len(oracle.non_anchor_blocks)
            blocks["full"] += len(reference.non_anchor_blocks)
            alphas.append(oracle.alpha)
            return result

        monkeypatch.setattr(par, "minimize", checked)
        for model in models:
            for top in tops(model):
                state = initial_state(model, top)
                while state.carrier_size < model.size:
                    prev.append(state)
                    alphas.clear()
                    state = parametric_iteration(state)
                    assert alphas == [p.alpha for p in state.last_probes]
        # the brackets do shrink the lattices, not only keep the answers
        assert blocks["restricted"] < blocks["full"]

    def test_random_bitpools(self, monkeypatch):
        rng = random.Random(4051)
        models = [random_bitpool(rng, max_users=7, max_bits=12) for _ in range(60)]
        self.check_sweeps(models, monkeypatch)

    def test_rational_rank_sum_tables(self, monkeypatch):
        rng = random.Random(20231)
        models = [rank_sum_table(rng, rng.randint(2, 7)) for _ in range(60)]
        self.check_sweeps(models, monkeypatch)

    def test_truncated_axes(self, monkeypatch):
        # the top probe at a cut axis end minimizes on the whole lattice
        rng = random.Random(4052)
        models = [random_bitpool(rng, max_users=7, max_bits=12) for _ in range(30)]
        models += [rank_sum_table(rng, rng.randint(2, 6)) for _ in range(15)]
        self.check_sweeps(models, monkeypatch,
                          lambda model: axis_caps(rng, model)[:3])

    def test_block_rates_equal_per_user_sums(self, monkeypatch):
        # The int block sums of `_oracle_at` over its scale against one
        # Fraction sum of the evaluated per-user rates per block, on every
        # probe: the extended state's rates, the new user's at alpha - H(V).
        real_oracle_at = par._oracle_at
        real_iteration = par.parametric_iteration
        extending = []
        probes = []

        def checked(model, partition, alpha, inner, outer):
            oracle = real_oracle_at(model, partition, alpha, inner, outer)
            rates = tuple(F(r, oracle.scale) for r in oracle.rates)
            user_rates = (*extending[-1].rates_at(alpha), alpha - model.total_entropy)
            assert rates == tuple(
                sum((user_rates[u - 1] for u in mask_users(b)), F(0))
                for b in oracle.blocks)
            probes.append(any(r.denominator > 1 for r in rates))
            return oracle

        def iteration(state):
            extending.append(state)
            return real_iteration(state)

        monkeypatch.setattr(par, "_oracle_at", checked)
        monkeypatch.setattr(par, "parametric_iteration", iteration)
        rng = random.Random(6131)
        for model in [*corpus_models(),
                      *(rank_sum_table(rng, rng.randint(2, 7)) for _ in range(20))]:
            run_parametric(model)
        assert len(probes) > 1000 and sum(probes) > 100

    def test_bracket_off_the_blocks_raises(self, golden_states):
        # Before user 5 at alpha = 23/4 the blocks are {1,2}, {3}, {4}, {5}.
        alpha = F(23, 4)
        model = golden_states[4].model
        partition = golden_states[4].table.value_at(alpha).with_user(5)
        oracle = par._oracle_at(model, partition, alpha, subset_mask({3, 5}),
                                subset_mask({1, 2, 3, 5}))
        assert (mask_users(oracle.anchor) == frozenset({3, 5})
                and mask_users(oracle.blocks[0]) == frozenset({1, 2}))
        # the whole bracket is the lattice `fusion_oracle_at` builds directly
        whole = par._oracle_at(model, partition, alpha, subset_mask({5}), subset_mask(range(1, 6)))
        reference = fusion_oracle_at(golden_states[4], alpha)
        assert (whole.blocks, whole.rates, whole.scale) == (
            reference.blocks, reference.rates, reference.scale)
        with pytest.raises(InternalError):   # the upper end splits {1,2}
            par._oracle_at(model, partition, alpha, subset_mask({5}), subset_mask({1, 5}))
        with pytest.raises(InternalError):   # the lower end leaves the upper
            par._oracle_at(model, partition, alpha, subset_mask({4, 5}), subset_mask({3, 5}))


def clipped(table: Segmented, cap) -> Segmented:
    """`table` cut at `cap`: the segments below it, then the one holding it."""
    below = [(u, v) for u, v in zip(table.uppers, table.values) if u < cap]
    return Segmented([*below, (cap, table.value_at(cap))])


def clipped_state(state: ParState, cap) -> ParState:
    """`state` cut at `cap`: its partition table and every user's rate."""
    return ParState(state.model, state.carrier_size, clipped(state.table, cap),
                    tuple(clipped(r, cap) for r in state.rates))


class TestTruncatedAxis:
    """A sweep on [0, top] is the whole-axis sweep cut at top, state by state."""

    def check_clipped(self, rng, models):
        """Returns how many cut-axis iterations had the new user's singleton
        as their chain top."""
        singleton_tops = 0
        for model in models:
            full = list(iter_parametric(model))
            for top in axis_caps(rng, model):
                cut = list(iter_parametric(model, top))
                assert len(cut) == len(full)
                for state, whole in zip(cut, full):
                    assert state == clipped_state(whole, top)
                    if top < model.total_entropy and state.carrier_size > 1:
                        singleton_tops += len(state.last_chain.sets[-1]) == 1
        return singleton_tops

    def test_random_bitpools(self):
        rng = random.Random(5150)
        self.check_clipped(rng, [random_bitpool(rng, max_users=8, max_bits=10)
                                 for _ in range(100)])

    def test_bitpools_with_identical_users(self):
        rng = random.Random(5151)
        self.check_clipped(rng, [twin_bitpool(rng, max_users=8, max_bits=8)
                                 for _ in range(60)])

    def test_rational_rank_sum_tables(self):
        rng = random.Random(5152)
        self.check_clipped(rng, [rank_sum_table(rng, rng.randint(2, 7))
                                 for _ in range(40)])

    def test_planted_pairs(self):
        # at the successive-omniscience bound most chain tops are the new
        # user alone, the iterations that end after their top probe
        rng = random.Random(5153)
        models = [planted_pair_bitpool(rng, n) for n in range(10, 17)]
        assert self.check_clipped(rng, models) > 3 * sum(m.size - 1 for m in models) // 2

    def test_initial_rate_refers_to_the_whole_entropy(self, five_user):
        # cut, not shifted: r_1 = alpha - H(V) + H({1}) whatever the top
        state = initial_state(five_user, F(23, 4))
        assert state.table.top == F(23, 4)
        assert state.rate_view.values[0] == (AF(8 - 10, 1),)

    def test_top_outside_the_axis(self, five_user):
        for top in (F(-1), F(11)):
            with pytest.raises(DomainError):
                initial_state(five_user, top)

    def test_psp_needs_the_whole_axis(self, golden_states):
        state = golden_states[5]
        truncated = clipped_state(state, F(13, 2))
        with pytest.raises(DomainError):
            extract_psp(truncated)


class TestStateInvariants:
    def test_partitions_coarsen_with_alpha(self):
        rng = random.Random(777)
        for _ in range(15):
            model = random_bitpool(rng, max_users=6, max_bits=8)
            for state in iter_parametric(model):
                parts = state.table.values
                for finer, coarser in zip(parts, parts[1:]):
                    assert finer.refines(coarser) and finer != coarser

    def test_segment_tiling_is_exact(self):
        rng = random.Random(778)
        for _ in range(10):
            model = random_bitpool(rng, max_users=6, max_bits=8)
            for state in iter_parametric(model):
                uppers = state.table.uppers
                assert uppers[0] >= 0 and uppers[-1] == model.total_entropy
                assert all(a < b for a, b in zip(uppers, uppers[1:]))
                assert [lo for lo, _, _ in state.table] == [0, *uppers[:-1]]
                assert len(state.rates) == state.carrier_size
                assert all(r.top == state.table.top for r in state.rates)
                # blocks are tight, so a merge at alpha changes the slope sum
                # of the merged users: every table end is some rate's end
                assert set(uppers) <= set(state.rate_view.uppers)

    def test_segment_count_stays_linear(self):
        # the common refinement of the partition table and the rate
        # functions (rate_view, which holds the table's ends) stays at most
        # 2x the carrier size (observed worst ratio is around 1.5)
        rng = random.Random(781)
        for _ in range(15):
            model = random_bitpool(rng, max_users=6, max_bits=10)
            for state in iter_parametric(model):
                assert len(state.rate_view) <= 2 * state.carrier_size

    def test_chain_length_bound(self):
        rng = random.Random(779)
        for _ in range(15):
            model = random_bitpool(rng, max_users=6, max_bits=8)
            for state in iter_parametric(model):
                if state.last_chain is None:
                    continue
                # proper chain sets (all but the implied top) number < |V_i| - 1
                assert len(state.last_chain.sets) - 1 < state.carrier_size
                psp = extract_psp(state)
                assert len(psp.critical_points) <= state.carrier_size

    def test_probe_bracketing(self):
        # Every probe lands strictly above the lower edge of p_down's segment
        # and at or below the upper edge of p_up's (taking H(V) for partitions
        # that never appear, e.g. the one-block partition of a decomposable
        # source).
        rng = random.Random(780)
        for _ in range(15):
            model = random_bitpool(rng, max_users=6, max_bits=8)
            for state in iter_parametric(model):
                if state.last_chain is None:
                    continue
                spans = {part: (k, lo, hi)
                         for k, (lo, hi, part) in enumerate(state.table)}
                for probe in state.last_probes:
                    down = spans.get(probe.p_down)
                    up = spans.get(probe.p_up)
                    lo = down[1] if down is not None else Fraction(0)
                    hi = up[2] if up is not None else model.total_entropy
                    # only segment 0 is closed below
                    assert lo < probe.alpha or (down is not None and down[0] == 0
                                                and probe.alpha == lo)
                    assert probe.alpha <= hi

    def test_probe_record_counts_minimizations(self, five_user, monkeypatch):
        # One submodular minimization per probe: the probe record is the
        # sweep's SFM count, iteration by iteration.
        calls = []
        real_minimize = par.minimize

        def counted(oracle):
            calls.append(oracle.alpha)
            return real_minimize(oracle)

        monkeypatch.setattr(par, "minimize", counted)
        seen = 0
        for state in iter_parametric(five_user):
            start, seen = seen, seen + len(state.last_probes)
            assert calls[start:] == [p.alpha for p in state.last_probes]
        assert seen > 0

    def test_truncated_probe_record_counts_minimizations(self, monkeypatch):
        # On [0, top] the record still holds one probe per minimization,
        # the top probe included, and no probe leaves the axis.
        calls = []
        real_minimize = par.minimize

        def counted(oracle):
            calls.append(oracle.alpha)
            return real_minimize(oracle)

        monkeypatch.setattr(par, "minimize", counted)
        rng = random.Random(782)
        for _ in range(15):
            model = random_bitpool(rng, max_users=7, max_bits=8)
            for top in axis_caps(rng, model):
                seen = len(calls)
                for state in iter_parametric(model, top):
                    start, seen = seen, seen + len(state.last_probes)
                    assert calls[start:] == [p.alpha for p in state.last_probes]
                    assert all(p.alpha <= top for p in state.last_probes)
                if top < model.total_entropy:
                    with pytest.raises(DomainError):
                        extract_psp(state)
