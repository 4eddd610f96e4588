"""Structural properties sampled across random sources.

These are the lattice/monotonicity facts the sweep's correctness rests on:
fusion-function gaps shrink strictly in alpha (so minimal minimizers are
nested), the segmented minimizer chain really is nested, and sweep states
agree with fixed-alpha saturation at every probe.
"""

import random
from fractions import Fraction
from itertools import combinations

from hypothesis import given, settings, strategies as st

from omnirate import (BitPoolSource, EntropyTable, Partition, coordinate_saturation,
                      format_table, parse_model, run_parametric, validate)
from omnirate.model import mask_users
from omnirate.par import fusion_oracle_at, iter_parametric
from omnirate.partition import Segmented
from omnirate.verify import fusion_gaps, verify_model

from conftest import (axis_caps, corpus_models, planted_pair_bitpool, random_alpha,
                      random_bitpool, rank_sum_table, spread_bitpool, state_segments,
                      twin_bitpool)

F = Fraction


def _anchored_unions(anchor, rest, rng, count):
    picks = []
    for _ in range(count):
        chosen = [b for b in rest if rng.random() < 0.5]
        picks.append(anchor.union(*chosen) if chosen else anchor)
    return picks


class TestStrictStrongMap:
    def test_gaps_shrink_strictly(self):
        rng = random.Random(6021)
        for _ in range(12):
            model = random_bitpool(rng, max_users=6, max_bits=9)
            states = list(iter_parametric(model))
            for prev, state in zip(states, states[1:]):
                i = state.carrier_size
                lo = random_alpha(rng, model)
                hi = random_alpha(rng, model)
                if lo == hi:
                    continue
                lo, hi = min(lo, hi), max(lo, hi)
                # unions of the coarser lattice's blocks are valid in both
                anchor, rest = frozenset({i}), prev.partition_at(hi).blocks
                pairs = []
                for x in _anchored_unions(anchor, rest, rng, 3):
                    for y in _anchored_unions(anchor, rest, rng, 3):
                        if x <= y:
                            pairs.append((x, y))
                for (x, y), (gap_lo, gap_hi) in zip(pairs, fusion_gaps(prev, lo, hi, pairs)):
                    if x == y:
                        assert gap_lo == gap_hi == 0
                    else:
                        assert gap_lo > gap_hi


class TestNestedMinimizers:
    def test_chain_segments_nest_along_alpha(self):
        rng = random.Random(6022)
        for _ in range(15):
            model = random_bitpool(rng, max_users=6, max_bits=9)
            for state in iter_parametric(model):
                chain = state.last_chain
                if chain is None:
                    continue
                # a repeated critical point closes an empty segment: skip it
                pieces = []
                for s, a in zip(chain.sets, chain.alphas):
                    if not pieces or a > pieces[-1][0]:
                        pieces.append((a, s))
                segmented = Segmented(pieces)
                grid = sorted({random_alpha(rng, model) for _ in range(12)})
                values = [segmented.value_at(a) for a in grid]
                for small, big in zip(values, values[1:]):
                    assert small <= big

    def test_minimal_minimizer_matches_segments(self):
        # value_at of the recorded chain equals a fresh minimization there
        from omnirate.sfm import minimize_brute
        rng = random.Random(6023)
        for _ in range(10):
            model = random_bitpool(rng, max_users=5, max_bits=8)
            states = list(iter_parametric(model))
            for prev, state in zip(states, states[1:]):
                chain = state.last_chain
                alpha = random_alpha(rng, model)
                idx = next(k for k, a in enumerate(chain.alphas) if alpha <= a)
                oracle = fusion_oracle_at(prev, alpha)
                assert minimize_brute(oracle).minimal == chain.sets[idx]


class TestTightBlocks:
    """Every stored block B is tight: on every segment of every sweep state,
    its users' rates sum to alpha - H(V) + H(B)."""

    def check_blocks(self, rng, models):
        blocks = 0
        for model in models:
            for top in axis_caps(rng, model):  # H(V) among them
                for state in iter_parametric(model, top):
                    for _, _, partition, rates in state_segments(state):
                        for b in partition.blocks:
                            block_rates = [rates[u - 1] for u in b]
                            assert (sum(r.intercept for r in block_rates),
                                    sum(r.slope for r in block_rates)) == (
                                model.entropy(b) - model.total_entropy, F(1))
                            blocks += 1
        return blocks

    def test_corpus(self):
        assert self.check_blocks(random.Random(6025), corpus_models()) > 5000

    def test_rank_sum_tables(self):
        rng = random.Random(6026)
        self.check_blocks(rng, [rank_sum_table(rng, rng.randint(2, 7)) for _ in range(40)])

    def test_bitpools_with_identical_users(self):
        rng = random.Random(6027)
        self.check_blocks(rng, [twin_bitpool(rng, max_users=8, max_bits=8) for _ in range(40)])

    def test_planted_pairs(self):
        rng = random.Random(6028)
        self.check_blocks(rng, [planted_pair_bitpool(rng, n) for n in range(10, 17)])


class TestSweepAgreesWithSaturation:
    def test_every_state_at_segment_ends_and_midpoints(self):
        # Every state against saturation over its carrier at every end and
        # midpoint of its partition table's and each user's rate segments;
        # per-user ends fall between the table's.  Rates are written once:
        # each state keeps the previous state's rate functions as they are.
        rng = random.Random(6029)
        models = [*corpus_models(), *(rank_sum_table(rng, rng.randint(2, 7))
                                      for _ in range(40))]
        checked = off_table = 0
        for model in models:
            for top in axis_caps(rng, model):  # H(V) among them
                prev = None
                for state in iter_parametric(model, top):
                    if prev is not None:
                        assert len(state.rates) == len(prev.rates) + 1
                        assert all(a is b for a, b in zip(state.rates, prev.rates))
                    # the walk below covers the table's ends as well
                    assert set(state.table.uppers) <= set(state.rate_view.uppers)
                    for lower, upper, _, _ in state_segments(state):
                        off_table += upper not in state.table.uppers
                        for alpha in {upper, (lower + upper) / 2}:
                            fixed = coordinate_saturation(model, alpha, state.users)
                            assert state.partition_at(alpha) == fixed.partition
                            assert state.rates_at(alpha) == fixed.rates
                            checked += 1
                    prev = state
        assert checked > 9000 and off_table > 120

    def test_random_models_random_alphas(self):
        rng = random.Random(6024)
        for _ in range(10):
            model = random_bitpool(rng, max_users=6, max_bits=9)
            final = None
            for final in iter_parametric(model):
                pass
            for _ in range(20):
                alpha = random_alpha(rng, model)
                fixed = coordinate_saturation(model, alpha)
                assert final.partition_at(alpha) == fixed.partition
                assert final.rates_at(alpha) == fixed.rates


class TestMetamorphicRelations:
    """Relations between two sweeps that need no reference solver, so they
    reach past the brute-force horizon: 32-64-user bit pools of the two
    bench recipes, and rank-sum tables of up to 12 users."""

    def sources(self, rng):
        return [*(recipe(rng, n) for recipe in (spread_bitpool, planted_pair_bitpool)
                  for n in (32, 48, 64)),
                *(rank_sum_table(rng, n) for n in (6, 9, 12))]

    def test_scaling(self):
        # Every bit repeated c times, or every table value times c: every
        # critical point of every state, and every rate, is c times the
        # original's, and the partitions stay.
        rng = random.Random(6031)
        for model in self.sources(rng):
            n = model.size
            if isinstance(model, BitPoolSource):
                c = rng.randint(2, 3)
                scaled = BitPoolSource([[f"{bit}.{k}" for bit in pool for k in range(c)]
                                        for pool in model.bits_per_user])
            else:
                c = F(rng.randint(2, 9), rng.randint(1, 5))
                scaled = EntropyTable(n, {tuple(mask_users(m)): c * model.entropy_of_mask(m)
                                          for m in range(1, 1 << n)})
            for state, big in zip(iter_parametric(model), iter_parametric(scaled), strict=True):
                assert big.table.uppers == tuple(c * a for a in state.table.uppers)
                assert big.table.values == state.table.values
            _, psp = run_parametric(model)
            _, big = run_parametric(scaled)
            assert big.partitions == psp.partitions
            assert big.finest_maximizer == psp.finest_maximizer
            assert big.critical_points == tuple(c * a for a in psp.critical_points)
            assert big.min_sum_rate == c * psp.min_sum_rate
            assert big.rates == tuple(c * r for r in psp.rates)

    def test_relabelling(self):
        # Users permuted: the partitions map under the permutation, and the
        # critical points, R_CO and the rate sum stay.
        rng = random.Random(6032)
        for model in self.sources(rng):
            n = model.size
            perm = list(range(1, n + 1))
            rng.shuffle(perm)  # user u becomes perm[u - 1]
            if isinstance(model, BitPoolSource):
                pools = [None] * n
                for u, pool in enumerate(model.bits_per_user):
                    pools[perm[u] - 1] = pool
                moved_model = BitPoolSource(pools)
            else:
                moved_model = EntropyTable(n, {tuple(perm[u - 1] for u in mask_users(m)):
                                               model.entropy_of_mask(m) for m in range(1, 1 << n)})

            def moved(partition):
                return Partition([[perm[u - 1] for u in block] for block in partition])

            _, psp = run_parametric(model)
            _, other = run_parametric(moved_model)
            assert other.partitions == tuple(map(moved, psp.partitions))
            assert other.finest_maximizer == moved(psp.finest_maximizer)
            assert other.critical_points == psp.critical_points
            assert other.min_sum_rate == psp.min_sum_rate
            assert sum(other.rates) == sum(psp.rates)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_rate_vectors_stay_in_polyhedron(seed):
    rng = random.Random(seed)
    model = random_bitpool(rng, max_users=5, max_bits=6)
    alpha = random_alpha(rng, model)
    res = coordinate_saturation(model, alpha)
    from omnirate.dilworth import AlphaFunction
    f_alpha = AlphaFunction(model, alpha)
    users = res.users
    for size in range(1, len(users) + 1):
        for combo in combinations(users, size):
            assert sum(res.rates[users.index(u)] for u in combo) <= f_alpha(combo)
    assert sum(res.rates, F(0)) == res.value


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 7), st.integers(0, 2**32))
def test_table_text_path_sweep_matches_references(n, seed):
    # The whole CLI ingest path on a rational rank-sum table: dump, parse,
    # validate, then sweep.
    table = rank_sum_table(random.Random(seed), n)
    model = parse_model(format_table(table))
    assert [model.entropy_of_mask(m) for m in range(1 << table.size)] == \
        [table.entropy_of_mask(m) for m in range(1 << table.size)]
    assert validate(model) == []
    # sweep vs fixed-point baseline and brute enumeration, among the rest
    # of `verify`'s checks
    assert verify_model(model, ()).failed == ()
