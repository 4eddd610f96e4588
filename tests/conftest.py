import random
from fractions import Fraction
from itertools import combinations
from math import lcm
from pathlib import Path

import pytest

from omnirate import (AlphaFunction, BitPoolSource, EntropyTable, FusionOracle,
                      iter_parametric, lower_bound_alpha, plan_from_state)
from omnirate.model import as_rational, subset_mask

REPO_ROOT = Path(__file__).resolve().parent.parent
FIVE_USER_PATH = REPO_ROOT / "models" / "example_5user.bitpool"

# The golden five-user source: ten independent uniform bits a..j spread
# over five users.  Most exact expectations in this suite are anchored to it.
FIVE_USER_BITS = ["abcdfgij", "abcfij", "efhi", "bcej", "bcdhi"]


@pytest.fixture(scope="session")
def five_user():
    return BitPoolSource(FIVE_USER_BITS)


@pytest.fixture(scope="session")
def five_user_path():
    return str(FIVE_USER_PATH)


def random_bitpool(rng: random.Random, max_users: int = 6, max_bits: int = 12) -> BitPoolSource:
    """A random bit-pool source with 2..max_users users over <= max_bits bits."""
    n = rng.randint(2, max_users)
    n_bits = rng.randint(1, max_bits)
    universe = [f"b{k}" for k in range(n_bits)]
    pools = [rng.sample(universe, rng.randint(1, n_bits)) for _ in range(n)]
    return BitPoolSource(pools)


def twin_bitpool(rng: random.Random, max_users: int = 6, max_bits: int = 12) -> BitPoolSource:
    """A random bit-pool source in which some users copy another's pool."""
    pools = list(random_bitpool(rng, max_users, max_bits).bits_per_user)
    for _ in range(rng.randint(1, len(pools) - 1)):
        pools[rng.randrange(len(pools))] = rng.choice(pools)
    return BitPoolSource(pools)


def plan_at(model, bound):
    """The plan at a caller's own bound: `plan_from_state` on the last state
    of the sweep cut at that bound."""
    *_, last = iter_parametric(model, bound)
    return plan_from_state(last, bound)


def axis_caps(rng: random.Random, model) -> tuple[Fraction, ...]:
    """Axis tops to truncate a sweep at: 0, the successive-omniscience
    lower bound, a random interior point (1/1000 grid) and H(V)."""
    total = model.total_entropy
    return (Fraction(0), lower_bound_alpha(model),
            total * Fraction(rng.randrange(1, 1000), 1000), total)


def spread_bitpool(rng: random.Random, n: int) -> BitPoolSource:
    """n users over 3n independent bits, pool sizes spread evenly over 1..3n.

    The sizes are dealt to the users in a random order and each pool is a
    random subset of its size: the recipe of the `sweep-bitpool` bench
    workload, whose late users' top probes reach the min cut.
    """
    universe = [f"b{k}" for k in range(3 * n)]
    sizes = [1 + (3 * n - 1) * k // (n - 1) for k in range(n)]
    rng.shuffle(sizes)
    return BitPoolSource([rng.sample(universe, size) for size in sizes])


def planted_pair_bitpool(rng: random.Random, n: int) -> BitPoolSource:
    """n users holding n of 3n background bits each, two of them (user
    n // 2 + 1 and an earlier one) keeping half of theirs and sharing n
    core bits: the recipe of the `plan-bitpool` bench workload, whose
    complimentary pair shows up about halfway through the users.
    """
    universe = [f"b{k}" for k in range(3 * n)]
    core = [f"c{k}" for k in range(n)]
    m = n // 2 + 1
    partner = rng.randint(1, m - 1)
    pools = []
    for user in range(1, n + 1):
        pool = rng.sample(universe, n)
        if user in (partner, m):
            pool = pool[: n // 2] + core
        pools.append(pool)
    return BitPoolSource(pools)


def rank_sum_table(rng, n):
    """Seeded rational polymatroid: sum_k w_k min(|X & S_k|, r_k) + sum_{u in X} c_u.

    Each term is a weighted uniform-matroid rank on a random support, with
    p/q weights; the private parts c_u are p/q too and may be 0.
    """
    terms = []
    for _ in range(rng.randint(1, 4)):
        support = frozenset(rng.sample(range(1, n + 1), rng.randint(1, n)))
        terms.append((support, rng.randint(1, len(support)),
                      Fraction(rng.randint(1, 9), rng.randint(1, 6))))
    private = [Fraction(rng.randint(0, 3), rng.randint(1, 4)) for _ in range(n)]
    values = {}
    for r in range(1, n + 1):
        for combo in combinations(range(1, n + 1), r):
            x = frozenset(combo)
            values[x] = (sum((w * min(len(x & s), k) for s, k, w in terms), Fraction(0))
                         + sum((private[u - 1] for u in x), Fraction(0)))
    return EntropyTable(n, values)


def coprime_rank_sum_table():
    """Six users, H(X) = sum_k w_k min(|X & S_k|, r_k) with w = 1/3, 2/7, 5/2
    plus private parts 1/5 and 3/4: the values mix coprime denominators, so
    the table's scale is their lcm, 420."""
    terms = [({1, 2, 3, 4}, 2, Fraction(1, 3)), ({3, 4, 5, 6}, 3, Fraction(2, 7)),
             ({1, 5, 6}, 1, Fraction(5, 2))]
    private = {2: Fraction(1, 5), 6: Fraction(3, 4)}
    values = {}
    for r in range(1, 7):
        for combo in combinations(range(1, 7), r):
            x = frozenset(combo)
            values[x] = (sum(w * min(len(x & s), k) for s, k, w in terms)
                         + sum(private.get(u, 0) for u in x))
    return EntropyTable(6, values)


def state_segments(state):
    """(lower, upper, partition, rates) per segment of the common refinement
    of a sweep state's partition table and its users' rate functions;
    `rates` holds each user's affine rate there.  The table's ends lie among
    the rates' ends (`TestStateInvariants.test_segment_tiling_is_exact`), so
    the refinement is `rate_view`."""
    for lower, upper, rates in state.rate_view:
        yield lower, upper, state.partition_at(upper), rates


def random_alpha(rng: random.Random, model) -> Fraction:
    """A random exact alpha in [0, H(V)] on a 1/1000 grid (endpoints included)."""
    return model.total_entropy * Fraction(rng.randrange(0, 1001), 1000)


def corpus_models(count: int = 200, seed: int = 7151):
    """Seeded model corpus shared by the oracle-equivalence criteria.

    A few structured degenerate sources are pinned at the front; the rest
    are random.
    """
    models = [
        BitPoolSource(["w", "w"]),                       # one shared bit
        BitPoolSource(["x", "y"]),                       # fully independent
        BitPoolSource(["w", "wy"]),                      # shared plus private
        BitPoolSource(["ab", "bc", "ca"]),               # each misses one bit
        BitPoolSource(["x", "y", "z", "xyz"]),           # one omniscient user
    ]
    rng = random.Random(seed)
    while len(models) < count:
        models.append(random_bitpool(rng))
    return models


def oracle_from_fractions(model, alpha, blocks, rates) -> FusionOracle:
    """The fusion oracle on user-set `blocks` (anchor last) with `Fraction`
    `rates`, scaled over the lcm of the model's entropy scale and the rates'
    denominators: the way the tests build an oracle by hand."""
    scale = lcm(model.scale, *(r.denominator for r in rates))
    ints = tuple(r.numerator * (scale // r.denominator) for r in rates)
    return FusionOracle(model, alpha, tuple(map(subset_mask, blocks)), ints, scale)


def partition_value(model, alpha, partition) -> Fraction:
    """f_alpha[P] = sum of f_alpha(C) over the blocks of P: the reference
    value of a partition, straight from the entropies."""
    f_alpha = AlphaFunction(model, as_rational(alpha))
    return sum((f_alpha(block) for block in partition), Fraction(0))
