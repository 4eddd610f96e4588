import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from omnirate import BitPoolSource, EntropyTable, lower_bound_alpha

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
    workload, whose top probes reach the min-norm-point backend.
    """
    universe = [f"b{k}" for k in range(3 * n)]
    sizes = [1 + (3 * n - 1) * k // (n - 1) for k in range(n)]
    rng.shuffle(sizes)
    return BitPoolSource([rng.sample(universe, size) for size in sizes])


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
