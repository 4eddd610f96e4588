"""Seeded inputs, the timed operation and the output checks of each workload.

A workload is a pool of model inputs generated from the seed, one
operation that solves one input through omnirate's public entry points,
and the checks that the operation's output is right.  Every operation
builds a fresh model, because the entropy cache lives on the model object
and a user pays for it on every solve.  Inputs are written to the run
directory as model files, so any operation can be replayed with the
`omnirate` command.

The program sees only the generated models; sizes and pool lengths live
here.  Module attributes of omnirate (`par.run_parametric`,
`so.find_complimentary`, `cli.main`, ...) are looked up at call time, so
the tracer in `tracing.py` can wrap them from the outside.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from pathlib import Path
from typing import Any, Callable

from omnirate import cli, modelfile, oracle, par, so
from omnirate.model import BitPoolSource


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    `sizes` is the user-count schedule, cycled in this order to fill a pool
    of `pool` inputs; `make(rng, n)` draws one input's model text.  `load`
    turns a written model file into what `op` consumes, `op` is the timed
    call, `reference` the (memoized, untimed) independent answer for an
    input, `check` compares an output against it and returns a problem
    string or None, and `render` is the canonical text of an output that
    the pinned digests hash.
    """

    name: str
    sizes: tuple[int, ...]
    pool: int
    suffix: str
    make: Callable[[random.Random, int], str]
    load: Callable[[Path], Any]
    op: Callable[[Any], Any]
    reference: Callable[[Any], Any]
    check: Callable[[Any, Any, Any], str | None]
    render: Callable[[Any], str]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def write_inputs(workload: Workload, seed: int, directory: Path) -> list[Path]:
    """Draw the seeded input pool and write one model file per input."""
    rng = random.Random(f"{workload.name}:{seed}")
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for index in range(workload.pool):
        n = workload.sizes[index % len(workload.sizes)]
        path = directory / f"{index:03d}{workload.suffix}"
        path.write_text(workload.make(rng, n), encoding="utf-8")
        paths.append(path)
    return paths


def balanced(lo: int, hi: int) -> tuple[int, ...]:
    """lo..hi ordered from both ends inwards (lo, hi, lo+1, hi-1, ...).

    A run that stops inside a cycle then holds about as many small as
    large inputs, so the median size stays put.
    """
    out, a, b = [], lo, hi
    while a <= b:
        out.append(a)
        if a != b:
            out.append(b)
        a, b = a + 1, b - 1
    return tuple(out)


# --- bit-pool sources -------------------------------------------------------

def bitpool_text(pools) -> str:
    lines = ["type=bitpool"]
    lines += [f"user {u}: " + " ".join(pool) for u, pool in enumerate(pools, start=1)]
    return "\n".join(lines) + "\n"


def load_pools(path: Path) -> tuple[tuple[str, ...], ...]:
    """The users' bit lists of a bit-pool file, in file order."""
    pools = []
    for line in path.read_text(encoding="utf-8").splitlines()[1:]:
        pools.append(tuple(line.split(":", 1)[1].split()))
    return tuple(pools)


def make_spread_pool(rng: random.Random, n: int) -> str:
    """n users over 3n independent bits, holding 1 to 3n bits each.

    The pool sizes are spread evenly over 1..3n and dealt to the users in
    a random order; each pool is a random subset of that size.  Fixing the
    size profile keeps the solve cost of one model close to the next.
    """
    universe = [f"b{k}" for k in range(3 * n)]
    sizes = [1 + (3 * n - 1) * k // (n - 1) for k in range(n)]
    rng.shuffle(sizes)
    return bitpool_text([sorted(rng.sample(universe, size)) for size in sizes])


def make_planted_pair(rng: random.Random, n: int) -> str:
    """n users over 3n background bits plus a planted correlated pair.

    Every user holds n random background bits.  User m = n // 2 + 1 and one
    earlier user instead keep half of theirs and share n further core bits,
    so the pair becomes complimentary once user m joins and the default
    successive-omniscience search stops about halfway through the users.
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
        pools.append(sorted(pool))
    return bitpool_text(pools)


def sweep_op(pools):
    _, psp = par.run_parametric(BitPoolSource(pools))
    return psp


def sweep_reference(pools):
    model = BitPoolSource(pools)
    return model.total_entropy, par.mda_reference(model)


def sweep_check(pools, psp, reference) -> str | None:
    total, (rate, finest, rates) = reference
    if (psp.min_sum_rate, psp.finest_maximizer, psp.rates) != (rate, finest, rates):
        return "R_CO, finest maximizer or rates differ from mda_reference"
    if sum(psp.rates, Fraction(0)) != psp.min_sum_rate:
        return "rates do not sum to R_CO"
    points = psp.critical_points
    if any(a >= b for a, b in zip(points, points[1:])) or points[-1] != total:
        return "critical points do not increase strictly to H(V)"
    parts = psp.partitions
    if any(a == b or not a.refines(b) for a, b in zip(parts, parts[1:])):
        return "partitions do not coarsen along the chain"
    return None


def sweep_render(psp) -> str:
    return "\n".join([
        "critical " + " ".join(map(str, psp.critical_points)),
        *(str(p) for p in psp.partitions),
        f"R {psp.min_sum_rate}",
        f"finest {psp.finest_maximizer}",
        "rates " + " ".join(map(str, psp.rates)),
    ])


def plan_op(pools):
    model = BitPoolSource(pools)
    plan = so.find_complimentary(model)
    verified = plan is not None and so.verify_complimentary(model, plan.subset, plan.local_alpha)
    return plan, verified


def plan_reference(pools):
    return BitPoolSource(pools)


def plan_check(pools, output, model) -> str | None:
    plan, verified = output
    if plan is None:
        return "no complimentary subset found"
    if not verified:
        return "verify_complimentary rejects the plan"
    if len(plan.subset) <= 8:
        rate, _ = oracle.brute_min_sum_rate(model, plan.subset)
        if rate != plan.local_min_sum_rate:
            return f"local R_CO {plan.local_min_sum_rate} != brute {rate}"
    return None


def plan_render(output) -> str:
    plan, verified = output
    if plan is None:
        return "none"
    return "\n".join([
        "subset " + " ".join(map(str, plan.local_users)),
        f"alpha {plan.local_alpha}",
        "rates " + " ".join(map(str, plan.local_rates)),
        f"R {plan.local_min_sum_rate}",
        f"found {plan.found_at_iteration}/{plan.ground_size}",
        f"verified {verified}",
    ])


# --- rational matroid-rank-sum tables ---------------------------------------

def make_rank_sum_table(rng: random.Random, n: int) -> str:
    """H(X) = sum_k w_k * min(|X & S_k|, r_k) + sum_{u in X} c_u, as a table.

    n truncated-cardinality (uniform-matroid rank) terms on random supports
    S_k with rational weights w_k = p/q, plus a positive rational modular
    term: a non-integer polymatroid that passes `validate`.
    """
    terms = []
    for _ in range(n):
        support = rng.sample(range(n), rng.randint(2, n))
        mask = sum(1 << u for u in support)
        rank = rng.randint(1, len(support) - 1)
        terms.append((mask, rank, Fraction(rng.randint(1, 9), rng.randint(1, 8))))
    modular = [Fraction(rng.randint(1, 5), rng.randint(1, 8)) for _ in range(n)]
    scale = lcm(*(w.denominator for _, _, w in terms), *(c.denominator for c in modular))
    term_ints = [(mask, rank, int(w * scale)) for mask, rank, w in terms]
    modular_ints = [int(c * scale) for c in modular]
    lines = ["type=table"]
    for x in range(1, 1 << n):
        users = [u for u in range(n) if x >> u & 1]
        value = sum(modular_ints[u] for u in users)
        for mask, rank, weight in term_ints:
            value += weight * min((x & mask).bit_count(), rank)
        label = ",".join(str(u + 1) for u in users)
        lines.append(f"H {label} = {Fraction(value, scale)}")
    return "\n".join(lines) + "\n"


def table_op(path):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["psp", str(path)])
    return code, out.getvalue()


def table_reference(path):
    model = modelfile.parse_model(Path(path).read_text(encoding="utf-8"))
    return par.mda_reference(model)


def _printed(text: str, prefix: str) -> str:
    return next(line[len(prefix):] for line in text.splitlines() if line.startswith(prefix))


def table_check(path, output, reference) -> str | None:
    code, text = output
    if code != 0:
        return f"exit code {code}"
    rate, _, rates = reference
    try:
        printed_rate = Fraction(_printed(text, "R_CO = "))
        vector = _printed(text, "optimal rate vector: ").strip("()")
        printed_rates = tuple(Fraction(v) for v in vector.split(", "))
    except (StopIteration, ValueError, ZeroDivisionError):
        return "R_CO or rate vector missing from the output"
    if (printed_rate, printed_rates) != (rate, rates):
        return "printed R_CO or rates differ from mda_reference"
    return None


def table_render(output) -> str:
    code, text = output
    return f"exit {code}\n{text}"


WORKLOADS = {
    w.name: w for w in [
        Workload(
            name="sweep-bitpool",
            sizes=(16,), pool=40, suffix=".bitpool",
            make=make_spread_pool, load=load_pools, op=sweep_op,
            reference=sweep_reference, check=sweep_check, render=sweep_render,
        ),
        Workload(
            name="plan-bitpool",
            sizes=balanced(12, 28), pool=170, suffix=".bitpool",
            make=make_planted_pair, load=load_pools, op=plan_op,
            reference=plan_reference, check=plan_check, render=plan_render,
        ),
        Workload(
            name="table-cli",
            sizes=(10, 11, 12, 11), pool=96, suffix=".table",
            make=make_rank_sum_table, load=lambda path: path, op=table_op,
            reference=table_reference, check=table_check, render=table_render,
        ),
    ]
}
