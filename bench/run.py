"""Seeded end-to-end benchmark of omnirate, with an optional layer trace.

    python3 bench/run.py --workload sweep-bitpool --seed 1 --seconds 30 --trace 0

Draws the workload's input pool from the seed and writes it as model
files under bench/.work/, then runs one operation after another in this
single process until --seconds have passed, then checks every output.
Timings come from the untraced loop.  With --trace 1 the loop runs for half
the time untraced, then the same ops again with the layer wrappers of
`tracing.py` installed, and per-layer metrics are reported instead.

The last line of stdout is the result:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
The line before it is a report with the run metadata and extra figures.
`--pin-digests` recomputes the pinned output digests of the default seed.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Any

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import omnirate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 1
SETUP_SECONDS = 0.25
REFERENCE_SHARE = 0.05
DIGESTS = BENCH_DIR / "digests.json"
WORK = BENCH_DIR / ".work"


@dataclass
class Op:
    index: int
    seconds: float
    output: Any = None
    error: str | None = None
    cost: float = 0.0  # seconds / reference-loop seconds around the op


def reference_loop() -> float:
    """Wall seconds of a fixed pure-Python computation (about 4 ms).

    Fraction sums, dict stores and an int loop: the same kind of work as an
    omnirate solve, but independent of omnirate.  Run between ops, it
    tracks how fast the CPU is right now; the host this benchmark was
    written on drifts by more than 50% over tens of seconds.
    """
    t0 = perf_counter()
    total, table = Fraction(0), {}
    for i in range(1, 400):
        total += Fraction(i % 17 + 1, i % 13 + 1)
        table[i * 7919 % 4093] = total
    bits = 0
    for k in range(60_000):
        bits += k & 0xFF
    return perf_counter() - t0


def reference_time(budget: float) -> float:
    """Median reference-loop time over 1 to 25 runs that fill `budget` seconds.

    Single runs are noisy; after a long op a few more keep the estimate
    steady at a cost of REFERENCE_SHARE of the op's time.
    """
    samples = [reference_loop()]
    while sum(samples) < budget and len(samples) < 25:
        samples.append(reference_loop())
    return statistics.median(samples)


def run_ops(workload, inputs, seconds=None, order=None, tracer=None) -> list[Op]:
    """Run ops back to back, with the reference loop before and after each.

    Either for `seconds` (cycling through the pool, at least one op) or
    exactly the pool indices in `order`.  An op that raises is recorded as
    failed and the loop goes on.  Each op's cost is its wall time over the
    mean of the two reference times around it.
    """
    gc.collect()
    ops: list[Op] = []
    ref = reference_time(0)
    start = perf_counter()
    while True:
        if order is not None:
            if len(ops) == len(order):
                break
            index = order[len(ops)]
        else:
            if ops and perf_counter() - start >= seconds:
                break
            index = len(ops) % len(inputs)
        t0 = perf_counter()
        try:
            if tracer is None:
                output = workload.op(inputs[index])
            else:
                with tracer.op(len(ops)):
                    output = workload.op(inputs[index])
            op = Op(index, perf_counter() - t0, output)
        except Exception as exc:
            op = Op(index, perf_counter() - t0, error=f"{type(exc).__name__}: {exc}")
        ref, before = reference_time(REFERENCE_SHARE * op.seconds), ref
        op.cost = op.seconds / ((before + ref) / 2)
        ops.append(op)
    return ops


def check_ops(workload, inputs, ops, pinned=None) -> list[str]:
    """Problems found in the ops' outputs, one string per failed op.

    References are computed once per pool input.  With `pinned` digests the
    full rendered output must also match.  Nothing raised here escapes.
    """
    references: dict[int, Any] = {}
    problems = []
    for number, op in enumerate(ops):
        problem = op.error
        if problem is None:
            try:
                if op.index not in references:
                    references[op.index] = workload.reference(inputs[op.index])
                problem = workload.check(inputs[op.index], op.output, references[op.index])
                if problem is None and pinned is not None:
                    if workloads.digest(workload.render(op.output)) != pinned[op.index]:
                        problem = "output differs from the pinned digest"
            except Exception as exc:
                problem = f"check raised {type(exc).__name__}: {exc}"
        if problem is not None:
            problems.append(f"op {number} (input {op.index:03d}): {problem}")
    return problems


def set_up(workload, seed, directory, reps, seconds=0.0):
    """Write and reload the input pool; (inputs, seconds per rep).

    At least `reps` times, and more until `seconds` have been spent, so
    that a set-up of a few milliseconds still gets a steady median.
    """
    times = []
    while len(times) < reps or sum(times) < seconds:
        shutil.rmtree(directory, ignore_errors=True)
        t0 = perf_counter()
        inputs = [workload.load(p) for p in workloads.write_inputs(workload, seed, directory)]
        times.append(perf_counter() - t0)
    return inputs, times


def run(workload, seed, seconds, trace, directory, pinned=None) -> tuple[dict, dict]:
    """One benchmark run; returns (result, report).

    Set-up is timed before the loop and again after the checks, each time
    at least twice and for SETUP_SECONDS, so that the median spans the
    host's speed over the whole run rather than one moment of it.
    """
    if trace:
        inputs, _ = set_up(workload, seed, directory, 1)
    else:
        inputs, setup_times = set_up(workload, seed, directory, 2, SETUP_SECONDS)
    if trace:
        plain = run_ops(workload, inputs, seconds / 2)
        tracer = tracing.Tracer()
        with tracer.installed():
            traced = run_ops(workload, inputs, order=[op.index for op in plain], tracer=tracer)
        tracer.write(directory / "spans.jsonl")
        ops = plain + traced
        overhead = sum(op.cost for op in traced) / sum(op.cost for op in plain) - 1
        metrics = tracing.layer_metrics(tracer, overhead)
    else:
        ops = run_ops(workload, inputs, seconds)
        # Only whole cycles of the size schedule count, so every size has
        # the same share of the samples whatever op the time ran out on.
        cycle = len(workload.sizes)
        costs = [op.cost for op in ops[: len(ops) - len(ops) % cycle] or ops]
        metrics = {
            "op_cost.p50": (statistics.median(costs), "ref"),
            "ops_per_kref": (1000 * len(costs) / sum(costs), "1/kref"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
    problems = check_ops(workload, inputs, ops, pinned)
    if not trace:
        setup_times += set_up(workload, seed, directory, 3, SETUP_SECONDS)[1]
        metrics["setup_s"] = (statistics.median(setup_times), "s")
    result = {
        "correct": not problems,
        "attempted": len(ops),
        "failed": len(problems),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    times = [op.seconds for op in (plain if trace else ops)]
    report = {
        **metadata(workload, seed, len(ops)),
        "trace": trace,
        "failed_ops": len(problems) / len(ops),
        "problems": problems[:10],
        # Raw wall-clock figures of the untraced ops; they move with the
        # host's speed, so they are reported but not gated.
        "op_s.p50": statistics.median(times),
        "op_s.p90": statistics.quantiles(times, n=10)[-1] if len(ops) >= 100 else None,
        "ops_per_s": len(ops) / sum(times),
    }
    return result, report


def metadata(workload, seed, op_count) -> dict:
    return {
        "workload": workload.name,
        "seed": seed,
        "ops": op_count,
        "sizes": sorted(set(workload.sizes)),
        "pool": workload.pool,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "src_lines": sum(
            len(p.read_text(encoding="utf-8").splitlines())
            for p in (SRC / "omnirate").rglob("*.py")
        ),
    }


def git_commit() -> str:
    """HEAD of the checkout's git directory, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def load_pinned(name: str) -> list[str]:
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8")).get(name)
    if pinned is None:
        raise SystemExit(f"no pinned digests for {name} in {DIGESTS}")
    return pinned


def pin_digests():
    """Solve every pool input of the default seed, check it, store its digest."""
    out = {}
    for workload in workloads.WORKLOADS.values():
        directory = WORK / f"pin-{workload.name}"
        inputs, _ = set_up(workload, DEFAULT_SEED, directory, 1)
        ops = run_ops(workload, inputs, order=range(len(inputs)))
        problems = check_ops(workload, inputs, ops)
        if problems:
            raise SystemExit(f"{workload.name}: not pinning failed outputs: {problems[:3]}")
        out[workload.name] = [workloads.digest(workload.render(op.output)) for op in ops]
        print(f"{workload.name}: {len(ops)} outputs in {sum(o.seconds for o in ops):.1f} s")
    DIGESTS.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin-digests", action="store_true",
                        help="recompute bench/digests.json from the default seed")
    args = parser.parse_args(argv)

    if not Path(omnirate.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported omnirate from {omnirate.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.pin_digests:
        pin_digests()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    workload = workloads.WORKLOADS[args.workload]
    pinned = load_pinned(workload.name) if args.seed == DEFAULT_SEED else None
    directory = WORK / f"{workload.name}-s{args.seed}-t{args.trace}"
    result, report = run(workload, args.seed, args.seconds, bool(args.trace), directory, pinned)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
