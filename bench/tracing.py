"""Outside-in tracing of omnirate's layers.

`Tracer.installed()` replaces the module and class attributes that
omnirate's own callers look up at call time (`par.minimize`,
`sfm.minimize_mnp`, `cli.validate`, `Segmented.value_at`, ...) with thin
wrappers, and always puts the originals back.  A wrapper records one span
(name, start, end, parent span, op id) and any counts the layer exposes in
its arguments or result.  Spans stay in memory until `write` is called at
the end of a run.

The hottest calls, `SourceModel.entropy_of_mask` and the per-source
`_entropy_of_mask` oracle misses, are counted but not timed: timing them
would dominate what it measures.
"""

from __future__ import annotations

import functools
import json
import os
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from omnirate import cli, dilworth, par, sfm, so
from omnirate.errors import SolverError
from omnirate.model import BitPoolSource, EntropyTable, SourceModel
from omnirate.partition import Segmented


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self._stack: list[int] = []
        self._op = -1

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self._op)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(perf_counter())
        return index

    def close(self, index: int):
        self.ends[index] = perf_counter()
        self._stack.pop()

    @contextmanager
    def op(self, op_id: int):
        """Root span of one benchmark operation."""
        self._op = op_id
        index = self.open("op")
        try:
            yield
        finally:
            self.close(index)
            self._op = -1

    def note_max(self, key: str, value: int):
        if value > self.maxima[key]:
            self.maxima[key] = value

    def span(self, name, fn, before=None, after=None, on_error=None):
        """Wrap `fn` in a span; hooks see (tracer, args[, result | exc])."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(tracer, args)
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(tracer, exc)
                raise
            finally:
                tracer.close(index)
            if after is not None:
                after(tracer, args, result)
            return result

        return wrapper

    def count(self, key, fn):
        """Wrap `fn` so each call bumps `key`, without a span."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        return wrapper

    @contextmanager
    def installed(self):
        """Install every layer wrapper; restore the originals on exit."""
        saved = []
        try:
            for owner, attr, make in _layers(self):
                original = vars(owner)[attr]
                setattr(owner, attr, make(original))
                saved.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def totals(self) -> dict[str, list]:
        """name -> [calls, seconds, self seconds] over all closed spans."""
        covered = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                covered[parent] += self.ends[i] - self.starts[i]
        out: dict[str, list] = {}
        for i, name in enumerate(self.names):
            duration = self.ends[i] - self.starts[i]
            entry = out.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - covered[i]
        return out

    def write(self, path: Path):
        with open(path, "w", encoding="utf-8") as handle:
            for i, name in enumerate(self.names):
                handle.write(json.dumps({
                    "name": name, "start": self.starts[i], "end": self.ends[i],
                    "parent": self.parents[i], "op": self.ops[i],
                }) + "\n")


def _sfm_blocks(tracer, args):
    tracer.note_max("sfm.blocks.max", len(args[0].blocks) - 1)


def _evaluations(key):
    def after(tracer, args, result):
        tracer.counts[key] += result.evaluations
    return after


def _mnp_fallback(tracer, exc):
    if isinstance(exc, SolverError):
        tracer.counts["sfm.mnp.fallbacks"] += 1


def _iteration(tracer, args, state):
    tracer.counts["par.probes"] += len(state.last_probes)
    tracer.counts["par.chain_sets"] += len(state.last_chain.sets) - 1
    tracer.note_max("partition.segments.max", len(state.table))


def _model_bytes(tracer, args, model):
    if args[0] != "-":
        tracer.counts["modelfile.bytes"] += os.path.getsize(args[0])


def _stop(tracer, args, plan):
    if plan is not None:
        tracer.counts["so.plans"] += 1
        tracer.counts["so.stop_frac"] += plan.found_at_iteration / plan.ground_size


def _layers(t: Tracer):
    """(owner, attribute, wrapper factory) for every traced boundary."""
    def span(name, **hooks):
        return lambda fn: t.span(name, fn, **hooks)

    def count(key):
        return lambda fn: t.count(key, fn)

    return [
        (cli, "main", span("cli")),
        (cli, "load_model", span("modelfile.load", after=_model_bytes)),
        (cli, "validate", span("model.validate")),
        (cli, "run_parametric", span("par.sweep")),
        (par, "run_parametric", span("par.sweep")),
        (par, "parametric_iteration", span("par.iteration", after=_iteration)),
        (par, "solve_chain_breakpoints", span("par.breakpoints")),
        (par, "minimize", span("sfm", before=_sfm_blocks)),
        (dilworth, "minimize", span("sfm", before=_sfm_blocks)),
        (dilworth, "coordinate_saturation", span("dilworth.saturation")),
        (sfm, "minimize_brute", span("sfm.brute", after=_evaluations("sfm.brute.evals"))),
        (sfm, "minimize_mnp", span("sfm.mnp", after=_evaluations("sfm.mnp.evals"),
                                   on_error=_mnp_fallback)),
        (so, "find_complimentary", span("so.plan", after=_stop)),
        (so, "verify_complimentary", span("so.verify")),
        (Segmented, "value_at", span("partition.value_at")),
        (SourceModel, "entropy_of_mask", count("model.entropy.calls")),
        (BitPoolSource, "_entropy_of_mask", count("model.entropy.distinct")),
        (EntropyTable, "_entropy_of_mask", count("model.entropy.distinct")),
    ]


def layer_metrics(tracer: Tracer, overhead: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run, per op unless the unit says otherwise.

    `overhead` is the traced ops' cost over the same ops' untraced cost,
    minus 1; the runner measures it.
    """
    totals = tracer.totals()
    counts, maxima = tracer.counts, tracer.maxima

    def calls(name):
        return totals.get(name, [0, 0.0, 0.0])[0]

    def seconds(name):
        return totals.get(name, [0, 0.0, 0.0])[1]

    def self_seconds(name):
        return totals.get(name, [0, 0.0, 0.0])[2]

    ops = calls("op")
    op_s = seconds("op")
    iterations = calls("par.iteration")
    probes = counts["par.probes"]
    sfm_self = sum(self_seconds(n) for n in ("sfm", "sfm.brute", "sfm.mnp"))
    return {
        "trace.ops": (ops, "count"),
        "trace.overhead": (overhead, "ratio"),
        "sfm.calls": (calls("sfm") / ops, "count/op"),
        "sfm.s": (seconds("sfm") / ops, "s/op"),
        "sfm.self_share": (sfm_self / op_s, "ratio"),
        "sfm.brute.calls": (calls("sfm.brute") / ops, "count/op"),
        "sfm.brute.s": (seconds("sfm.brute") / ops, "s/op"),
        "sfm.brute.evals": (counts["sfm.brute.evals"] / ops, "count/op"),
        "sfm.mnp.calls": (calls("sfm.mnp") / ops, "count/op"),
        "sfm.mnp.s": (seconds("sfm.mnp") / ops, "s/op"),
        "sfm.mnp.evals": (counts["sfm.mnp.evals"] / ops, "count/op"),
        "sfm.mnp.fallbacks": (counts["sfm.mnp.fallbacks"] / ops, "count/op"),
        "sfm.blocks.max": (maxima["sfm.blocks.max"], "count"),
        "par.iterations": (iterations / ops, "count/op"),
        "par.iteration.self_s": (self_seconds("par.iteration") / ops, "s/op"),
        "par.probes": (probes / ops, "count/op"),
        "par.probes_per_user": (probes / max(iterations, 1), "count/user"),
        "par.probe_yield": (counts["par.chain_sets"] / max(probes, 1), "ratio"),
        "par.breakpoints.s": (seconds("par.breakpoints") / ops, "s/op"),
        "partition.value_at.calls": (calls("partition.value_at") / ops, "count/op"),
        "partition.value_at.s": (seconds("partition.value_at") / ops, "s/op"),
        "partition.segments.max": (maxima["partition.segments.max"], "count"),
        "model.validate.s": (seconds("model.validate") / ops, "s/op"),
        "model.entropy.calls": (counts["model.entropy.calls"] / ops, "count/op"),
        "model.entropy.distinct": (counts["model.entropy.distinct"] / ops, "count/op"),
        "modelfile.load.s": (seconds("modelfile.load") / ops, "s/op"),
        "modelfile.bytes": (counts["modelfile.bytes"] / ops, "bytes/op"),
        "dilworth.saturation.calls": (calls("dilworth.saturation") / ops, "count/op"),
        "dilworth.saturation.s": (seconds("dilworth.saturation") / ops, "s/op"),
        "so.plan.s": (seconds("so.plan") / ops, "s/op"),
        "so.verify.s": (seconds("so.verify") / ops, "s/op"),
        "so.stop_frac": (counts["so.stop_frac"] / max(counts["so.plans"], 1), "ratio"),
        "cli.s": (seconds("cli") / ops, "s/op"),
        "cli.self_s": (self_seconds("cli") / ops, "s/op"),
    }
