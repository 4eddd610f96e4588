"""Tests of the benchmark itself, on tiny inputs; no timing bounds.

Run with:  python3 -m pytest bench/tests -q
"""

import dataclasses
import json
import math
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402  (puts the checkout's src/ on sys.path)
import tracing  # noqa: E402
import workloads  # noqa: E402

import omnirate  # noqa: E402
from omnirate import cli, dilworth, model, par, partition, sfm, so  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
TINY_SIZES = {"sweep-bitpool": (6,), "plan-bitpool": (6, 8, 7), "table-cli": (5, 6)}


def tiny(name):
    return dataclasses.replace(workloads.WORKLOADS[name], sizes=TINY_SIZES[name], pool=3)


def expected_metrics(trace):
    return {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_reports_every_metric(tmp_path, name, trace):
    result, report = run.run(tiny(name), seed=3, seconds=0.05, trace=trace,
                             directory=tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, report["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == expected_metrics(trace)
    for value in result["metrics"].values():
        assert set(value) == {"value", "unit"}
        assert isinstance(value["value"], (int, float)) and math.isfinite(value["value"])
    for key in ("python", "nproc", "commit", "seed", "ops", "src_lines"):
        assert key in report
    json.dumps(result), json.dumps(report)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_model_text(tmp_path, name):
    w = tiny(name)
    a = workloads.write_inputs(w, 5, tmp_path / "a")
    b = workloads.write_inputs(w, 5, tmp_path / "b")
    c = workloads.write_inputs(w, 6, tmp_path / "c")
    assert [p.read_bytes() for p in a] == [p.read_bytes() for p in b]
    assert [p.read_bytes() for p in a] != [p.read_bytes() for p in c]


def test_generated_tables_pass_validation(tmp_path):
    for path in workloads.write_inputs(tiny("table-cli"), 2, tmp_path):
        assert model.validate(omnirate.load_model(str(path))) == []


def test_tampered_and_raising_ops_count_as_failed(tmp_path):
    w = tiny("sweep-bitpool")

    def tampered(pools):
        psp = workloads.sweep_op(pools)
        return dataclasses.replace(psp, min_sum_rate=psp.min_sum_rate + 1)

    def raising(pools):
        raise RuntimeError("boom")

    for op in (tampered, raising):
        result, report = run.run(dataclasses.replace(w, op=op), seed=3, seconds=0.05,
                                 trace=False, directory=tmp_path)
        assert result["correct"] is False
        assert result["failed"] == result["attempted"] >= 1
        assert report["failed_ops"] == 1.0


def test_wrong_pinned_digest_counts_as_failed(tmp_path):
    w = tiny("plan-bitpool")
    result, _ = run.run(w, seed=3, seconds=0.05, trace=False, directory=tmp_path,
                        pinned=["0" * 16] * w.pool)
    assert result["failed"] == result["attempted"]


def _attributes():
    owners = [omnirate, cli, dilworth, model, par, partition, sfm, so,
              model.SourceModel, model.BitPoolSource, model.EntropyTable,
              partition.Segmented]
    return {(id(owner), name): value for owner in owners for name, value in vars(owner).items()}


def test_wrappers_leave_attributes_as_found(tmp_path):
    before = _attributes()
    run.run(tiny("table-cli"), seed=3, seconds=0.05, trace=True, directory=tmp_path)
    assert _attributes() == before
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert par.minimize is not sfm.minimize
            raise RuntimeError("inside the traced region")
    assert _attributes() == before


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    with tracer.op(0):
        inner = tracer.open("child")
        tracer.close(inner)
    calls, total, own = tracer.totals()["op"]
    child = tracer.ends[1] - tracer.starts[1]
    assert calls == 1
    assert own == pytest.approx(total - child)
    assert tracer.parents == [-1, 0] and tracer.ops == [0, 0]
