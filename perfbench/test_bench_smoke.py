"""Smoke tests of the benchmark at tiny n.  Their figures are never used for claims."""

import json

import pytest

import bench
import rep

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_emitted_metrics_match_benchmark_json(workload):
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        res = bench.measure(workload, seed=1, seconds=0, trace=trace, smoke=True)
        assert res["correct"], res["failures"]
        got = {name: m["unit"] for name, m in res["metrics"].items()}
        assert got == {m["name"]: m["unit"] for m in SPEC[key]}
        line = json.loads(bench.result_line(res))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}


def test_wrong_pin_is_a_failed_check(monkeypatch):
    fwd, inv = rep.EXHAUSTIVE_PINS[6]
    monkeypatch.setitem(rep.EXHAUSTIVE_PINS, 6, (("3", *fwd[1:]), inv))
    spec = {"workload": "verify-exhaustive", "seed": 1, "trace": False, "smoke": True}
    out = rep.repetition(spec)
    assert len(out["failures"]) == 1 and out["attempted"] > 1
