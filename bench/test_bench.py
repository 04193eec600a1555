"""Self-tests of the benchmark: run from the checkout root with

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run as bench_run  # noqa: E402
import workloads as wl  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
MG, ORACLES = bench_run.import_package(ROOT)


def _run_cli(workload: str, trace: int) -> tuple[dict, str]:
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3", "--seconds", "0",
         "--trace", str(trace), "--scale", "0.05"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1]), out.stdout


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_tiny_run_reports_every_end_to_end_metric(workload):
    result, text = _run_cli(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "known defect" in text


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_tiny_traced_run_reports_every_per_layer_metric(workload):
    result, _ = _run_cli(workload, 1)
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert result["metrics"]["known_defects.fail_ratio"]["value"] > 0


def test_spec_matches_layer_table():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(PER_LAYER)
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)


def test_batches_are_a_function_of_the_seed():
    pools = wl.Pools(MG)
    for workload in wl.WORKLOADS:
        a = wl.make_batch(MG, pools, workload, 5, 2, scale=0.1)
        assert a == wl.make_batch(MG, pools, workload, 5, 2, scale=0.1)
        assert a != wl.make_batch(MG, pools, workload, 6, 2, scale=0.1)


def test_off_by_one_witness_is_a_failed_call(tmp_path):
    runner = wl.Runner(MG, ORACLES, tmp_path, reference={})
    call = ("represents", 5, (1, 1, 1, 1, 1), 1000, "nonneg")
    good = runner.execute(call)
    assert runner.check(call, good) is None
    bad = (good[0] + 1,) + good[1:]
    assert runner.check(call, bad) is not None

    fk = ("feasible_k", 5, (1, 1, 1), 3000, 60)
    found = runner.execute(fk)
    assert found and runner.check(fk, found) is None
    k, w = found[0]
    assert runner.check(fk, [(k, (w[0] + 1,) + w[1:])] + found[1:]) is not None


def test_reference_digest_mismatch_is_a_failed_call(tmp_path):
    call = ("lr", 8, (1, 2, 3), 12345)
    runner = wl.Runner(MG, ORACLES, tmp_path, reference={wl.call_key(call): "0" * 20})
    assert runner.check(call, runner.execute(call)) == "differs from the reference digest"


@pytest.mark.parametrize("trace", ["0", "1"])
def test_injected_wrong_witness_fails_the_run(tmp_path, monkeypatch, trace):
    real = MG.represents

    def off_by_one(form, n, domain=MG.Domain.NONNEG):
        w = real(form, n, domain)
        return None if w is None else (w[0] + 1,) + w[1:]

    monkeypatch.setattr(MG, "represents", off_by_one)
    args = bench_run.parse_args(
        ["--workload", "witness_queries", "--seed", "1", "--seconds", "0", "--trace", trace, "--scale", "0.2"]
    )
    result = bench_run.run(args, ROOT, tmp_path)
    assert result["failed"] > 0 and result["correct"] is False


def test_tracer_restores_every_binding_and_computes_self_time():
    before = {name: getattr(MG, name) for name in ("represents", "polygonal_values")}
    tracer = Tracer(MG)
    tracer.install()
    assert MG.represent.polygonal_values is MG.forms.polygonal_values
    assert MG.represent.polygonal_values.__wrapped__ is before["polygonal_values"]
    with tracer.recording():
        MG.truant_up_to(MG.MgonalForm(5, (1, 1, 1)), 500)
    tracer.uninstall()
    assert {name: getattr(MG, name) for name in before} == before
    assert MG.represent.polygonal_values is MG.forms.polygonal_values
    names = [s.name for s in tracer.spans]
    assert names[:2] == ["represent.truant_up_to", "represent.represented_set"]
    assert names.count("forms.polygonal_values") == 3
    self_t = tracer.self_times()
    total = tracer.spans[0].end - tracer.spans[0].start
    assert 0 <= self_t[0] <= total
    assert abs(sum(self_t) - total) < 1e-9
