"""The benchmark's own tests, at the smallest sizes.

* every workload runs, in both modes, and prints every metric that
  ``BENCHMARK.json`` names, with its unit;
* a perturbed decision, or a recorded fidelity value that no longer holds,
  fails the run, and so does a request that raises, with its accounting
  still printed;
* traced self times plus the unattributed time add up to the traced wall.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

import run as bench
from tracing import ROOT, Tracer, layer_table, merge_process_spans
from workloads import SPECS, make_inputs, run_pass

SCALE = 0.1
CONTRACT = json.loads((Path(__file__).resolve().parent.parent
                       / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(capsys, workload: str, *extra: str) -> tuple[int, dict]:
    code = bench.main(["--workload", workload, "--seed", "3", "--seconds",
                       "0", "--scale", str(SCALE), *extra])
    last = capsys.readouterr().out.strip().splitlines()[-1]
    return code, json.loads(last)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in CONTRACT["workloads"]])
def test_every_metric_prints_with_its_unit(capsys, tmp_path, monkeypatch,
                                          workload, trace):
    monkeypatch.setattr(bench, "DIGESTS", tmp_path / "none.json")
    code, result = _run(capsys, workload, "--trace", str(trace))
    assert code == 0 and result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = CONTRACT["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}


def test_perturbed_decision_fails_the_run(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "DIGESTS", tmp_path / "digests.json")
    assert bench.main(["--workload", "batch-grow", "--seed", "3",
                       "--scale", str(SCALE), "--record"]) == 0
    capsys.readouterr()
    code, result = _run(capsys, "batch-grow")
    assert code == 0 and result["correct"] is True

    # Nudge one request's quality by one part in 10^12, identically in
    # every pass: the passes still agree, the recorded digest does not.
    from repro.llm.model import SimulatedLLM
    requests = make_inputs(SPECS["batch-grow"].scaled(SCALE), 3)["requests"]
    target = requests[len(requests) // 2].request_id
    generate = SimulatedLLM.generate

    def one_quality_nudged(self, request, examples=None):
        out = generate(self, request, examples)
        if request.request_id == target:
            out = dataclasses.replace(out, quality=out.quality * (1 + 1e-12))
        return out

    monkeypatch.setattr(SimulatedLLM, "generate", one_quality_nudged)
    code, result = _run(capsys, "batch-grow")
    assert code == 1 and result["correct"] is False


def test_a_raising_request_is_counted_failed(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "DIGESTS", tmp_path / "none.json")
    from repro.llm.model import SimulatedLLM
    requests = make_inputs(SPECS["churn-durable"].scaled(SCALE), 3)["requests"]
    target = requests[-1].request_id
    generate = SimulatedLLM.generate

    def raising(self, request, examples=None):
        if request.request_id == target:
            raise RuntimeError("model replica crashed")
        return generate(self, request, examples)

    monkeypatch.setattr(SimulatedLLM, "generate", raising)
    code, result = _run(capsys, "churn-durable")
    assert code == 1 and result["correct"] is False
    assert result["failed"] >= 1 and result["attempted"] >= result["failed"]


def test_recorded_fidelity_mismatch_fails_the_run(capsys, tmp_path,
                                                  monkeypatch):
    digests = tmp_path / "digests.json"
    monkeypatch.setattr(bench, "DIGESTS", digests)
    bench.main(["--workload", "churn-durable", "--seed", "3", "--scale",
                str(SCALE), "--record"])
    recorded = json.loads(digests.read_text(encoding="utf-8"))
    recorded["workloads"]["churn-durable"][f"3@{SCALE}"]["fidelity"][
        "offload_ratio"] += 1e-9
    digests.write_text(json.dumps(recorded), encoding="utf-8")
    capsys.readouterr()
    code, result = _run(capsys, "churn-durable")
    assert code == 1 and result["correct"] is False


@pytest.mark.parametrize("workload", ["churn-durable", "gateway-serve"])
def test_self_times_and_unattributed_add_up_to_wall(tmp_path, workload):
    spec = SPECS[workload].scaled(SCALE)
    result = run_pass(spec, make_inputs(spec, 3, SCALE), tmp_path / "work",
                      Tracer())
    table = layer_table(result.spans)
    roots = [s for s in result.spans if s[0] == ROOT]
    assert len(roots) == 1
    wall = roots[0][2] - roots[0][1]
    assert sum(row["self_s"] for row in table.values()) == pytest.approx(
        wall, rel=1e-9)
    assert table[ROOT]["self_s"] < wall
    assert len(table) > 8     # the layers did report spans
    metrics, _ = bench.per_layer([result], [result], spec.max_batch)
    assert metrics["unattributed_us"][0] == pytest.approx(
        table[ROOT]["self_s"] * 1e6 / result.completed)


def test_merge_grafts_inner_spans_into_the_containing_outer_span():
    outer = [("root", 0.0, 10.0, -1, 1), ("gateway.transport", 1.0, 4.0, 0, 1),
             ("gateway.transport", 5.0, 9.0, 0, 1)]
    inner = [("setup", -5.0, -1.0, -1, 1), ("x", -4.0, -3.0, 0, 1),
             ("a", 2.0, 3.0, -1, 1), ("b", 2.5, 2.7, 2, 1),
             ("c", 6.0, 8.0, -1, 1)]
    merged = merge_process_spans(outer, inner)
    assert [s[0] for s in merged[3:]] == ["a", "b", "c"]
    assert [s[3] for s in merged[3:]] == [1, 3, 2]
    table = layer_table(merged)
    assert sum(r["self_s"] for r in table.values()) == pytest.approx(10.0)
    assert table["gateway.transport"]["self_s"] == pytest.approx(2.0 + 2.0)
