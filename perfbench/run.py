"""The repo benchmark: one command, three workloads, correctness-checked.

Run from the repository root::

    python3 perfbench/run.py --workload gateway-serve --seed 1 --seconds 10 --trace 0

A run repeats *passes* of the workload (see ``workloads.py``) until it has
run for ``--seconds`` and at least three set-ups were timed.  With
``--trace 0`` it prints every end-to-end metric; with ``--trace 1`` it
alternates untraced and traced passes and prints the per-layer metrics,
writing the spans to ``.perfbench/``.  Every pass of a
seed must make identical decisions, and seeds recorded in ``digests.json``
must reproduce the recorded digest and fidelity values exactly; otherwise
the result says ``"correct": false`` and the exit code is 1.  The last line
of output is one JSON object.  ``README.md`` next to this file defines
every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
OUT_DIR = ROOT / ".perfbench"
MIN_PASSES = 3
#: Stop starting passes once a run has used this much wall time, even
#: short of MIN_PASSES, so that a run on a slow host still ends in time.
WALL_BUDGET_S = 120.0


def _import_program():
    """Put the checkout's ``src`` first on the path; fail if it is absent."""
    package = ROOT / "src" / "repro" / "__init__.py"
    if not package.is_file():
        raise SystemExit(f"error: {package.relative_to(ROOT)} not found; "
                         "run from a full checkout of the repository")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import repro
    if Path(repro.__file__).resolve().parent != package.parent.resolve():
        raise SystemExit(f"error: imported repro from {repro.__file__}, "
                         "not from this checkout")


def digest(decisions) -> str:
    """SHA-256 over (request id, model, example count, quality bits)."""
    h = hashlib.sha256()
    for request_id, model, n_examples, quality in decisions:
        h.update(f"{request_id}|{model}|{n_examples}|{quality.hex()}\n"
                 .encode("utf-8"))
    return h.hexdigest()


def pass_outcome(result) -> dict:
    return {"digest": digest(result.decisions), "fidelity": result.fidelity}


def check(outcomes: list[dict], recorded: dict | None) -> list[str]:
    """Every pass agrees, and matches the recorded outcome if there is one."""
    errors = []
    for i, outcome in enumerate(outcomes[1:], start=1):
        if outcome != outcomes[0]:
            errors.append(f"pass {i} diverged from pass 0: {outcome} != "
                          f"{outcomes[0]}")
    if recorded is not None and outcomes and outcomes[0] != recorded:
        errors.append(f"outcome {outcomes[0]} does not match the recorded "
                      f"{recorded}")
    return errors


def percentile_ms(values: list[float], q: float) -> float:
    import numpy as np
    return float(np.percentile(values, q)) * 1e3


#: The timed end-to-end metrics, per pass: name -> (unit, value of a pass),
#: adjusted to the reference host speed (``hostspeed.py``).
TIMINGS = {
    "setup_s": ("s", lambda r: r.setup_s * r.setup_factor),
    "throughput_rps": ("req/s",
                       lambda r: r.completed / (r.wall_s * r.factor)),
    "req_p50_ms": ("ms", lambda r: percentile_ms(r.req_s, 50) * r.factor),
    "decide_p50_ms": ("ms",
                      lambda r: percentile_ms(r.decide_s, 50) * r.factor),
}


def end_to_end(results) -> dict:
    """The ``--trace 0`` metrics over the run's passes.

    Every pass does identical work, so two passes differ only by the
    machine's timing noise.  Each timing is the median over the passes of
    its host-speed-adjusted value.
    """
    metrics = {name: (statistics.median(of(r) for r in results), unit)
               for name, (unit, of) in TIMINGS.items()}
    fid = results[0].fidelity
    metrics.update({
        "rss_peak_mb": (statistics.median(r.rss_mb for r in results), "MiB"),
        "offload_ratio": (fid["offload_ratio"], "ratio"),
        "quality_mean": (fid["quality_mean"], "score"),
    })
    return metrics


def pooled_layers(traced) -> dict:
    from tracing import layer_table
    pooled: dict[str, dict] = {}
    for result in traced:
        for layer, row in layer_table(result.spans).items():
            acc = pooled.setdefault(layer, {"calls": 0, "items": 0,
                                            "self_s": 0.0, "total_s": 0.0,
                                            "max_s": 0.0})
            for key in ("calls", "items", "self_s", "total_s"):
                acc[key] += row[key]
            acc["max_s"] = max(acc["max_s"], row["max_s"])
    return pooled


def overhead_ratio(traced, untraced) -> float:
    """Wall of the traced passes over the untraced passes they alternate
    with, so host slow phases fall on both sides alike.  The first round
    is left out when there are more: its untraced pass is the process's
    first and pays one-time costs."""
    rounds = list(zip(traced, untraced))
    rounds = rounds[1:] or rounds
    return (sum(t.wall_s for t, _ in rounds)
            / sum(u.wall_s for _, u in rounds))


def per_layer(traced, untraced, max_batch: int) -> tuple[dict, dict]:
    """The ``--trace 1`` metrics, from the traced passes' pooled spans."""
    table = pooled_layers(traced)
    empty = {"calls": 0, "items": 0, "self_s": 0.0, "total_s": 0.0,
             "max_s": 0.0}

    def row(layer):
        return table.get(layer, empty)

    n = sum(r.completed for r in traced)
    passes = len(traced)

    def us(layer):          # self microseconds per request
        return row(layer)["self_s"] * 1e6 / n

    def per_call_ms(layer, key="total_s"):
        r = row(layer)
        return r[key] * 1e3 / r["calls"] if r["calls"] else 0.0

    search, dedupe = row("vectorstore.search"), row("manager.dedupe")
    admit, evict = row("manager.admit"), row("manager.evict")
    wal = row("persistence.wal")
    batches = [b for r in traced for b in r.batch_sizes]
    metrics = {
        "gateway.transport_us": (us("gateway.transport"), "us/req"),
        "gateway.codec_us": (us("gateway.codec"), "us/req"),
        "gateway.session_us": (us("gateway.session"), "us/req"),
        "pipeline.self_us": (us("pipeline"), "us/req"),
        "embedding.embed_us": (us("embedding"), "us/req"),
        "vectorstore.search_us": (
            (search["self_s"] + dedupe["self_s"]) * 1e6 / n, "us/req"),
        "vectorstore.searches_per_req": (
            (search["calls"] + dedupe["calls"]) / n, "calls/req"),
        "vectorstore.retrain_count": (
            row("vectorstore.retrain")["calls"] / passes, "fits/pass"),
        "vectorstore.retrain_ms_total": (
            row("vectorstore.retrain")["total_s"] * 1e3 / passes, "ms/pass"),
        "vectorstore.retrain_ms_max": (
            row("vectorstore.retrain")["max_s"] * 1e3, "ms/fit"),
        "selector.stage2_us": (us("selector.stage2"), "us/req"),
        "selector.combine_us": (us("selector.combine"), "us/req"),
        "selector.examples_per_req": (
            row("selector.combine")["items"] / n, "examples/req"),
        "router.route_us": (us("router"), "us/req"),
        "llm.generate_us": (us("llm"), "us/req"),
        "llm.calls_per_req": (row("llm")["calls"] / n, "calls/req"),
        "learn.us": (us("learn"), "us/req"),
        "manager.admit_us": (us("manager.admit"), "us/req"),
        "manager.dedupe_us": (us("manager.dedupe"), "us/req"),
        "manager.admit_ratio": (
            admit["items"] / admit["calls"] if admit["calls"] else 0.0,
            "ratio"),
        "manager.evict_us_per_pass": (
            per_call_ms("manager.evict", "self_s") * 1e3, "us/pass"),
        "manager.evicted_per_pass": (
            evict["items"] / evict["calls"] if evict["calls"] else 0.0,
            "examples/pass"),
        "manager.maintenance_ms": (per_call_ms("manager.maintenance"),
                                   "ms/tick"),
        "manager.replay_ms": (per_call_ms("manager.replay"), "ms/pass"),
        "persistence.wal_records_per_req": (wal["calls"] / n, "records/req"),
        "persistence.wal_us_per_record": (
            wal["self_s"] * 1e6 / wal["calls"] if wal["calls"] else 0.0,
            "us/record"),
        "persistence.checkpoint_ms": (per_call_ms("persistence.checkpoint"),
                                      "ms/checkpoint"),
        "persistence.snapshot_bytes": (
            statistics.median(r.snapshot_bytes for r in traced), "bytes"),
        "serving.batch_fill": (
            statistics.fmean(batches) / max_batch if batches else 0.0,
            "ratio"),
        "runtime.self_us": (us("runtime"), "us/req"),
        "unattributed_us": (us("root"), "us/req"),
        "trace.overhead_ratio": (overhead_ratio(traced, untraced), "ratio"),
    }
    return metrics, table


def _load_digests(path: Path) -> dict:
    if path.is_file():
        return json.loads(path.read_text(encoding="utf-8"))
    return {"workloads": {}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="IC-Cache repo benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", required=True,
                        choices=["gateway-serve", "batch-grow",
                                 "churn-durable"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every workload size (tests)")
    parser.add_argument("--record", action="store_true",
                        help="run one pass and record this seed's outcome")
    args = parser.parse_args(argv)

    # The serving process is single-threaded Python; BLAS threads would only
    # contend with it (and with the gateway's client) for the two cores.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    _import_program()
    from tracing import Tracer
    from workloads import SPECS, Phase, make_inputs, run_pass

    spec = SPECS[args.workload]
    if args.scale != 1.0:
        spec = spec.scaled(args.scale)
    workdir = OUT_DIR / f"{args.workload}-{os.getpid()}"
    recorded_all = _load_digests(DIGESTS)
    key = str(args.seed) if args.scale == 1.0 else f"{args.seed}@{args.scale}"

    inputs = make_inputs(spec, args.seed, args.scale)
    if args.record:
        outcome = pass_outcome(run_pass(spec, inputs, workdir))
        recorded_all.setdefault("workloads", {}).setdefault(
            args.workload, {})[key] = outcome
        DIGESTS.write_text(json.dumps(recorded_all, indent=1,
                                      sort_keys=True) + "\n",
                           encoding="utf-8")
        print(f"recorded {args.workload} seed {args.seed}: {outcome}")
        return 0

    started = time.perf_counter()
    untraced, traced = [], []
    crashed = None
    try:
        while True:
            untraced.append(run_pass(spec, inputs, workdir))
            if args.trace:
                traced.append(run_pass(spec, inputs, workdir, Tracer()))
            elapsed = time.perf_counter() - started
            enough = elapsed >= args.seconds and (
                args.trace or len(untraced) >= MIN_PASSES)
            if enough or elapsed > WALL_BUDGET_S:
                break
    except Exception as exc:    # still print the accounting, as a failure
        traceback.print_exc()
        crashed = f"a pass raised {exc!r}"
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    results = untraced + traced
    outcomes = [pass_outcome(r) for r in results]
    recorded = recorded_all.get("workloads", {}).get(args.workload, {}).get(key)
    errors = check(outcomes, recorded)
    if spec.name == "gateway-serve":
        for r in results:
            refused = sum(p.failed + p.shed + p.rate_limited
                          for p in (r.warmup, r.measured))
            if refused:
                errors.append(f"{refused} /serve calls did not return 200 "
                              "with their own record")

    phases = {"setup": Phase(), "warmup": Phase(), "measured": Phase()}
    for r in results:
        phases["setup"].add(r.setup)
        phases["warmup"].add(r.warmup)
        phases["measured"].add(r.measured)
    if crashed:
        # The crashed pass's measured requests count as attempted and failed.
        lost = len(inputs["requests"]) - spec.warmup
        phases["measured"].add(Phase(attempted=lost, failed=lost))
        errors.append(crashed)
    print(f"workload {args.workload} seed {args.seed}: {len(untraced)} "
          f"untraced + {len(traced)} traced passes, "
          f"{time.perf_counter() - started:.1f}s")
    for name, phase in phases.items():
        print(f"  {name:9s} attempted={phase.attempted} "
              f"succeeded={phase.succeeded} failed={phase.failed} "
              f"shed_503={phase.shed} rate_limited_429={phase.rate_limited}")
    for i, r in enumerate(untraced):
        print(f"  pass {i:2d}   host factors setup={r.setup_factor:.4f} "
              f"measured={r.factor:.4f}; adjusted " + " ".join(
                  f"{name}={of(r):.6g}" for name, (_, of) in TIMINGS.items()))
    verdict = ("seed not recorded; passes checked against each other"
               if recorded is None else "checked against the recorded outcome")
    if outcomes:
        print(f"  digest {outcomes[0]['digest']} ({verdict})")
        for name, value in outcomes[0]["fidelity"].items():
            print(f"  fidelity {name} = {value!r}")
    for error in errors:
        print(f"  CHECK FAILED: {error}")

    if crashed:
        metrics = {}
    elif args.trace:
        metrics, table = per_layer(traced, untraced, spec.max_batch)
        OUT_DIR.mkdir(exist_ok=True)
        trace_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({
            "layers": table,
            "spans_fields": ["layer", "start", "end", "parent", "items"],
            "spans": traced[-1].spans,
        }), encoding="utf-8")
        print(f"  spans of the last traced pass written to "
              f"{trace_file.relative_to(ROOT)}")
    else:
        metrics = end_to_end(untraced)
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6f} {unit}")

    attempted = phases["measured"].attempted
    failed = phases["measured"].failed
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
