"""The benchmark's workloads: seeded inputs and one measured pass of each.

A *pass* is the unit of work a run repeats: build the service from scratch
(timed as set-up), serve a warm-up prefix of the trace, then serve the rest
(the measured phase).  Every pass of one seed serves identical inputs, so
its decisions are identical too; the run checks that.

* ``gateway-serve`` — a gateway server process (``gateway_server.py``) and
  this process as its one client: a closed loop of ``/serve`` calls over one
  keep-alive connection.  Each logical arrival stamp is the previous
  completion plus a seeded think time.
* ``batch-grow`` — in process: ``ClusterSimulator`` with
  ``BatchedRetrievalEngine(max_batch=16)``.  Arrivals come in bursts of 16,
  1 ms apart, so every batch flushes full while the cluster stays below
  saturation.  No byte budget, so the pool grows with each admission.
* ``churn-durable`` — in process: the per-request router on lmsys_chat with a
  byte budget below the bank, so admissions evict; maintenance ticks decay,
  evict and replay while checkpoint ticks snapshot and the WAL journals.

Inputs come only from the seed: the program under test receives the
generated requests and never sees the seed.  Every pass of a run serves the
same inputs, so passes differ only by the machine's timing noise.
"""

from __future__ import annotations

import asyncio
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from repro.core.config import ICCacheConfig, ManagerConfig
from repro.core.service import ICCacheService
from repro.gateway import GatewayClient, request_to_payload
from repro.persistence.wal import Checkpointer
from repro.runtime.sources import (
    BatchFlushSource,
    CheckpointTickSource,
    MaintenanceTickSource,
    TraceArrivalSource,
)
from repro.serving.cluster import ClusterConfig, ClusterSimulator, ModelDeployment
from repro.serving.engine import BatchedRetrievalEngine, BatchPolicy
from repro.workload.datasets import SyntheticDataset, get_profile

from hostspeed import SETUP_PROBES, Gauge
from tracing import Tracer, merge_process_spans

#: The service's own seed is configuration, fixed for every workload seed.
SERVICE_SEED = 0
#: Each workload's dataset (its topic model), example bank and set of
#: requests are fixed; the run seed orders the requests and draws their
#: arrival gaps.  Seeding the dataset itself made every seed a different
#: traffic mix, and the figures spread with the mix rather than the code.
DATASET_SEED = 0
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Requests served between two host-speed probes of a measured phase.
PROBE_EVERY = 16


@dataclass(frozen=True)
class Spec:
    """Sizes and shape of one workload (see the module docstring)."""

    name: str
    dataset: str
    bank: int                  # examples seeded into the cache at set-up
    requests: int              # requests served per pass (warm-up included)
    warmup: int                # leading requests served before timing
    gap_s: float               # mean logical inter-arrival (or think) time
    burst: int = 1             # arrivals per burst, 1 ms apart
    max_batch: int = 0         # 0 = per-request router
    capacity_bytes: int | None = None
    maintenance_s: float = 0.0  # maintenance tick interval (0 = none)
    checkpoint_s: float = 0.0   # checkpoint tick interval (0 = none)

    def scaled(self, factor: float) -> "Spec":
        """A smaller copy for tests: every count times ``factor``."""
        def shrink(n: int) -> int:
            return max(8, int(n * factor))
        capacity = (None if self.capacity_bytes is None
                    else int(self.capacity_bytes * factor))
        return replace(self, bank=shrink(self.bank),
                       requests=shrink(self.requests),
                       warmup=max(2, int(self.warmup * factor)),
                       capacity_bytes=capacity)


SPECS = {
    "gateway-serve": Spec(
        name="gateway-serve", dataset="ms_marco", bank=3000, requests=1400,
        warmup=200, gap_s=0.05),
    "batch-grow": Spec(
        name="batch-grow", dataset="ms_marco", bank=2000, requests=1008,
        warmup=160, gap_s=0.1, burst=16, max_batch=16),
    "churn-durable": Spec(
        name="churn-durable", dataset="lmsys_chat", bank=2000, requests=600,
        warmup=100, gap_s=0.3, capacity_bytes=600_000, maintenance_s=20.0,
        checkpoint_s=60.0),
}


def _dataset(spec: Spec) -> SyntheticDataset:
    """The workload's traffic mix: one fixed topic model per workload."""
    profile = get_profile(spec.dataset)
    return SyntheticDataset(spec.dataset, scale=spec.bank / profile.example_size,
                            seed=DATASET_SEED)


def make_bank(spec: Spec) -> list:
    """The example bank: the workload's first ``spec.bank`` historical
    requests.  It is part of the deployment, so it is the same for every
    seed and every set-up does the same work."""
    return _dataset(spec).generate_requests(spec.bank, split="history")


def make_stream(spec: Spec, seed: int) -> tuple[list, list[float]]:
    """The seeded request stream and its logical inter-arrival gaps.

    The stream is the workload's online requests in a seeded order.  Gaps
    are exponential; with ``spec.burst > 1`` requests arrive in bursts of
    that many, 1 ms apart, with exponential gaps between bursts.
    """
    online = _dataset(spec).online_requests(spec.requests)
    order = np.random.default_rng([seed, 2]).permutation(spec.requests)
    requests = [online[i] for i in order]
    gaps = np.random.default_rng([seed, 3]).exponential(
        spec.gap_s * spec.burst, spec.requests)
    gaps[np.arange(spec.requests) % spec.burst != 0] = 0.001
    return requests, [float(g) for g in gaps]


def fresh(requests: list) -> list:
    """Per-pass copies, so no pass sees state a previous one left behind."""
    return [replace(r, metadata=dict(r.metadata))
            for r in requests]


def build_service(spec: Spec) -> ICCacheService:
    return ICCacheService(ICCacheConfig(
        seed=SERVICE_SEED,
        manager=ManagerConfig(capacity_bytes=spec.capacity_bytes),
    ))


def cluster_config(service: ICCacheService) -> ClusterConfig:
    return ClusterConfig(deployments=[
        ModelDeployment(service.models[service.small_name], replicas=2),
        ModelDeployment(service.models[service.large_name], replicas=1),
    ])


def rss_peak_mb() -> float:
    """Peak resident set of this process, MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Phase:
    """Request accounting of one phase."""

    attempted: int = 0
    succeeded: int = 0
    failed: int = 0
    shed: int = 0            # deliberate queue-depth shedding (503)
    rate_limited: int = 0    # deliberate token-bucket refusals (429)

    def add(self, other: "Phase") -> None:
        for key in vars(self):
            setattr(self, key, getattr(self, key) + getattr(other, key))


@dataclass
class PassResult:
    """Everything one pass measured and produced."""

    setup_s: float
    setup: Phase
    warmup: Phase
    measured: Phase
    wall_s: float                      # measured phase, wall seconds
    completed: int                     # completions inside the measured phase
    decide_s: list[float]              # per measured request
    req_s: list[float]                 # per measured request
    decisions: list[tuple]             # (id, model, n_examples, quality)
    fidelity: dict
    rss_mb: float
    spans: list | None = None
    batch_sizes: list[int] = field(default_factory=list)  # measured phase
    snapshot_bytes: int = 0            # last snapshot plus its sidecar
    # Host-speed adjustment factors (``hostspeed.py``) of the set-up and of
    # the measured phase; traced passes do not probe and are not adjusted.
    setup_factor: float = 1.0
    factor: float = 1.0


class DecisionTimer:
    """Times the routing calls and completion callbacks of one pass.

    A batch call's time is charged to every member of the batch.
    """

    def __init__(self) -> None:
        self.decide: dict[str, float] = {}
        self.complete: dict[str, float] = {}
        self.batch_sizes: list[int] = []

    def single(self, route):
        def timed(request, sim):
            start = time.perf_counter()
            decision = route(request, sim)
            self.decide[request.request_id] = time.perf_counter() - start
            return decision
        return timed

    def batch(self, route_batch):
        def timed(requests, sim):
            start = time.perf_counter()
            decisions = route_batch(requests, sim)
            elapsed = time.perf_counter() - start
            self.batch_sizes.append(len(requests))
            for request in requests:
                self.decide[request.request_id] = elapsed
            return decisions
        return timed

    def completion(self, on_complete):
        def timed(request, record):
            start = time.perf_counter()
            on_complete(request, record)
            self.complete[request.request_id] = time.perf_counter() - start
        return timed


def fidelity(records, small_name: str, slo: dict) -> dict:
    """The paper's serving outcomes of one pass; exact for a given seed."""
    n = len(records)
    return {
        "offload_ratio": sum(r["model_name"] == small_name
                             for r in records) / n,
        "quality_mean": sum(r["quality"] for r in records) / n,
        "cost_per_request": sum(r["cost"] for r in records) / n,
        "sim_ttft_p99_s": slo["ttft_s"]["p99"],
    }


def decision_tuple(record: dict) -> tuple:
    return (record["request_id"], record["model_name"],
            int(record["n_examples"]), float(record["quality"]))


def _phases(spec: Spec, requests, served: set, shed: set,
            limited: set) -> tuple[Phase, Phase]:
    """Warm-up and measured accounting, by each request's stream position."""
    warm, measured = Phase(), Phase()
    for i, request in enumerate(requests):
        phase = warm if i < spec.warmup else measured
        phase.attempted += 1
        if request.request_id in served:
            phase.succeeded += 1
        elif request.request_id in shed:
            phase.shed += 1
        elif request.request_id in limited:
            phase.rate_limited += 1
        else:
            phase.failed += 1
    return warm, measured


def _measure_probed(sim, times: list[float], warmup: int,
                    gauge: Gauge) -> float:
    """Serve the measured phase in chunks of ``PROBE_EVERY`` arrivals with a
    host-speed probe before each; return its wall time without the probes."""
    wall = 0.0
    for i in range(warmup + PROBE_EVERY, len(times), PROBE_EVERY):
        gauge.sample()
        t0 = time.perf_counter()
        sim.advance_to(times[i])
        wall += time.perf_counter() - t0
    gauge.sample()
    t0 = time.perf_counter()
    sim.run_pending()
    return wall + time.perf_counter() - t0


def run_inprocess_pass(spec: Spec, inputs: dict, workdir: Path,
                       tracer: Tracer | None = None) -> PassResult:
    """One pass of ``batch-grow`` or ``churn-durable``."""
    bank, requests = fresh(inputs["bank"]), fresh(inputs["requests"])
    gaps = inputs["gaps"]
    arrivals = list(zip(np.cumsum(gaps).tolist(), requests))
    horizon = arrivals[-1][0]
    if workdir.exists():
        shutil.rmtree(workdir)

    setup_gauge = Gauge()
    setup_gauge.sample(SETUP_PROBES)
    start = time.perf_counter()
    service = build_service(spec)
    service.seed_cache(bank)
    checkpointer = None
    if spec.checkpoint_s:
        checkpointer = Checkpointer(service, workdir)
        checkpointer.checkpoint()
    setup_s = time.perf_counter() - start
    setup_gauge.sample(SETUP_PROBES)
    setup = Phase(attempted=len(bank), succeeded=len(bank))

    timer = DecisionTimer()
    sim = ClusterSimulator(cluster_config(service))
    if spec.max_batch:
        engine = BatchedRetrievalEngine(
            timer.batch(service.cluster_batch_router()),
            BatchPolicy(max_batch=spec.max_batch, max_wait_s=0.05))
        sink = BatchFlushSource(engine)
        sources = [TraceArrivalSource(arrivals, sink=sink), sink]
    else:
        sources = [TraceArrivalSource(arrivals,
                                      router=timer.single(
                                          service.cluster_router()))]
    if spec.maintenance_s:
        sources.append(MaintenanceTickSource(
            service, interval_s=spec.maintenance_s, horizon_s=horizon))
    if checkpointer is not None:
        sources.append(CheckpointTickSource(
            checkpointer, interval_s=spec.checkpoint_s, horizon_s=horizon))
    sim.start_sources(sources,
                      on_complete=timer.completion(service.on_complete))

    sim.advance_to(arrivals[spec.warmup][0])          # warm-up phase
    done_before = len(sim.report.records)
    batches_before = len(timer.batch_sizes)
    if tracer is None:
        gauge = Gauge()
        wall = _measure_probed(sim, [t for t, _ in arrivals], spec.warmup,
                               gauge)
    else:
        with tracer.installed(), tracer.root():
            t0 = time.perf_counter()
            sim.run_pending()
            wall = time.perf_counter() - t0
    snapshot_bytes = 0
    if checkpointer is not None:
        checkpointer.detach()
        snapshot_bytes = sum(
            p.stat().st_size for p in workdir.glob("snapshot.json*"))
        shutil.rmtree(workdir)

    records = [vars(r) for r in sim.report.records]
    warm, measured = _phases(
        spec, requests, {r["request_id"] for r in records},
        {e.request_id for e in sim.report.shed},
        {e.request_id for e in sim.report.rate_limited})
    measured_ids = [r.request_id for r in requests[spec.warmup:]]
    decide = [timer.decide[i] for i in measured_ids if i in timer.decide]
    req = [timer.decide[i] + timer.complete[i] for i in measured_ids
           if i in timer.decide and i in timer.complete]
    return PassResult(
        setup_s=setup_s, setup=setup, warmup=warm, measured=measured,
        wall_s=wall, completed=len(records) - done_before,
        decide_s=decide, req_s=req,
        decisions=[decision_tuple(r) for r in records],
        fidelity=fidelity(records, service.small_name,
                          sim.report.slo_report()),
        rss_mb=rss_peak_mb(), spans=tracer.spans if tracer else None,
        batch_sizes=timer.batch_sizes[batches_before:],
        snapshot_bytes=snapshot_bytes, setup_factor=setup_gauge.factor(),
        factor=gauge.factor() if tracer is None else 1.0)


# -- gateway-serve: a server process and this process as its client ---------

def server_command(spec: Spec, out: Path, trace: bool,
                   scale: float) -> list[str]:
    return [sys.executable, str(HERE / "gateway_server.py"),
            "--workload", spec.name, "--out", str(out),
            "--trace", "1" if trace else "0", "--scale", repr(scale)]


async def _drive(port: int, spec: Spec, requests, gaps,
                 tracer: Tracer | None, gauge: Gauge | None) -> dict:
    """The closed loop: one ``/serve`` at a time on one connection.

    With a ``gauge``, a host-speed probe runs before every ``PROBE_EVERY``-th
    measured call, while the server is idle; its time is not measured.
    """
    records: list[dict] = []
    rtt: dict[str, float] = {}
    refused: dict[str, int] = {}     # request id -> status (0: exception)
    stamp = 0.0
    async with GatewayClient("127.0.0.1", port) as client:
        async def serve(i: int, request) -> None:
            nonlocal stamp
            stamp += gaps[i]
            payload = request_to_payload(request, stamp)
            traced = tracer is not None and i >= spec.warmup
            try:
                with tracer.span("gateway.transport") if traced else \
                        nullcontext():
                    t0 = time.perf_counter()
                    resp = await client.post("/serve", payload)
                    elapsed = time.perf_counter() - t0
            except Exception as exc:    # counted as a failed request
                refused[request.request_id] = 0
                print(f"/serve {request.request_id} raised {exc!r}",
                      file=sys.stderr)
                return
            record = resp.payload.get("record") if resp.status == 200 else None
            if record is None or record["request_id"] != request.request_id:
                refused[request.request_id] = resp.status
                return
            records.append(record)
            rtt[request.request_id] = elapsed
            # Closed loop in logical time: the next arrival follows this
            # completion after the next think gap.
            stamp = max(stamp, record["finish_s"])

        for i in range(spec.warmup):
            await serve(i, requests[i])
        done_before = len(records)
        probing = 0.0
        t0 = time.perf_counter()
        with tracer.root() if tracer else nullcontext():
            for i in range(spec.warmup, len(requests)):
                if gauge is not None and (i - spec.warmup) % PROBE_EVERY == 0:
                    p0 = time.perf_counter()
                    gauge.sample()
                    probing += time.perf_counter() - p0
                await serve(i, requests[i])
        wall = time.perf_counter() - t0 - probing
        slo = (await client.get("/stats")).payload["slo"]
        drained = await client.post("/drain")
        if drained.status != 200:
            raise RuntimeError(f"gateway drain failed: {drained.payload}")
    return {"records": records, "rtt": rtt, "refused": refused,
            "wall": wall, "slo": slo,
            "completed": len(records) - done_before}


def run_gateway_pass(spec: Spec, inputs: dict, workdir: Path,
                     tracer: Tracer | None = None) -> PassResult:
    """One pass of ``gateway-serve``: start a server, drive it, stop it.

    The server makes the bank itself; this process sends the request
    stream.
    """
    requests, gaps = inputs["requests"], inputs["gaps"]
    workdir.mkdir(parents=True, exist_ok=True)
    out = workdir / "server.json"
    if out.exists():
        out.unlink()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    setup_gauge = Gauge()
    setup_gauge.sample(SETUP_PROBES)
    proc = subprocess.Popen(
        server_command(spec, out, tracer is not None, inputs["scale"]),
        stdout=subprocess.PIPE, cwd=ROOT, env=env, text=True)
    try:
        ready = proc.stdout.readline().split()
        if len(ready) != 2 or ready[0] != "READY":
            raise RuntimeError(f"gateway server did not start: {ready!r}")
        setup_gauge.sample(SETUP_PROBES)
        gauge = Gauge() if tracer is None else None
        driven = asyncio.run(_drive(int(ready[1]), spec, requests, gaps,
                                    tracer, gauge))
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise RuntimeError(f"gateway server exited with {proc.returncode}")
    server = json.loads(out.read_text(encoding="utf-8"))
    out.unlink()

    records = driven["records"]
    refused = driven["refused"]
    # Deliberate refusals (503 shed, 429 rate limit) are not failures;
    # any other reply without the request's own record is.
    warm, measured = _phases(
        spec, requests, {r["request_id"] for r in records},
        {i for i, status in refused.items() if status == 503},
        {i for i, status in refused.items() if status == 429})
    decide = server["decide_s"][spec.warmup:]
    measured_ids = [r.request_id for r in requests[spec.warmup:]]
    req = [driven["rtt"][i] for i in measured_ids if i in driven["rtt"]]
    spans = None
    if tracer is not None:
        spans = merge_process_spans(tracer.spans, server["spans"])
    return PassResult(
        setup_s=server["setup_s"], setup=Phase(**server["setup"]),
        warmup=warm, measured=measured, wall_s=driven["wall"],
        completed=driven["completed"], decide_s=decide, req_s=req,
        decisions=[decision_tuple(r) for r in records],
        fidelity=fidelity(records, server["small_name"], driven["slo"]),
        rss_mb=server["rss_mb"], spans=spans,
        setup_factor=setup_gauge.factor(),
        factor=gauge.factor() if gauge is not None else 1.0)


def make_inputs(spec: Spec, seed: int, scale: float = 1.0) -> dict:
    """Everything a run's passes serve, generated once per run.

    The gateway server draws its own bank, so only the stream is made here
    for ``gateway-serve``.
    """
    requests, gaps = make_stream(spec, seed)
    bank = None if spec.name == "gateway-serve" else make_bank(spec)
    return {"scale": scale, "bank": bank,
            "requests": requests, "gaps": gaps}


def run_pass(spec: Spec, inputs: dict, workdir: Path,
             tracer: Tracer | None = None) -> PassResult:
    if spec.name == "gateway-serve":
        return run_gateway_pass(spec, inputs, workdir, tracer)
    return run_inprocess_pass(spec, inputs, workdir, tracer)
