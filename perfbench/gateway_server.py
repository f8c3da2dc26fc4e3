"""The gateway server process of the ``gateway-serve`` workload.

Builds the service from the workload's example bank, starts an
``AsyncGateway`` on an ephemeral loopback port and prints ``READY <port>``.
Set-up time runs from service construction to the bound socket; interpreter
start and imports are excluded.  On SIGTERM the gateway drains through its
own signal handler, and this script writes what the server side measured
(set-up time, per-request routing time, peak RSS, spans when tracing) to the
``--out`` file.  Run by ``workloads.run_gateway_pass``, never by hand.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.gateway import AsyncGateway, GatewaySession  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    SPECS,
    DecisionTimer,
    build_service,
    cluster_config,
    make_bank,
    rss_peak_mb,
)


async def serve(args) -> dict:
    spec = SPECS[args.workload]
    if args.scale != 1.0:
        spec = spec.scaled(args.scale)
    bank = make_bank(spec)
    tracer = Tracer() if args.trace else None
    timer = DecisionTimer()

    start = time.perf_counter()
    service = build_service(spec)
    service.seed_cache(bank)
    # The session binds its router at construction; hand it a timed one.
    timed_route = timer.single(service.cluster_router())
    service.cluster_router = lambda: timed_route
    gateway = AsyncGateway(GatewaySession(service, cluster_config(service)))
    with tracer.installed() if tracer else contextlib.nullcontext():
        await gateway.start()
        setup_s = time.perf_counter() - start
        gateway.install_signal_handlers()
        print(f"READY {gateway.port}", flush=True)
        await gateway.serve_forever()
    return {
        "setup_s": setup_s,
        "setup": {"attempted": len(bank), "succeeded": len(bank)},
        # One client in a closed loop: insertion order is stream order.
        "decide_s": list(timer.decide.values()),
        "rss_mb": rss_peak_mb(),
        "small_name": service.small_name,
        "spans": tracer.spans if tracer else None,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args()
    result = asyncio.run(serve(args))
    args.out.write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
