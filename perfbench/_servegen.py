"""Load generator process for the ``serve`` workload.

Run by ``_serve.py`` as its own process.  It regenerates the served
input from the seed, opens two protocol-v2 ``IngestClient`` gateways
(each owning half of the stations) through seeded ``ChaosTransport``
fault injection, and reports ``READY <connect seconds>`` on stdout.  It
then reads the schedule's start time ``t0`` (a ``time.monotonic()``
value; CLOCK_MONOTONIC is shared by every process on the machine) from
stdin and sends tick ``t`` of each gateway's column with ``send_block``
when it falls due at ``t0 + t / rate`` — an open loop: a slow server
does not slow the schedule, it makes the generator's sends queue up.
When every reading has a terminal ack it prints one JSON summary line.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time

import numpy as np

import _common

_common.use_program_sources()

from _serve import GATEWAYS  # noqa: E402
from _stream import make_inputs  # noqa: E402
from _tracing import Tracer, install_client_wrappers, stage_table  # noqa: E402
from repro.serve import ChaosTransport, IngestClient, TcpTransport  # noqa: E402
from repro.serve.protocol import AckStatus  # noqa: E402


async def run(args: argparse.Namespace) -> dict:
    segment = make_inputs(args.seed, args.stations, args.input_ticks, dropout=0.0).segment
    tracer = None
    if args.trace:
        tracer = Tracer(f"serve-gen-{args.seed}")
        tracer.phase = "measure"
        install_client_wrappers(tracer)

    halves = np.array_split(np.arange(args.stations), GATEWAYS)
    clients = []
    start = time.perf_counter()
    for i in range(GATEWAYS):
        transport = ChaosTransport(
            TcpTransport("127.0.0.1", args.port),
            drop=args.fault,
            duplicate=args.fault,
            reorder=args.fault,
            delay=args.fault,
            seed=args.seed * 7919 + i,
        )
        client = IngestClient(
            client_id=f"gateway-{i}",
            transport=transport,
            seed=args.seed + i,
            max_attempts=40,
        )
        await client.connect()
        clients.append(client)
    connect_s = time.perf_counter() - start
    print(f"READY {connect_s!r}", flush=True)
    t0 = float(await asyncio.get_running_loop().run_in_executor(None, sys.stdin.readline))

    lags: list[float] = []

    async def gateway(client: IngestClient, stations: np.ndarray) -> None:
        for tick in range(args.ticks):
            due = t0 + tick / args.rate
            wait = due - time.monotonic()
            if wait > 0:
                await asyncio.sleep(wait)
            lags.append(time.monotonic() - due)
            await client.send_block(stations, tick, segment[stations, tick])
        await client.drain(timeout=120.0)

    gen_start = time.perf_counter()
    await asyncio.gather(*(gateway(c, s) for c, s in zip(clients, halves, strict=True)))
    gen_wall = time.perf_counter() - gen_start
    for client in clients:
        await client.close()

    statuses = [status for c in clients for status in c.ack_log.values()]
    summary = {
        "connect_s": connect_s,
        "gen_wall_s": gen_wall,
        "lag_p50_s": float(np.percentile(lags, 50)),
        "lag_p99_s": float(np.percentile(lags, 99)),
        "lag_samples": len(lags),
        "acks": {
            "accepted": sum(s == AckStatus.OK for s in statuses),
            "duplicate": sum(s == AckStatus.DUPLICATE for s in statuses),
            "late": sum(s == AckStatus.LATE for s in statuses),
            "busy": sum(c.busy_count for c in clients),
        },
        "ack_entries": sum(len(c.ack_log) for c in clients),
        "retransmits": sum(c.retransmits for c in clients),
    }
    if tracer is not None:
        tracer.restore()
        summary["trace"] = {
            "table": stage_table(tracer.spans, "measure", gen_wall),
            "counts": dict(tracer.counts["measure"]),
        }
    return summary


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--stations", type=int, required=True)
    parser.add_argument("--ticks", type=int, required=True, help="ticks to send")
    parser.add_argument("--input-ticks", type=int, required=True, help="length of the generated input")
    parser.add_argument("--rate", type=float, required=True, help="ticks per second")
    parser.add_argument("--fault", type=float, required=True, help="rate of each transport fault")
    parser.add_argument("--trace", type=int, default=0)
    summary = asyncio.run(run(parser.parse_args()))
    print(json.dumps(summary), flush=True)


if __name__ == "__main__":
    main()
