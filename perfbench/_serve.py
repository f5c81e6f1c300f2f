"""The ``serve`` workload: an ingestion server fed by a separate load generator.

This process runs ``IngestionServer`` in front of a single-process engine
(128 stations, ``block_size=8``, ``lateness=4``).  The load comes from
``_servegen.py`` in its own process: two protocol-v2 gateways on a fixed
open-loop tick schedule through 1% each of dropped, duplicated, reordered
and delayed frames.  The schedule sends ``TAIL_TICKS`` ticks beyond the
measured ones so that every measured tick is decided in steady state,
not by the end-of-stream flush.

Flag latency of a tick runs from when it was due at the generator to the
return of the ``step_block`` call that decided it (both read from
CLOCK_MONOTONIC).  After the session, the served flags, scores and
repaired readings must equal an offline ``StreamReplayEngine`` replay of
the served input, with NaN wherever a reading was served as missing.
"""

from __future__ import annotations

import asyncio
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from _common import fit_r2, median, pooled_f1, quantile
from _stream import Pipeline, delivered_frac, fresh_engine
from _tracing import Tracer, install_layer_wrappers, install_server_wrappers
from repro.serve import IngestionServer

STATIONS = 128
GATEWAYS = 2  # load-generator connections, each owning half the stations
BLOCK = 8
LATENESS = 4
TAIL_TICKS = LATENESS + BLOCK
FAULT_RATE = 0.01
#: Offered load in ticks per second; x 128 stations = 17,280 readings/s.
#: About half of the 34,300-37,500 readings/s this workload decided when
#: offered 600 ticks/s (2-vCPU x86 VM, numpy 2.4 + OpenBLAS, one BLAS
#: thread).
OFFERED_TICKS_PER_S = 135.0
TINY = {"stations": 8, "rate": 50.0}

GENERATOR = Path(__file__).resolve().parent / "_servegen.py"


def session_ticks(seconds: float, rate: float) -> int:
    """Measured ticks in a session of ``seconds`` at ``rate``."""
    return max(TAIL_TICKS, int(round(seconds * rate)))


@dataclass
class Session:
    metrics: dict
    attempted: int
    failed: int
    samples: int
    connect_s: float
    generator: dict
    server_state: dict


async def _serve(pipe: Pipeline, seed: int, rate: float, n_ticks: int, tracer: Tracer | None) -> tuple:
    engine = fresh_engine(pipe)
    n_stations = engine.n_stations
    total = n_ticks + TAIL_TICKS
    server = IngestionServer(
        engine,
        block_size=BLOCK,
        lateness=LATENESS,
        capacity=4096,
        queue_size=4096,
        max_inflight=1024,
    )
    await server.start()
    generator = await asyncio.create_subprocess_exec(
        sys.executable,
        str(GENERATOR),
        "--port", str(server.port),
        "--seed", str(seed),
        "--stations", str(n_stations),
        "--ticks", str(total),
        "--input-ticks", str(pipe.inputs.segment.shape[1]),
        "--rate", repr(rate),
        "--fault", repr(FAULT_RATE),
        "--trace", "1" if tracer is not None else "0",
        stdin=asyncio.subprocess.PIPE,
        stdout=asyncio.subprocess.PIPE,
        limit=1 << 20,
    )
    try:
        ready = (await generator.stdout.readline()).decode().split()
        if not ready or ready[0] != "READY":
            raise RuntimeError(f"load generator failed to start: {ready!r}")
        connect_s = float(ready[1])
        t0 = time.monotonic() + 0.05
        generator.stdin.write(f"{t0!r}\n".encode())
        await generator.stdin.drain()
        if tracer is not None:
            tracer.phase = "measure"
            install_layer_wrappers(tracer)
            install_server_wrappers(tracer, lambda tick: t0 + tick / rate)
        summary_line = await generator.stdout.readline()
        await generator.wait()
    finally:
        if generator.returncode is None:
            generator.kill()
            await generator.wait()
    if generator.returncode != 0 or not summary_line:
        raise RuntimeError(f"load generator exited with code {generator.returncode}")
    await server.finish()
    if tracer is not None:
        tracer.restore()
    return server, engine, json.loads(summary_line), t0, connect_s, total


def run_session(pipe: Pipeline, seed: int, rate: float, seconds: float, tracer: Tracer | None = None) -> Session:
    n_ticks = session_ticks(seconds, rate)
    server, engine, gen, t0, connect_s, total = asyncio.run(_serve(pipe, seed, rate, n_ticks, tracer))
    inputs = pipe.inputs
    n_stations = engine.n_stations
    served = server.served()
    ticks = served["ticks"]
    sent = total * n_stations

    # Output check: the served decisions equal an offline replay of what
    # was served, and every sent tick was served exactly once, in order.
    if not np.array_equal(ticks, np.arange(total)):
        return Session({}, sent, sent, 0, connect_s, gen, {})
    delivered = np.where(served["missing"], np.nan, inputs.segment[:, :total])
    offline = fresh_engine(pipe).run(delivered, block_size=BLOCK)
    bad = offline.flags != served["flags"]
    for key in ("scores", "mitigated"):
        a, b = getattr(offline, key), served[key]
        bad |= ~((a == b) | (np.isnan(a) & np.isnan(b)))
    failed = int(bad.sum())

    widths = np.array([w for w, _ in engine.stamps])
    stamps = np.array([t for _, t in engine.stamps])
    decided = np.repeat(stamps, widths)
    measured = slice(0, n_ticks)
    due = t0 + np.arange(n_ticks) / rate
    latency = decided[measured] - due
    span = decided[n_ticks - 1] - due[0]
    # Sent readings served as missing: terminally LATE or lost.
    share = delivered_frac(inputs.segment[:, :n_ticks], served["missing"][:, measured])
    metrics = {
        "readings_per_s": n_ticks * n_stations / span,
        "flag_p50_ms": 1e3 * median(latency),
        "flag_p99_ms": 1e3 * quantile(latency, 99.0),
        "run_s": span,
        "f1": pooled_f1(inputs.labels[:, :n_ticks], served["flags"][:, measured]),
        "r2": fit_r2(inputs.clean[:, :n_ticks], served["mitigated"][:, measured]),
        "delivered_frac": share,
        "failed_frac": 1.0 - share,
        "gen_lag_p99_ms": 1e3 * gen["lag_p99_s"],
    }
    state = {
        "served_bytes": int(sum(served[k].nbytes for k in ("flags", "scores", "missing", "mitigated"))),
        "latency_samples": len(server.ingest_latencies),
    }
    return Session(metrics, sent, failed, n_ticks, connect_s, gen, state)
