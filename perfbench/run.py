"""Repository benchmark: four workloads, end-to-end and per-layer metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload replay --seed 1 --seconds 15 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

* ``replay`` — in-process block-mode replay, 1000 stations, ``block_size=32``;
* ``ticks``  — the same pipeline tick by tick, 128 stations;
* ``serve``  — ``IngestionServer`` fed by a separate open-loop load
  generator process through 1% transport faults;
* ``paper``  — the paper's batch pipeline, ``run_experiment``.

``--trace 0`` measures the end-to-end metrics with no wrappers installed
and ``repro.obs`` off.  ``--trace 1`` measures half the time untraced
and half traced with every layer wrapped, and reports the per-layer
metrics, stage tables with self times, and the tracing overhead.

Inputs are generated from ``--seed`` only.  Every workload checks its
outputs; a failed check counts as failed readings (or passes) and the
command exits 1.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
are a human-readable report with units and sample counts.  A results
file (with the machine fingerprint) and, for traced runs, the spans as
JSON lines are written under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback

from _common import (
    OUT_DIR,
    ProgramMissing,
    fingerprint,
    median,
    peak_rss_mb,
    quantile,
    timed_setups,
    use_program_sources,
)

WORKLOADS = ("replay", "ticks", "serve", "paper")
#: Set-ups per untraced run; ``setup_s`` is the median of their
#: speed-corrected times.  The machine's speed shifts over seconds to
#: minutes, so the larger half run before measuring and the rest after.
#: The paper workload's set-up is short, so it repeats more often.
SETUP_REPEATS = {"replay": 3, "ticks": 3, "serve": 3, "paper": 7}
#: Reference kernel that corrects each workload's times (``_common.SpeedRef``):
#: the one whose slowdown tracked the workload's on the machine the
#: benchmark was written on.  ``serve`` uses it for its set-up only.
SPEED_KERNEL = {"replay": "lstm", "ticks": "tick", "serve": "tick", "paper": "lstm-pair"}

END_TO_END = {
    "readings_per_s": "readings/s",
    "flag_p50_ms": "ms",
    "flag_p99_ms": "ms",
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "f1": "ratio",
    "r2": "ratio",
    "delivered_frac": "fraction",
}

#: Per-layer metric -> (unit, span name, stage-table column).  Times are
#: seconds per pass (per session for ``serve``).
LAYER_TIMES = {
    "nn.lstm.infer_s": ("nn.lstm.infer", "total_s"),
    "nn.dense.infer_s": ("nn.dense.infer", "total_s"),
    "nn.lstm.forward_s": ("nn.lstm.forward", "total_s"),
    "nn.lstm.backward_s": ("nn.lstm.backward", "total_s"),
    "nn.dense.forward_s": ("nn.dense.forward", "total_s"),
    "nn.dense.backward_s": ("nn.dense.backward", "total_s"),
    "nn.optimizer.step_s": ("nn.optimizer.step", "total_s"),
    "anomaly.fit_s": ("anomaly.fit", "total_s"),
    "anomaly.score_s": ("anomaly.score", "total_s"),
    "anomaly.filter_s": ("anomaly.filter", "total_s"),
    "stream.step_s": ("stream.step", "total_s"),
    "stream.detector_s": ("stream.detector", "total_s"),
    "stream.scaler_s": ("stream.scaler", "total_s"),
    "stream.buffers_s": ("stream.buffers", "total_s"),
    "stream.mitigate_s": ("stream.mitigate", "total_s"),
    "stream.amend_s": ("stream.amend", "total_s"),
    "stream.step.self_s": ("stream.step", "self_s"),
    "stream.detector.self_s": ("stream.detector", "self_s"),
    "serve.codec.decode_s": ("serve.codec.decode", "total_s"),
    "serve.codec.encode_s": ("serve.codec.encode", "total_s"),
    "serve.reorder.offer_s": ("serve.reorder.offer", "total_s"),
    "serve.reorder.drain_s": ("serve.reorder.drain", "total_s"),
    "serve.engine.step_s": ("serve.engine.step", "total_s"),
    "federated.train_round_s": ("federated.train_round", "total_s"),
    "federated.round_s": ("federated.round", "total_s"),
    "federated.aggregate_s": ("federated.aggregate", "total_s"),
    "forecasting.centralized_s": ("forecasting.centralized", "total_s"),
    "data.generate_s": ("data.generate", "total_s"),
    "attacks.inject_s": ("attacks.inject", "total_s"),
}
LAYER_COUNTS = (
    "nn.infer.calls",
    "nn.infer.windows",
    "nn.train.batches",
    "stream.windows",
    "stream.flagged",
    "stream.imputed",
)
#: Layers the streaming workloads exercise only while setting up (training
#: the detector); there they are read from one traced set-up.
SETUP_LAYERS = {
    "nn.lstm.forward_s", "nn.lstm.backward_s", "nn.dense.forward_s",
    "nn.dense.backward_s", "nn.optimizer.step_s", "nn.train.batches",
    "anomaly.fit_s", "data.generate_s", "attacks.inject_s",
}
PER_LAYER = (
    {name: "s" for name in LAYER_TIMES}
    | {name: "count" for name in LAYER_COUNTS}
    | {
        "federated.barrier_wait_s": "s",
        "federated.rounds": "count",
        "forecasting.predict_s": "s",
        "serve.client.send_s": "s",
        "serve.client.drain_s": "s",
        "serve.wire.frames_out": "count",
        "serve.wire.bytes_out": "bytes",
        "serve.client.useful_ratio": "ratio",
        "serve.acks.accepted": "count",
        "serve.acks.duplicate": "count",
        "serve.acks.late": "count",
        "serve.acks.busy": "count",
        "serve.reorder.pending_max": "ticks",
        "serve.reorder.hold_p99_ms": "ms",
        "serve.block.fill_p99_ms": "ms",
        "serve.state.served_bytes": "bytes",
        "serve.state.latency_samples": "count",
        "serve.client.ack_entries": "count",
        "serve.failed_frac": "fraction",
        "serve.gen_lag_p99_ms": "ms",
        "trace.unattributed_s": "s",
        "trace.overhead_frac": "fraction",
    }
)


class Result:
    def __init__(self) -> None:
        self.metrics: dict[str, float] = {}
        self.samples: dict[str, int] = {}
        self.attempted = 0
        self.failed = 0
        self.tables: dict[str, dict] = {}
        self.extra: dict = {}


# ---------------------------------------------------------------------------
# per-layer metrics from a traced run


def layer_metrics(tracer, workload: str, n_passes: int, measure_wall: float, setup_wall: float) -> tuple[dict, dict]:
    from _tracing import barrier_wait, nested_total, stage_table

    tables = {"measure": stage_table(tracer.spans, "measure", measure_wall)}
    if workload != "paper":
        tables["setup"] = stage_table(tracer.spans, "setup", setup_wall)
    values = dict.fromkeys(PER_LAYER, 0.0)
    for name, (span, column) in LAYER_TIMES.items():
        phase, div = ("setup", 1) if name in SETUP_LAYERS and workload != "paper" else ("measure", n_passes)
        values[name] = tables[phase]["rows"].get(span, {}).get(column, 0.0) / div
    for name in LAYER_COUNTS:
        phase, div = ("setup", 1) if name in SETUP_LAYERS and workload != "paper" else ("measure", n_passes)
        values[name] = tracer.counts[phase].get(name, 0.0) / div
    values["federated.barrier_wait_s"] = barrier_wait(tracer.spans, "measure") / n_passes
    values["federated.rounds"] = tables["measure"]["rows"].get("federated.round", {}).get("calls", 0) / n_passes
    values["forecasting.predict_s"] = nested_total(tracer.spans, "measure", "nn.predict", "forecasting.") / n_passes
    values["trace.unattributed_s"] = tables["measure"]["unattributed_s"] / n_passes
    return values, tables


def print_table(title: str, table: dict, unit: str, div: int) -> None:
    print(f"stage table: {title} (per {unit}; self = total minus child spans)")
    print(f"  {'span':<26}{'calls':>10}{'total_s':>12}{'self_s':>12}")
    rows = sorted(table["rows"].items(), key=lambda kv: -kv[1]["total_s"])
    for name, row in rows:
        print(f"  {name:<26}{row['calls'] / div:>10.1f}{row['total_s'] / div:>12.5f}{row['self_s'] / div:>12.5f}")
    print(f"  {'(unattributed)':<26}{'':>10}{table['unattributed_s'] / div:>12.5f}")


# ---------------------------------------------------------------------------
# workloads


def measure_between_setups(workload: str, build, measure, res: Result):
    """Set up ``SETUP_REPEATS[workload]`` times, measuring the product in between.

    Returns what ``measure`` returned.  ``setup_s`` is the median set-up
    time, speed-corrected by reference timings taken around the set-ups.
    """
    repeats = SETUP_REPEATS[workload]
    kind = SPEED_KERNEL[workload]
    product, setups, corrected = timed_setups(build, repeats - repeats // 2, kind)
    measured = measure(product)
    _, more, more_corrected = timed_setups(build, repeats // 2, kind)
    res.metrics["setup_s"] = median(corrected + more_corrected)
    res.extra["setup_times_s"] = setups + more
    res.extra["setup_corrected_s"] = corrected + more_corrected
    res.samples["setup"] = repeats
    return measured


def run_stream(kind: str, args, res: Result) -> None:
    import _stream
    from _tracing import Tracer, install_layer_wrappers

    shape = (_stream.TINY_SHAPES if args.tiny else _stream.SHAPES)[kind]
    n, block, pass_ticks = shape["stations"], shape["block"], shape["pass_ticks"]

    def build():
        return _stream.build_pipeline(args.seed, n, pass_ticks, _stream.DROPOUT, args.tiny)

    if not args.trace:
        m = measure_between_setups(
            kind, build, lambda pipe: _stream.measure(pipe, block, args.seconds, SPEED_KERNEL[kind]), res
        )
        res.metrics |= _stream.summarize(m, n * pass_ticks)
        res.extra["pass_walls_s"] = m.pass_walls
        res.extra["pass_p50s_s"] = m.pass_p50s
        res.extra["pass_p99s_s"] = m.pass_p99s
        res.extra["pass_probes_s"] = m.speed.probes
        res.samples |= {"flag": len(m.step_seconds), "pass": len(m.pass_walls)}
        res.attempted, res.failed = m.readings, m.failed
        return

    pipe, _, _ = timed_setups(build, 1, SPEED_KERNEL[kind])
    base = _stream.measure(pipe, block, args.seconds / 2, SPEED_KERNEL[kind])
    tracer = Tracer(f"{kind}-{args.seed}")
    install_layer_wrappers(tracer)
    try:
        traced_pipe, setups, _ = timed_setups(build, 1, SPEED_KERNEL[kind])
        traced = _stream.measure(traced_pipe, block, args.seconds / 2, SPEED_KERNEL[kind], tracer)
    finally:
        tracer.restore()
    values, res.tables = layer_metrics(tracer, kind, len(traced.pass_walls), sum(traced.pass_walls), setups[0])
    base_rate = _stream.summarize(base, n * pass_ticks)["readings_per_s"]
    traced_rate = _stream.summarize(traced, n * pass_ticks)["readings_per_s"]
    values["trace.overhead_frac"] = base_rate / traced_rate - 1.0
    res.metrics = values
    res.samples = {"pass": len(traced.pass_walls), "untraced_pass": len(base.pass_walls)}
    res.attempted = base.readings + traced.readings
    res.failed = base.failed + traced.failed
    res.extra["spans"] = tracer


def run_serve(args, res: Result) -> None:
    import _serve
    import _stream
    from _tracing import Tracer, install_layer_wrappers

    stations = _serve.TINY["stations"] if args.tiny else _serve.STATIONS
    rate = _serve.TINY["rate"] if args.tiny else _serve.OFFERED_TICKS_PER_S
    segment_ticks = _serve.session_ticks(args.seconds, rate) + _serve.TAIL_TICKS

    def build():
        return _stream.build_pipeline(args.seed, stations, segment_ticks, 0.0, args.tiny)

    if not args.trace:
        session = measure_between_setups(
            args.workload, build, lambda pipe: _serve.run_session(pipe, args.seed, rate, args.seconds), res
        )
        res.metrics |= session.metrics
        res.metrics["setup_s"] += session.connect_s
        res.samples |= {"flag": session.samples, "gen_lag": session.generator["lag_samples"]}
        res.attempted, res.failed = session.attempted, session.failed
        res.extra["generator"] = session.generator
        return

    pipe, _, _ = timed_setups(build, 1, SPEED_KERNEL["serve"])
    base = _serve.run_session(pipe, args.seed, rate, args.seconds / 2)
    tracer = Tracer(f"serve-{args.seed}")
    install_layer_wrappers(tracer)
    try:
        traced_pipe, setups, _ = timed_setups(build, 1, SPEED_KERNEL["serve"])
    finally:
        tracer.restore()
    traced = _serve.run_session(traced_pipe, args.seed, rate, args.seconds / 2, tracer)
    values, res.tables = layer_metrics(tracer, "serve", 1, traced.metrics.get("run_s", 0.0), setups[0])
    gen = traced.generator
    gen_trace = gen["trace"]
    res.tables["generator"] = gen_trace["table"]
    gen_rows = gen_trace["table"]["rows"]
    gen_counts = gen_trace["counts"]
    values["serve.client.send_s"] = gen_rows.get("serve.client.send", {}).get("total_s", 0.0)
    values["serve.client.drain_s"] = gen_rows.get("serve.client.drain", {}).get("total_s", 0.0)
    values["serve.wire.frames_out"] = gen_counts.get("serve.wire.frames_out", 0.0)
    values["serve.wire.bytes_out"] = gen_counts.get("serve.wire.bytes_out", 0.0)
    sends = gen_counts.get("serve.client.reading_sends", 0.0)
    values["serve.client.useful_ratio"] = traced.attempted / sends if sends else 0.0
    for status, count in gen["acks"].items():
        values[f"serve.acks.{status}"] = count
    values["serve.client.ack_entries"] = gen["ack_entries"]
    values["serve.reorder.pending_max"] = tracer.maxima["serve.reorder.pending_max"]
    for metric, sample in (("serve.reorder.hold_p99_ms", "serve.reorder.hold_s"), ("serve.block.fill_p99_ms", "serve.block.fill_s")):
        if tracer.samples[sample]:
            values[metric] = 1e3 * quantile(tracer.samples[sample], 99.0)
    values["serve.state.served_bytes"] = traced.server_state.get("served_bytes", 0)
    values["serve.state.latency_samples"] = traced.server_state.get("latency_samples", 0)
    values["serve.failed_frac"] = base.metrics.get("failed_frac", 0.0)
    values["serve.gen_lag_p99_ms"] = base.metrics.get("gen_lag_p99_ms", 0.0)
    base_rate = base.metrics.get("readings_per_s", 0.0)
    traced_rate = traced.metrics.get("readings_per_s", 0.0)
    values["trace.overhead_frac"] = base_rate / traced_rate - 1.0 if traced_rate else 0.0
    res.metrics = values
    res.samples = {"session": 1, "flag": traced.samples}
    res.attempted = base.attempted + traced.attempted
    res.failed = base.failed + traced.failed
    res.extra["spans"] = tracer
    res.extra["untraced_flag_p50_ms"] = base.metrics.get("flag_p50_ms")
    res.extra["traced_flag_p50_ms"] = traced.metrics.get("flag_p50_ms")


def run_paper(args, res: Result) -> None:
    import _paper
    from _tracing import Tracer, install_layer_wrappers

    def build():
        return _paper.setup(args.seed, args.tiny)

    if not args.trace:
        m = measure_between_setups(args.workload, build, lambda cfg: _paper.measure(cfg, args.seconds), res)
        res.metrics |= m["metrics"]
        res.extra["pass_walls_s"] = m["walls"]
        res.extra["pass_probes_s"] = m["probes"]
        res.samples |= {"pass": len(m["walls"]), "flag": len(m["walls"])}
        res.attempted, res.failed = len(m["walls"]), m["failed"]
        return

    cfg, _, _ = timed_setups(build, 1, SPEED_KERNEL["paper"])
    base = _paper.measure(cfg, args.seconds / 2, min_passes=1)
    tracer = Tracer(f"paper-{args.seed}")
    tracer.phase = "measure"
    install_layer_wrappers(tracer)
    try:
        traced = _paper.measure(cfg, args.seconds / 2, min_passes=1)
    finally:
        tracer.restore()
    values, res.tables = layer_metrics(tracer, "paper", len(traced["walls"]), sum(traced["walls"]), 0.0)
    values["trace.overhead_frac"] = traced["metrics"]["run_s"] / base["metrics"]["run_s"] - 1.0
    res.metrics = values
    res.samples = {"pass": len(traced["walls"]), "untraced_pass": len(base["walls"])}
    # Tracing must not change a single result: both halves score alike.
    mismatch = (base["metrics"]["f1"], base["metrics"]["r2"]) != (traced["metrics"]["f1"], traced["metrics"]["r2"])
    res.attempted = len(base["walls"]) + len(traced["walls"])
    res.failed = base["failed"] + traced["failed"] + (len(traced["walls"]) if mismatch else 0)
    res.extra["spans"] = tracer


# ---------------------------------------------------------------------------


def report(args, res: Result) -> dict:
    units = PER_LAYER if args.trace else END_TO_END
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("fingerprint: " + json.dumps(fingerprint(args.workload, args.seed)))
    print("samples: " + json.dumps(res.samples))
    print(f"  {'metric':<30}{'value':>16}  unit")
    for name, unit in units.items():
        print(f"  {name:<30}{res.metrics[name]:>16.6g}  {unit}")
    if args.workload == "serve" and not args.trace:
        print(f"  {'failed_frac':<30}{res.metrics['failed_frac']:>16.6g}  fraction (readings sent, not served as delivered)")
        print(f"  {'gen_lag_p99_ms':<30}{res.metrics['gen_lag_p99_ms']:>16.6g}  ms ({res.samples['gen_lag']} sends)")
    for phase, table in res.tables.items():
        if phase == "setup":
            unit, div = "set-up", 1
        elif args.workload == "serve":
            unit, div = "session", 1
        else:
            unit, div = "pass", res.samples["pass"]
        print_table(f"{args.workload} {phase}", table, unit, div)
    if args.trace:
        print(f"tracing overhead: {100 * res.metrics['trace.overhead_frac']:.2f}% (untraced vs traced "
              f"{'run_s' if args.workload == 'paper' else 'readings_per_s'})")
    return {
        "correct": res.failed == 0,
        "attempted": int(res.attempted),
        "failed": int(res.failed),
        "metrics": {name: {"value": float(res.metrics[name]), "unit": unit} for name, unit in units.items()},
    }


def write_outputs(args, res: Result, result: dict) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tracer = res.extra.pop("spans", None)
    if tracer is not None:
        tracer.write_jsonl(OUT_DIR / f"{stem}-spans.jsonl")
    record = {
        "fingerprint": fingerprint(args.workload, args.seed),
        "result": result,
        "samples": res.samples,
        "tables": res.tables,
        "extra": res.extra,
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args(argv)
    # One BLAS thread per process, set before numpy loads: the workloads'
    # own threads and processes (paper's two client threads, serve's
    # generator) fill the cores, and OpenBLAS's second thread on these
    # small matrices made set-up times swing by up to a third.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        use_program_sources()
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    from repro import obs

    obs.disable()
    res = Result()
    start = time.perf_counter()
    try:
        if args.workload in ("replay", "ticks"):
            run_stream(args.workload, args, res)
        elif args.workload == "serve":
            run_serve(args, res)
        else:
            run_paper(args, res)
    except Exception:  # noqa: BLE001 — report the failure as a failed run
        traceback.print_exc()
        res.metrics = {}
    if not args.trace:
        res.metrics["peak_rss_mb"] = peak_rss_mb()
    res.extra["wall_s"] = time.perf_counter() - start
    if (PER_LAYER if args.trace else END_TO_END).keys() <= res.metrics.keys():
        result = report(args, res)
    else:  # a check failed before the metrics could be computed
        attempted = max(1, int(res.attempted))
        result = {"correct": False, "attempted": attempted, "failed": attempted, "metrics": {}}
    write_outputs(args, res, result)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
