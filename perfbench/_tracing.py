"""In-memory span tracer that times the program's layers from outside.

A traced run installs wrappers around public entry points of each
``repro`` layer (see :func:`install_layer_wrappers`); untraced runs
install nothing.  Each wrapped call records one span — name, start, end,
parent span, thread id and the run phase — in a Python list, written out
as JSON lines when the benchmark ends.  A call into a layer from inside
the same layer (a wrapped method calling another wrapped method of that
layer) records no second span, so a layer's inclusive time is never
counted twice.

Spans started on a thread with no open span of its own (the federated
clients' training threads) take as parent the innermost open span of the
thread that created the tracer: the round that submitted them.

A span's self time is its duration minus the part of it covered by its
child spans (the union of their intervals, which may overlap when
children run on several threads).
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import json
import threading
import time
from collections import defaultdict

NAME, START, END, PARENT, THREAD, PHASE = range(6)


class Tracer:
    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.phase = "setup"
        self.spans: list[list] = []
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.maxima: dict[str, float] = defaultdict(float)
        # The innermost open span of the current thread or asyncio task.
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            f"span-{run_id}", default=None
        )
        self._root_thread = threading.get_ident()
        self._root_top: list | None = None
        self._patches: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def count(self, name: str, n: float = 1) -> None:
        """Add ``n`` to the current phase's counter ``name``."""
        self.counts[self.phase][name] += n

    def _open(self, name: str):
        parent = self._current.get()
        thread = threading.get_ident()
        if parent is None and thread != self._root_thread:
            parent = self._root_top
        if parent is not None and parent[NAME] == name:
            return None, None  # re-entrant call inside the same layer
        record = [name, time.perf_counter(), 0.0, parent, thread, self.phase]
        self.spans.append(record)
        token = self._current.set(record)
        if thread == self._root_thread:
            self._root_top = record
        return record, token

    def _close(self, record: list | None, token) -> None:
        if record is not None:
            record[END] = time.perf_counter()
            self._current.reset(token)
            if record[THREAD] == self._root_thread:
                self._root_top = self._current.get()

    def wrap(self, owner, attr: str, name: str | None, before=None, after=None) -> None:
        """Replace ``owner.attr`` with a recording wrapper.

        ``name=None`` records no span (the hooks only count).  ``before``
        is called with the call's arguments; ``after`` with the result
        and the arguments.  Coroutine functions get a coroutine wrapper
        whose span lasts until the awaited call completes.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        if inspect.iscoroutinefunction(original):

            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                if before is not None:
                    before(*args, **kwargs)
                record, token = tracer._open(name) if name is not None else (None, None)
                try:
                    result = await original(*args, **kwargs)
                finally:
                    tracer._close(record, token)
                if after is not None:
                    after(result, *args, **kwargs)
                return result

        else:

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                if before is not None:
                    before(*args, **kwargs)
                record, token = tracer._open(name) if name is not None else (None, None)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer._close(record, token)
                if after is not None:
                    after(result, *args, **kwargs)
                return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Undo every wrapper, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output -----------------------------------------------------------

    def write_jsonl(self, path) -> None:
        ids = {id(record): i for i, record in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as handle:
            for i, record in enumerate(self.spans):
                parent = record[PARENT]
                handle.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": record[NAME],
                            "start": record[START],
                            "end": record[END],
                            "parent": None if parent is None else ids.get(id(parent)),
                            "thread": record[THREAD],
                            "phase": record[PHASE],
                            "run": self.run_id,
                        }
                    )
                    + "\n"
                )


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def stage_table(spans: list[list], phase: str, wall: float) -> dict:
    """Per span name: calls, inclusive and self seconds, for one phase.

    ``wall`` is the phase's timed wall-clock; the remainder not covered
    by any top-level span (no parent) on the tracer's thread is returned
    as ``unattributed_s``.
    """
    chosen = [s for s in spans if s[PHASE] == phase]
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in chosen:
        parent = s[PARENT]
        if parent is not None:
            start, end = max(s[START], parent[START]), min(s[END], parent[END])
            if end > start:
                children[id(parent)].append((start, end))
    rows: dict[str, dict] = {}
    top: list[tuple[float, float]] = []
    for s in chosen:
        duration = s[END] - s[START]
        covered = _union_length(children.get(id(s), []))
        row = rows.setdefault(s[NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += duration
        row["self_s"] += duration - covered
        if s[PARENT] is None:
            top.append((s[START], s[END]))
    return {"rows": rows, "unattributed_s": max(0.0, wall - _union_length(top))}


def barrier_wait(spans: list[list], phase: str) -> float:
    """Sum over federated rounds of round time minus the slowest client."""
    total = 0.0
    slowest: dict[int, float] = defaultdict(float)
    for s in spans:
        if s[PHASE] == phase and s[NAME] == "federated.train_round" and s[PARENT] is not None:
            key = id(s[PARENT])
            slowest[key] = max(slowest[key], s[END] - s[START])
    for s in spans:
        if s[PHASE] == phase and s[NAME] == "federated.round":
            total += (s[END] - s[START]) - slowest.get(id(s), 0.0)
    return total


def nested_total(spans: list[list], phase: str, name: str, ancestor_prefix: str) -> float:
    """Inclusive seconds of ``name`` spans that run under an ``ancestor_prefix`` span."""
    total = 0.0
    for s in spans:
        if s[PHASE] != phase or s[NAME] != name:
            continue
        parent = s[PARENT]
        while parent is not None and not parent[NAME].startswith(ancestor_prefix):
            parent = parent[PARENT]
        if parent is not None:
            total += s[END] - s[START]
    return total


# ---------------------------------------------------------------------------
# Which public functions stand for which layer.


def _wrap_methods(tracer: Tracer, cls, names, span: str, **hooks) -> None:
    for attr in names:
        if attr in cls.__dict__:
            tracer.wrap(cls, attr, span, **hooks)


def _wrap_subclasses(tracer: Tracer, base, attr: str, span: str) -> None:
    seen = [base]
    while seen:
        cls = seen.pop()
        if attr in cls.__dict__:
            tracer.wrap(cls, attr, span)
        seen.extend(cls.__subclasses__())


def install_layer_wrappers(tracer: Tracer) -> None:
    """Wrap nn, anomaly, stream, federated, forecasting, data and attacks."""
    import repro.experiments.scenarios as scenarios
    import repro.stream.engine as stream_engine
    from repro.anomaly.autoencoder import LSTMAutoencoder
    from repro.anomaly.filter import EVChargingAnomalyFilter
    from repro.attacks.ddos import DDoSVolumeAttack
    from repro.federated.aggregation import Aggregator
    from repro.federated.client import FederatedClient
    from repro.federated.server import FederatedServer
    from repro.forecasting.centralized import CentralizedForecaster
    from repro.forecasting.federated import FederatedForecaster
    from repro.nn.layers.dense import Dense
    from repro.nn.layers.lstm import LSTM
    from repro.nn.model import Sequential
    from repro.nn.optimizers import Optimizer
    from repro.stream.buffers import RingBufferBank
    from repro.stream.detector import StreamingDetector
    from repro.stream.mitigation import StreamingMitigator
    from repro.stream.scaler import StreamingMinMaxScaler

    count = tracer.count

    # nn: inference and training kernels.
    tracer.wrap(LSTM, "infer", "nn.lstm.infer")
    tracer.wrap(Dense, "infer", "nn.dense.infer")

    def count_infer(model, inputs, *args, **kwargs):
        count("nn.infer.calls")
        count("nn.infer.windows", len(inputs))

    tracer.wrap(Sequential, "infer", "nn.infer", before=count_infer)
    tracer.wrap(Sequential, "predict", "nn.predict")
    tracer.wrap(LSTM, "forward", "nn.lstm.forward")
    tracer.wrap(LSTM, "backward", "nn.lstm.backward")
    tracer.wrap(Dense, "forward", "nn.dense.forward")
    tracer.wrap(Dense, "backward", "nn.dense.backward")

    def count_batch(*args, **kwargs):
        count("nn.train.batches")

    tracer.wrap(Optimizer, "step", "nn.optimizer.step", before=count_batch)

    # anomaly: autoencoder training, scoring, batch filter.
    tracer.wrap(LSTMAutoencoder, "fit", "anomaly.fit")
    _wrap_methods(tracer, LSTMAutoencoder, ("window_errors", "pointwise_errors"), "anomaly.score")
    tracer.wrap(EVChargingAnomalyFilter, "filter_anomalies", "anomaly.filter")

    # stream: engine step, detector and the banks it drives.
    _wrap_methods(tracer, stream_engine.StreamReplayEngine, ("_step_tick", "_step_block"), "stream.step")

    def count_decisions(result, *args, **kwargs):
        count("stream.windows", int(result.scored.sum()))
        count("stream.flagged", int(result.flags.sum()))
        count("stream.imputed", int(result.missing.sum()))

    _wrap_methods(
        tracer, StreamingDetector, ("process_tick", "process_block"), "stream.detector",
        after=count_decisions,
    )
    _wrap_methods(tracer, StreamingDetector, ("amend_last", "amend_block"), "stream.amend")
    _wrap_methods(
        tracer,
        StreamingMinMaxScaler,
        (
            "partial_fit", "partial_fit_checked", "partial_fit_block",
            "partial_fit_block_checked", "ingest_tick_checked", "transform",
            "transform_checked", "transform_block", "transform_block_checked",
            "transform_block_fixed_checked",
        ),
        "stream.scaler",
    )
    _wrap_methods(
        tracer,
        RingBufferBank,
        (
            "push", "push_checked", "push_block", "push_block_checked", "windows",
            "recent", "amend_last", "amend_block", "amend_block_checked", "last",
        ),
        "stream.buffers",
    )
    _wrap_subclasses(tracer, StreamingMitigator, "mitigate", "stream.mitigate")
    _wrap_subclasses(tracer, StreamingMitigator, "mitigate_block", "stream.mitigate")

    # federated rounds and forecasting stages.
    tracer.wrap(FederatedClient, "train_round", "federated.train_round")
    tracer.wrap(FederatedServer, "run_round", "federated.round")
    _wrap_subclasses(tracer, Aggregator, "aggregate", "federated.aggregate")
    tracer.wrap(FederatedForecaster, "train_evaluate", "forecasting.federated")
    tracer.wrap(CentralizedForecaster, "train_evaluate", "forecasting.centralized")

    # data generation and attack injection.
    tracer.wrap(stream_engine, "synthesize_fleet", "data.generate")
    tracer.wrap(scenarios, "generate_paper_dataset", "data.generate")
    tracer.wrap(DDoSVolumeAttack, "inject", "attacks.inject")


def install_server_wrappers(tracer: Tracer, due) -> None:
    """Wrap the ingestion server's codec, reorder buffer and engine call.

    ``due(tick)`` gives the monotonic time a tick was due at the
    generator; the reorder hold is measured from it.
    """
    import repro.serve.server as server_mod
    from repro.serve.protocol import FrameDecoder
    from repro.serve.reorder import ReorderBuffer
    from repro.stream.engine import ReplayDriver

    tracer.wrap(FrameDecoder, "feed", "serve.codec.decode")
    for fn in ("unpack_batch_data", "unpack_data", "unpack_hello"):
        tracer.wrap(server_mod, fn, "serve.codec.decode")
    for fn in ("pack_batch_ack", "pack_ack", "pack_busy", "pack_welcome", "encode_frame"):
        tracer.wrap(server_mod, fn, "serve.codec.encode")

    maxima = tracer.maxima
    samples = tracer.samples
    emitted: list[float] = []

    def track_pending(result, reorder, *args, **kwargs):
        maxima["serve.reorder.pending_max"] = max(
            maxima["serve.reorder.pending_max"], float(reorder.pending_ticks)
        )

    def track_emitted(columns, *args, **kwargs):
        now = time.monotonic()
        for tick, _values, _arrival in columns:
            samples["serve.reorder.hold_s"].append(now - due(tick))
            emitted.append(now)

    def track_fill(engine, values, *args, **kwargs):
        now = time.monotonic()
        width = min(values.shape[1], len(emitted))
        for start in emitted[:width]:
            samples["serve.block.fill_s"].append(now - start)
        del emitted[:width]

    _wrap_methods(tracer, ReorderBuffer, ("offer", "offer_block"), "serve.reorder.offer", after=track_pending)
    _wrap_methods(tracer, ReorderBuffer, ("drain", "flush"), "serve.reorder.drain", after=track_emitted)
    tracer.wrap(ReplayDriver, "step_block", "serve.engine.step", before=track_fill)


def install_client_wrappers(tracer: Tracer) -> None:
    """Wrap the ingest client's send/drain and count what hits the wire."""
    from repro.serve.chaos import ChaosTransport
    from repro.serve.client import IngestClient, TcpTransport
    from repro.serve.protocol import FrameType

    count = tracer.count
    record_bytes = 24  # one BATCH_DATA record: u32 station, u32 seq, f64 ts, f64 reading
    header_bytes = 10  # magic, u32 length, type byte, u32 crc

    def count_wire(transport, frame, *args, **kwargs):
        count("serve.wire.frames_out")
        count("serve.wire.bytes_out", len(frame))

    def count_attempts(transport, frame, *args, **kwargs):
        if len(frame) > 5 and frame[5] == FrameType.BATCH_DATA:
            count("serve.client.reading_sends", (len(frame) - header_bytes) // record_bytes)
        elif len(frame) > 5 and frame[5] == FrameType.DATA:
            count("serve.client.reading_sends")

    tracer.wrap(TcpTransport, "send", None, before=count_wire)
    tracer.wrap(ChaosTransport, "send", None, before=count_attempts)
    tracer.wrap(IngestClient, "send_block", "serve.client.send")
    tracer.wrap(IngestClient, "drain", "serve.client.drain")
