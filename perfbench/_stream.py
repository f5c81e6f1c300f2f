"""In-process streaming workloads: ``replay`` (block mode) and ``ticks``.

Set-up builds one calibrated closed-loop pipeline from generated inputs:
a fleet of synthetic stations (the paper's zone profiles), a
normal-history prefix that trains the compact fleet autoencoder and
calibrates per-station thresholds, and a streamed segment carrying
seeded DDoS volume bursts plus ~2% NaN dropout, repaired by the
``hold_last_good`` policy.  The pipeline is then
pre-filled with the last ``L - 1`` normal readings so that every
measured tick completes a window.

A *pass* replays the whole segment through ``StreamReplayEngine.run`` on
a fresh copy of the set-up pipeline (the trained autoencoder is shared,
so its inference workspaces stay warm).  The first pass is a warm-up and
is not timed.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass

import numpy as np

import repro.stream.engine as stream_engine
from _common import SpeedRef, fit_r2, median, pooled_f1, quantile
from repro.anomaly import AutoencoderConfig, LSTMAutoencoder
from repro.attacks import DDoSVolumeAttack
from repro.data import make_autoencoder_windows
from repro.stream import StreamingDetector, StreamingMinMaxScaler, StreamReplayEngine
from repro.utils.rng import spawn

SEQUENCE_LENGTH = 12
HISTORY_TICKS = 168  # one week: the zone profiles have a weekly cycle
FIT_STATIONS = 64
FIT_STRIDE = 4
DROPOUT = 0.02
MITIGATOR = "hold_last_good"
#: The autoencoder's initialisation and shuffling seed is configuration of
#: the program, fixed like a deployed model's; the workload seed drives
#: every input (fleet, attacks, dropout, which stations' history trains
#: it).  Deriving it from the workload seed made F1 vary by ~16% between
#: seeds from initialisation alone.
MODEL_SEED = 0

#: Workload shapes.  ``pass_ticks`` is a whole number of blocks.
SHAPES = {
    "replay": {"stations": 1000, "block": 32, "pass_ticks": 128},
    "ticks": {"stations": 128, "block": 1, "pass_ticks": 250},
}
TINY_SHAPES = {
    "replay": {"stations": 24, "block": 8, "pass_ticks": 32},
    "ticks": {"stations": 8, "block": 1, "pass_ticks": 40},
}


@dataclass
class Inputs:
    history: np.ndarray  # normal readings before the streamed segment
    segment: np.ndarray  # streamed readings, attacked, NaN where dropped
    labels: np.ndarray  # injected attack ground truth over the segment
    clean: np.ndarray  # the segment before attack and dropout


@dataclass
class Pipeline:
    engine: StreamReplayEngine
    inputs: Inputs


def make_inputs(seed: int, n_stations: int, segment_ticks: int, dropout: float) -> Inputs:
    """The fleet's readings, generated from ``seed`` alone."""
    fleet = stream_engine.synthesize_fleet(
        n_stations, HISTORY_TICKS + segment_ticks, seed=spawn(seed, "fleet")
    )
    clean = fleet[:, HISTORY_TICKS:].copy()
    attack = DDoSVolumeAttack()
    segment = clean.copy()
    labels = np.zeros(clean.shape, dtype=bool)
    for j in range(n_stations):
        result = attack.inject(clean[j], seed=spawn(seed, f"attack/{j}"))
        segment[j] = result.attacked
        labels[j] = result.labels
    if dropout:
        segment[spawn(seed, "dropout").random(segment.shape) < dropout] = np.nan
    return Inputs(history=fleet[:, :HISTORY_TICKS], segment=segment, labels=labels, clean=clean)


def build_pipeline(seed: int, n_stations: int, segment_ticks: int, dropout: float, tiny: bool) -> Pipeline:
    """Generate inputs, train and calibrate the fleet detector."""
    inputs = make_inputs(seed, n_stations, segment_ticks, dropout)
    history = inputs.history
    scaler = StreamingMinMaxScaler.from_bounds(history.min(axis=1), history.max(axis=1))
    scaled = scaler.transform_fleet(history)
    picked = spawn(seed, "fit-stations").choice(
        n_stations, size=min(n_stations, FIT_STATIONS), replace=False
    )
    windows = np.concatenate(
        [make_autoencoder_windows(scaled[j], SEQUENCE_LENGTH, stride=FIT_STRIDE) for j in picked]
    )
    config = AutoencoderConfig(
        sequence_length=SEQUENCE_LENGTH,
        encoder_units=(4, 2),
        decoder_units=(2, 4),
        epochs=1 if tiny else 5,
        patience=3,
        batch_size=64,
    )
    autoencoder = LSTMAutoencoder(config, seed=MODEL_SEED)
    autoencoder.fit(windows)

    detector = StreamingDetector(autoencoder, n_stations, scaler=scaler, missing="impute")
    detector.calibrate(history)
    engine = StampedEngine(detector, mitigator=MITIGATOR)
    engine.run(history[:, -(SEQUENCE_LENGTH - 1) :], block_size=SEQUENCE_LENGTH - 1)
    engine.stamps.clear()
    return Pipeline(engine=engine, inputs=inputs)


class StampedEngine(StreamReplayEngine):
    """Records when each ``step_block`` call returned.

    One ``time.monotonic()`` read per block: how the served workload
    learns when a tick's flag was decided, without wrapping any layer.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.stamps: list[tuple[int, float]] = []

    def step_block(self, values):
        out = super().step_block(values)
        self.stamps.append((values.shape[1], time.monotonic()))
        return out


def fresh_engine(pipe: Pipeline):
    """A copy of the set-up engine sharing the trained autoencoder."""
    autoencoder = pipe.engine.detector.autoencoder
    return copy.deepcopy(pipe.engine, {id(autoencoder): autoencoder})


@dataclass
class Measured:
    pass_walls: list[float]
    #: Reference-kernel timings before the first pass and after each.
    speed: SpeedRef
    step_seconds: list[float]
    pass_p50s: list[float]
    pass_p99s: list[float]
    readings: int
    failed: int
    f1: float
    r2: float
    delivered_frac: float


def measure(pipe: Pipeline, block: int, seconds: float, kernel: str, tracer=None) -> Measured:
    """Replay passes until ``seconds`` elapse; check every pass's output.

    ``kernel`` names the reference kernel that corrects the pass times.

    With a ``tracer``, the untimed warm-up pass is recorded as phase
    ``warmup`` and the timed passes as ``measure``.
    """
    inputs = pipe.inputs
    if tracer is not None:
        tracer.phase = "warmup"
    fresh_engine(pipe).run(inputs.segment, block_size=block)  # warm-up, untimed
    if tracer is not None:
        tracer.phase = "measure"
    n_stations, n_ticks = inputs.segment.shape
    walls: list[float] = []
    steps: list[float] = []
    p50s: list[float] = []
    p99s: list[float] = []
    failed = 0
    first = None
    deadline = time.perf_counter() + seconds
    speed = SpeedRef(kernel)
    speed.probe()
    while not walls or time.perf_counter() < deadline:
        engine = fresh_engine(pipe)
        start = time.perf_counter()
        report = engine.run(inputs.segment, block_size=block)
        walls.append(time.perf_counter() - start)
        speed.probe()
        pass_steps = report.latencies[::block] * block
        steps.extend(pass_steps.tolist())
        p50s.append(median(pass_steps))
        p99s.append(quantile(pass_steps, 99.0))
        # Output checks: repaired readings are finite, and every pass of
        # the same input decides exactly what the first pass decided.
        bad = ~np.isfinite(report.mitigated)
        if first is None:
            first = report
        else:
            bad |= report.flags != first.flags
            same = report.scores == first.scores
            bad |= ~(same | (np.isnan(report.scores) & np.isnan(first.scores)))
        failed += int(bad.sum())
    return Measured(
        pass_walls=walls,
        speed=speed,
        step_seconds=steps,
        pass_p50s=p50s,
        pass_p99s=p99s,
        readings=n_stations * n_ticks * len(walls),
        failed=failed,
        f1=pooled_f1(inputs.labels, first.flags),
        r2=fit_r2(inputs.clean, first.mitigated),
        delivered_frac=delivered_frac(inputs.segment, first.missing),
    )


def delivered_frac(sent, missing) -> float:
    """Readings sent with a value that were decided as delivered ÷ those sent."""
    valued = np.isfinite(sent)
    return 1.0 - float((missing & valued).sum()) / float(valued.sum())


def summarize(m: Measured, n_readings_per_pass: int) -> dict:
    """End-to-end metrics from speed-corrected times (``_common.SpeedRef``).

    Pass times and per-pass medians are averaged over passes, like the
    reference timings that correct them: when the machine's speed shifts
    during a run, a median jumps to whichever speed held most passes while
    a mean moves in proportion.  A pass's 99th percentile rests on its few
    slowest steps, so one burst of noise can move a pass; it takes the
    median over passes.
    """
    factor = m.speed.factor()
    run_s = factor * float(np.mean(m.pass_walls))
    return {
        "readings_per_s": n_readings_per_pass / run_s,
        "flag_p50_ms": 1e3 * factor * float(np.mean(m.pass_p50s)),
        "flag_p99_ms": 1e3 * factor * median(m.pass_p99s),
        "run_s": run_s,
        "f1": m.f1,
        "r2": m.r2,
        "delivered_frac": m.delivered_frac,
    }
