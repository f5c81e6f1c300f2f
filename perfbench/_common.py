"""Shared helpers: program location, statistics, quality scores, fingerprint."""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

#: A seed no development run used; later performance claims re-check on it.
HELD_OUT_SEED = 7919


class ProgramMissing(RuntimeError):
    """The checkout does not hold the program's sources."""


def use_program_sources() -> None:
    """Put ``src/`` on the import path, or raise :class:`ProgramMissing`."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ProgramMissing(f"no program sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


#: Speed correction.  The machine this benchmark was written on moves
#: between speeds up to 2x apart, from tenths of a second to minutes at a
#: time, with no steal time reported (thread CPU time tracks wall time),
#: and every workload slows with it.  A run that falls wholly in the slow
#: state reads up to twice as slow, so wall-clock figures of ten runs
#: spread past any useful bound.  So each run also times a fixed reference
#: kernel, which no program change can touch, before its first timed
#: interval and after each one, and scales its times by
#: ``nominal_s / mean reference time``.  Each kernel resembles the inner
#: loop of the workloads it corrects, because the two machine states slow
#: different code by different amounts (``perfbench/README.md`` has the
#: figures).  ``nominal_s`` is the kernel's time in that machine's fast
#: state, so corrected figures read close to the fast state's wall-clock
#: figures.


class _TickKernel:
    """A Python loop that indexes arrays scattered over a 6 MB pool and
    runs a small numpy operation on each, like a one-tick step."""

    nominal_s = 0.016

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self.pool = [rng.random(8192) for _ in range(96)]

    def __call__(self) -> None:
        total = 0.0
        for i in range(16_000):
            array = self.pool[(i * 37) % 96]
            total += array[(i * 131) % 8192]
            array[:128] * 0.5


class _LstmKernel:
    """LSTM-cell steps on a batch of 64 with 50 units, like batched
    inference and training.

    Longer than the tick kernel: ``paper`` passes last seconds, so a run
    has only a few gaps to take reference timings in.
    """

    nominal_s = 0.045

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self.w = 0.1 * rng.random((50, 200))
        self.u = 0.1 * rng.random((50, 200))
        self.x = rng.random((24, 64, 50))

    def __call__(self) -> None:
        import numpy as np

        for _ in range(20):
            h = np.zeros((64, 50))
            c = np.zeros((64, 50))
            for x in self.x:
                z = x @ self.w + h @ self.u
                gates = 1.0 / (1.0 + np.exp(-z[:, :150]))
                c = gates[:, 50:100] * c + gates[:, :50] * np.tanh(z[:, 150:])
                h = gates[:, 100:150] * np.tanh(c)


class _LstmPairKernel:
    """The LSTM kernel on two threads at once, like ``paper``'s clients
    training in parallel: its passes slow with both cores, not one."""

    nominal_s = 0.09

    def __init__(self) -> None:
        from concurrent.futures import ThreadPoolExecutor

        self.kernel = _LstmKernel()
        self.pool = ThreadPoolExecutor(2)

    def __call__(self) -> None:
        for done in [self.pool.submit(self.kernel) for _ in range(2)]:
            done.result()


_KERNELS = {"tick": _TickKernel, "lstm": _LstmKernel, "lstm-pair": _LstmPairKernel}
_BUILT: dict = {}


class SpeedRef:
    """Reference-kernel timings interleaved with a run's timed intervals.

    ``kind`` names the kernel: ``"tick"``, ``"lstm"`` or ``"lstm-pair"``.
    """

    def __init__(self, kind: str) -> None:
        if kind not in _BUILT:
            _BUILT[kind] = _KERNELS[kind]()
            _BUILT[kind]()  # untimed: first touches
        self.kernel = _BUILT[kind]
        self.probes: list[float] = []

    def probe(self, repeats: int = 1) -> None:
        """Time ``repeats`` runs of the kernel; record the time of one."""
        start = time.perf_counter()
        for _ in range(repeats):
            self.kernel()
        self.probes.append((time.perf_counter() - start) / repeats)

    def factor(self) -> float:
        """``nominal_s`` over the mean reference time."""
        return self.kernel.nominal_s * len(self.probes) / sum(self.probes)


#: Reference time around each set-up.  A set-up is one interval of a
#: second or more, corrected by the timings on either side of it alone, so
#: they are longer than those between passes.
SETUP_PROBE_S = 0.1


def timed_setups(build, repeats: int, kind: str) -> tuple[object, list[float], list[float]]:
    """Run ``build()`` ``repeats`` times with a ``kind`` reference timing around each.

    Returns the last product, each wall time, and each wall time corrected
    by the mean of the two reference timings around it.
    """
    speed = SpeedRef(kind)
    probe_repeats = max(1, round(SETUP_PROBE_S / speed.kernel.nominal_s))
    speed.probe(probe_repeats)
    walls: list[float] = []
    corrected: list[float] = []
    product = None
    for _ in range(repeats):
        start = time.perf_counter()
        product = build()
        walls.append(time.perf_counter() - start)
        speed.probe(probe_repeats)
        corrected.append(walls[-1] * speed.kernel.nominal_s / (0.5 * sum(speed.probes[-2:])))
    return product, walls, corrected


def quantile(values, q: float) -> float:
    """Linear-interpolated percentile ``q`` (0..100) of ``values``."""
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values) -> float:
    return quantile(values, 50.0)


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pooled_f1(labels, flags) -> float:
    """Point-level F1 pooled over every station and tick."""
    import numpy as np

    labels = np.asarray(labels, dtype=bool)
    flags = np.asarray(flags, dtype=bool)
    tp = int((labels & flags).sum())
    fp = int((~labels & flags).sum())
    fn = int((labels & ~flags).sum())
    return 2.0 * tp / (2 * tp + fp + fn) if tp else 0.0


def fit_r2(clean, repaired) -> float:
    """R² of the best linear fit of the clean readings on the repaired ones.

    The squared Pearson correlation, pooled over the fleet.  It stays in
    [0, 1]; ``1 - SS_res / SS_tot`` goes negative once repairs drift far
    from the truth, as ``hold_last_good``'s do in the closed loop, and a
    negative median has no share by which it could get worse.
    """
    import numpy as np

    clean = np.asarray(clean, dtype=np.float64).ravel()
    repaired = np.asarray(repaired, dtype=np.float64).ravel()
    return float(np.corrcoef(clean, repaired)[0, 1] ** 2)


def _blas_threads() -> int | None:
    """OpenBLAS thread count, read from the library numpy loaded."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_commit() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def _source_digest() -> str:
    """SHA-1 over the program sources: identifies the code without git."""
    digest = hashlib.sha1()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def fingerprint(workload: str, seed: int) -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
        "src_sha1": _source_digest(),
    }
