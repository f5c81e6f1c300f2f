"""Smoke test: every workload at a tiny size, untraced and traced.

Run from the repository root::

    python3 perfbench/smoke.py

Each run must exit 0 with a last line that reports ``correct: true`` and
exactly the metrics ``BENCHMARK.json`` lists (end-to-end untraced,
per-layer traced).  Finally the benchmark is copied without the program
sources and must fail without printing a result.  Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("replay", "ticks", "serve", "paper")


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False,
    )


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            done = run(ROOT, workload, trace)
            label = f"{workload} trace={trace}"
            try:
                result = json.loads(done.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                failures.append(f"{label}: no result line (exit {done.returncode})\n{done.stderr[-2000:]}")
                continue
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            problems = []
            if done.returncode != 0 or not result["correct"] or result["failed"]:
                problems.append(f"exit {done.returncode}, correct={result['correct']}, failed={result['failed']}")
            if units != expected[trace]:
                problems.append(f"metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(expected[trace]))}")
            if result["attempted"] < 1:
                problems.append("nothing attempted")
            print(f"{label}: {'FAIL ' + '; '.join(problems) if problems else 'ok'}", flush=True)
            if problems:
                failures.append(label)

    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = run(bare, "replay", 0)
    shutil.rmtree(bare, ignore_errors=True)
    bare_ok = done.returncode != 0 and not done.stdout.strip()
    print(f"without program sources: {'ok' if bare_ok else 'FAIL'} (exit {done.returncode})")
    if not bare_ok:
        failures.append("bare checkout")

    print("smoke: " + ("FAIL " + ", ".join(failures) if failures else "all ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
