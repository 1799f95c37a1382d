"""Frame batching — the engine is bit-exact and >=5x the per-frame loop.

Runs the ``bench_executor_scaling`` workload (240 frames x 16 symbols at
5 m) on a single worker twice: once through the default
``run_downlink_trials``, which synthesizes and decodes stacked
``(n_frames, n_samples)`` frame blocks, and once through the per-frame
reference chunk the test suite holds it to (``tests/oracle.py``), on the
same executor plan.  The bench asserts the two ``BerPoint`` results —
including the ``extra`` payload — are identical bit for bit, then
asserts the engine clears a 5x single-core trials/sec floor over the
per-frame loop.

Each mode is timed best-of-N: the first repetition pays one-time costs
(template and slot-projector caches, BLAS warm-up) and single-core
wall-clock jitters by double-digit percent on shared runners, so the
minimum is the honest steady-state number.  Both modes use one chunk
spanning the whole run so the comparison isolates the DSP kernels rather
than executor chunking overhead.
"""

import contextlib
import pathlib
import sys
import time

from conftest import emit, emit_bench_json
from repro.radar.config import XBAND_9GHZ
from repro.sim import engine
from repro.sim.engine import DownlinkTrialConfig, run_downlink_trials
from repro.sim.executor import ExecutionPlan
from repro.sim.results import format_table

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tests"))
import oracle  # noqa: E402

NUM_FRAMES = 240
SYMBOLS_PER_FRAME = 16
DISTANCE_M = 5.0
REPEATS = 5
MIN_SPEEDUP = 5.0


@contextlib.contextmanager
def _chunk_swapped(chunk):
    original = engine._downlink_chunk
    engine._downlink_chunk = chunk
    try:
        yield
    finally:
        engine._downlink_chunk = original


def run_study(paper_alphabet):
    config = DownlinkTrialConfig(
        radar_config=XBAND_9GHZ,
        alphabet=paper_alphabet,
        distance_m=DISTANCE_M,
        num_frames=NUM_FRAMES,
        payload_symbols_per_frame=SYMBOLS_PER_FRAME,
    )
    plan = ExecutionPlan(workers=1, chunk_size=NUM_FRAMES)
    chunks = {"per-frame": oracle.downlink_chunk, "batched": engine._downlink_chunk}
    points = {}
    timings = {label: [] for label in chunks}
    for _rep in range(REPEATS):
        for label, chunk in chunks.items():
            start = time.perf_counter()
            # run_downlink_trials looks its chunk up on the module per call.
            with _chunk_swapped(chunk):
                points[label] = run_downlink_trials(config, rng=0, execution=plan)
            timings[label].append(time.perf_counter() - start)
    best = {label: min(times) for label, times in timings.items()}
    return points, best, timings


def test_frame_batching(benchmark, paper_alphabet):
    points, best, timings = benchmark.pedantic(
        run_study, args=(paper_alphabet,), rounds=1, iterations=1
    )
    speedup = best["per-frame"] / best["batched"]
    trials_per_s = {label: NUM_FRAMES / seconds for label, seconds in best.items()}

    rows = [
        [
            label,
            f"{best[label] * 1e3:.1f}",
            f"{trials_per_s[label]:.0f}",
            f"{points[label].ber:.2e}",
            f"{points[label].bit_errors}/{points[label].bits_total}",
        ]
        for label in points
    ]
    table = format_table(
        ["mode", "best wall (ms)", "trials/s", "BER", "errors/bits"], rows
    )
    table += (
        f"\n{NUM_FRAMES} frames x {SYMBOLS_PER_FRAME} symbols at {DISTANCE_M} m; "
        f"best of {REPEATS}; batched speedup x{speedup:.2f} "
        f"(floor x{MIN_SPEEDUP:.1f}) on one worker"
    )
    emit("frame_batching", table)
    emit_bench_json(
        "frame_batching",
        elapsed_seconds=sum(sum(times) for times in timings.values()),
        results={
            "num_frames": NUM_FRAMES,
            "symbols_per_frame": SYMBOLS_PER_FRAME,
            "distance_m": DISTANCE_M,
            "repeats": REPEATS,
            "per_frame_seconds": best["per-frame"],
            "batched_seconds": best["batched"],
            "per_frame_trials_per_second": trials_per_s["per-frame"],
            "batched_trials_per_second": trials_per_s["batched"],
            "speedup": speedup,
            "min_speedup": MIN_SPEEDUP,
            "bit_exact": points["batched"] == points["per-frame"],
            "ber": float(points["per-frame"].ber),
        },
    )

    # The oracle contract: the fast path changes wall-clock, never bits.
    assert points["batched"] == points["per-frame"]
    # The throughput claim: >=5x single-core trials/sec over per-frame.
    assert speedup >= MIN_SPEEDUP, (
        f"expected >={MIN_SPEEDUP:.1f}x batched speedup, got {speedup:.2f}x "
        f"(per-frame {best['per-frame']:.3f} s, batched {best['batched']:.3f} s)"
    )
