"""The in-process workloads: inputs made from the seed, calls, output checks.

Each workload runs in passes.  A pass is one user-level sweep with a
fixed composition, so every run measures the same mix of work whatever
its seed; the seed only changes the order of the points and the random
streams they draw.  A run always stops at the end of a pass.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Any

# downlink-ber: a Fig-12/13-style grid.  (symbol bits, delay-line dL in
# inches) follows the paper's rate series; full-sync points are a
# minority at 5 bits, where over-the-air sync locks.
SERIES = ((3, 18.0), (5, 45.0), (7, 60.0))
DISTANCES_M = (1.0, 3.0, 5.0, 7.0)
FULL_SYNC_POINTS = ((5, 1.0), (5, 3.0))
FRAMES_PER_POINT = 24
SYMBOLS_PER_FRAME = 16

# localization: the Fig-16 configuration, one frame per call.
LOC_DISTANCES_M = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0)
LOC_OFF_GRID_M = 0.037
LOC_CHIRPS = 96


def _design(bits: int, delta_l_in: float):
    from repro.core.cssk import CsskAlphabet, DecoderDesign

    return CsskAlphabet.design(
        bandwidth_hz=1e9,
        decoder=DecoderDesign.from_inches(delta_l_in),
        symbol_bits=bits,
        chirp_period_s=120e-6,
        min_chirp_duration_s=20e-6,
    )


def digest(rows: "list[Any]") -> str:
    """sha256 of the rows as canonical JSON (floats keep every digit)."""
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass(frozen=True)
class DownlinkOp:
    symbol_bits: int
    distance_m: float
    full_sync: bool
    seed: int


@dataclass(frozen=True)
class LocalizationOp:
    """One Fig-16 point: a fixed-slope frame, then a varying-slope frame."""

    distance_m: float
    seed: int


class DownlinkBer:
    """``run_downlink_trials`` over the grid, default plan, no store."""

    name = "downlink-ber"

    def setup(self) -> None:
        from repro.radar.config import XBAND_9GHZ
        from repro.sim import engine

        self._radar = XBAND_9GHZ
        # Looked up on the module at every call, so a traced run's wrapper
        # is the function called.
        self._engine = engine
        self.alphabets = {bits: _design(bits, dl) for bits, dl in SERIES}
        for bits, _dl in SERIES:
            self.call(DownlinkOp(bits, 1.0, False, 0), frames=1)
        self.call(DownlinkOp(*FULL_SYNC_POINTS[0], True, 0), frames=1)

    def make_pass(self, seed: int, index: int) -> "list[DownlinkOp]":
        rng = random.Random(f"{self.name}:{seed}:{index}")
        grid = [(bits, d, False) for bits, _dl in SERIES for d in DISTANCES_M]
        grid += [(bits, d, True) for bits, d in FULL_SYNC_POINTS]
        rng.shuffle(grid)
        return [DownlinkOp(bits, d, sync, rng.randrange(2**32)) for bits, d, sync in grid]

    def call(self, op: DownlinkOp, frames: int = FRAMES_PER_POINT):
        config = self._engine.DownlinkTrialConfig(
            radar_config=self._radar,
            alphabet=self.alphabets[op.symbol_bits],
            distance_m=op.distance_m,
            num_frames=frames,
            payload_symbols_per_frame=SYMBOLS_PER_FRAME,
            full_sync=op.full_sync,
        )
        return self._engine.run_downlink_trials(config, rng=op.seed)

    @staticmethod
    def frames(op: DownlinkOp) -> int:
        return FRAMES_PER_POINT

    @staticmethod
    def check(op: DownlinkOp, point) -> "str | None":
        expected = FRAMES_PER_POINT * SYMBOLS_PER_FRAME * op.symbol_bits
        if point.bits_total != expected:
            return f"{op}: bits_total {point.bits_total} != {expected}"
        if not 0.0 <= point.ber <= 1.0:
            return f"{op}: BER {point.ber} outside [0, 1]"
        return None

    @staticmethod
    def record(op: DownlinkOp, point) -> "list[Any]":
        return [
            op.symbol_bits, op.distance_m, op.full_sync, op.seed,
            point.parameter, point.ber, point.bits_total, point.bit_errors,
            point.extra["sync_failures"], point.extra["video_snr_db"],
        ]

    @staticmethod
    def same(a, b) -> bool:
        return a == b


class Localization:
    """``run_localization_trials`` in the Fig-16 configuration.

    A request is one Fig-16 point: the fixed-slope arm then the
    varying-slope arm at one distance, one frame each.  A fixed-slope
    frame costs about twice a varying-slope one, so single frames would
    give two clusters of latencies with the median in the gap between.
    """

    name = "localization"

    def setup(self) -> None:
        from repro.channel.multipath import Clutter
        from repro.components.van_atta import VanAttaArray
        from repro.radar.config import XBAND_9GHZ
        from repro.sim import engine
        from repro.tag.modulator import UplinkModulator

        self._radar = XBAND_9GHZ
        self._engine = engine
        self.alphabet = _design(5, 45.0)
        self.modulator = UplinkModulator(
            modulation_rate_hz=2000.0, chirp_period_s=120e-6, chirps_per_bit=LOC_CHIRPS
        )
        self.van_atta = VanAttaArray()
        self.clutter = Clutter.office(rng=0)
        self.call(LocalizationOp(1.0, 0))

    def make_pass(self, seed: int, index: int) -> "list[LocalizationOp]":
        rng = random.Random(f"{self.name}:{seed}:{index}")
        distances = list(LOC_DISTANCES_M)
        rng.shuffle(distances)
        return [LocalizationOp(d, rng.randrange(2**32)) for d in distances]

    def call(self, op: LocalizationOp):
        import numpy as np

        return np.concatenate([
            self._engine.run_localization_trials(
                self._radar, self.alphabet, self.modulator, self.van_atta,
                tag_range_m=op.distance_m + LOC_OFF_GRID_M,
                varying_slopes=varying,
                num_frames=1,
                num_chirps=LOC_CHIRPS,
                clutter=self.clutter,
                rng=op.seed + varying,
            )
            for varying in (False, True)
        ])

    @staticmethod
    def frames(op: LocalizationOp) -> int:
        return 2

    @staticmethod
    def check(op: LocalizationOp, errors) -> "str | None":
        import numpy as np

        if errors.shape != (2,) or not np.all(np.isfinite(errors)):
            return f"{op}: errors {errors!r} are not two finite values"
        return None

    @staticmethod
    def record(op: LocalizationOp, errors) -> "list[Any]":
        return [op.distance_m, op.seed, [float(e) for e in errors]]

    @staticmethod
    def same(a, b) -> bool:
        return a.tobytes() == b.tobytes()


IN_PROCESS = {workload.name: workload for workload in (DownlinkBer, Localization)}
