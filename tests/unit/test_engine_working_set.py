"""The downlink chunk's working set does not grow with its trial count.

With ``workers=1`` one executor chunk is the whole Monte-Carlo run, so a
chunk that held all of its frames as one stacked block would allocate
memory in proportion to ``num_frames``.  The engine splits a chunk into
frame blocks under a fixed byte budget instead; this pins that the
``tracemalloc`` peak of a 400-frame chunk stays within 1.5x of a
40-frame one.
"""

import tracemalloc

from repro.core.cssk import CsskAlphabet, DecoderDesign
from repro.radar.config import XBAND_9GHZ
from repro.sim.engine import DownlinkTrialConfig, _downlink_chunk
from repro.utils.rng import SeedSpec

MAX_GROWTH = 1.5


def _peak_bytes(config, num_frames: int) -> int:
    spec = SeedSpec.from_rng(0)
    tracemalloc.start()
    try:
        _downlink_chunk(config, spec, range(num_frames))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_chunk_peak_is_flat_in_frames():
    alphabet = CsskAlphabet.design(
        bandwidth_hz=1e9,
        decoder=DecoderDesign.from_inches(60.0),
        symbol_bits=7,
        chirp_period_s=120e-6,
        min_chirp_duration_s=20e-6,
    )
    config = DownlinkTrialConfig(
        radar_config=XBAND_9GHZ,
        alphabet=alphabet,
        distance_m=5.0,
        num_frames=400,
        payload_symbols_per_frame=16,
    )
    # Warm the process-wide projector cache so neither run pays for it.
    _downlink_chunk(config, SeedSpec.from_rng(0), range(2))
    small = _peak_bytes(config, 40)
    large = _peak_bytes(config, 400)
    assert large <= MAX_GROWTH * small, (
        f"400-frame chunk peaked at {large / 1e6:.2f} MB, "
        f"40-frame chunk at {small / 1e6:.2f} MB"
    )
