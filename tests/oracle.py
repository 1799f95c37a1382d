"""Per-frame reference implementations the batched library code is held to.

The library carries one implementation of each downlink kernel: the
stacked ``(frames, samples)`` form, with the single-frame entry points
(``AnalyticTagFrontend.capture``, ``TagDecoder.score_slot`` /
``classify_slot`` / ``demodulate_data_slot`` / ``decode_aligned``) as
batch-of-one wrappers.  The per-frame bodies those kernels replaced live
here, unchanged apart from taking the frontend or decoder as their first
argument, so ``tests/unit/test_batch_equivalence.py`` can compare the
library against an independent per-frame loop with ``np.array_equal``.

Also here: :func:`envelope_rc_lowpass`, the per-sample RC loop that
:func:`repro.utils.dsp.envelope_rc_lowpass_fast` is checked against, and
:func:`downlink_chunk`, the per-frame Monte-Carlo chunk the engine's
``_downlink_chunk`` must reproduce trial for trial.
"""

from __future__ import annotations

import numpy as np

from repro.core.ber import ErrorCounter, random_bits
from repro.core.downlink import DownlinkEncoder
from repro.core.packet import DownlinkPacket
from repro.errors import ConfigurationError, SimulationError, SyncError
from repro.sim.engine import _effective_snr_override
from repro.tag.decoder_dsp import DecodedPacket, PeriodEstimate, TagDecoder
from repro.tag.frontend import AnalyticTagFrontend, TagCapture
from repro.utils.rng import resolve_rng
from repro.utils.validation import ensure_positive


# -- tag frontend -------------------------------------------------------------


def _adc_in_range(adc, signal: np.ndarray) -> bool:
    """Quantize only when the signal is within ~the ADC range."""
    peak = float(np.max(np.abs(signal))) if signal.size else 0.0
    return peak > 10.0 * adc.lsb_v


def capture(
    frontend: AnalyticTagFrontend,
    frame,
    distance_m: float,
    *,
    rng=None,
    absorptive_slots=None,
    off_boresight_deg: float = 0.0,
    snr_override_db=None,
    wrap_fractions=None,
) -> TagCapture:
    """``AnalyticTagFrontend.capture``, one slot at a time."""
    ensure_positive("distance_m", distance_m)
    generator = resolve_rng(rng)
    fs = frontend.budget.adc.sample_rate_hz
    total_samples = int(round(frame.duration_s * fs))
    if total_samples < 2:
        raise SimulationError("frame too short for the tag ADC rate")
    amplitude = frontend.budget.video_beat_amplitude_v(
        distance_m, off_boresight_deg=off_boresight_deg
    )
    noise_rms = frontend.budget.video_noise_rms_v()
    if snr_override_db is not None:
        # video SNR = (amplitude^2 / 2) / noise^2  =>  rescale noise.
        target_linear = 10.0 ** (snr_override_db / 10.0)
        noise_rms = float(np.sqrt(amplitude**2 / 2.0 / target_linear))
    if absorptive_slots is not None:
        absorptive = np.asarray(absorptive_slots, dtype=bool)
        if absorptive.size != len(frame):
            raise SimulationError(
                f"absorptive_slots has {absorptive.size} entries for a "
                f"{len(frame)}-slot frame"
            )
    else:
        absorptive = np.ones(len(frame), dtype=bool)

    signal = np.zeros(total_samples)
    for slot_index, slot in enumerate(frame.slots):
        if not absorptive[slot_index]:
            continue
        start = int(round(slot.start_time_s * fs))
        stop = min(int(round((slot.start_time_s + slot.chirp.duration_s) * fs)), total_samples)
        if stop <= start:
            continue
        n = stop - start
        t = np.arange(n) / fs
        beat_hz = slot.chirp.slope_hz_per_s * frontend.delta_t_s
        phase0 = generator.uniform(0.0, 2.0 * np.pi)
        rolloff = frontend.budget.detector.video_gain_at(beat_hz)
        wrap = (
            float(wrap_fractions[slot_index])
            if wrap_fractions is not None
            else float("nan")
        )
        if np.isfinite(wrap) and 0.0 < wrap < 1.0:
            # Sweep wrap at fraction `wrap`: the beat tone restarts its
            # phase there (see repro.core.css for the derivation).
            wrap_time = wrap * slot.chirp.duration_s
            shifted = np.where(t < wrap_time, t, t - wrap_time)
            tone = rolloff * np.cos(2.0 * np.pi * beat_hz * shifted + phase0)
        else:
            tone = rolloff * np.cos(2.0 * np.pi * beat_hz * t + phase0)
        if frontend.include_dc:
            signal[start:stop] = amplitude * (1.0 + tone)
        else:
            signal[start:stop] = amplitude * tone

    noisy = signal + generator.normal(0.0, noise_rms, total_samples)
    adc = frontend.budget.adc
    sampled = adc.quantize(noisy) if _adc_in_range(adc, noisy) else noisy
    return TagCapture(samples=sampled, sample_rate_hz=fs, frame=frame)


# -- tag decoder --------------------------------------------------------------


def score_slot(decoder: TagDecoder, slot_samples, fs: float):
    """``TagDecoder.score_slot``: one projector product per slot."""
    x = np.asarray(slot_samples, dtype=float)
    cache = decoder._scoring_cache(fs)
    table = cache["table"]
    n_slot = cache["n_slot"]
    if x.size >= n_slot:
        window = x[:n_slot]
    else:
        window = np.zeros(n_slot)
        window[: x.size] = x
    components = cache["projectors"] @ window  # (H, 3)
    scores = np.sum(components**2, axis=1)
    results = []
    for row, (kind, symbol, beat, _) in enumerate(table):
        results.append((kind, symbol, beat, float(scores[row])))
    return results


def classify_slot(decoder: TagDecoder, slot_samples, fs: float):
    """``TagDecoder.classify_slot``: best (kind, symbol, beat)."""
    scores = score_slot(decoder, slot_samples, fs)
    kind, symbol, beat, _ = max(scores, key=lambda entry: entry[3])
    return kind, symbol, beat


def demodulate_data_slot(decoder: TagDecoder, slot_samples, fs: float):
    """``TagDecoder.demodulate_data_slot``: ML data symbol and beat."""
    scores = [
        entry for entry in score_slot(decoder, slot_samples, fs) if entry[0] == "data"
    ]
    kind, symbol, beat, _ = max(scores, key=lambda entry: entry[3])
    return int(symbol), float(beat)


def decode_aligned(
    decoder: TagDecoder,
    capture: TagCapture,
    *,
    num_payload_symbols: int,
    skip_slots=None,
) -> DecodedPacket:
    """``TagDecoder.decode_aligned``, one payload slot at a time."""
    if num_payload_symbols < 1:
        raise ValueError(f"num_payload_symbols must be >= 1, got {num_payload_symbols}")
    start_slot = decoder.fields.preamble_length if skip_slots is None else skip_slots
    period = PeriodEstimate(
        period_s=decoder.alphabet.chirp_period_s,
        first_chirp_start_s=0.0,
        confidence=1.0,
    )
    fs = capture.sample_rate_hz
    symbols: list[int] = []
    beats: list[float] = []
    for k in range(start_slot, start_slot + num_payload_symbols):
        samples = decoder._slot_window(capture, 0.0, decoder.alphabet.chirp_period_s, k)
        if samples.size < 4:
            break
        symbol, beat = demodulate_data_slot(decoder, samples, fs)
        symbols.append(symbol)
        beats.append(beat)
    bits = (
        np.concatenate([decoder.alphabet.bits_for_symbol(s) for s in symbols])
        if symbols
        else np.empty(0, dtype=np.uint8)
    )
    return DecodedPacket(
        bits=bits,
        symbols=symbols,
        measured_beats_hz=np.asarray(beats),
        period=period,
        payload_start_slot=start_slot,
        num_sync_slots_seen=decoder.fields.sync_repeats,
    )


# -- Monte-Carlo engine -------------------------------------------------------


def downlink_chunk(config, spec, indices) -> "list[tuple[int, int, int]]":
    """The engine's ``_downlink_chunk``, one frame at a time.

    Encodes each packet through ``DownlinkEncoder``, captures it with
    :func:`capture`, injects impairments, and decodes it with
    :func:`decode_aligned` (or the library's OTA ``decode`` under
    ``full_sync``).
    """
    budget = config.resolved_budget()
    encoder = DownlinkEncoder(radar_config=config.radar_config, alphabet=config.alphabet)
    impair = config.impairments if (
        config.impairments is not None and config.impairments.active
    ) else None
    clock_offset_ppm = impair.clock_offset_ppm() if impair is not None else 0.0
    decoder = TagDecoder(
        config.alphabet, fields=config.fields, clock_offset_ppm=clock_offset_ppm
    )
    frontend = AnalyticTagFrontend(
        budget=budget, delta_t_s=config.alphabet.decoder.delta_t_s
    )
    snr_override = _effective_snr_override(config)

    bits_per_frame = config.payload_symbols_per_frame * config.alphabet.symbol_bits
    results = []
    for index in indices:
        stream = spec.stream(index)
        payload = random_bits(bits_per_frame, rng=stream)
        packet = DownlinkPacket.from_bits(config.alphabet, payload, fields=config.fields)
        frame = encoder.encode_packet(packet)
        received = capture(
            frontend,
            frame,
            config.distance_m,
            rng=stream,
            snr_override_db=snr_override,
        )
        if impair is not None:
            received = impair.apply_to_capture(received, rng=stream)
        counter = ErrorCounter()
        sync_failed = 0
        try:
            if config.full_sync:
                decoded = decoder.decode(
                    received, num_payload_symbols=config.payload_symbols_per_frame
                )
            else:
                decoded = decode_aligned(
                    decoder, received, num_payload_symbols=config.payload_symbols_per_frame
                )
            counter.update(payload, decoded.bits)
        except SyncError:
            sync_failed = 1
            counter.update(payload, np.empty(0, dtype=np.uint8))
        results.append((counter.bit_errors, counter.bits_total, sync_failed))
    return results


# -- DSP kernels --------------------------------------------------------------


def envelope_rc_lowpass(
    samples: np.ndarray, sample_rate_hz: float, cutoff_hz: float
) -> np.ndarray:
    """First-order RC low-pass filter, one sample at a time.

    A single-pole IIR with time constant ``1 / (2*pi*cutoff)``; the
    reference for :func:`repro.utils.dsp.envelope_rc_lowpass_fast`, and
    1-D on purpose.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim > 1:
        raise ConfigurationError(
            f"envelope_rc_lowpass is the 1-D reference oracle, got shape {x.shape}; "
            "use envelope_rc_lowpass_fast for batched input"
        )
    if sample_rate_hz <= 0 or cutoff_hz <= 0:
        raise ConfigurationError("sample_rate_hz and cutoff_hz must be positive")
    dt = 1.0 / sample_rate_hz
    alpha = dt / (dt + 1.0 / (2.0 * np.pi * cutoff_hz))
    out = np.empty_like(x)
    acc = x[0] if x.size else 0.0
    for i, sample in enumerate(x):
        acc += alpha * (sample - acc)
        out[i] = acc
    return out
