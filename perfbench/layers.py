"""The layers a traced run wraps, and the per-layer metrics their spans give.

A layer is one public function or method of the program, named
``<module>.<function>`` after its place under ``repro``.  ``expect``
states, before any run, what each workload does with the layer, in
:data:`WORKLOADS` order: ``E`` exercised (calls > 0), ``B`` bypassed
(0 calls), ``-`` left to the layer's group in :data:`GROUPS`, where at
least one member must be exercised (the per-frame and the batched form
of a downlink kernel).  A traced run reports every departure from these
predictions as ``layers_unexpected``.

``unattributed_s`` is the summed duration of the benchmark's request
spans minus the summed self time of every layer span.  When requests and
layers overlap in time (two serve clients; the server's event loop and
pool threads), the layer sum can exceed the request sum and the value
goes negative.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import median
from typing import Any, Callable

from perfbench.trace import Target, Tracer, self_times

WORKLOADS = ("downlink-ber", "localization", "serve")

#: The benchmark's own span around one request (a call or a job).
REQUEST_SPAN = "bench.request"
#: A point's admission in the serve scheduler (``PointTask`` creation).
ADMIT_SPAN = "serve.scheduler.admit"


def _one(args, kwargs, result) -> int:
    return 1


def _batch_len(args, kwargs, result) -> int:
    return len(args[1])


def _bytes_out(args, kwargs, result) -> int:
    return len(result)


def _bytes_in(args, kwargs, result) -> int:
    return len(args[0])


def _hit(args, kwargs, result) -> int:
    return 0 if result is None else 1


@dataclass(frozen=True)
class Layer:
    name: str
    module: str
    qualname: str
    expect: str
    size_of: "Callable[..., int] | None" = None


LAYERS = (
    Layer("core.downlink.encode_packet", "repro.core.downlink",
          "DownlinkEncoder.encode_packet", "E B E"),
    Layer("tag.frontend.capture", "repro.tag.frontend",
          "AnalyticTagFrontend.capture", "- B -"),
    Layer("tag.frontend.capture_batch", "repro.tag.frontend",
          "AnalyticTagFrontend.capture_batch", "- B -"),
    Layer("tag.decoder_dsp.decode_aligned", "repro.tag.decoder_dsp",
          "TagDecoder.decode_aligned", "- B -", _one),
    Layer("tag.decoder_dsp.decode_aligned_batch", "repro.tag.decoder_dsp",
          "TagDecoder.decode_aligned_batch", "- B -", _batch_len),
    Layer("tag.decoder_dsp.decode", "repro.tag.decoder_dsp",
          "TagDecoder.decode", "E B B", _one),
    Layer("core.ber.ErrorCounter.update", "repro.core.ber",
          "ErrorCounter.update", "E B E"),
    Layer("sim.executor.map_trials", "repro.sim.executor", "map_trials", "E E E"),
    Layer("sim.engine.run_downlink_trials", "repro.sim.engine",
          "run_downlink_trials", "E B E"),
    Layer("sim.engine.run_localization_trials", "repro.sim.engine",
          "run_localization_trials", "B E B"),
    Layer("radar.fmcw.receive_frame", "repro.radar.fmcw",
          "FMCWRadar.receive_frame", "B E B"),
    Layer("core.localization.localize", "repro.core.localization",
          "TagLocalizer.localize", "B E B"),
    Layer("radar.range_processing.estimate_range_zoom", "repro.radar.range_processing",
          "estimate_range_zoom", "B E B"),
    Layer("store.fingerprint.fingerprint", "repro.store.fingerprint",
          "fingerprint", "B B E"),
    Layer("store.cache.get", "repro.store.cache", "ExperimentStore.get", "B B E", _hit),
    Layer("store.cache.put", "repro.store.cache", "ExperimentStore.put", "B B E"),
    Layer("store.cache.contains", "repro.store.cache",
          "ExperimentStore.contains", "B B E"),
    Layer("serve.journal.record", "repro.serve.journal", "JobJournal.record", "B B E"),
    Layer("serve.journal.mark_complete", "repro.serve.journal",
          "JobJournal.mark_complete", "B B E"),
    Layer("serve.journal.finish", "repro.serve.journal", "JobJournal.finish", "B B E"),
    Layer("serve.protocol.encode_message", "repro.serve.protocol",
          "encode_message", "B B E", _bytes_out),
    Layer("serve.protocol.decode_line", "repro.serve.protocol",
          "decode_line", "B B E", _bytes_in),
    Layer("serve.scheduler.submit", "repro.serve.scheduler",
          "JobScheduler.submit", "B B E"),
    # BerPointSpec.compute as the scheduler's pool runs it.
    Layer("serve.scheduler.compute", "repro.serve.protocol",
          "BerPointSpec.compute", "B B E"),
)

GROUPS = {
    ("tag.frontend.capture", "tag.frontend.capture_batch"): "E B E",
    ("tag.decoder_dsp.decode_aligned", "tag.decoder_dsp.decode_aligned_batch"): "E B E",
}

_DECODERS = (
    "tag.decoder_dsp.decode",
    "tag.decoder_dsp.decode_aligned",
    "tag.decoder_dsp.decode_aligned_batch",
)

#: Workload results reported beside the layers, with their units.
WORKLOAD_EXTRAS = (
    ("serve.hit_share.cold_sweep", "frac"),
    ("serve.hit_share.warm_sweep", "frac"),
    ("serve.hit_share.warm_point", "frac"),
    ("failed_frac", "frac"),
    ("trace_overhead_frac", "frac"),
)


def metric_units() -> "dict[str, str]":
    """Every per-layer metric a traced run prints, with its unit."""
    units: "dict[str, str]" = {}
    for layer in LAYERS:
        units[f"{layer.name}.calls"] = "count"
        units[f"{layer.name}.busy_s"] = "s"
        units[f"{layer.name}.self_s"] = "s"
    units.update({
        "tag.decoder_dsp.frames_attempted": "count",
        "tag.decoder_dsp.sync_ok_ratio": "frac",
        "radar.range_processing.estimate_range_zoom.calls_per_frame": "count",
        "store.cache.hit_ratio": "frac",
        "serve.protocol.encode_message.bytes": "bytes",
        "serve.protocol.decode_line.bytes": "bytes",
        "serve.scheduler.queue_wait_ms_p50": "ms",
        "serve.scheduler.queue_wait_n": "count",
        "unattributed_s": "s",
        "layers_absent": "count",
        "layers_unexpected": "count",
    })
    units.update(dict(WORKLOAD_EXTRAS))
    return units


class _Admissions:
    """Carries a point's request id from its admission to its compute."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.request_by_spec: "dict[int, str | None]" = {}

    def admit_key(self, args, kwargs) -> int:
        # PointTask(fingerprint, spec, priority): args[2] is the spec.
        spec = args[2]
        self.request_by_spec[id(spec)] = self.tracer.current_request()
        return id(spec)

    def compute_request(self, args, kwargs) -> "str | None":
        return self.request_by_spec.pop(id(args[0]), None)


def _submit_request(args, kwargs) -> str:
    # JobScheduler.submit(self, session, client_id, parsed, ...)
    session, client_id = args[1], args[2]
    return f"s{getattr(session, 'session_id', '?')}/{client_id}"


def _spec_key(args, kwargs) -> int:
    return id(args[0])


def targets(tracer: Tracer) -> "list[Target]":
    """The wrap targets for one traced process."""
    admissions = _Admissions(tracer)
    result = []
    for layer in LAYERS:
        key_of = request_of = None
        if layer.name == "serve.scheduler.compute":
            key_of, request_of = _spec_key, admissions.compute_request
        elif layer.name == "serve.scheduler.submit":
            request_of = _submit_request
        result.append(Target(
            layer.name, layer.module, layer.qualname, layer.size_of,
            key_of, request_of,
        ))
    result.append(Target(
        ADMIT_SPAN, "repro.serve.scheduler", "PointTask.__init__",
        key_of=admissions.admit_key,
    ))
    return result


def unexpected(calls: "dict[str, int]", workload: str,
               absent: "list[str]") -> "list[str]":
    """Departures from the predicted exercised/bypassed layers."""
    column = WORKLOADS.index(workload)
    problems = []
    for layer in LAYERS:
        if layer.name in absent:
            continue
        expect = layer.expect.split()[column]
        count = calls.get(layer.name, 0)
        if expect == "E" and count == 0:
            problems.append(f"{layer.name}: 0 calls, predicted exercised")
        elif expect == "B" and count > 0:
            problems.append(f"{layer.name}: {count} calls, predicted bypassed")
    for group, expect in GROUPS.items():
        present = [name for name in group if name not in absent]
        if expect.split()[column] == "E" and present and not any(
            calls.get(name, 0) for name in present
        ):
            problems.append(f"{' / '.join(present)}: 0 calls, predicted exercised")
    return problems


def _queue_waits_ms(spans) -> "list[float]":
    """Admission to compute start, per computed point."""
    admitted: "dict[int, list[float]]" = {}
    for span in spans:
        if span.name == ADMIT_SPAN:
            admitted.setdefault(span.key, []).append(span.end)
    waits = []
    for span in spans:
        if span.name != "serve.scheduler.compute":
            continue
        before = [end for end in admitted.get(span.key, ()) if end <= span.start]
        if before:
            waits.append((span.start - max(before)) * 1e3)
    return waits


def layer_metrics(tracers: "list[Tracer]", workload: str, absent: "list[str]",
                  extras: "dict[str, float]") -> "tuple[dict[str, Any], list[str]]":
    """Per-layer metrics (name -> value) and the unexpected-layer list.

    ``tracers`` hold the spans of every process of the traced run;
    ``extras`` supplies the :data:`WORKLOAD_EXTRAS` values.
    """
    calls: "dict[str, int]" = {}
    busy: "dict[str, float]" = {}
    own: "dict[str, float]" = {}
    size: "dict[str, int]" = {}
    failed_frames = 0
    request_s = layer_self_s = 0.0
    waits: "list[float]" = []
    for tracer in tracers:
        selfs = self_times(tracer.spans)
        for span in tracer.spans:
            if span.name == REQUEST_SPAN:
                request_s += span.duration
                continue
            layer_self_s += selfs[span.span_id]
            calls[span.name] = calls.get(span.name, 0) + 1
            busy[span.name] = busy.get(span.name, 0.0) + span.duration
            own[span.name] = own.get(span.name, 0.0) + selfs[span.span_id]
            size[span.name] = size.get(span.name, 0) + span.size
            if span.name in _DECODERS and span.outcome == "SyncError":
                failed_frames += span.size
        waits.extend(_queue_waits_ms(tracer.spans))

    metrics: "dict[str, Any]" = {}
    for layer in LAYERS:
        metrics[f"{layer.name}.calls"] = calls.get(layer.name, 0)
        metrics[f"{layer.name}.busy_s"] = busy.get(layer.name, 0.0)
        metrics[f"{layer.name}.self_s"] = own.get(layer.name, 0.0)
    frames = sum(size.get(name, 0) for name in _DECODERS)
    metrics["tag.decoder_dsp.frames_attempted"] = frames
    metrics["tag.decoder_dsp.sync_ok_ratio"] = (
        1.0 - failed_frames / frames if frames else 0.0
    )
    localized = calls.get("core.localization.localize", 0)
    metrics["radar.range_processing.estimate_range_zoom.calls_per_frame"] = (
        calls.get("radar.range_processing.estimate_range_zoom", 0) / localized
        if localized else 0.0
    )
    gets = calls.get("store.cache.get", 0)
    metrics["store.cache.hit_ratio"] = size.get("store.cache.get", 0) / gets if gets else 0.0
    metrics["serve.protocol.encode_message.bytes"] = size.get(
        "serve.protocol.encode_message", 0)
    metrics["serve.protocol.decode_line.bytes"] = size.get("serve.protocol.decode_line", 0)
    metrics["serve.scheduler.queue_wait_ms_p50"] = median(waits) if waits else 0.0
    metrics["serve.scheduler.queue_wait_n"] = len(waits)
    metrics["unattributed_s"] = request_s - layer_self_s
    problems = unexpected(calls, workload, absent)
    metrics["layers_absent"] = len(absent)
    metrics["layers_unexpected"] = len(problems)
    for name, _unit in WORKLOAD_EXTRAS:
        metrics[name] = extras.get(name, 0.0)
    return metrics, problems
