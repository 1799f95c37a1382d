"""Self-tests of the benchmark harness: ``python3 -m pytest perfbench/tests -q``."""

import json

import pytest

from perfbench import run
from perfbench.layers import LAYERS, WORKLOADS, metric_units, targets, unexpected
from perfbench.measure import ROOT, Outcome, run_passes
from perfbench.trace import (
    Span, Target, Tracer, import_all, min_samples_for, patched, self_times,
    tail_percentile,
)
from perfbench.workloads import DownlinkBer, Localization


# -- percentiles -------------------------------------------------------------


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert min_samples_for(90) == 100
    assert min_samples_for(99) == 1000
    assert tail_percentile(range(99), 90) is None
    assert tail_percentile(range(100), 90) == 89
    assert tail_percentile(range(1000), 99) == 989
    assert tail_percentile([], 50) is None


def test_metrics_state_sample_counts_and_the_tail_follows_the_rule():
    outcome = Outcome(latencies_s=[0.001] * 99, sweeps_s=[1.0], work=99, wall_s=1.0)
    assert run.latency_tail(outcome) is None
    outcome.latencies_s.append(0.002)
    assert run.latency_tail(outcome) == ("latency_ms_p90", (1.0, "ms", 100))
    outcome.latencies_s.extend([0.003] * 900)
    assert run.latency_tail(outcome) == ("latency_ms_p99", (3.0, "ms", 1000))
    metrics = run.end_to_end(outcome, [0.5, 0.6, 0.7], 10.0)
    assert metrics["latency_ms_p50"][2] == 1000
    assert metrics["setup_s"] == (0.6, "s", 3)


# -- span arithmetic ---------------------------------------------------------


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    spans = [
        Span(1, None, "parent", 0.0, 10.0, "r"),
        Span(2, 1, "a", 1.0, 3.0, "r"),
        Span(3, 1, "b", 2.0, 5.0, "r"),    # overlaps a: union 1..5
        Span(4, 1, "c", 9.0, 12.0, "r"),   # clipped to 9..10
        Span(5, 2, "grandchild", 1.5, 2.5, "r"),
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 4.0 - 1.0)
    assert selfs[2] == pytest.approx(2.0 - 1.0)
    assert selfs[5] == pytest.approx(1.0)


def test_tracer_nests_spans_and_inherits_the_request_id():
    tracer = Tracer()
    with tracer.span("outer", request_id="req-1"):
        with tracer.span("inner") as box:
            box["size"] = 7
        with pytest.raises(KeyError), tracer.span("failing"):
            raise KeyError("x")
    inner, failing, outer = tracer.spans
    assert inner.parent_id == failing.parent_id == outer.span_id
    assert outer.parent_id is None
    assert {inner.request_id, failing.request_id} == {"req-1"}
    assert inner.size == 7 and failing.outcome == "KeyError"
    assert Tracer.from_json(json.loads(json.dumps(tracer.to_json()))).spans == tracer.spans


# -- wrappers ----------------------------------------------------------------


def test_wrappers_cover_every_binding_and_restore_the_originals():
    import_all("repro")
    import repro.core.localization as localization
    import repro.radar.range_processing as range_processing
    from repro.tag.decoder_dsp import TagDecoder

    zoom = range_processing.estimate_range_zoom
    decode = TagDecoder.__dict__["decode"]
    assert localization.estimate_range_zoom is zoom
    tracer = Tracer()
    with pytest.raises(RuntimeError, match="inside"):
        with patched(tracer, targets(tracer)) as installed:
            assert installed.absent == []
            # Imported by name into core.localization: wrapped there too.
            assert localization.estimate_range_zoom is not zoom
            assert range_processing.estimate_range_zoom is not zoom
            assert TagDecoder.__dict__["decode"] is not decode
            raise RuntimeError("inside")
    assert localization.estimate_range_zoom is zoom
    assert range_processing.estimate_range_zoom is zoom
    assert TagDecoder.__dict__["decode"] is decode


def test_a_removed_function_is_reported_absent():
    tracer = Tracer()
    gone = [
        Target("gone.function", "repro.sim.engine", "no_such_function"),
        Target("gone.module", "repro.no_such_module", "anything"),
        Target("gone.method", "repro.tag.decoder_dsp", "TagDecoder.no_such_method"),
    ]
    with patched(tracer, gone) as installed:
        assert installed.absent == ["gone.function", "gone.module", "gone.method"]
        assert installed.bindings == []


# -- inputs ------------------------------------------------------------------


@pytest.mark.parametrize("workload", [DownlinkBer(), Localization()])
def test_the_seed_changes_the_inputs_but_not_the_mix(workload):
    first, again, other = (workload.make_pass(seed, 0) for seed in (1, 1, 2))
    assert first == again
    assert first != other
    assert workload.make_pass(1, 1) != first

    def mix(ops):
        return sorted(tuple(vars(op).values())[:-1] for op in ops)

    assert mix(first) == mix(other)


# -- the predicted layers ------------------------------------------------------


@pytest.mark.parametrize("workload", [DownlinkBer(), Localization()])
def test_a_traced_pass_calls_exactly_the_predicted_layers(workload):
    workload.setup()
    import_all("repro")
    tracer = Tracer()
    with patched(tracer, targets(tracer)) as installed:
        outcome, _first = run_passes(workload, seed=3, seconds=0.0, tracer=tracer)
    calls = {}
    for span in tracer.spans:
        calls[span.name] = calls.get(span.name, 0) + 1
    assert outcome.errors == [] and outcome.failed == 0
    assert unexpected(calls, workload.name, installed.absent) == []


def test_benchmark_json_lists_every_metric_and_workload():
    document = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in document["workloads"]] == list(WORKLOADS) == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in document["per_layer"]} == metric_units()
    assert len({layer.name for layer in LAYERS}) == len(LAYERS)
    outcome = Outcome(latencies_s=[0.001], sweeps_s=[1.0], work=1, wall_s=1.0)
    assert [m["name"] for m in document["end_to_end"]] == list(
        run.end_to_end(outcome, [1.0], 1.0)
    )
