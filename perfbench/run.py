"""The repository benchmark: one command, every workload, every metric.

Usage, from the repository root::

    python3 perfbench/run.py --workload {downlink-ber,localization,serve} \\
        --seed N --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` with
no tracing.  ``--trace 1`` runs the workload twice, untraced and then with
every layer of :mod:`perfbench.layers` wrapped, and reports the
per-layer metrics and the tracing overhead.  Both check the program's
outputs.  Human-readable lines come first, each metric with its unit and
sample count; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every output check held.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
WORKLOADS = ("downlink-ber", "localization", "serve")


def _out(line: str) -> None:
    sys.stdout.write(line + "\n")
    sys.stdout.flush()


def host_line() -> str:
    import numpy

    return (
        f"host: nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))} "
        f"python={platform.python_version()} numpy={numpy.__version__}"
    )


def end_to_end(outcome, setups, rss_mb) -> "dict[str, tuple[float, str, int]]":
    """The BENCHMARK.json end-to-end metrics: name -> (value, unit, n)."""
    from statistics import median

    latencies_ms = [value * 1e3 for value in outcome.latencies_s]
    return {
        "setup_s": (median(setups), "s", len(setups)),
        "throughput_per_s": (outcome.work / outcome.wall_s, "1/s", outcome.work),
        "latency_ms_p50": (median(latencies_ms), "ms", len(latencies_ms)),
        "sweep_s_p50": (median(outcome.sweeps_s), "s", len(outcome.sweeps_s)),
        "peak_rss_mb": (rss_mb, "MB", 1),
    }


def latency_tail(outcome) -> "tuple[str, tuple[float, str, int]] | None":
    """The highest latency percentile the samples support, with its n.

    Printed on every run but not bound in BENCHMARK.json: its run-to-run
    spread is wider than the largest bound a metric may have.
    """
    from perfbench.trace import tail_percentile

    latencies_ms = [value * 1e3 for value in outcome.latencies_s]
    for q in (99, 90):
        value = tail_percentile(latencies_ms, q)
        if value is not None:
            return f"latency_ms_p{q}", (value, "ms", len(latencies_ms))
    return None


#: The issue's names for the end-to-end metrics, per workload.
ALIASES = {
    "downlink-ber": {"throughput_per_s": "ber_frames_per_s"},
    # A localization request is one Fig-16 point: two frames.
    "localization": {"latency_ms_p50": "loc_point_ms_p50",
                     "latency_ms_p90": "loc_point_ms_p90"},
    "serve": {"sweep_s_p50": "serve_cold_sweep_s_p50",
              "latency_ms_p50": "serve_warm_point_ms_p50",
              "latency_ms_p99": "serve_warm_point_ms_p99",
              "latency_ms_p90": "serve_warm_point_ms_p90",
              "throughput_per_s": "serve_points_per_s"},
}


def run_untraced(workload: str, seed: int, seconds: float):
    from perfbench import measure

    if workload == "serve":
        from perfbench import serve_load

        outcome, setups, rss_mb = serve_load.measure(seed, seconds)
    else:
        from perfbench.workloads import IN_PROCESS

        setups = measure.probe_setups(workload)
        runner = IN_PROCESS[workload]()
        runner.setup()
        outcome, first_pass = measure.run_passes(
            runner, seed, seconds, min_requests=measure.MIN_REQUESTS
        )
        value = measure.check_outputs(runner, first_pass, outcome)
        _out(f"pinned-pass digest: {value}")
        rss_mb = measure.peak_rss_mb()
    return outcome, end_to_end(outcome, setups, rss_mb)


def run_traced(workload: str, seed: int, seconds: float):
    from perfbench import measure
    from perfbench.layers import layer_metrics, metric_units, targets
    from perfbench.trace import Tracer, import_all, patched

    traces = measure.WORK / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    spans_path = traces / f"{workload}-seed{seed}.json"
    if workload == "serve":
        from perfbench import serve_load

        plain, traced, tracers, absent = serve_load.measure_traced(seed, seconds)
    else:
        from perfbench.workloads import IN_PROCESS

        runner = IN_PROCESS[workload]()
        runner.setup()
        plain, _ = measure.run_passes(runner, seed, seconds / 2)
        import_all("repro")
        tracer = Tracer()
        with patched(tracer, targets(tracer)) as installed:
            traced, first_pass = measure.run_passes(runner, seed, seconds / 2, tracer=tracer)
        measure.check_outputs(runner, first_pass, traced)
        tracers, absent = [tracer], installed.absent
    spans_path.write_text(json.dumps([t.to_json() for t in tracers]))
    extras = {
        "failed_frac": traced.failed_frac,
        "trace_overhead_frac": traced.seconds_per_work() / plain.seconds_per_work() - 1.0,
    }
    extras.update({name: value for name, (value, _u, _n) in traced.detail.items()})
    values, problems = layer_metrics(tracers, workload, absent, extras)
    units = metric_units()
    for name in absent:
        _out(f"absent layer: {name}")
    for problem in problems:
        _out(f"unexpected layer: {problem}")
    _out(f"spans written to {spans_path.relative_to(ROOT)}")
    return traced, {name: (values[name], units[name], 1) for name in units}


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"no program to measure: {ROOT / 'src' / 'repro'} is missing\n")
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench import measure

    measure.WORK.mkdir(exist_ok=True)
    _out(host_line())
    _out(f"workload: {args.workload} seed={args.seed} seconds={args.seconds:g} "
         f"trace={args.trace}")
    if not args.trace:
        outcome, metrics = run_untraced(args.workload, args.seed, args.seconds)
        aliases = ALIASES[args.workload]
        for name, (value, unit, n) in metrics.items():
            alias = f"  [{aliases[name]}]" if name in aliases else ""
            _out(f"metric {name} = {value:.6g} {unit} (n={n}){alias}")
        tail = latency_tail(outcome)
        if tail is not None:
            outcome.detail[tail[0]] = tail[1]
        for name, (value, unit, n) in outcome.detail.items():
            alias = f"  [{aliases[name]}]" if name in aliases else ""
            _out(f"detail {name} = {value:.6g} {unit} (n={n}){alias}")
    else:
        outcome, metrics = run_traced(args.workload, args.seed, args.seconds)
        for name, (value, unit, _n) in metrics.items():
            _out(f"layer {name} = {value:.6g} {unit}")
    _out(
        f"operations: attempted={outcome.attempted} succeeded={outcome.succeeded} "
        f"failed={outcome.failed} rejected={outcome.rejected} "
        f"failed_frac={outcome.failed_frac:.6g}"
    )
    for error in outcome.errors:
        _out(f"CHECK FAILED: {error}")
    correct = not outcome.errors
    _out(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed + outcome.rejected,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit, _n) in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
