"""End-to-end benchmark of the RichWasm reproduction: compile and serve.

Run from the root of a checkout::

    python3 perfbench/run.py --workload compile_cold --seed 1 --seconds 55 --trace 0

Workloads (``BENCHMARK.json`` says why each is there):

* ``compile_cold`` -- a stream of never-seen programs through ``api.compile``
  (O2, compiled engine, private memory tier over a fresh disk cache);
* ``serve_cluster`` -- Fig. 9 counter sessions on ``api.serve(...,
  workers=N)`` restarted from a disk cache an earlier process populated, one
  session in flight per worker.

With ``--trace 0`` the run measures with tracing off and reports the
end-to-end metrics.  Their timings are scaled to a reference host speed
(``hostspeed.py``), because a shared host drifts by more than any bound;
the record line keeps the raw values next to the probe readings.  With
``--trace 1`` it measures half the time untraced, then wraps the layers'
public functions in spans (``spans.py``) for the other half and reports
per-layer metrics; the spans are written to ``.bench_build/perfbench/``
when the run ends.

Every operation's output is checked against a reference computed from how
the input was built (``gen.py``).  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it is a record with the hardware stamp and sample counts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOAD_NAMES = ("compile_cold", "serve_cluster")


def hardware() -> dict:
    from workloads import available_cpus

    return {
        "cpu_count": os.cpu_count(),
        "cpus_available": available_cpus(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
    }


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) clock ticks of all CPUs from ``/proc/stat``."""

    try:
        with open("/proc/stat", encoding="ascii") as stat:
            fields = [int(x) for x in stat.readline().split()[1:]]
    except OSError:
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def tail(values: list) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it:
    ``(value, percentile)``."""

    ordered = sorted(values)
    index = len(ordered) - 11
    if index < 0:
        raise RuntimeError(f"{len(ordered)} samples are too few for a tail latency")
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def end_to_end(workload, seconds: float, record: dict) -> tuple[list, dict]:
    from hostspeed import REFERENCE_MS
    from workloads import Phase

    setups, raw_setups = [], []
    for _ in range(workload.setup_repeats):
        raw, factor = workload.timed_setup()
        raw_setups.append(raw)
        setups.append(raw * factor)
    warm, phase = Phase(), Phase()
    workload.warm(warm)
    # Memory is read after the warm-up, a fixed number of operations whatever
    # the seed, and not after the window, whose length in operations follows
    # throughput (the process-global intern table grows with every compile).
    rss_mb = workload.peak_rss_mb()
    steal, ticks = cpu_ticks()
    workload.measure(seconds, phase)
    steal_after, ticks_after = cpu_ticks()
    tail_ms, tail_pct = tail(phase.latencies_ms)
    probes = sorted(workload.speed.probes_ms)
    record.update(
        samples=len(phase.latencies_ms), tail_percentile=round(tail_pct, 2),
        throughput_unit=workload.throughput_unit, setup_s_each=setups,
        peak_rss_mb_end=workload.peak_rss_mb(),
        host_probe_ms={"reference": REFERENCE_MS, "min": probes[0],
                       "median": statistics.median(probes), "max": probes[-1]},
        host_steal_pct=100.0 * (steal_after - steal) / max(1, ticks_after - ticks),
        raw={"setup_s": statistics.median(raw_setups),
             "latency_ms_p50": statistics.median(phase.raw_latencies_ms),
             "latency_ms_tail": tail(phase.raw_latencies_ms)[0],
             "throughput_per_s": workload.throughput(phase, raw=True)},
    )
    metrics = {
        "setup_s": statistics.median(setups),
        "latency_ms_p50": statistics.median(phase.latencies_ms),
        "latency_ms_tail": tail_ms,
        "throughput_per_s": workload.throughput(phase),
        "peak_rss_mb": rss_mb,
    }
    return [warm, phase], metrics


def per_layer(workload, seconds: float, record: dict) -> tuple[list, dict]:
    from spans import Recorder, instrument, layer_metrics
    from workloads import Phase, parcompile_wall_ratio, replay_matches

    workload.setup()
    warm, untraced, traced = Phase(), Phase(), Phase()
    workload.warm(warm)
    workload.measure(seconds / 2.0, untraced)
    workload.prepare_trace()
    disk_before = workload.disk_bytes()
    recorder = Recorder()
    instrument(recorder)
    try:
        workload.traced_setup(recorder, traced)
        workload.measure(seconds / 2.0, traced, recorder)
    finally:
        recorder.uninstall()
    record["replay_key_match"] = replay_matches(traced)
    traced.record(record["replay_key_match"], "untraced replay differs from the traced compile")
    metrics = layer_metrics(recorder, traced, untraced,
                            disk_written=workload.disk_bytes() - disk_before,
                            parcompile_ratio=parcompile_wall_ratio(workload.seed))
    spans_path = os.path.join(WORK, f"spans-{workload.name}-{workload.seed}.jsonl")
    recorder.dump(spans_path)
    record.update(spans=os.path.relpath(spans_path, ROOT), spans_recorded=len(recorder.names),
                  traced_compiles=traced.compiles, traced_requests=traced.requests)
    return [warm, untraced, traced], metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no repro package under {SRC}: run from the root of a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    from workloads import WORKLOADS, Skipped

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "hardware": hardware()}
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        try:
            measure = per_layer if args.trace else end_to_end
            phases, metrics = measure(workload, args.seconds, record)
        finally:
            workload.close()
    except Skipped as skip:
        record["skipped"] = str(skip)
        print(json.dumps(record))
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # Names and units come from BENCHMARK.json, so the two cannot drift.
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as spec:
        declared = json.load(spec)["per_layer" if args.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(metrics))}")
    attempted = sum(phase.attempted for phase in phases)
    failed = sum(phase.failed for phase in phases)
    print(json.dumps(record))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
