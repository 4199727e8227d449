"""Benchmark-side spans around the layers' public functions.

:class:`Recorder` replaces a function or method with a wrapper that records
one span per call (name, start, end, parent span) and restores every
original on :meth:`Recorder.uninstall`.  Nothing inside the program is
changed: the wrappers sit at the attribute the program looks the callee up
by, so a call from one layer into the next passes through exactly one span.

Only the process that installed the wrappers records: a worker forked from
it (a cluster's) inherits them but calls straight through.  Spans stay in
memory while the benchmark runs; :meth:`Recorder.dump` writes them out as
JSON lines at the end.  A layer's *self time* is its spans' durations minus
the parts covered by their direct child spans.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

#: The optimization passes of the O2 pipeline, by pass name.
OPT_PASSES = ("dce", "flatten", "coalesce", "copyprop", "constfold", "peephole",
              "deadlocals", "deadfuncs")
UNIT_STAGES = ("typecheck", "lower", "optimize", "validate", "decode", "translate")


class Recorder:
    """In-memory span store plus the patch table that feeds it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        #: Outcome tallies (e.g. disk-cache hits) recorded by wrappers.
        self.events: dict[str, int] = defaultdict(int)
        self._stack = [-1]
        self._pid = os.getpid()
        self._patches: list[tuple[object, str, object, bool]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield index
        finally:
            self._close(index)

    def wrap(self, owner, attr: str, name: str, tally=None) -> None:
        """Route ``owner.attr`` through a span named ``name``.

        ``tally``, if given, maps each call's result to an event name that
        is counted in :attr:`events`.
        """

        own = attr in vars(owner)
        original = getattr(owner, attr)
        events = self.events
        pid = self._pid

        def traced(*args, **kwargs):
            if os.getpid() != pid:
                return original(*args, **kwargs)
            index = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(index)
            if tally is not None:
                events[tally(result)] += 1
            return result

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original, own))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- analysis ----------------------------------------------------------

    def self_times(self, since: int = 0) -> tuple[dict[str, float], dict[str, int]]:
        """Total self time (s) and call count per span name, over the spans
        recorded from index ``since`` on."""

        child = [0.0] * len(self.names)
        for index in range(since, len(self.names)):
            parent = self.parents[index]
            if parent >= 0:
                child[parent] += self.ends[index] - self.starts[index]
        totals: dict[str, float] = defaultdict(float)
        counts: dict[str, int] = defaultdict(int)
        for index in range(since, len(self.names)):
            name = self.names[index]
            totals[name] += self.ends[index] - self.starts[index] - child[index]
            counts[name] += 1
        return totals, counts

    def durations(self, name: str, since: int = 0) -> list[float]:
        return [self.ends[i] - self.starts[i] for i in range(since, len(self.names))
                if self.names[i] == name]

    def dump(self, path) -> None:
        origin = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as out:
            for index, name in enumerate(self.names):
                out.write(json.dumps({
                    "id": index, "parent": self.parents[index], "name": name,
                    "start_us": round((self.starts[index] - origin) * 1e6, 3),
                    "dur_us": round((self.ends[index] - self.starts[index]) * 1e6, 3),
                }) + "\n")


def instrument(recorder: Recorder) -> None:
    """Wrap every layer boundary the per-layer metrics are read from."""

    from repro import compilepipe, opt
    from repro.api import frontends, service
    from repro.cluster import diskcache, dispatcher, service as cluster_service
    from repro.opt.manager import default_passes
    from repro.runtime import batch, cache, pool
    from repro.wasm import validation

    wrap = recorder.wrap
    for frontend in (frontends.MLFrontend, frontends.L3Frontend, frontends.RichWasmFrontend):
        wrap(frontend, "compile_source", "frontend")
    wrap(cache.ModuleCache, "link", "link")
    wrap(cache.ModuleCache, "typecheck", "typecheck")
    wrap(cache.ModuleCache, "lower", "lower.cache")
    wrap(cache, "lower_module", "lower")
    wrap(opt, "optimize_module", "optimize")
    for pass_ in default_passes():
        method = "run_module" if hasattr(type(pass_), "run_module") else "run"
        wrap(type(pass_), method, f"opt.{pass_.name}")
    wrap(cache, "validate_module", "validate")
    wrap(validation, "validate_module", "validate")
    wrap(cache.ModuleCache, "decode", "decode")
    wrap(cache.ModuleCache, "translate", "translate")
    wrap(cache.ModuleCache, "program_key", "modulekey")
    wrap(cache, "content_key", "modulekey")
    for stage in UNIT_STAGES:
        wrap(compilepipe, f"{stage}_unit_key", f"unitkey.{stage}")
    wrap(diskcache.DiskCache, "get", "diskcache.get",
         tally=lambda found: "diskcache.miss" if found is None else "diskcache.hit")
    wrap(diskcache.DiskCache, "put", "diskcache.put")
    wrap(service.Service, "resolve", "service.resolve")
    wrap(batch.BatchRunner, "run_one", "batch.run_one")
    wrap(pool.InstancePool, "acquire", "pool.acquire")
    wrap(pool.InstancePool, "release", "pool.release")
    wrap(pool.PooledInstance, "invoke", "engine.invoke")
    wrap(dispatcher.Dispatcher, "submit", "dispatcher.submit")
    wrap(dispatcher.Dispatcher, "collect", "dispatcher.collect")
    wrap(cluster_service.ClusterService, "__init__", "cluster.start")


def layer_metrics(recorder: Recorder, phase, untraced, *, disk_written: int,
                  parcompile_ratio: float) -> dict:
    """Per-layer metrics from the traced half of a run.

    Compile-layer times and counts are per traced compile (a sample of the
    compile workloads, the traced set-up of the serving ones); serving-layer
    times are per request.  A layer the workload never reaches reads 0.
    """

    totals, counts = recorder.self_times()

    def per(total: float, count: int, scale: float = 1.0) -> float:
        return total * scale / count if count else 0.0

    compiles = phase.compiles
    requests = counts.get("batch.run_one", 0)
    collects = counts.get("dispatcher.collect", 0)

    def ms(name: str) -> float:
        return per(totals.get(name, 0.0), compiles, 1e3)

    def us(name: str, count: int) -> float:
        return per(totals.get(name, 0.0), count, 1e6)

    metrics = {f"{layer}.ms": ms(layer) for layer in (
        "frontend", "link", "typecheck", "lower", "validate", "decode", "translate", "modulekey")}
    for name in OPT_PASSES:
        metrics[f"opt.{name}.ms"] = ms(f"opt.{name}")
        metrics[f"opt.{name}.rewrites"] = per(phase.rewrites.get(name, 0), compiles)
    metrics["unitkey.ms"] = sum(ms(f"unitkey.{stage}") for stage in UNIT_STAGES)
    for stage in UNIT_STAGES:
        metrics[f"unitkey.{stage}.count"] = per(counts.get(f"unitkey.{stage}", 0), compiles)
        reused, compiled = phase.units.get(stage, (0, 0))
        metrics[f"units.{stage}.reuse_ratio"] = per(reused, reused + compiled)
    metrics["ir.instructions_lowered"] = per(phase.ir_lowered, compiles)
    metrics["ir.instructions_optimized"] = per(phase.ir_optimized, compiles)

    hits = recorder.events.get("diskcache.hit", 0)
    lookups = hits + recorder.events.get("diskcache.miss", 0)
    metrics["diskcache.put_ms"] = ms("diskcache.put")
    metrics["diskcache.bytes_written"] = per(disk_written, compiles)
    metrics["diskcache.get_ms"] = ms("diskcache.get")
    metrics["diskcache.hit_ratio"] = per(hits, lookups)
    starts = recorder.durations("cluster.start")
    metrics["cluster.worker_start_s"] = statistics.median(starts) if starts else 0.0
    metrics["parcompile.wall_ratio"] = parcompile_ratio

    metrics["service.resolve_us"] = us("service.resolve", requests)
    metrics["pool.acquire_us"] = us("pool.acquire", requests)
    metrics["pool.release_us"] = us("pool.release", requests)
    metrics["pool.fresh_instances"] = float(phase.fresh_instances)
    metrics["batch.self_us"] = us("batch.run_one", requests)
    metrics["engine.invoke_us"] = us("engine.invoke", requests)
    metrics["engine.steps"] = per(phase.steps, phase.requests)
    # Steps per request times the requests the spans timed (the wrappers do
    # not record in a cluster's forked workers; only the twin's are timed).
    metrics["engine.steps_per_s"] = per(metrics["engine.steps"] * requests,
                                        totals.get("engine.invoke", 0.0))
    metrics["dispatcher.submit_us"] = us("dispatcher.submit", collects)
    metrics["dispatcher.collect_us"] = us("dispatcher.collect", collects)
    metrics["cluster.overhead_us"] = (statistics.median(phase.cluster_overhead_us)
                                      if phase.cluster_overhead_us else 0.0)
    metrics["trace.overhead_pct"] = 100.0 * (
        statistics.median(phase.latencies_ms) / statistics.median(untraced.latencies_ms) - 1.0)
    return metrics
