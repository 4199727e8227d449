"""The two workloads: set-up, warm-up and one timed measurement window.

Each workload drives the system only through its public surface
(``repro.api.compile``/``serve``, the cluster's ``Dispatcher``) and checks
every operation's output against the reference ``gen.py`` built with the
input.  With a :class:`spans.Recorder` passed to :meth:`Workload.measure`,
each timed operation becomes a root span (``compile`` or ``request``) for
the layer spans under it.
"""

from __future__ import annotations

import gc
import json
import os
import random
import resource
import shutil
import subprocess
import sys
import time
import traceback

import gen
from hostspeed import HostSpeed
from repro import api
from repro.api import CompileConfig
from repro.cluster import DiskCache
from repro.ffi import counter_program
from repro.runtime import ModuleCache, Request, Session

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

MAX_WORKERS = 4
TWIN_REPLAYS = 2000
COLD_CONFIG = {"opt_level": "O2", "engine": "compiled", "cache": "private"}


class Skipped(Exception):
    """The workload cannot run meaningfully on this host."""


def available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set of another live process (Linux ``VmHWM``)."""

    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class Phase:
    """What the operations of one or more measurement windows observed."""

    def __init__(self) -> None:
        # Timings scaled to the reference host speed by scale(); the raw_
        # fields keep them unscaled.
        self.raw_latencies_ms: list[float] = []
        self.probe_index: list[int] = []  # the host probe before each sample
        self.latencies_ms: list[float] = []
        self.work = 0          # functions or requests completed
        self.works: list[int] = []
        self.busy_s = 0.0      # sum of the timed operations' walls
        self.raw_busy_s = 0.0
        self.factor_sum = 0.0  # of the scale factors, one per sample
        self.wall_s = 0.0      # the measurement windows, unscaled
        self.attempted = 0
        self.failed = 0
        # Facts the program reports about its own work, read while tracing.
        self.compiles = 0
        self.requests = 0
        self.steps = 0
        self.fresh_instances = 0
        self.rewrites: dict[str, int] = {}
        self.units: dict[str, list[int]] = {}
        self.ir_lowered = 0
        self.ir_optimized = 0
        self.cluster_overhead_us: list[float] = []
        #: ``(sources, config, program)`` of the first traced compile.
        self.replay = None

    def sample(self, elapsed_s: float, probe_index: int, work: int = 1) -> None:
        """One timed operation that completed ``work`` units, after host
        probe ``probe_index``; its latency is per unit of work."""

        self.raw_latencies_ms.append(elapsed_s * 1000.0 / work)
        self.probe_index.append(probe_index)
        self.works.append(work)
        self.work += work
        self.raw_busy_s += elapsed_s

    def scale(self, speed: HostSpeed) -> None:
        """Scale every sample by the probes around it (see ``hostspeed``);
        the last probe must follow the last sample."""

        factors = [speed.between(index) for index in self.probe_index]
        self.latencies_ms = [raw * f for raw, f in zip(self.raw_latencies_ms, factors)]
        self.busy_s = sum(raw * work * f / 1000.0 for raw, work, f
                          in zip(self.raw_latencies_ms, self.works, factors))
        self.factor_sum = sum(factors)

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= 3:
                print(f"FAILED: {what}", file=sys.stderr)

    def note_compile(self, program, sources, config) -> None:
        self.compiles += 1
        if self.replay is None:
            self.replay = (sources, config, program)
        optimization = program.lowered.optimization
        if optimization is not None:
            self.ir_lowered += optimization.instructions_before
            self.ir_optimized += optimization.instructions_after
            for stats in optimization.stats:
                self.rewrites[stats.name] = self.rewrites.get(stats.name, 0) + stats.rewrites
        else:
            count = program.wasm.instruction_count()
            self.ir_lowered += count
            self.ir_optimized += count
        diagnostics = program.diagnostics
        for stage, counts in (diagnostics.units if diagnostics is not None else {}).items():
            totals = self.units.setdefault(stage, [0, 0])
            totals[0] += counts["reused"]
            totals[1] += counts["compiled"]

    def note_outcome(self, outcome) -> None:
        self.requests += 1
        self.steps += outcome.steps


def timed(call, recorder=None, root: str = ""):
    """``(result, seconds)`` of ``call()``, under a root span named
    ``root`` when a recorder is tracing."""

    if recorder is None:
        start = time.perf_counter()
        result = call()
        return result, time.perf_counter() - start
    with recorder.span(root):
        start = time.perf_counter()
        result = call()
        return result, time.perf_counter() - start


def session_ok(outcome, item) -> bool:
    if item.expected is None:
        return (not outcome.ok) and outcome.trap_kind == "step_budget"
    return outcome.ok and outcome.values == item.expected


def check_program(program, item, phase: Phase) -> None:
    """Serve a compiled program and run its reference checks."""

    with api.serve(program) as service:
        for export, args, expected in item.checks:
            if export == "session":
                outcome = service.run_one(Session(calls=tuple((e, a) for e, a, _ in args)))
                ok = outcome.ok and outcome.values == [values for _, _, values in args]
            else:
                outcome = service.run_one(Request(export, tuple(args)))
                ok = outcome.ok and outcome.values == expected
            phase.note_outcome(outcome)
            phase.record(ok, f"{item.kind} {export}{args!r}: {outcome.values or outcome.trap!r}")
        phase.fresh_instances += service.pool.stats.created


class Workload:
    name = ""
    setup_repeats = 3
    throughput_unit = ""

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.speed = HostSpeed()

    def setup(self) -> float:
        """One timed set-up (raw seconds); the workload keeps the last
        one's state."""

        raise NotImplementedError

    def timed_setup(self) -> tuple[float, float]:
        """One set-up: ``(raw seconds, host scale factor)``."""

        index = self.speed.probe()
        elapsed = self.setup()
        self.speed.probe()
        return elapsed, self.speed.between(index)

    def warm(self, phase: Phase) -> None:
        """Untimed, checked operations after set-up, so lazy work is done."""

    def prepare_trace(self) -> None:
        """Untraced preparation for the traced half of a traced run."""

    def traced_setup(self, recorder, phase: Phase) -> None:
        """Set up once more under tracing, where the workload's layers do
        their work in set-up (a no-op for compile_cold)."""

    def measure(self, seconds: float, phase: Phase, recorder=None) -> None:
        raise NotImplementedError

    def throughput(self, phase: Phase, raw: bool = False) -> float:
        return phase.work / (phase.raw_busy_s if raw else phase.busy_s)

    def disk_bytes(self) -> int:
        """Bytes in the workload's disk cache (``cache_dir``)."""

        return DiskCache(self.cache_dir).total_bytes()

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()

    def close(self) -> None:
        pass


_COLD_SETUP_CHILD = r"""
import json, random, sys, time
sys.path.insert(0, sys.argv[2])
from hostspeed import HostSpeed
speed = HostSpeed()
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from repro import api
import gen
rng = random.Random(int(sys.argv[4]))
item = gen.linked_input(rng, gen.Literals(rng))
api.compile(item.sources, dict(json.loads(sys.argv[5]), cache_dir=sys.argv[3]))
end = time.perf_counter()
speed.probe()
print(json.dumps({"setup_s": end - start, "factor": speed.between(0)}))
"""


class CompileCold(Workload):
    """Never-seen programs through ``api.compile``; latency is per compiled
    function, throughput is functions over the summed compile walls."""

    name = "compile_cold"
    setup_repeats = 7
    throughput_unit = "functions/s"

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        self.inputs = gen.cold_inputs(seed)
        self.cache_dir = os.path.join(workdir, "cold-cache")
        self.config = dict(COLD_CONFIG, cache_dir=self.cache_dir)
        self._setups = 0

    def setup(self) -> float:
        return self.timed_setup()[0]

    def timed_setup(self) -> tuple[float, float]:
        """A cold process: importing the package and both frontends
        (``gen`` imports ``repro.ml``/``repro.l3``/``repro.ffi``), building a
        linked ML+L3 program and compiling it into a fresh disk cache, as one
        span timed and probed in the child, without interpreter start-up."""

        self._setups += 1
        cache_dir = os.path.join(self.workdir, f"setup-cache-{self._setups}")
        child = subprocess.run(
            [sys.executable, "-c", _COLD_SETUP_CHILD, SRC, HERE, cache_dir,
             str(self.seed * 1000 + self._setups), json.dumps(COLD_CONFIG)],
            capture_output=True, text=True, timeout=120,
        )
        shutil.rmtree(cache_dir, ignore_errors=True)
        if child.returncode != 0:
            raise RuntimeError(f"compile_cold set-up child failed:\n{child.stderr}")
        result = json.loads(child.stdout.strip().splitlines()[-1])
        return result["setup_s"], result["factor"]

    def warm(self, phase: Phase) -> None:
        # A fixed set of compiles whatever the seed, so the peak memory read
        # after it covers every size and a linked program, and a per-compile
        # leak shows in it without depending on throughput.
        for _ in range(gen.COLD_WARM):
            item = next(self.inputs)
            check_program(api.compile(item.sources, self.config), item, phase)

    def measure(self, seconds: float, phase: Phase, recorder=None) -> None:
        begin = time.perf_counter()
        while time.perf_counter() < begin + seconds:
            item = next(self.inputs)
            probe = self.speed.probe()
            try:
                program, elapsed = timed(lambda: api.compile(item.sources, self.config),
                                         recorder, "compile")
            except Exception:
                traceback.print_exc()
                phase.record(False, f"compile of {item.kind} raised")
                continue
            phase.sample(elapsed, probe, item.functions)
            if recorder is not None:
                phase.note_compile(program, item.sources, self.config)
            check_program(program, item, phase)
        phase.wall_s += time.perf_counter() - begin
        self.speed.probe()
        phase.scale(self.speed)


_CLUSTER_POPULATE_CHILD = r"""
import sys
sys.path[:0] = [sys.argv[1]]
from repro import api
from repro.ffi import counter_program
api.compile(counter_program(), {"cache": "private", "cache_dir": sys.argv[2]})
"""


class ServeCluster(Workload):
    """Fig. 9 counter sessions on a multi-process cluster restarted from a
    warm disk cache; one client thread keeps one session in flight per
    worker.  A request's latency runs from submit to collect; throughput is
    requests over the measurement window."""

    name = "serve_cluster"
    setup_repeats = 9
    throughput_unit = "requests/s"

    def __init__(self, seed: int, workdir: str) -> None:
        cpus = available_cpus()
        if cpus < 2:
            raise Skipped(f"cpus_available={cpus} < 2: a cluster needs a core per worker")
        super().__init__(seed, workdir)
        self.sessions = gen.sessions(seed)
        self.workers = min(cpus, MAX_WORKERS)
        self.cache_dir = os.path.join(workdir, "cluster-cache")
        self.config = {"workers": self.workers, "cache": "private", "cache_dir": self.cache_dir}
        # The earlier process whose disk cache every set-up restarts from.
        subprocess.run(
            [sys.executable, "-c", _CLUSTER_POPULATE_CHILD, SRC, self.cache_dir],
            check=True, capture_output=True, timeout=120,
        )
        self.service = None
        self.twin = None
        self._round_trips = None

    def _serve(self):
        return api.serve(counter_program(), self.config)

    def _close_service(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None

    def setup(self) -> float:
        self._close_service()
        self.service, elapsed = timed(self._serve)
        return elapsed

    def traced_setup(self, recorder, phase: Phase) -> None:
        self._close_service()
        self.service, _ = timed(self._serve, recorder, "compile")
        phase.note_compile(self.service.compiled, counter_program(), self.config)

    def warm(self, phase: Phase) -> None:
        self._loop(phase, count=200, sample=False)

    def prepare_trace(self) -> None:
        # The in-process twin (same default engine) that serves each traced
        # request again, to time it without the cluster around it.
        self.twin = api.serve(counter_program(), {"cache": "private"})

    def measure(self, seconds: float, phase: Phase, recorder=None) -> None:
        self._round_trips = [] if recorder is not None else None
        begin = time.perf_counter()
        self._loop(phase, deadline=begin + seconds, recorder=recorder)
        phase.wall_s += time.perf_counter() - begin
        self.speed.probe()
        phase.scale(self.speed)
        if recorder is None:
            return
        # After the window, so the twin never competes with the workers; an
        # evenly spaced sample of at most TWIN_REPLAYS requests bounds the cost.
        created = self.twin.pool.stats.created
        stride = max(1, len(self._round_trips) // TWIN_REPLAYS)
        for round_trip, item in self._round_trips[::stride]:
            request = Session(calls=item.calls, max_steps=item.max_steps)
            outcome, elapsed = timed(lambda: self.twin.run_one(request), recorder, "request")
            phase.cluster_overhead_us.append((round_trip - elapsed) * 1e6)
            phase.note_outcome(outcome)
            phase.record(session_ok(outcome, item),
                         f"{item.kind} session on the twin: {outcome.values or outcome.trap!r}")
        phase.fresh_instances += self.twin.pool.stats.created - created

    def throughput(self, phase: Phase, raw: bool = False) -> float:
        # Requests over the window, scaled by the samples' mean factor.
        return phase.work / phase.wall_s * (1.0 if raw else phase.work / phase.factor_sum)

    def _request(self, item):
        resolve = self.service.resolve
        return Session(calls=tuple((resolve(export), args) for export, args in item.calls),
                       max_steps=item.max_steps)

    def _loop(self, phase: Phase, *, deadline=None, count=None, sample=True, recorder=None):
        dispatcher = self.service.dispatcher
        inflight = []
        submitted = 0
        draining = False

        def submit() -> None:
            nonlocal submitted
            item = next(self.sessions)
            start = time.perf_counter()
            inflight.append((dispatcher.submit(self._request(item)), start, item))
            submitted += 1

        def refill() -> int:
            # Nothing is in flight, so the workers idle while the host is probed.
            probe = self.speed.current()
            for _ in range(self.workers):
                submit()
            return probe

        probe = refill()
        while inflight:
            request_id, start, item = inflight.pop(0)
            outcome, _ = timed(lambda: dispatcher.collect(request_id), recorder, "request")
            elapsed = time.perf_counter() - start
            if sample:
                phase.sample(elapsed, probe)
            if recorder is not None:
                self._round_trips.append((elapsed, item))
            phase.note_outcome(outcome)
            phase.record(session_ok(outcome, item),
                         f"{item.kind} session: {outcome.values or outcome.trap!r}")
            if (deadline is not None and time.perf_counter() >= deadline) or (
                    count is not None and submitted >= count):
                continue
            # A due probe first lets the sessions in flight drain.
            draining = draining or self.speed.due()
            if not draining:
                submit()
            elif not inflight:
                draining = False
                probe = refill()

    def peak_rss_mb(self) -> float:
        """The parent's peak plus every live worker's."""

        workers = sum(process_peak_rss_mb(handle.process.pid)
                      for handle in self.service.pool.handles if handle.process is not None)
        return peak_rss_mb() + workers

    def close(self) -> None:
        self._close_service()
        if self.twin is not None:
            self.twin.close()
            self.twin = None


def replay_matches(phase: Phase) -> bool:
    """Compile the first traced compile's input again, untraced, on a fresh
    memory-only cache: the content key and the compiled Wasm must equal
    the traced compile's."""

    from repro.core.syntax.intern import structural_digest

    sources, config, traced = phase.replay
    config = CompileConfig.of(config).replace(cache="private", cache_dir=None, workers=1)
    program = api.compile(sources, config, cache=ModuleCache())
    return (program.key == traced.key
            and structural_digest(program.wasm) == structural_digest(traced.wasm))


WORKLOADS = {cls.name: cls for cls in (CompileCold, ServeCluster)}


def parcompile_wall_ratio(seed: int) -> float:
    """Cold compile wall at ``compile_workers=<cpus>`` over serial, on twin
    copies (built separately, structurally equal) of a compile_cold-style
    program; the two sides alternate which goes first."""

    workers = max(2, min(available_cpus(), MAX_WORKERS))
    walls = {1: 0.0, workers: 0.0}
    for repeat in range(2):
        for side in ((1, workers) if repeat % 2 == 0 else (workers, 1)):
            rng = random.Random(seed * 7919 + repeat)
            item = gen.synthetic_input(rng, gen.Literals(rng), 64)
            gc.collect()
            _, elapsed = timed(lambda: api.compile(
                item.sources, dict(COLD_CONFIG, compile_workers=side)))
            walls[side] += elapsed
    return walls[workers] / walls[1]
