"""Tests for :mod:`repro.parcompile` — parallel per-function compilation.

The correctness contract is identity-by-construction: the parallel layer
only pre-seeds the function-unit cache, and the unchanged serial pipeline
recomposes from the seeds — so a parallel compile must be dataclass- and
content-key-identical to a serial one, survive worker death by recomputing
the lost units serially, keep ``Diagnostics.units`` counts exact (no
double counting across processes), and leave deterministic
:class:`~repro.cluster.DiskCache` entry sets at any worker count.
"""

import marshal
import os
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro import api, parcompile
from repro.api import CompileConfig, Diagnostics
from repro.api.config import ConfigError
from repro.cluster import DiskCache
from repro.obs.metrics import default_registry
from repro.opt import run_engine_cross_check
from repro.runtime import ModuleCache
from repro.runtime.cache import content_key
from repro.wasm import pygen

from workloads import edit_one_function, synthetic_module

FUNCTIONS = 20


def _config(workers: int, **overrides) -> CompileConfig:
    return CompileConfig(
        opt_level="O1", engine="compiled", cache="private", compile_workers=workers, **overrides
    ).validate()


def _compile(module, workers: int, disk=None):
    cache = ModuleCache(disk=disk)
    program = cache.compile_program(module, config=_config(workers))
    return cache, program


# ---------------------------------------------------------------------------
# Tentpole: bit-identity and cross-engine agreement
# ---------------------------------------------------------------------------


def test_parallel_cold_compile_bit_identical_to_serial():
    module = synthetic_module(1, functions=FUNCTIONS)
    _serial_cache, serial = _compile(module, 1)
    par_cache, parallel = _compile(module, 3)

    assert serial.wasm == parallel.wasm
    assert content_key("wasm", serial.wasm) == content_key("wasm", parallel.wasm)
    assert serial.key == parallel.key

    # Guard against the test passing vacuously through a silent serial
    # fallback: the pool must have actually compiled the units.
    report = par_cache.last_parcompile
    assert report is not None
    assert report.fallbacks == []
    assert report.phases == ["function_units", "translate_units"]
    assert report.worker_deaths == 0
    assert report.units_seeded["lower"] == FUNCTIONS
    assert report.units_seeded["decode"] == FUNCTIONS
    assert report.units_seeded["translate"] >= FUNCTIONS
    assert sum(counts["units"] for counts in report.per_worker.values()) == sum(
        report.units_seeded.values()
    ) + sum(report.units_warm.values())


def test_parallel_artifacts_cross_check_all_engines():
    module = synthetic_module(1, functions=8)
    _cache, program = _compile(module, 2)
    calls = [("main", ()), ("f1", ()), ("f7", ())]
    report = run_engine_cross_check(program.wasm, calls)
    assert report.ok, report.format_report()
    interpreter, instance = program.instantiate()
    # Function i computes seed + 1 with seed = i + 1 (workloads contract).
    assert interpreter.invoke(instance, "main", [])[0] == 2
    assert interpreter.invoke(instance, "f7", [])[0] == 9


def test_parallel_recompile_of_edited_module_matches_serial():
    base = synthetic_module(1, functions=FUNCTIONS)
    edited = edit_one_function(base, FUNCTIONS // 2)

    serial_cache = ModuleCache()
    serial_cache.compile_program(base, config=_config(1))
    serial = serial_cache.compile_program(edited, config=_config(1))

    par_cache = ModuleCache()
    par_cache.compile_program(base, config=_config(2))
    par = par_cache.compile_program(edited, config=_config(2))

    assert serial.wasm == par.wasm
    assert serial.key == par.key
    # Only the edited function misses its units, so the recompile pool fans
    # out exactly one function per phase.
    report = par_cache.last_parcompile
    assert report is not None
    assert report.units_seeded["lower"] == 1
    assert report.units_seeded["translate"] == 1


# ---------------------------------------------------------------------------
# Satellite: worker death must not wedge the parent
# ---------------------------------------------------------------------------


def test_worker_death_recovers_serially_and_is_counted():
    module = synthetic_module(1, functions=FUNCTIONS)
    _serial_cache, serial = _compile(module, 1)

    died_before = default_registry().counter("compile.worker_died").labeled(
        phase="function_units"
    )
    parcompile.CRASH_AFTER_BATCHES[0] = 1  # worker 0 hard-exits after 1 batch
    try:
        par_cache, parallel = _compile(module, 2)
    finally:
        parcompile.CRASH_AFTER_BATCHES.clear()

    # The compile completed, identical to serial: the dead worker's lost
    # units were recomputed by the serial recompose.
    assert serial.wasm == parallel.wasm
    assert serial.key == parallel.key
    report = par_cache.last_parcompile
    assert report.worker_deaths >= 1
    died_after = default_registry().counter("compile.worker_died").labeled(
        phase="function_units"
    )
    assert died_after > died_before


# ---------------------------------------------------------------------------
# Satellite: Diagnostics.units stays exact under parallelism
# ---------------------------------------------------------------------------


def test_parallel_diagnostics_units_match_serial_exactly():
    module = synthetic_module(1, functions=12)
    serial_prog = api.compile({"m": module}, _config(1))
    par_prog = api.compile({"m": module}, _config(2))

    serial_diag: Diagnostics = serial_prog.diagnostics
    par_diag: Diagnostics = par_prog.diagnostics
    # The seeded-fresh replay makes the parent's unit lookups record the
    # same reused/compiled counts a serial compile records — exactly.
    assert par_diag.units == serial_diag.units
    assert serial_diag.parcompile is None
    assert par_diag.parcompile is not None
    assert par_diag.parcompile["workers"] == 2
    assert par_diag.parcompile["worker_deaths"] == 0
    # Round-trips with the rest of the diagnostics payload.
    assert Diagnostics.from_dict(par_diag.to_dict()).parcompile == par_diag.parcompile


def test_seeded_units_replay_worker_outcomes_once():
    from repro.compilepipe import FunctionUnitCache

    units = FunctionUnitCache()
    units.seed("lower", "k-fresh", ("value",), fresh=True)
    units.seed("lower", "k-warm", ("value",), fresh=False)
    assert units.peek("lower", "k-fresh") == ("value",)
    assert units.stats["lower"].lookups == 0  # seeding and peeking count nothing

    assert units.get("lower", "k-fresh") == ("value",)
    assert (units.stats["lower"].reused, units.stats["lower"].compiled) == (0, 1)
    assert units.get("lower", "k-fresh") == ("value",)  # later lookups are reuse
    assert (units.stats["lower"].reused, units.stats["lower"].compiled) == (1, 1)

    assert units.get("lower", "k-warm") == ("value",)  # disk-warm: reuse from the start
    assert (units.stats["lower"].reused, units.stats["lower"].compiled) == (2, 1)


def test_worker_metrics_fold_through_merge_snapshots(tmp_path):
    module = synthetic_module(1, functions=10)
    cache, _program = _compile(module, 2, disk=DiskCache(tmp_path / "units"))
    report = cache.last_parcompile
    assert report is not None and report.fallbacks == []
    # Workers reset inherited telemetry, then their disk-tier unit traffic
    # lands on their own registries; the parent folds the snapshots.
    merged = {record["name"]: record for record in report.merged_metrics}
    events = merged["runtime.cache.events"]
    disk_stages = {entry["labels"].get("stage") for entry in events.get("labels", [])}
    assert any(stage and stage.startswith("disk.unit.") for stage in disk_stages)


# ---------------------------------------------------------------------------
# Satellite: deterministic content keys and disk entry sets per worker count
# ---------------------------------------------------------------------------


def test_determinism_across_worker_counts(tmp_path):
    base = synthetic_module(1, functions=10)
    edited = edit_one_function(base, 5)

    keys = {}
    entry_sets = {}
    for workers in (1, 2, 4):
        disk = DiskCache(tmp_path / f"w{workers}")
        cache = ModuleCache(disk=disk)
        cache.compile_program(base, config=_config(workers))
        program = cache.compile_program(edited, config=_config(workers))
        keys[workers] = program.key
        # The "key" stage is the program-fingerprint shortcut: its disk key
        # hashes pickle *bytes*, which change once digests are cached on the
        # (shared) module objects — construction-history-dependent by design
        # (see ModuleCache.program_key), so it is excluded from the
        # determinism comparison.
        entries = {(entry.stage, entry.key) for entry in disk.entries() if entry.stage != "key"}
        entry_sets[workers] = {
            "module": {e for e in entries if not e[0].startswith(parcompile.UNIT_STAGE_PREFIX)},
            "units": {e for e in entries if e[0].startswith(parcompile.UNIT_STAGE_PREFIX)},
        }

    # Identical content keys at every worker count.
    assert keys[1] == keys[2] == keys[4]
    # The module-level stages (link/lower/program/decode/key) leave the same
    # entries whether compiled serially or in parallel ...
    assert entry_sets[1]["module"] == entry_sets[2]["module"] == entry_sets[4]["module"]
    # ... the serial path publishes no per-function units, and the parallel
    # paths publish the *same* unit set at any worker count.
    assert entry_sets[1]["units"] == set()
    assert entry_sets[2]["units"] == entry_sets[4]["units"]
    assert entry_sets[2]["units"]


def test_parallel_warm_disk_translate_preseeds_without_pool(tmp_path):
    disk = DiskCache(tmp_path / "shared")
    module = synthetic_module(1, functions=8)
    seed_cache = ModuleCache(disk=disk)
    seed_cache.compile_program(module, config=_config(2))

    warm_cache = ModuleCache(disk=disk)
    program = warm_cache.compile_program(module, config=_config(2))
    report = warm_cache.last_parcompile
    # Program came from disk; translate units were rebuilt from the disk
    # wire entries parent-side — every unit warm, no pool phase needed.
    assert report is not None
    assert report.phases == []
    assert report.units_seeded == {}
    assert report.units_warm["translate"] >= 8
    interpreter, instance = program.instantiate()
    assert interpreter.invoke(instance, "main", [])[0] == 2


@pytest.mark.parametrize("change", ["interpreter", "codegen"])
def test_persisted_translate_units_of_another_build_are_misses(tmp_path, monkeypatch, change):
    disk = DiskCache(tmp_path / "shared")
    module = synthetic_module(1, functions=8)
    ModuleCache(disk=disk).compile_program(module, config=_config(2))
    assert sum(entry.stage == "unit.translate" for entry in disk.entries()) >= 8

    if change == "interpreter":
        monkeypatch.setattr(sys.implementation, "cache_tag", "otherpython-99")
    else:
        edited = tmp_path / "pygen.py"
        edited.write_bytes(Path(pygen.__file__).read_bytes() + b"\n# codegen edit\n")
        monkeypatch.setattr(pygen, "__file__", str(edited))

    unmarshalled: list = []

    def loads(blob):
        unmarshalled.append(blob)
        return marshal.loads(blob)

    pooled: list = []
    monkeypatch.setattr(parcompile, "marshal", SimpleNamespace(dumps=marshal.dumps, loads=loads))
    monkeypatch.setattr(parcompile, "_run_pool", lambda phase, payload, tasks, *rest: pooled.append(tasks))

    warm_cache = ModuleCache(disk=disk)
    program = warm_cache.compile_program(module, config=_config(2))
    # Every disk wire unit missed before unmarshalling: all of them were
    # handed to the (stubbed) pool, none warm-read, and the serial
    # recompose translated the module afresh.
    report = warm_cache.last_parcompile
    assert unmarshalled == []
    assert report.fallbacks == []
    assert "translate" not in report.units_warm
    assert len(pooled) == 1 and len(pooled[0]) >= 8
    interpreter, instance = program.instantiate()
    assert interpreter.invoke(instance, "main", [])[0] == 2


# ---------------------------------------------------------------------------
# Config surface
# ---------------------------------------------------------------------------


def test_compile_workers_validated_and_excluded_from_content_key():
    for bad in (0, -1, "2", 1.5, True):
        with pytest.raises(ConfigError):
            CompileConfig(compile_workers=bad).validate()
    serial = CompileConfig(opt_level="O1").validate()
    parallel = serial.replace(compile_workers=4)
    # Bookkeeping like `engine`: any worker count compiles the same artifact.
    assert serial.content_key() == parallel.content_key()


def test_serial_config_skips_the_pool():
    module = synthetic_module(1, functions=4)
    cache, _program = _compile(module, 1)
    assert cache.last_parcompile is None
