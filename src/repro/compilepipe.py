"""Function-granular compilation units for the incremental compile pipeline.

:class:`repro.runtime.ModuleCache` memoizes whole modules: one edited
function used to invalidate every stage for the entire module.  This module
supplies the layer underneath — a :class:`FunctionUnitCache` holding
per-*function* artifacts for each compile stage, keyed by content so that a
new version of a module reuses every unchanged function's work:

* **typecheck** — (function digest, signature-environment digest,
  ``allow_caps`` flag) → the function's checked instruction count
  (:func:`repro.core.typing.check_module`);
* **lower** — (function digest, signature-environment digest) → the lowered
  :class:`~repro.wasm.ast.WasmFunction` plus the erasure/boxing statistics
  deltas its compilation contributed (:class:`repro.lower.ModuleLowering`);
* **optimize** — (pass name, Wasm function digest) → the rewritten function
  and rewrite count (:class:`repro.opt.PassManager`; sound because every
  :class:`~repro.opt.FunctionPass` is a pure function of the function body);
* **validate** — (Wasm function digest, Wasm signature digest) → a checked
  marker (:func:`repro.wasm.validate_module`);
* **decode** — Wasm function digest → the :class:`~repro.wasm.decode.FlatFunction`;
* **translate** — (Wasm function digest, Wasm signature digest, slot index,
  stack mode, interpreter tag, pygen source digest) → the generated Python
  source chunk, stack mode and exec'd callable (:mod:`repro.wasm.pygen`;
  sound because direct calls route through the per-instance runtime,
  making each generated function self-contained).

Unit keys are built from :func:`repro.core.syntax.structural_digest` parts,
so — like the PR 5 content keys — they are deterministic across processes
and never leak ``id()``/``hash()``.  The signature-environment digests
(:func:`repro.core.syntax.signature_env_digest` on the RichWasm side,
:func:`wasm_signature_digest` here on the Wasm side) cover everything a
function's compilation can observe about the rest of the module *except*
other function bodies — which is exactly what makes a one-function edit
leave the other functions' keys unchanged.

The consumers (``core.typing``, ``lower``, ``opt``, ``wasm``) receive the
cache as an opaque ``unit_cache`` parameter and call its ``*_key``/``get``/
``put`` methods, so no lower layer imports this module.  Every lookup is
counted in per-stage :class:`UnitStats` and mirrored to the process-wide
``compile.units.events`` counter through a single locked increment path.
"""

from __future__ import annotations

import functools
import hashlib
import sys
import threading
from dataclasses import dataclass, field
from typing import Optional

from .core.syntax.intern import structural_digest
from .core.syntax.modules import signature_env_digest
from .obs.metrics import default_registry
from .wasm import pygen
from .wasm.ast import WasmFunction, WasmModule

#: Stages with per-function unit tables, in pipeline order.
UNIT_STAGES = ("typecheck", "lower", "optimize", "validate", "decode", "translate")

# Process-wide unit telemetry, labeled by stage and outcome (hit/miss/evict).
# The per-cache integer view lives on ``FunctionUnitCache.stats``.
_UNIT_EVENTS = default_registry().counter(
    "compile.units.events", "Per-function compile unit lookups by stage/outcome"
)


def unit_key(stage: str, *parts: object) -> str:
    """The canonical per-function unit key: SHA-256 hex over digest parts.

    ``bytes`` parts (pre-computed digests) feed the hash directly; everything
    else goes through :func:`repro.core.syntax.structural_digest`, so keys
    are deterministic across processes for the same reasons the PR 5 content
    keys are.
    """

    hasher = hashlib.sha256(stage.encode())
    for part in parts:
        hasher.update(b"\x00")
        if isinstance(part, bytes):
            hasher.update(part)
        else:
            hasher.update(structural_digest(part))
    return hasher.hexdigest()


def wasm_signature_digest(module: WasmModule) -> bytes:
    """Digest of what one Wasm function's validation/translation can see of
    the rest of its module: every declaration's kind and function type in
    index order, global value types and mutability, memory presence and the
    table entries — everything *except* other function bodies.

    Cached on the (frozen, immutable) module instance, mirroring
    :func:`repro.core.syntax.signature_env_digest` on the RichWasm side.
    """

    cached = module.__dict__.get("_wasm_sig_digest")
    if cached is None:
        hasher = hashlib.sha256(b"wasmsig")
        for decl in module.functions:
            hasher.update(b"f" if isinstance(decl, WasmFunction) else b"h")
            hasher.update(structural_digest(decl.functype))
        hasher.update(b"|globals")
        for global_decl in module.globals:
            hasher.update(structural_digest(global_decl.valtype))
            hasher.update(b"\x01" if global_decl.mutable else b"\x00")
        hasher.update(b"|mem\x01" if module.memory is not None else b"|mem\x00")
        hasher.update(b"|table")
        for entry in module.table.entries:
            hasher.update(b"%d," % entry)
        cached = hasher.digest()
        module.__dict__["_wasm_sig_digest"] = cached
    return cached


# ---------------------------------------------------------------------------
# Stage-specific key builders (module-level, so tests and docs can name them)
# ---------------------------------------------------------------------------


def typecheck_unit_key(function, module, *, allow_caps: bool = True) -> str:
    """RichWasm per-function typecheck unit key."""

    return unit_key(
        "typecheck", structural_digest(function), signature_env_digest(module), allow_caps
    )


def lower_unit_key(function, module) -> str:
    """RichWasm → Wasm per-function lowering unit key.

    No :class:`repro.api.CompileConfig` field feeds this key: of the
    compile-content fields, ``memory_pages`` only sizes the module's memory
    declaration, ``link_name`` only names the module, and the optimization
    level acts one stage later — per-function lowering output depends on the
    function body and the signature environment alone.
    """

    return unit_key("lower", structural_digest(function), signature_env_digest(module))


def optimize_unit_key(function: WasmFunction, pass_name: str) -> str:
    """Per-(pass, function) optimization unit key.

    The pass name is the config-relevant ingredient here: ``opt_level``
    expands to an ordered pass list, and each (pass, function-version) step
    is memoized individually, so O1 and O2 share the units of the passes
    they have in common.
    """

    return unit_key("optimize", pass_name, structural_digest(function))


def validate_unit_key(function: WasmFunction, module: WasmModule) -> str:
    """Per-function Wasm validation unit key."""

    return unit_key("validate", structural_digest(function), wasm_signature_digest(module))


def decode_unit_key(function: WasmFunction) -> str:
    """Per-function flat-decode unit key — decode is context-free."""

    return unit_key("decode", structural_digest(function))


@functools.lru_cache(maxsize=None)
def _source_digest(path: str) -> bytes:
    with open(path, "rb") as source:
        return hashlib.sha256(source.read()).digest()


def translate_unit_key(
    function: WasmFunction, module: WasmModule, index: int, *, force_list: bool = False
) -> str:
    """Per-function pygen translation unit key.

    The signature digest covers the callee arities and host import types the
    emitted call sites bake in; the slot index is baked into the generated
    function name and host-call dispatch, so it is part of the key too.  The
    interpreter's bytecode tag and a digest of pygen's own source stamp the
    key, so a persisted unit (a marshal'd code object) written by another
    interpreter or another code generator is a miss.
    """

    return unit_key(
        "translate",
        structural_digest(function),
        wasm_signature_digest(module),
        index,
        force_list,
        str(sys.implementation.cache_tag).encode(),
        _source_digest(pygen.__file__),
    )


# ---------------------------------------------------------------------------
# The unit cache
# ---------------------------------------------------------------------------


@dataclass
class UnitStats:
    """Reuse counters for one stage's per-function units.

    ``record`` is the *only* increment path: it bumps the integer view and
    the process-wide ``compile.units.events`` counter under one lock, so the
    two can never disagree (the pattern :class:`repro.runtime.CacheStats`
    adopted in the same PR).
    """

    stage: str
    reused: int = 0
    compiled: int = 0
    evicted: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False, compare=False)

    @property
    def lookups(self) -> int:
        return self.reused + self.compiled

    def record(self, event: str) -> None:
        with self._lock:
            if event == "hit":
                self.reused += 1
            elif event == "miss":
                self.compiled += 1
            else:
                self.evicted += 1
            _UNIT_EVENTS.inc(stage=self.stage, event=event)

    def reset(self) -> None:
        with self._lock:
            self.reused = self.compiled = self.evicted = 0


class FunctionUnitCache:
    """Per-function artifact store, one table per compile stage.

    Artifacts are immutable (or treated as such) and never ``None``; ``get``
    returns ``None`` on a miss and counts every lookup, so one ``get`` is
    one hit-or-miss regardless of whether the caller ``put``s afterwards.

    ``max_entries`` (per stage) bounds the tables with LRU eviction —
    ``None`` (the default, matching :class:`~repro.runtime.ModuleCache`)
    keeps them unbounded.  Eviction only drops the cache's own references:
    artifacts already composed into live modules/programs stay alive with
    their owners.
    """

    def __init__(self, max_entries: Optional[int] = None) -> None:
        self.max_entries = max_entries
        self._tables: dict[str, dict[str, object]] = {stage: {} for stage in UNIT_STAGES}
        self.stats: dict[str, UnitStats] = {stage: UnitStats(stage) for stage in UNIT_STAGES}
        # Keys seeded from a parallel compile whose *first* lookup should
        # replay the worker's outcome (miss = a worker compiled it fresh)
        # instead of counting a bogus in-process hit; see :meth:`seed`.
        self._seeded_fresh: dict[str, set[str]] = {stage: set() for stage in UNIT_STAGES}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sizes = ", ".join(f"{stage}={len(table)}" for stage, table in self._tables.items())
        return f"FunctionUnitCache({sizes})"

    def __len__(self) -> int:
        return sum(len(table) for table in self._tables.values())

    # -- storage -----------------------------------------------------------

    def get(self, stage: str, key: str):
        table = self._tables[stage]
        value = table.get(key)
        if value is None:
            self.stats[stage].record("miss")
            return None
        if self.max_entries is not None:
            table[key] = table.pop(key)  # LRU touch: move to the young end
        seeded = self._seeded_fresh[stage]
        if key in seeded:
            # First lookup of a unit a compile worker built this compile:
            # count it as *compiled* (the work happened, in another process)
            # exactly once; later lookups are ordinary reuse.
            seeded.discard(key)
            self.stats[stage].record("miss")
            return value
        self.stats[stage].record("hit")
        return value

    def peek(self, stage: str, key: str):
        """The stored unit without counting a lookup (``None`` on absence).

        The parallel-compile planner uses this to decide which units still
        need computing without perturbing the hit/miss statistics the
        recompose pass will produce.
        """

        return self._tables[stage].get(key)

    def seed(self, stage: str, key: str, value: object, *, fresh: bool = True) -> None:
        """File a unit produced by a compile worker (no lookup counted now).

        ``fresh=True`` marks a unit the worker *compiled* during this
        parallel compile: the parent's first subsequent :meth:`get` of the
        key records a miss (the unit was compiled, not reused) and every
        later one a hit — reproducing exactly the counts a serial compile
        would have recorded, with no double counting.  ``fresh=False`` files
        a unit the worker itself warm-read from a shared tier (the disk
        cache), so the first parent lookup counts as reuse.
        """

        self._tables[stage][key] = value
        if fresh:
            self._seeded_fresh[stage].add(key)
        else:
            self._seeded_fresh[stage].discard(key)

    def put(self, stage: str, key: str, value: object) -> None:
        table = self._tables[stage]
        table[key] = value
        if self.max_entries is not None:
            while len(table) > self.max_entries:
                del table[next(iter(table))]
                self.stats[stage].record("evict")

    def clear(self) -> None:
        """Drop every table and zero the stats.

        Artifacts handed out earlier (lowered functions composed into cached
        modules, adopted translations) are owned by their consumers — clear
        only forgets the per-function memo, it strands nothing.
        """

        for table in self._tables.values():
            table.clear()
        for seeded in self._seeded_fresh.values():
            seeded.clear()
        for stats in self.stats.values():
            stats.reset()

    def sizes(self) -> dict[str, int]:
        return {stage: len(table) for stage, table in self._tables.items()}

    # -- snapshots (for Diagnostics deltas) --------------------------------

    def snapshot(self) -> dict[str, tuple[int, int]]:
        """Per-stage ``(reused, compiled)`` counters, for before/after deltas."""

        return {stage: (stats.reused, stats.compiled) for stage, stats in self.stats.items()}

    def delta(self, before: dict[str, tuple[int, int]]) -> dict[str, dict[str, int]]:
        """Per-stage reuse since ``before`` (stages with no lookups omitted)."""

        changed: dict[str, dict[str, int]] = {}
        for stage, stats in self.stats.items():
            reused_before, compiled_before = before.get(stage, (0, 0))
            reused = stats.reused - reused_before
            compiled = stats.compiled - compiled_before
            if reused or compiled:
                changed[stage] = {"reused": reused, "compiled": compiled}
        return changed

    # -- key builders (the duck-typed surface lower layers call) -----------

    def typecheck_key(self, function, module, *, allow_caps: bool = True) -> str:
        return typecheck_unit_key(function, module, allow_caps=allow_caps)

    def lower_key(self, function, module) -> str:
        return lower_unit_key(function, module)

    def optimize_key(self, function, pass_name: str) -> str:
        return optimize_unit_key(function, pass_name)

    def validate_key(self, function, module) -> str:
        return validate_unit_key(function, module)

    def decode_key(self, function) -> str:
        return decode_unit_key(function)

    def translate_key(self, function, module, index: int, *, force_list: bool = False) -> str:
        return translate_unit_key(function, module, index, force_list=force_list)


__all__ = [
    "UNIT_STAGES",
    "FunctionUnitCache",
    "UnitStats",
    "unit_key",
    "wasm_signature_digest",
    "typecheck_unit_key",
    "lower_unit_key",
    "optimize_unit_key",
    "validate_unit_key",
    "decode_unit_key",
    "translate_unit_key",
]
