"""Tests for the compiled execution tier (:mod:`repro.wasm.pygen`).

The engine-agreement suites (``test_engines.py``, the property suite, the
profiler parity tests) already pin the compiled tier's semantics against the
flat VM and the tree walker; this file covers the translator's own
machinery — the register/list stack layouts, the one-arm step chunks, the
per-module translation memo, the content-keyed ``translate`` cache stage, and the facade's
``translate`` diagnostics — plus compiled-engine invalidation on patched
function tables.
"""

import re

from repro import api
from repro.api import CompileConfig
from repro.ml import BinOp, IntLit, MLFunction, TInt, Var, ml_module
from repro.obs import StepProfiler
from repro.runtime import ModuleCache
from repro.wasm import (
    Binop,
    Const,
    LocalGet,
    LocalSet,
    Testop as WTestop,
    ValType,
    WasmFuncType,
    WasmFunction,
    WasmInterpreter,
    WasmModule,
    WBlock,
    WBr,
    WBrIf,
    WCall,
    WLoop,
    WasmTrap,
    translate_module,
    validate_module,
)
from repro.wasm.decode import decode_module
from repro.wasm.pygen import ModuleTranslation, adopt_translation, translate_functions

I32 = ValType.I32
FT = WasmFuncType


def sum_module():
    """sum(n) = n + (n-1) + ... + 1, via helper calls: loop + call + branch."""

    helper = WasmFunction(FT((I32, I32), (I32,)), (), (
        LocalGet(0), LocalGet(1), Binop(I32, "add"),
    ), name="acc")
    main = WasmFunction(FT((I32,), (I32,)), (I32,), (
        Const(I32, 0), LocalSet(1),
        WBlock(FT((), ()), (
            WLoop(FT((), ()), (
                LocalGet(0), WTestop(I32), WBrIf(1),
                LocalGet(1), LocalGet(0), WCall(0), LocalSet(1),
                LocalGet(0), Const(I32, 1), Binop(I32, "sub"), LocalSet(0),
                WBr(0),
            )),
        )),
        LocalGet(1),
    ), name="sum", exports=("sum",))
    module = WasmModule(functions=(helper, main))
    validate_module(module)
    return module


class TestTranslation:
    def test_translate_module_memoizes_per_object(self):
        module = sum_module()
        first = translate_module(module)
        assert translate_module(module) is first
        assert isinstance(first, ModuleTranslation)
        assert first.function_count == 2
        assert first.modes == ("register", "register")
        assert "def _f0" in first.source and "def _f1" in first.source

    def test_adopt_translation_seeds_structural_twin(self):
        module = sum_module()
        twin = sum_module()
        translation = translate_module(module)
        adopt_translation(twin, translation)
        assert translate_module(twin) is translation
        # The adopted artifact executes correctly on the twin.
        interp = WasmInterpreter(engine="compiled")
        inst = interp.instantiate(twin)
        assert interp.invoke(inst, "sum", [10]) == [55]

    def test_forced_list_mode_matches_register_mode(self):
        module = sum_module()
        slots = decode_module(module).flat
        listy = translate_functions(slots, module, force_list=True)
        assert listy.modes == ("list", "list")
        # Run the register-mode translation and the list-mode one and
        # compare results and steps against the flat VM.
        flat = WasmInterpreter(engine="flat")
        flat_inst = flat.instantiate(module)
        expected = flat.invoke(flat_inst, "sum", [12])

        from repro.wasm import pygen

        compiled = WasmInterpreter(engine="compiled")
        inst = compiled.instantiate(module)
        assert compiled.invoke(inst, "sum", [12]) == expected
        register_steps = compiled.steps

        pygen._remember_translation(module, listy)
        listy_interp = WasmInterpreter(engine="compiled")
        listy_inst = listy_interp.instantiate(module)
        assert listy_interp.invoke(listy_inst, "sum", [12]) == expected
        assert listy_interp.steps == register_steps == flat.steps

    def test_patched_function_slot_retranslates(self):
        module = sum_module()
        interp = WasmInterpreter(engine="compiled")
        inst = interp.instantiate(module)
        assert interp.invoke(inst, "sum", [3]) == [6]
        # Patch the helper to multiply instead of add: the compiled code for
        # the whole instance must be rebuilt, not just the patched slot.
        inst.funcs[0] = WasmFunction(FT((I32, I32), (I32,)), (), (
            LocalGet(0), LocalGet(1), Binop(I32, "mul"),
        ), name="acc")
        assert interp.invoke(inst, "sum", [3]) == [0]  # 0*3... stays 0
        inst.funcs[0] = WasmFunction(FT((I32, I32), (I32,)), (), (
            LocalGet(1),
        ), name="acc")
        assert interp.invoke(inst, "sum", [3]) == [1]  # last i is 1

    def test_translation_is_shared_across_instances(self):
        module = sum_module()
        interp = WasmInterpreter(engine="compiled")
        first = interp.instantiate(module)
        second = interp.instantiate(module)
        assert first.compiled_py.targets[1] is second.compiled_py.targets[1]


def straight_line_module():
    """One 13-step run of straight-line code: a single multi-step chunk."""

    body = [Const(I32, 0)]
    for k in range(1, 7):
        body += [Const(I32, k), Binop(I32, "add")]
    line = WasmFunction(FT((), (I32,)), (), tuple(body), name="line", exports=("line",))
    module = WasmModule(functions=(line,))
    validate_module(module)
    return module


class TestStepChunks:
    """Each chunk is counted once and emitted once; a boundary inside it is
    caught up step by step before its body runs."""

    def test_one_arm_per_chunk(self):
        multi = 0
        for module in (sum_module(), straight_line_module()):
            slots = decode_module(module).flat
            for source in (
                translate_module(module).source,
                translate_functions(slots, module, force_list=True).source,
            ):
                lines = [line.strip() for line in source.splitlines()]
                assert not any(line.startswith("steps -=") for line in lines)
                heads = 0
                for position, line in enumerate(lines):
                    match = re.fullmatch(r"steps \+= (\d+)", line)
                    if match is None:
                        continue
                    count = int(match.group(1))
                    assert lines[position + 1] == "if steps >= boundary:"
                    check = lines[position + 2]
                    if count == 1:
                        assert check.startswith("boundary = eng._on_boundary(steps, ")
                    else:
                        assert check.startswith(f"boundary = eng._catch_up(steps, {count}, boundary, ")
                        heads += 1
                assert source.count("_catch_up(") == heads
                multi += heads
        assert multi > 0

    def test_sample_then_budget_trap_in_one_chunk(self):
        # Interval 4 and budget 10 put two samples (steps 4 and 8) and the
        # trap (step 11) inside the one 13-step chunk: the samples must be
        # recorded, in order, before the trap fires on every engine.
        outcomes = []
        for engine in ("tree", "flat", "compiled"):
            interpreter = WasmInterpreter(engine=engine, max_steps=10)
            instance = interpreter.instantiate(straight_line_module())
            profiler = StepProfiler(interval=4, keep_trace=True).install(interpreter)
            try:
                interpreter.invoke(instance, "line", [])
                trap = None
            except WasmTrap as exc:
                trap = str(exc)
            outcomes.append((trap, interpreter.steps, list(profiler.trace)))
        assert outcomes[0] == ("step budget exhausted", 11, [(4, "line"), (8, "line")])
        assert outcomes[0] == outcomes[1] == outcomes[2]


class TestCacheStage:
    def test_translate_stage_hit_miss_and_clear(self):
        cache = ModuleCache()
        module = sum_module()
        first = cache.translate(module)
        assert cache.stats["translate"].misses == 1
        assert cache.translate(module) is first
        assert cache.stats["translate"].hits == 1
        # A structurally identical module object is a content hit and adopts
        # the artifact instead of re-translating.
        twin = sum_module()
        assert cache.translate(twin) is first
        assert cache.stats["translate"].hits == 2
        assert translate_module(twin) is first
        cache.clear()
        assert cache.stats["translate"].lookups == 0
        cache.translate(module)
        assert cache.stats["translate"].misses == 1

    def test_compile_program_translates_for_compiled_engine(self):
        cache = ModuleCache()
        from repro.ffi import counter_program

        cache.compile_program(counter_program().modules(), engine="compiled")
        assert cache.stats["translate"].misses == 1
        cache2 = ModuleCache()
        cache2.compile_program(counter_program().modules())
        assert cache2.stats["translate"].lookups == 0  # default engine: no translation


def _ml_source():
    return ml_module("mlmod", functions=[
        MLFunction("double", "x", TInt(), TInt(), BinOp("*", Var("x"), IntLit(2))),
    ])


class TestFacadeWiring:
    def test_compile_records_translate_stage_for_compiled_engine(self):
        cache = ModuleCache()
        config = CompileConfig(opt_level="O1", engine="compiled")
        program = api.compile(_ml_source(), config, cache=cache)
        assert program.diagnostics.cache["translate"] == "miss"
        assert program.diagnostics.seconds("translate") >= 0
        # Recompiling is a program-level hit; the translate stage re-seeds
        # the per-object memo from the content store and records a hit.
        again = api.compile(_ml_source(), config, cache=cache)
        assert again.diagnostics.cache["program"] == "hit"
        assert again.diagnostics.cache["translate"] == "hit"

    def test_compile_skips_translate_stage_for_other_engines(self):
        program = api.compile(_ml_source(), CompileConfig(opt_level="O1"), cache=ModuleCache())
        assert "translate" not in program.diagnostics.cache

    def test_direct_compile_records_translate_bypass(self):
        config = CompileConfig(opt_level="O1", engine="compiled", cache="none")
        program = api.compile(_ml_source(), config)
        assert program.diagnostics.cache["translate"] == "bypass"

    def test_served_compiled_program_answers_like_flat(self):
        results = {}
        for engine in (None, "compiled"):
            config = CompileConfig(opt_level="O2", engine=engine)
            service = api.serve(_ml_source(), config)
            results[engine] = (
                service.call("mlmod.double", [21]),
                service.call("mlmod.double", [0x7FFFFFFF]),
            )
        assert results[None] == results["compiled"]


class TestEnvSelection:
    def test_env_var_selects_compiled(self, monkeypatch):
        monkeypatch.setenv("REPRO_WASM_ENGINE", "compiled")
        interp = WasmInterpreter()
        assert interp.engine_name == "compiled"
        inst = interp.instantiate(sum_module())
        assert interp.invoke(inst, "sum", [4]) == [10]
