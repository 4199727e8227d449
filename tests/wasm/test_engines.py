"""Tests for the pluggable execution-engine layer.

Covers the engine factory and facade, the flat pre-decoder's branch-target
resolution, semantic agreement between the tree walker and the flat VM on
targeted control-flow/call/trap scenarios, and the ``max_steps`` accounting
parity the analysis layer depends on.
"""

import pytest

from repro.core.typing.errors import WasmError
from repro.wasm import (
    Binop,
    CompiledPyEngine,
    Const,
    DEFAULT_ENGINE,
    ExecutionEngine,
    FlatVMEngine,
    GlobalGet,
    GlobalSet,
    LocalGet,
    LocalSet,
    LocalTee,
    MemoryGrow,
    MemorySize,
    Relop,
    StoreI,
    Load,
    Testop as WTestop,
    TreeWalkingEngine,
    ValType,
    WasmFuncType,
    WasmFunction,
    WasmGlobal,
    WasmImportedFunction,
    WasmInterpreter,
    WasmMemory,
    WasmModule,
    WasmTable,
    WasmTrap,
    WBlock,
    WBr,
    WBrIf,
    WBrTable,
    WCall,
    WCallIndirect,
    WIf,
    WLoop,
    WReturn,
    WUnreachable,
    available_engines,
    create_engine,
    decode_function,
    validate_module,
)
from repro.wasm.decode import OP_BLOCK, OP_BR, OP_END, OP_IF, OP_JUMP, OP_LOOP

I32 = ValType.I32
FT = WasmFuncType


def simple(body, params=(), results=(I32,), locals=(), **kwargs):
    function = WasmFunction(FT(tuple(params), tuple(results)), tuple(locals), tuple(body), exports=("main",))
    return WasmModule(functions=(function,), **kwargs)


def run_on(engine, module, export="main", args=(), host_imports=None):
    interp = WasmInterpreter(engine=engine)
    inst = interp.instantiate(module, host_imports)
    return interp.invoke(inst, export, list(args)), interp.steps


ALL_ENGINES = ("tree", "flat", "compiled")


def run_both(module, export="main", args=(), host_imports=None, validate=True):
    """Run on every engine, demand identical results and step counts."""

    if validate:
        validate_module(module)
    outcomes = {
        engine: run_on(engine, module, export, args, host_imports() if host_imports else None)
        for engine in ALL_ENGINES
    }
    reference, (results, steps) = ALL_ENGINES[0], outcomes[ALL_ENGINES[0]]
    for engine, (other_results, other_steps) in outcomes.items():
        assert other_results == results, (
            f"engine divergence: {reference}={results!r} {engine}={other_results!r}"
        )
        assert other_steps == steps, (
            f"step divergence: {reference}={steps} {engine}={other_steps}"
        )
    return results


def trap_both(module, export="main", args=(), validate=True):
    """Every engine must trap, with the same message and step count."""

    if validate:
        validate_module(module)
    outcomes = []
    for engine in ALL_ENGINES:
        interp = WasmInterpreter(engine=engine)
        inst = interp.instantiate(module)
        with pytest.raises(WasmTrap) as excinfo:
            interp.invoke(inst, export, list(args))
        outcomes.append((str(excinfo.value), interp.steps))
    assert len(set(outcomes)) == 1, f"trap divergence: {dict(zip(ALL_ENGINES, outcomes))}"
    return outcomes[0][0]


class TestEngineFactory:
    def test_available_engines(self):
        assert available_engines() == ("compiled", "flat", "tree")
        assert DEFAULT_ENGINE == "flat"

    def test_create_by_name(self):
        assert isinstance(create_engine("tree"), TreeWalkingEngine)
        assert isinstance(create_engine("flat"), FlatVMEngine)
        assert isinstance(create_engine("compiled"), CompiledPyEngine)

    def test_default_is_flat(self, monkeypatch):
        monkeypatch.delenv("REPRO_WASM_ENGINE", raising=False)
        assert isinstance(create_engine(None), FlatVMEngine)
        assert WasmInterpreter().engine_name == "flat"

    def test_env_var_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_WASM_ENGINE", "tree")
        assert WasmInterpreter().engine_name == "tree"
        monkeypatch.delenv("REPRO_WASM_ENGINE")
        assert WasmInterpreter().engine_name == "flat"

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown execution engine"):
            create_engine("jit")

    def test_instance_passthrough(self):
        engine = FlatVMEngine(max_steps=7)
        assert create_engine(engine) is engine
        assert WasmInterpreter(engine=engine).engine is engine
        with pytest.raises(ValueError):
            create_engine(engine, max_steps=9)

    def test_engines_are_execution_engines(self):
        for name in available_engines():
            assert isinstance(create_engine(name), ExecutionEngine)

    def test_facade_counters_delegate(self):
        interp = WasmInterpreter(max_steps=10, engine="flat")
        assert interp.max_steps == 10
        interp.max_steps = None
        assert interp.engine.max_steps is None
        interp.steps = 5
        assert interp.engine.steps == 5


class TestDecoder:
    def test_block_branch_targets_resolved(self):
        function = WasmFunction(FT((), (I32,)), (), (
            WBlock(FT((), ()), (WBr(0),)),
            Const(I32, 1),
        ))
        flat = decode_function(function)
        ops = [ins[0] for ins in flat.code]
        assert ops == [OP_BLOCK, OP_BR, OP_END, 3]  # 3 == OP_CONST
        block = flat.code[0]
        assert block[1] == 3  # branch target: past the END marker

    def test_loop_branch_target_is_body_start(self):
        function = WasmFunction(FT((), (I32,)), (), (
            WLoop(FT((), ()), (Const(I32, 0), WBrIf(0))),
            Const(I32, 1),
        ))
        flat = decode_function(function)
        assert flat.code[0][0] == OP_LOOP
        assert flat.code[0][1] == 1  # first body instruction

    def test_if_else_layout(self):
        function = WasmFunction(FT((I32,), (I32,)), (), (
            LocalGet(0),
            WIf(FT((), (I32,)), (Const(I32, 10),), (Const(I32, 20),)),
        ))
        flat = decode_function(function)
        ops = [ins[0] for ins in flat.code]
        assert ops[1] == OP_IF
        assert OP_JUMP in ops and OP_END in ops
        header = flat.code[1]
        else_start, after_end = header[1], header[2]
        assert flat.code[else_start - 1][0] == OP_JUMP  # then-arm jumps over else
        assert flat.code[after_end - 1][0] == OP_END

    def test_free_ops_do_not_cost_steps(self):
        # One block entry + one const + one br = 3 steps; END/JUMP are free.
        module = simple([
            WBlock(FT((), ()), (WBr(0),)),
            Const(I32, 1),
        ])
        result = run_both(module)
        assert result == [1]
        _, steps = run_on("flat", module)
        assert steps == 3  # block, br, const — END/JUMP are free

    def test_decode_caches_on_instance(self):
        module = simple([Const(I32, 3)])
        interp = WasmInterpreter(engine="flat")
        inst = interp.instantiate(module)
        assert inst.decoded is not None
        assert interp.invoke(inst, "main") == [3]

    def test_lazy_decode_for_foreign_instance(self):
        # An instance built by the tree engine lacks flat code; the flat VM
        # decodes it on first use.
        module = simple([Const(I32, 9)])
        tree = WasmInterpreter(engine="tree")
        inst = tree.instantiate(module)
        assert inst.decoded is None
        flat = WasmInterpreter(engine="flat")
        assert flat.invoke(inst, "main") == [9]
        assert inst.decoded is not None

    def test_decode_is_module_level_and_shared_across_instances(self):
        # The flat code is a per-module artifact: two instances of one module
        # hold the very same FlatFunction objects (decoded exactly once).
        from repro.wasm import decode_module

        module = simple([Const(I32, 3)])
        interp = WasmInterpreter(engine="flat")
        first = interp.instantiate(module)
        second = interp.instantiate(module)
        assert first.decoded[0] is second.decoded[0]
        assert decode_module(module).flat[0] is first.decoded[0]
        assert decode_module(module) is decode_module(module)

    def test_patched_function_slot_invalidates_decode_cache(self):
        # Regression test: the decode cache used to be filled at
        # instantiation and trusted forever, so swapping a function slot
        # (e.g. for an optimized body) silently kept executing the stale
        # flat code while the tree walker ran the new body.
        module = simple([Const(I32, 1)])
        replacement = WasmFunction(FT((), (I32,)), (), (Const(I32, 2),), exports=("main",))
        for engine in ALL_ENGINES:
            interp = WasmInterpreter(engine=engine)
            inst = interp.instantiate(module)
            assert interp.invoke(inst, "main") == [1]
            inst.funcs[0] = replacement
            assert interp.invoke(inst, "main") == [2], f"{engine} engine ran stale code"

    def test_patched_slot_does_not_disturb_other_functions(self):
        other = WasmFunction(FT((), (I32,)), (), (Const(I32, 7),), exports=("other",))
        main = WasmFunction(FT((), (I32,)), (), (Const(I32, 1),), exports=("main",))
        module = WasmModule(functions=(other, main))
        interp = WasmInterpreter(engine="flat")
        inst = interp.instantiate(module)
        shared_other = inst.decoded[0]
        inst.funcs[1] = WasmFunction(FT((), (I32,)), (), (Const(I32, 2),), exports=("main",))
        assert interp.invoke(inst, "main") == [2]
        # The untouched slot still serves the shared module-level decode.
        assert inst.decoded[0] is shared_other
        assert interp.invoke(inst, "other") == [7]


class TestEngineAgreement:
    def test_nested_blocks_and_branch_depths(self):
        module = simple([
            Const(I32, 0), LocalSet(0),
            WBlock(FT((), ()), (
                WBlock(FT((), ()), (
                    WBlock(FT((), ()), (WBr(1),)),
                    # skipped by the br above
                    Const(I32, 99), LocalSet(0), WBr(1),
                )),
                Const(I32, 7), LocalSet(0),
            )),
            LocalGet(0),
        ], locals=(I32,))
        assert run_both(module) == [7]

    def test_loop_countdown(self):
        module = simple([
            Const(I32, 10), LocalSet(0),
            Const(I32, 0), LocalSet(1),
            WBlock(FT((), ()), (
                WLoop(FT((), ()), (
                    LocalGet(0), WTestop(I32), WBrIf(1),
                    LocalGet(1), LocalGet(0), Binop(I32, "add"), LocalSet(1),
                    LocalGet(0), Const(I32, 1), Binop(I32, "sub"), LocalSet(0),
                    WBr(0),
                )),
            )),
            LocalGet(1),
        ], params=(), locals=(I32, I32))
        assert run_both(module) == [55]

    def test_block_with_params_and_results(self):
        module = simple([
            Const(I32, 5),
            WBlock(FT((I32,), (I32,)), (
                Const(I32, 2), Binop(I32, "mul"),
            )),
        ])
        assert run_both(module) == [10]

    def test_branch_carries_block_result(self):
        module = simple([
            WBlock(FT((), (I32,)), (
                Const(I32, 42),
                WBr(0),
            )),
        ])
        assert run_both(module) == [42]

    def test_loop_fallthrough_keeps_results(self):
        # A loop whose result arity differs from its param arity: fallthrough
        # must keep the *result* values (the branch arity is the params).
        module = simple([
            WLoop(FT((), (I32,)), (Const(I32, 7),)),
        ])
        assert run_both(module) == [7]

    def test_loop_consumes_params_on_fallthrough(self):
        module = simple([
            Const(I32, 3),
            WLoop(FT((I32,), ()), (LocalSet(0),)),
            LocalGet(0),
        ], locals=(I32,))
        assert run_both(module) == [3]

    def test_loop_with_params(self):
        # loop [i32] -> [i32]: decrement until zero, result is the final value.
        module = simple([
            Const(I32, 5),
            WLoop(FT((I32,), (I32,)), (
                Const(I32, 1), Binop(I32, "sub"),
                LocalTee(0),
                LocalGet(0), Const(I32, 0), Relop(I32, "ne"),
                WBrIf(0),
            )),
        ], locals=(I32,))
        assert run_both(module) == [0]

    @pytest.mark.parametrize("selector,expected", [(0, 10), (1, 20), (2, 30), (7, 30), (0xFFFFFFFF, 30)])
    def test_br_table(self, selector, expected):
        module = simple([
            Const(I32, 0), LocalSet(1),
            WBlock(FT((), ()), (
                WBlock(FT((), ()), (
                    WBlock(FT((), ()), (
                        LocalGet(0),
                        WBrTable((0, 1), 2),
                    )),
                    Const(I32, 10), LocalSet(1), WBr(1),
                )),
                Const(I32, 20), LocalSet(1), WBr(0),
            )),
            LocalGet(1), Const(I32, 0), Relop(I32, "eq"),
            WIf(FT((), ()), (Const(I32, 30), LocalSet(1)), ()),
            LocalGet(1),
        ], params=(I32,), locals=(I32,))
        assert run_both(module, args=(selector,)) == [expected]

    def test_if_without_else(self):
        module = simple([
            Const(I32, 1), LocalSet(1),
            LocalGet(0),
            WIf(FT((), ()), (Const(I32, 5), LocalSet(1)), ()),
            LocalGet(1),
        ], params=(I32,), locals=(I32,))
        assert run_both(module, args=(1,)) == [5]
        assert run_both(module, args=(0,)) == [1]

    def test_early_return(self):
        module = simple([
            LocalGet(0),
            WIf(FT((), ()), (Const(I32, 111), WReturn()), ()),
            Const(I32, 222),
        ], params=(I32,))
        assert run_both(module, args=(1,)) == [111]
        assert run_both(module, args=(0,)) == [222]

    def test_return_inside_loop(self):
        module = simple([
            WBlock(FT((), ()), (
                WLoop(FT((), ()), (
                    LocalGet(0), Const(I32, 1), Binop(I32, "sub"), LocalTee(0),
                    WTestop(I32),
                    WIf(FT((), ()), (LocalGet(0), Const(I32, 1000), Binop(I32, "add"), WReturn()), ()),
                    WBr(0),
                )),
            )),
            Const(I32, 0),
        ], params=(I32,))
        assert run_both(module, args=(4,)) == [1000]

    def test_direct_and_indirect_calls(self):
        double = WasmFunction(FT((I32,), (I32,)), (), (LocalGet(0), Const(I32, 2), Binop(I32, "mul")))
        square = WasmFunction(FT((I32,), (I32,)), (), (LocalGet(0), LocalGet(0), Binop(I32, "mul")))
        main = WasmFunction(FT((I32, I32), (I32,)), (), (
            LocalGet(0),
            LocalGet(1),
            WCallIndirect(FT((I32,), (I32,))),
            WCall(0),
        ), exports=("main",))
        module = WasmModule(functions=(double, square, main), table=WasmTable((0, 1)))
        assert run_both(module, args=(3, 1)) == [18]  # square then double
        assert run_both(module, args=(3, 0)) == [12]  # double then double

    def test_call_indirect_out_of_bounds(self):
        f = WasmFunction(FT((), (I32,)), (), (Const(I32, 1),))
        main = WasmFunction(FT((), (I32,)), (), (
            Const(I32, 5), WCallIndirect(FT((), (I32,))),
        ), exports=("main",))
        module = WasmModule(functions=(f, main), table=WasmTable((0,)))
        message = trap_both(module)
        assert "out of table bounds" in message

    def test_call_indirect_type_mismatch(self):
        f = WasmFunction(FT((I32,), (I32,)), (), (LocalGet(0),))
        main = WasmFunction(FT((), (I32,)), (), (
            Const(I32, 0), WCallIndirect(FT((), (I32,))),
        ), exports=("main",))
        module = WasmModule(functions=(f, main), table=WasmTable((0,)))
        message = trap_both(module, validate=False)
        assert message == "indirect call type mismatch"

    def test_host_imports_and_normalization(self):
        imported = WasmImportedFunction(FT((I32,), (I32,)), "env", "neg")
        main = WasmFunction(FT((I32,), (I32,)), (), (
            LocalGet(0), WCall(0),
        ), exports=("main",))
        module = WasmModule(functions=(imported, main))

        def hosts():
            return {("env", "neg"): lambda x: [-x]}

        # Host returns -5; the boundary normalizes it to the u32 bit pattern.
        assert run_both(module, args=(5,), host_imports=hosts) == [0xFFFFFFFB]

    def test_host_reentrancy_keeps_steps_coherent(self):
        helper = WasmFunction(FT((I32,), (I32,)), (), (
            LocalGet(0), Const(I32, 3), Binop(I32, "mul"),
        ), exports=("helper",))
        imported = WasmImportedFunction(FT((I32,), (I32,)), "env", "callback")
        main = WasmFunction(FT((I32,), (I32,)), (), (
            LocalGet(0), WCall(1), Const(I32, 1), Binop(I32, "add"),
        ), exports=("main",))
        module = WasmModule(functions=(helper, imported, main))

        outcomes = []
        for engine in ALL_ENGINES:
            interp = WasmInterpreter(engine=engine)
            holder = {}

            def callback(x):
                return interp.invoke(holder["inst"], "helper", [x])

            holder["inst"] = interp.instantiate(module, {("env", "callback"): callback})
            outcomes.append((interp.invoke(holder["inst"], "main", [7]), interp.steps))
        assert len(set(map(repr, outcomes))) == 1, outcomes
        assert outcomes[0][0] == [22]

    def test_trapping_reentrant_host_call_keeps_steps_coherent(self):
        # The reentrant invocation executes instructions and then the host
        # raises; both engines must still report the same cumulative steps.
        helper = WasmFunction(FT((), (I32,)), (), (
            Const(I32, 1), Const(I32, 2), Binop(I32, "add"),
        ), exports=("helper",))
        imported = WasmImportedFunction(FT((), (I32,)), "env", "boom")
        main = WasmFunction(FT((), (I32,)), (), (
            WCall(1),
        ), exports=("main",))
        module = WasmModule(functions=(helper, imported, main))

        outcomes = []
        for engine in ALL_ENGINES:
            interp = WasmInterpreter(engine=engine)
            holder = {}

            def boom():
                interp.invoke(holder["inst"], "helper")
                raise WasmTrap("host gave up")

            holder["inst"] = interp.instantiate(module, {("env", "boom"): boom})
            with pytest.raises(WasmTrap, match="host gave up"):
                interp.invoke(holder["inst"], "main")
            outcomes.append(interp.steps)
        assert len(set(outcomes)) == 1 and outcomes[0] > 0, outcomes

    def test_globals_and_start_function(self):
        counter = WasmGlobal(I32, True, (Const(I32, 100),))
        start = WasmFunction(FT((), ()), (), (
            Const(I32, 1),
            __import__("repro.wasm", fromlist=["GlobalSet"]).GlobalSet(0),
        ))
        main = WasmFunction(FT((), (I32,)), (), (
            __import__("repro.wasm", fromlist=["GlobalGet"]).GlobalGet(0),
        ), exports=("main",))
        module = WasmModule(functions=(start, main), globals=(counter,), start=0)
        assert run_both(module, validate=False) == [1]

    def test_unreachable_and_division_traps(self):
        assert trap_both(simple([WUnreachable()])) == "unreachable executed"
        message = trap_both(simple([Const(I32, 1), Const(I32, 0), Binop(I32, "div_u")]))
        assert "zero" in message.lower()

    def test_memory_roundtrip_and_grow(self):
        module = simple([
            Const(I32, 8), Const(I32, 0xDEAD), StoreI(I32),
            MemorySize(),
            Const(I32, 1), MemoryGrow(),
            Binop(I32, "add"),
            Const(I32, 8), Load(I32),
            Binop(I32, "add"),
        ], memory=WasmMemory(1, 4))
        # size(1) + old_size(1) + loaded(0xDEAD)
        assert run_both(module) == [2 + 0xDEAD]

    def test_float_pipeline(self):
        F64 = ValType.F64
        module = simple([
            Const(F64, 1.5), Const(F64, 2.25), Binop(F64, "add"),
            Const(F64, 3.0), Binop(F64, "mul"),
        ], results=(F64,))
        assert run_both(module) == [11.25]


class TestMaxStepsParity:
    def _loop_module(self):
        return simple([
            Const(I32, 100), LocalSet(0),
            WBlock(FT((), ()), (
                WLoop(FT((), ()), (
                    LocalGet(0), WTestop(I32), WBrIf(1),
                    LocalGet(0), Const(I32, 1), Binop(I32, "sub"), LocalSet(0),
                    WBr(0),
                )),
            )),
            LocalGet(0),
        ], locals=(I32,))

    def test_engines_count_identically_without_budget(self):
        module = self._loop_module()
        counts = {engine: run_on(engine, module)[1] for engine in ALL_ENGINES}
        assert len(set(counts.values())) == 1 and counts["flat"] > 0, counts

    @pytest.mark.parametrize("budget", [1, 2, 3, 5, 17, 100, 399, 701])
    def test_trap_at_identical_step_number(self, budget):
        # The compiled engine batches accounting per basic block, so these
        # budgets deliberately land mid-block: the trap must still fire at
        # the exact offending step, not at block granularity.
        module = self._loop_module()
        validate_module(module)
        outcomes = []
        for engine in ALL_ENGINES:
            interp = WasmInterpreter(max_steps=budget, engine=engine)
            inst = interp.instantiate(module)
            try:
                result = interp.invoke(inst, "main")
                outcomes.append(("ok", result, interp.steps))
            except WasmTrap as trap:
                outcomes.append(("trap", str(trap), interp.steps))
        assert len(set(map(repr, outcomes))) == 1, f"budget {budget}: {dict(zip(ALL_ENGINES, outcomes))}"
        kind, detail, steps = outcomes[0]
        if kind == "trap":
            assert detail == "step budget exhausted"
            assert steps == budget + 1  # the offending step is counted

    def test_frame_escaping_writes_mid_block_under_every_budget(self):
        # ``memory.grow`` and ``global.set`` sit inside a straight-line run
        # with frame-local work after them.  Whichever step the budget trap
        # lands on, every engine must report the same step and leave the
        # same page count and globals: the writes before the trap happened,
        # the ones after it did not.
        module = simple([
            Const(I32, 1), MemoryGrow(), LocalSet(0),
            Const(I32, 7), GlobalSet(0),
            LocalGet(0), Const(I32, 3), Binop(I32, "add"), LocalSet(0),
            Const(I32, 2), MemoryGrow(), GlobalGet(0), Binop(I32, "add"), GlobalSet(0),
            LocalGet(0), MemorySize(), Binop(I32, "add"), GlobalGet(0), Binop(I32, "add"),
        ], locals=(I32,), memory=WasmMemory(1, 4),
            globals=(WasmGlobal(I32, True, (Const(I32, 0),)),))
        validate_module(module)
        total = run_on("flat", module)[1]
        for budget in range(1, total + 1):
            outcomes = {}
            for engine in ALL_ENGINES:
                interp = WasmInterpreter(max_steps=budget, engine=engine)
                inst = interp.instantiate(module)
                try:
                    outcome = ("ok", interp.invoke(inst, "main"))
                except WasmTrap as trap:
                    outcome = ("trap", str(trap))
                outcomes[engine] = (outcome, interp.steps, inst.memory.size_pages(), list(inst.globals))
            assert len(set(map(repr, outcomes.values()))) == 1, f"budget {budget}: {outcomes}"
        assert outcomes["flat"] == (("ok", [4 + 4 + 9]), total, 4, [9])

    def test_budget_spans_invocations(self):
        module = simple([Const(I32, 1)])
        for engine in ALL_ENGINES:
            interp = WasmInterpreter(max_steps=2, engine=engine)
            inst = interp.instantiate(module)
            interp.invoke(inst, "main")
            interp.invoke(inst, "main")
            with pytest.raises(WasmTrap, match="step budget exhausted"):
                interp.invoke(inst, "main")


class TestExportErrors:
    def test_missing_export_message_matches(self):
        module = simple([Const(I32, 1)])
        for engine in ALL_ENGINES:
            interp = WasmInterpreter(engine=engine)
            inst = interp.instantiate(module)
            with pytest.raises(WasmError, match="no export named"):
                interp.invoke(inst, "nope")

    def test_unresolved_import_message_matches(self):
        imported = WasmImportedFunction(FT((), ()), "env", "missing")
        module = WasmModule(functions=(imported,))
        for engine in ALL_ENGINES:
            with pytest.raises(WasmError, match="unresolved Wasm import"):
                WasmInterpreter(engine=engine).instantiate(module)


class TestDifferentialEngineIsolation:
    def test_engine_instance_not_shared_between_runs(self):
        # Passing an ExecutionEngine instance to run_differential must not
        # pool the step budget between the baseline and candidate runs: a
        # module differentially compared against itself always matches.
        from repro.opt import run_differential

        module = simple([
            Const(I32, 30), LocalSet(0),
            WBlock(FT((), ()), (
                WLoop(FT((), ()), (
                    LocalGet(0), WTestop(I32), WBrIf(1),
                    LocalGet(0), Const(I32, 1), Binop(I32, "sub"), LocalSet(0),
                    WBr(0),
                )),
            )),
            LocalGet(0),
        ], locals=(I32,))
        validate_module(module)
        _, steps = run_on("flat", module)
        engine = FlatVMEngine(max_steps=int(steps * 1.5))
        report = run_differential(module, module, [("main", ())], engine=engine)
        assert report.ok, report.format_report()
        assert engine.steps == 0  # fresh engines were used per side
