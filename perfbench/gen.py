"""Seeded input generation for the benchmark, with analytic references.

Every input the benchmark feeds the system is built here from the run's
``--seed``; the same seed gives the same inputs.  Each input carries its
expected results, derived from how the input was built and never from the
compiler under test:

* a synthetic RichWasm function with literal ``s`` returns ``s + 1`` for any
  number of allocate/read/free blocks;
* a seeded ML+L3 "scaled cell" function returns ``(x + a) * b``;
* a Fig. 9 counter session returns ``x + ticks * increment``, and a session
  whose step budget is smaller than its work traps with ``step_budget``.

Literals are drawn from a counter that only grows within a run and every
sample is built from fresh objects, so no two programs of a run are
structurally equal and no sample inherits another's memoized digests or
compile units.
"""

from __future__ import annotations

import dataclasses
import random

from repro.core.syntax import (
    LIN,
    Function,
    GetLocal,
    IntBinop,
    MemUnpack,
    NumBinop,
    NumConst,
    NumType,
    Return,
    SetLocal,
    SizeConst,
    StructFree,
    StructGet,
    StructMalloc,
    arrow,
    funtype,
    i32,
    make_module,
)
from repro.l3 import (
    L3Function,
    LBangI,
    LBinOp,
    LFree,
    LInt,
    LIntLit,
    LLetBang,
    LNew,
    LVar,
    l3_module,
)
from repro.ffi import counter_program
from repro.ml import App, BinOp, IntLit, MLFunction, MLImport, TInt, Var, ml_module

MASK32 = 0xFFFFFFFF

# Sizes (function counts) of the synthetic compile_cold programs: moderate,
# many of them, visited in a seeded order so every run sees the same mix.
COLD_SIZES = (12, 16, 24, 32, 40, 48, 64)
# A linked ML+L3 program follows every COLD_ML_EVERY-th synthetic one.
COLD_ML_EVERY = 5
# The compile_cold stream opens with this many items of a seed-independent
# shape (every COLD_SIZES size once, in order, then a linked program).
COLD_WARM = len(COLD_SIZES) + 1

COUNTER_TICKS_LONG = 30


def synthetic_body(blocks: int, literal: int) -> tuple:
    """``blocks`` allocate/read/free regions; the function returns
    ``literal + 1`` whatever ``blocks`` is."""

    body = []
    for _ in range(blocks):
        body.extend([
            NumConst(NumType.I32, literal),
            StructMalloc((SizeConst(32),), LIN),
            MemUnpack(arrow([], [i32()]), (), (
                StructGet(0),
                SetLocal(0),
                StructFree(),
                GetLocal(0),
            )),
            NumConst(NumType.I32, 1),
            NumBinop(NumType.I32, IntBinop.ADD),
            SetLocal(0),
        ])
    body.append(GetLocal(0))
    body.append(Return())
    return tuple(body)


def export_name(index: int) -> str:
    return "main" if index == 0 else f"f{index}"


def synthetic_function(index: int, blocks: int, literal: int) -> Function:
    return Function(
        funtype([], [i32()]),
        (SizeConst(32),),
        synthetic_body(blocks, literal),
        (export_name(index),),
    )


@dataclasses.dataclass
class CompileInput:
    """One program to compile: the sources ``api.compile`` receives, how
    many functions they define, and ``checks``: ``(export, args, expected
    values)`` triples the compiled program must satisfy when run.  A check
    named ``"session"`` carries a whole call script in ``args``, each call
    with its own expected values, served as one stateful session."""

    kind: str
    sources: object
    functions: int
    checks: list


class Literals:
    """Strictly increasing i32 literals, starting at a seeded offset."""

    def __init__(self, rng: random.Random) -> None:
        self._next = rng.randrange(1, 1 << 20)

    def take(self) -> int:
        value = self._next
        self._next += 1
        return value


def synthetic_input(rng: random.Random, literals: Literals, functions: int) -> CompileInput:
    """A ``functions``-function module; block counts are a seeded
    permutation of an even 1/2/3 split, so work per size is fixed.  ``main``
    and four other functions are checked."""

    blocks = [1 + i % 3 for i in range(functions)]
    rng.shuffle(blocks)
    values = [literals.take() for _ in range(functions)]
    module = make_module(functions=[
        synthetic_function(i, blocks[i], values[i]) for i in range(functions)
    ])
    picked = [0] + rng.sample(range(1, functions), min(4, functions - 1))
    return CompileInput(
        "synthetic", module, functions,
        [(export_name(i), (), [(values[i] + 1) & MASK32]) for i in picked],
    )


def linked_input(rng: random.Random, literals: Literals, cells: int = 8) -> CompileInput:
    """A linked ML+L3 program: the Fig. 9 counter (pre-built RichWasm from
    ``repro.ffi``, seeded increment) plus a "scaled cell" pair given as
    surface source, so both frontends and the linker do work.  Cell ``i``'s
    L3 side allocates, frees and offsets (``x + a_i``); its ML side scales
    (``* b_i``)."""

    offsets = [literals.take() for _ in range(cells)]
    scales = [rng.randrange(2, 9) for _ in range(cells)]
    lib = l3_module("cells", functions=[
        L3Function(
            f"offset{i}", "x", LInt(), LInt(),
            LLetBang("v", LFree(LNew(LBangI(LBinOp("+", LVar("x"), LIntLit(offsets[i]))))),
                     LVar("v")),
        )
        for i in range(cells)
    ])
    client = ml_module(
        "cellclient",
        imports=[MLImport("cells", f"offset{i}", TInt(), TInt()) for i in range(cells)],
        functions=[
            MLFunction(f"scaled{i}", "x", TInt(), TInt(),
                       BinOp("*", App(Var(f"offset{i}"), Var("x")), IntLit(scales[i])))
            for i in range(cells)
        ],
    )
    increment = literals.take()
    sources = dict(counter_program(increment=increment).modules())
    sources.update(cells=lib, cellclient=client)

    x = rng.randrange(0, 1 << 16)
    ticks = rng.randrange(1, 6)
    session = [("client_init", (x,), [])]
    session += [("client_tick", (), [])] * ticks
    session.append(("client_total", (), [(x + ticks * increment) & MASK32]))
    checks = [("session", tuple(session), None)]
    for i in rng.sample(range(cells), 2):
        y = rng.randrange(0, 1 << 16)
        checks.append((f"scaled{i}", (y,), [((y + offsets[i]) * scales[i]) & MASK32]))
    return CompileInput("linked", sources, 6 + 2 * cells, checks)


def cold_inputs(seed: int):
    """The endless ``compile_cold`` stream.  The first ``COLD_WARM`` items
    have the same sizes for every seed: each of ``COLD_SIZES`` once, in
    order, then a linked ML+L3 program.  After them come synthetic modules
    of the ``COLD_SIZES`` in seeded order, with a linked program after every
    ``COLD_ML_EVERY``-th one."""

    rng = random.Random(seed)
    literals = Literals(rng)
    for size in COLD_SIZES:
        yield synthetic_input(rng, literals, size)
    yield linked_input(rng, literals)
    count = 0
    while True:
        sizes = list(COLD_SIZES)
        rng.shuffle(sizes)
        for size in sizes:
            count += 1
            if count % COLD_ML_EVERY == 0:
                yield linked_input(rng, literals)
            yield synthetic_input(rng, literals, size)


# ---------------------------------------------------------------------------
# Fig. 9 counter session mixes
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class SessionInput:
    """A counter session: its calls (short export names, resolved by the
    service), a step budget or ``None``, and the expected outcome:
    per-call result lists, or ``None`` for an expected budget trap."""

    kind: str
    calls: tuple
    max_steps: object
    expected: object


def sessions(seed: int):
    """The endless serving mix: ~80% short (init + total), ~15% long
    (init + 30 ticks + total), ~5% long sessions under a step budget far
    below their work, which must trap with ``step_budget``."""

    rng = random.Random(seed)
    while True:
        x = rng.randrange(0, 1 << 20)
        draw = rng.random()
        ticks = 0 if draw < 0.80 else COUNTER_TICKS_LONG
        calls = (("client_init", (x,)),) + (("client_tick", ()),) * ticks + (("client_total", ()),)
        if draw >= 0.95:
            # A long session needs ~30x the steps of a short one; a budget
            # of at most a few ticks' worth always runs out.
            yield SessionInput("budget", calls, rng.randrange(50, 1000), None)
        else:
            expected = [[]] * (ticks + 1) + [[(x + ticks) & MASK32]]
            yield SessionInput("short" if ticks == 0 else "long", calls, None, expected)
