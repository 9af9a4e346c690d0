"""Compile-once kernel backend: vector programs as fused NumPy closures.

The batched engine (:mod:`repro.machine.npbackend`) already executes
the steady loop as whole-array NumPy calls, but it re-plans and
tree-walks ``_eval_rows`` on **every** ``run()``, and it leaves the
prologue/epilogue splice sections to the byte interpreter's recursive
``_eval_v``.  For sweep workloads the program is fixed while trip
counts and memory images vary, so all of that per-call work is
redundant.  This engine does the paper's compile-time/runtime split
(§5) one level up: everything decidable from the *program text* —
batchability, topological order, window layout, dtype-pinned op
chains, reduction folds, straight-lined prologue/epilogue splices,
structural operation counts — is decided **once**, lowered to Python
source, ``compile()``d, and cached; the materialized kernel only does
the per-*run* work (window bounds, collision checks, the fused ops).

Correctness contract is npbackend's, verbatim: final memory bytes and
:class:`~repro.machine.counters.OpCounters` are bit-identical to the
byte interpreter, and ``used_fallback`` matches the numpy engine —
the compile-time structural checks reuse npbackend's own analysis
helpers, the steady kernel's prelude re-runs npbackend's runtime
window checks (raising :class:`_Unbatchable` *before any memory
mutation* so the per-iteration fallback stays exact), and the inlined
sections call the same byte-level :mod:`repro.machine.vector` helpers
the interpreter calls, with their counter bumps precomputed into
per-section constants.

Kernels are cached at two tiers keyed on the program's structural
signature (:func:`program_signature`):

* an in-process LRU of materialized closures (``_KERNEL_CACHE``), so
  repeated trips and policy ablations pay zero planning or dispatch;
* the shared disk cache (:mod:`repro.cache`) holding the picklable
  :class:`_KernelSpec` — generated source plus the constant tables its
  helpers are rebuilt from — under a key versioned by package version
  and :data:`KERNEL_CODE_VERSION`, so ``measure_many`` workers and
  repeated CLI runs skip codegen too.  A stale code version simply
  never hits; a corrupted entry is a silent miss (cache doctrine).

This module is only imported when NumPy is present; use
:func:`repro.machine.backend.get_backend` for gated access.
"""

from __future__ import annotations

import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.cache import get_cache
from repro.errors import MachineError
from repro.faults import fault as _fault
from repro.machine import interp
from repro.machine import npbackend
from repro.machine import vector as vec
from repro.machine.counters import BRANCH, CALL, OpCounters, SCALAR
from repro.machine.interp import VectorRunResult, run_vector
from repro.machine.npscalar import NumpyScalarBackend
from repro.machine.scalar import RunBindings
from repro.vir.program import VProgram
from repro.vir.vexpr import (
    Addr,
    SBase,
    SBin,
    SConst,
    SExpr,
    SReg,
    SVar,
    VBinE,
    VExpr,
    VIotaE,
    VLoadE,
    VRegE,
    VShiftPairE,
    VSpliceE,
    VSplatE,
)
from repro.vir.vstmt import Section, SetS, SetV, VStmt, VStoreS

#: Bump when the generated-kernel layout or helper semantics change:
#: disk entries written by older code must never materialize.
KERNEL_CODE_VERSION = 2

#: Compile/cache counters (process-wide; snapshot via
#: :func:`repro.machine.backend.jit_compile_stats`).
STATS = {
    "codegens": 0,       # specs lowered from scratch
    "memory_hits": 0,    # materialized closure reused
    "memory_misses": 0,
    "disk_hits": 0,      # spec loaded from the disk cache
    "disk_misses": 0,
    "materialized": 0,   # specs compiled into callable kernels
    "compile_s": 0.0,    # seconds spent lowering + materializing
}


class _Unbatchable(Exception):
    """Raised by a kernel prelude when this *run* cannot batch.

    Only raised before any memory or register mutation, so the caller
    can fall back to exact per-iteration execution.
    """


class _CantCompile(Exception):
    """An IR form with no emitted equivalent (defensive; IR is closed)."""


# ---------------------------------------------------------------------------
# Structural signatures
# ---------------------------------------------------------------------------
#
# The signature must distinguish every program property the emitted
# kernel bakes in: V, D, step, the upper-bound symbol (it decides which
# SVar reads the runtime trip), statement forms and order in every
# phase, addresses, op/dtype pairs, and scalar operand *structure* (an
# ``SConst(4)`` and a literal ``4`` count SCALAR differently in
# _count_sbins, so scalar expressions serialize with type tags —
# ``str()`` would collide ``SVar("n")`` with ``SReg("n")``).

def _sig_s(expr) -> str:
    if isinstance(expr, int):
        return str(expr)
    if expr is None:
        return "-"
    if isinstance(expr, SConst):
        return f"c{expr.value}"
    if isinstance(expr, SVar):
        return f"v:{expr.name}"
    if isinstance(expr, SBase):
        return f"base:{expr.array}"
    if isinstance(expr, SReg):
        return f"sr:{expr.name}"
    if isinstance(expr, SBin):
        return f"{expr.op}({_sig_s(expr.left)},{_sig_s(expr.right)})"
    return f"?{type(expr).__name__}"


def _sig_v(expr: VExpr) -> str:
    if isinstance(expr, VLoadE):
        return f"ld:{expr.addr.array}:{expr.addr.elem}"
    if isinstance(expr, VRegE):
        return f"r:{expr.name}"
    if isinstance(expr, VShiftPairE):
        return f"shp({_sig_v(expr.a)},{_sig_v(expr.b)},{_sig_s(expr.shift)})"
    if isinstance(expr, VSpliceE):
        return f"spl({_sig_v(expr.a)},{_sig_v(expr.b)},{_sig_s(expr.point)})"
    if isinstance(expr, VSplatE):
        return f"splat({_sig_s(expr.operand)},{expr.dtype.name})"
    if isinstance(expr, VBinE):
        return f"{expr.op.name}<{expr.dtype.name}>({_sig_v(expr.a)},{_sig_v(expr.b)})"
    if isinstance(expr, VIotaE):
        return f"iota({expr.bias},{expr.dtype.name})"
    return f"?{type(expr).__name__}"


def _sig_stmt(stmt: VStmt) -> str:
    if isinstance(stmt, SetS):
        return f"{stmt.reg}:={_sig_s(stmt.expr)}"
    if isinstance(stmt, SetV):
        return f"{stmt.reg}={_sig_v(stmt.expr)}"
    if isinstance(stmt, VStoreS):
        return f"st:{stmt.addr.array}:{stmt.addr.elem}={_sig_v(stmt.src)}"
    return f"?{type(stmt).__name__}"


def _sig_section(section: Section) -> str:
    head = f"[{_sig_s(section.cond)};{_sig_s(section.i_expr)}]"
    return head + ",".join(_sig_stmt(s) for s in section.stmts)


def program_signature(program: VProgram) -> str:
    """A string determining the program's compiled kernel.

    Two programs with equal signatures get the same kernel: every
    baked-in property (stride, windows, ops, counts, pointer count,
    section shapes) is a function of the serialized structure.
    """
    parts = [
        f"V={program.V}",
        f"D={program.D}",
        f"up={program.source.upper!r}",
        "pre{" + ",".join(_sig_stmt(s) for s in program.preheader) + "}",
    ]
    parts.extend("pro" + _sig_section(s) for s in program.prologue)
    steady = program.steady
    if steady is None:
        parts.append("nosteady")
    else:
        parts.append(f"step={steady.step}")
        for stmt in list(steady.body) + list(steady.bottom):
            parts.append(_sig_stmt(stmt))
    parts.extend("epi" + _sig_section(s) for s in program.epilogue)
    return ";".join(parts)


def _cached_signature(program: VProgram) -> str:
    # Programs are immutable after simdize; memoize on the instance so
    # repeated runs of one program skip re-serialization.  The memo is
    # a plain string, so a program that later round-trips through
    # pickle (simdize disk cache) stays picklable.
    sig = getattr(program, "_jit_sig", None)
    if sig is None:
        sig = program_signature(program)
        program._jit_sig = sig
    return sig


# ---------------------------------------------------------------------------
# Kernel specification (picklable — this is what the disk cache holds)
# ---------------------------------------------------------------------------

@dataclass
class _KernelSpec:
    """Generated source plus the constant tables to rebuild its helpers.

    Everything here is picklable (strings, ints, dicts, frozen IR
    dataclasses), so a spec round-trips through the disk cache; the
    non-picklable parts — the NumPy helper closures and the compiled
    code object — are rebuilt from these tables by :func:`_materialize`.
    """

    signature: str
    batchable: bool        # steady loop has a batched kernel (_kernel)
    sections_ok: bool      # preheader/prologue/epilogue compiled (_pre/_post)
    V: int = 0
    stride: int = 0
    step: int = 0
    source: str = ""       # one module: _kernel / _pre / _post defs
    # -- steady-kernel tables -------------------------------------------
    win_keys: tuple = ()   # unique (array, elem) in base-table order
    loads: tuple = ()      # (array, elem, statement position) occurrences
    stores: tuple = ()     # (array, elem, statement position)
    binops: tuple = ()     # (op name, DataType)
    folds: tuple = ()      # (op name, DataType, accumulator register)
    splats: tuple = ()     # (operand SExpr, DataType)
    iotas: tuple = ()      # (bias, DataType)
    shifts: tuple = ()     # runtime vshiftpair shift SExprs
    points: tuple = ()     # runtime vsplice point SExprs
    per_iter: dict = field(default_factory=dict)  # category -> count
    pointers: int = 0
    # -- section tables --------------------------------------------------
    arrays: tuple = ()     # array names hoisted as aA{k}
    bbinops: tuple = ()    # (op name, DataType) per byte-mode vbinop
    bsplats: tuple = ()    # DataType per byte-mode splat factory
    biotas: tuple = ()     # (bias, DataType) per byte-mode iota factory
    counts: tuple = ()     # aggregated OpCounters dicts (_cnt{k})


_MATERIALIZE_LOCK = threading.Lock()


def _new_materialize_lock() -> None:
    # A fork taken mid-materialization must not leave the child's copy
    # of the lock held forever.
    global _MATERIALIZE_LOCK
    _MATERIALIZE_LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_materialize_lock)


class _Kernel:
    """A spec whose functions materialize on first use.

    ``fn`` (batched steady loop, one run), ``bfn`` (config-batched
    steady loop), ``pre`` (preheader + prologue sections) and ``post``
    (epilogue sections) are each None when not compiled.  Building them
    (:func:`_materialize`) is most of a warm kernel's cost, and the
    native tier runs whole accepted runs in C without touching any of
    them, so the first attribute read pays it instead of
    :func:`get_kernel`.
    """

    __slots__ = ("spec", "_fns")

    def __init__(self, spec: _KernelSpec):
        self.spec = spec
        self._fns: tuple | None = None

    def _functions(self) -> tuple:
        if self._fns is None:
            # Server worker threads share kernels: build exactly once.
            with _MATERIALIZE_LOCK:
                if self._fns is None:
                    start = time.perf_counter()
                    self._fns = _materialize(self.spec)
                    STATS["materialized"] += 1
                    STATS["compile_s"] += time.perf_counter() - start
        return self._fns

    fn = property(lambda self: self._functions()[0])
    bfn = property(lambda self: self._functions()[1])
    pre = property(lambda self: self._functions()[2])
    post = property(lambda self: self._functions()[3])


# ---------------------------------------------------------------------------
# Steady-loop emission (array mode)
# ---------------------------------------------------------------------------

class _SteadyEmitter:
    """Lowers the steady sequence to kernel source + constant tables.

    Every emitted subexpression is tagged *variant* — shape ``(n, V)``,
    one row per iteration — or *invariant* — shape ``(1, V)``.  The tag
    decides where a broadcast is required (``np.concatenate`` needs
    equal row counts; ufuncs and window stores broadcast natively), so
    the generated code carries no per-call shape dispatch at all.

    In ``batch`` mode the same walk lowers the statement sequence to a
    *config-batched* kernel ``_bkernel(ctx)`` instead: variant values
    are ``(rows, V)`` with one row per (config, iteration) pair —
    configs stacked in segment order, ragged trip counts welcome —
    and invariant values are ``(C, V)``, one row per config.  Because
    both modes walk the same sequence with the same structural cache
    keys, the constant tables (windows, binops, folds, splats, iotas,
    shift/point exprs) come out identical, and one spec serves both
    kernels.  Shape ambiguity (``C == rows`` whenever every config has
    one steady iteration) is resolved by baking each value's variant
    tag into the emitted source as a literal argument, never inferred
    from array shapes at run time.
    """

    def __init__(self, V: int, batch: bool = False):
        self.V = V
        self.batch = batch
        self.lines: list[str] = []
        self.cache: dict = {}          # structural key -> emitted temp name
        self.win_keys: list = []       # unique (array, elem), B-table order
        self._win_index: dict = {}
        self.loads: list = []
        self.stores: list = []
        self.binops: list = []
        self._binop_index: dict = {}
        self.folds: list = []
        self.splats: list = []
        self.iotas: list = []
        self.shifts: list = []
        self.points: list = []
        self.regvar: dict[str, str] = {}      # register -> result temp
        self.reg_variant: dict[str, bool] = {}
        self.assign_pos: dict[str, int] = {}

    def line(self, text: str) -> None:
        self.lines.append(text)

    def _base_index(self, addr: Addr) -> int:
        key = (addr.array, addr.elem)
        idx = self._win_index.get(key)
        if idx is None:
            idx = len(self.win_keys)
            self.win_keys.append(key)
            self._win_index[key] = idx
        return idx

    def _window(self, addr: Addr, buffer: str, kind: str) -> str:
        key = (kind, addr.array, addr.elem)
        name = self.cache.get(key)
        if name is None:
            idx = self._base_index(addr)
            name = f"{'w' if kind == 'load' else 'sw'}{idx}"
            if self.batch:
                # Gathered copy, not a view: the collision analysis
                # guarantees the copy equals what a live view would
                # read (stores never alias an unsnapshotted load).
                self.line(f"{name} = _bwin({idx}, ctx)")
            else:
                self.line(f"{name} = _win({buffer}, B[{idx}], n)")
            self.cache[key] = name
        return name

    def _binop(self, name: str, dtype) -> str:
        key = (name, dtype)
        idx = self._binop_index.get(key)
        if idx is None:
            idx = len(self.binops)
            self.binops.append((name, dtype))
            self._binop_index[key] = idx
        return f"_b{idx}"

    def _index_amount(self, amount, kind: str) -> str:
        """The shift/point as source text, with range check emitted.

        Compile-time ints in range become literals; runtime SExprs (and
        out-of-range literals, which must still raise npbackend's
        MachineError at run time) go through a checked helper.
        """
        check = "_cks" if kind == "shift" else "_ckp"
        if isinstance(amount, int):
            if 0 <= amount <= self.V:
                return str(amount)
            self.line(f"{check}({amount})")
            return str(amount)
        table = self.shifts if kind == "shift" else self.points
        key = (kind, amount)
        name = self.cache.get(key)
        if name is None:
            prefix = "sh" if kind == "shift" else "pt"
            idx = len(table)
            table.append(amount)
            name = f"{prefix}{idx}"
            if self.batch:
                # Batch callers pre-evaluate and range-check every
                # config's amount (configs with out-of-range values
                # are routed to the per-config kernel so the error
                # raises there); ctx holds one ``(C,)`` array each.
                attr = "shifts" if kind == "shift" else "points"
                self.line(f"{name} = ctx.{attr}[{idx}]")
            else:
                self.line(f"{name} = {check}(_peek(env, _{name}))")
            self.cache[key] = name
        return name

    def _concat_pair(self, a: str, av: bool, b: str, bv: bool) -> tuple[str, str]:
        """Operand texts for concatenate: broadcast the invariant side."""
        if av != bv:
            expand = "_bx({}, ctx)" if self.batch else "_bc({}, n)"
            if not av:
                a = expand.format(a)
            else:
                b = expand.format(b)
        return a, b

    def emit(self, expr: VExpr, pos: int) -> tuple[str, bool]:
        """(source text, variant?) for one expression occurrence."""
        V = self.V
        if isinstance(expr, VLoadE):
            self.loads.append((expr.addr.array, expr.addr.elem, pos))
            return self._window(expr.addr, "read_u8", "load"), True
        if isinstance(expr, VRegE):
            defining = self.assign_pos.get(expr.name)
            if defining is None:
                # Loop-invariant register from the preheader/prologue.
                key = ("inv", expr.name)
                name = self.cache.get(key)
                if name is None:
                    name = f"iv{len([k for k in self.cache if k[0] == 'inv'])}"
                    if self.batch:
                        self.line(f"{name} = _binv(ctx, {expr.name!r})")
                    else:
                        self.line(f"{name} = _invreg(env, {expr.name!r})")
                    self.cache[key] = name
                return name, False
            if defining < pos:
                return self.regvar[expr.name], self.reg_variant[expr.name]
            # Loop-carried: row t reads iteration t-1's value, row 0 the
            # register's pre-loop value (the definer is already emitted —
            # topological order — so its temp is in scope).
            key = ("carry", expr.name)
            name = self.cache.get(key)
            if name is None:
                name = f"cy{len([k for k in self.cache if k[0] == 'carry'])}"
                if self.batch:
                    self.line(
                        f"{name} = _bcy(ctx, {expr.name!r}, "
                        f"{self.regvar[expr.name]}, "
                        f"{self.reg_variant[expr.name]})"
                    )
                else:
                    self.line(
                        f"{name} = _carry(env, {expr.name!r}, "
                        f"{self.regvar[expr.name]}, n)"
                    )
                self.cache[key] = name
            return name, True
        if isinstance(expr, VShiftPairE):
            a, av = self.emit(expr.a, pos)
            b, bv = self.emit(expr.b, pos)
            s = self._index_amount(expr.shift, "shift")
            variant = av or bv
            if self.batch and not isinstance(expr.shift, int):
                # Runtime shift: each config takes its own window.
                a, b = self._concat_pair(a, av, b, bv)
                return f"_btake({a}, {b}, {s}, ctx, {variant})", variant
            a, b = self._concat_pair(a, av, b, bv)
            text = f"np.concatenate(({a}, {b}), axis=1)[:, {s}:{s} + {V}]"
            return text, variant
        if isinstance(expr, VSpliceE):
            a, av = self.emit(expr.a, pos)
            b, bv = self.emit(expr.b, pos)
            p = self._index_amount(expr.point, "point")
            variant = av or bv
            if self.batch and not isinstance(expr.point, int):
                a, b = self._concat_pair(a, av, b, bv)
                return f"_bsplice({a}, {b}, {p}, ctx, {variant})", variant
            a, b = self._concat_pair(a, av, b, bv)
            return f"np.concatenate(({a}[:, :{p}], {b}[:, {p}:]), axis=1)", variant
        if isinstance(expr, VSplatE):
            key = ("splat", expr)
            name = self.cache.get(key)
            if name is None:
                idx = len(self.splats)
                self.splats.append((expr.operand, expr.dtype))
                name = f"spv{idx}"
                if self.batch:
                    self.line(f"{name} = _bsp{idx}(ctx)")
                else:
                    self.line(f"{name} = _sp{idx}(env)")
                self.cache[key] = name
            return name, False
        if isinstance(expr, VBinE):
            a, av = self.emit(expr.a, pos)
            b, bv = self.emit(expr.b, pos)
            fn = self._binop(expr.op.name, expr.dtype)
            return f"{fn}({a}, {b})", av or bv
        if isinstance(expr, VIotaE):
            key = ("iota", expr.bias, expr.dtype)
            name = self.cache.get(key)
            if name is None:
                idx = len(self.iotas)
                self.iotas.append((expr.bias, expr.dtype))
                name = f"io{idx}"
                if self.batch:
                    self.line(f"{name} = _bio{idx}(ctx)")
                else:
                    self.line(f"{name} = _io{idx}(lb, n)")
                self.cache[key] = name
            return name, True


def _emit_steady(program: VProgram, spec_fields: dict) -> bool:
    """Emit the batched steady kernel into ``spec_fields``; False = can't."""
    steady = program.steady
    if steady is None:
        return False
    V = program.V
    stride = steady.step * program.D
    if steady.step <= 0 or stride <= 0 or stride % V:
        return False

    # Structural batchability: npbackend's own compile-time analysis,
    # reused verbatim so both engines fall back on exactly the same
    # programs (the ``used_fallback`` parity contract).
    seq: list[VStmt] = list(steady.body) + list(steady.bottom)
    assign_pos: dict[str, int] = {}
    for pos, stmt in enumerate(seq):
        scratch: list[Addr] = []
        if isinstance(stmt, SetV):
            if stmt.reg in assign_pos:
                return False
            assign_pos[stmt.reg] = pos
            if not npbackend._scan_expr(stmt.expr, scratch):
                return False
        elif isinstance(stmt, VStoreS):
            if not npbackend._scan_expr(stmt.src, scratch):
                return False
        else:
            return False
    reductions: dict[int, VExpr] = {}
    for pos, stmt in enumerate(seq):
        if isinstance(stmt, SetV):
            rhs = npbackend._reduction_rhs(seq, pos)
            if rhs is not None:
                reductions[pos] = rhs
    order = npbackend._topo_order(seq, assign_pos, reductions)
    if order is None:
        return False

    def emit_one(batch: bool) -> _SteadyEmitter:
        em = _SteadyEmitter(V, batch)
        em.assign_pos = assign_pos
        if not batch:
            em.line("B, mem_u8, read_u8 = _prelude(env, lb, n)")
        for pos in order:
            stmt = seq[pos]
            assert isinstance(stmt, SetV)
            var = f"R{pos}"
            if pos in reductions:
                expr = stmt.expr
                assert isinstance(expr, VBinE)
                rhs_text, rhs_variant = em.emit(reductions[pos], pos)
                idx = len(em.folds)
                em.folds.append((expr.op.name, expr.dtype, stmt.reg))
                if batch:
                    em.line(f"{var} = _bf{idx}(ctx, {rhs_text}, {rhs_variant})")
                else:
                    em.line(f"{var} = _f{idx}(env, {rhs_text}, n)")
                variant = False
            else:
                text, variant = em.emit(stmt.expr, pos)
                em.line(f"{var} = {text}")
            em.regvar[stmt.reg] = var
            em.reg_variant[stmt.reg] = variant
        for pos, stmt in enumerate(seq):
            if isinstance(stmt, VStoreS):
                text, src_variant = em.emit(stmt.src, pos)
                if batch:
                    idx = em._base_index(stmt.addr)
                    em.stores.append((stmt.addr.array, stmt.addr.elem, pos))
                    em.line(f"_bst({idx}, ctx, {text}, {src_variant})")
                else:
                    window = em._window(stmt.addr, "mem_u8", "store")
                    em.stores.append((stmt.addr.array, stmt.addr.elem, pos))
                    em.line(f"{window}[:] = {text}")
        # Final register values feed the epilogue.
        for pos in order:
            stmt = seq[pos]
            if batch:
                em.line(f"_bfinal(ctx, {stmt.reg!r}, {em.regvar[stmt.reg]}, "
                        f"{em.reg_variant[stmt.reg]})")
            else:
                em.line(f"env.vregs[{stmt.reg!r}] = "
                        f"{em.regvar[stmt.reg]}[-1].tobytes()")
        return em

    em = emit_one(batch=False)
    bem = emit_one(batch=True)
    # Both passes walk the same sequence with the same cache keys, so
    # the constant tables must agree; the spec stores them once.
    assert (em.win_keys, em.loads, em.stores, em.binops, em.folds,
            em.splats, em.iotas, em.shifts, em.points) == \
           (bem.win_keys, bem.loads, bem.stores, bem.binops, bem.folds,
            bem.splats, bem.iotas, bem.shifts, bem.points)

    per_iter = OpCounters()
    for stmt in seq:
        npbackend._count_stmt(per_iter, stmt)

    spec_fields.update(
        stride=stride,
        step=steady.step,
        win_keys=tuple(em.win_keys),
        loads=tuple(em.loads),
        stores=tuple(em.stores),
        binops=tuple(em.binops),
        folds=tuple(em.folds),
        splats=tuple(em.splats),
        iotas=tuple(em.iotas),
        shifts=tuple(em.shifts),
        points=tuple(em.points),
        per_iter=dict(per_iter.counts),
        pointers=program.pointer_count(),
    )
    spec_fields["_kernel_src"] = (
        "def _kernel(env, lb, n):\n"
        + "\n".join("    " + line for line in em.lines) + "\n"
        + "\n"
        + "def _bkernel(ctx):\n"
        + "\n".join("    " + line for line in (bem.lines or ["pass"])) + "\n"
    )
    return True


# ---------------------------------------------------------------------------
# Section emission (byte mode)
# ---------------------------------------------------------------------------

#: Scalar ops inlined as Python source, matching S_OPS semantics.
_S_INLINE = {
    "add": "({} + {})", "sub": "({} - {})", "mul": "({} * {})",
    "div": "({} // {})", "mod": "({} % {})", "and": "({} & {})",
    "min": "min({}, {})", "max": "max({}, {})",
    "lt": "int({} < {})", "le": "int({} <= {})",
    "gt": "int({} > {})", "ge": "int({} >= {})",
}


class _SectionEmitter:
    """Straight-lines preheader/prologue/epilogue to byte-mode source.

    The emitted code calls the same :mod:`repro.machine.vector` and
    :class:`~repro.machine.memory.Memory` primitives the interpreter
    calls — same byte semantics, same exceptions — but with the
    recursive dispatch flattened away and all counter bumps aggregated
    into per-block constants (``_cnt{k}``) computed at compile time
    from the same structural rules as ``interp._eval_v``.
    """

    def __init__(self, V: int, upper):
        self.V = V
        self.upper_var = upper if isinstance(upper, str) else None
        self.arrays: list[str] = []
        self._array_idx: dict = {}
        self.bbinops: list = []
        self._bbinop_idx: dict = {}
        self.bsplats: list = []
        self._bsplat_idx: dict = {}
        self.biotas: list = []
        self._biota_idx: dict = {}
        self.counts: list = []

    def _array(self, name: str) -> str:
        idx = self._array_idx.get(name)
        if idx is None:
            idx = len(self.arrays)
            self.arrays.append(name)
            self._array_idx[name] = idx
        return f"aA{idx}"

    def _ref(self, table: list, index: dict, key, prefix: str) -> str:
        idx = index.get(key)
        if idx is None:
            idx = len(table)
            table.append(key)
            index[key] = idx
        return f"{prefix}{idx}"

    def _count(self, counters: OpCounters) -> str | None:
        if not counters.counts:
            return None
        idx = len(self.counts)
        self.counts.append(dict(counters.counts))
        return f"_cnt{idx}"

    # -- expression source -----------------------------------------------

    def scalar_src(self, expr: SExpr) -> str:
        if isinstance(expr, SConst):
            return repr(expr.value)
        if isinstance(expr, SVar):
            if expr.name == self.upper_var:
                return "env.trip"
            return f"b.scalar({expr.name!r})"
        if isinstance(expr, SBase):
            return f"{self._array(expr.array)}.base"
        if isinstance(expr, SReg):
            return f"_rs(sregs, {expr.name!r})"
        if isinstance(expr, SBin):
            template = _S_INLINE.get(expr.op)
            if template is None:
                raise _CantCompile(expr.op)
            return template.format(
                self.scalar_src(expr.left), self.scalar_src(expr.right)
            )
        raise _CantCompile(type(expr).__name__)

    def _addr_src(self, addr: Addr, has_i: bool) -> str:
        if not has_i:
            # interp._addr_value raises here; preserve message and point.
            return f"_die({f'address {addr} used in a section with no loop counter'!r})"
        return f"{self._array(addr.array)}.addr(i0 + {addr.elem})"

    def vexpr_src(self, expr: VExpr, has_i: bool) -> str:
        V = self.V
        if isinstance(expr, VLoadE):
            return f"vload({self._addr_src(expr.addr, has_i)}, {V})"
        if isinstance(expr, VRegE):
            return f"_rv(vregs, {expr.name!r})"
        if isinstance(expr, VShiftPairE):
            shift = (expr.shift if isinstance(expr.shift, int)
                     else self.scalar_src(expr.shift))
            return (f"_vshiftpair({self.vexpr_src(expr.a, has_i)}, "
                    f"{self.vexpr_src(expr.b, has_i)}, {shift}, {V})")
        if isinstance(expr, VSpliceE):
            point = (expr.point if isinstance(expr.point, int)
                     else self.scalar_src(expr.point))
            return (f"_vsplice({self.vexpr_src(expr.a, has_i)}, "
                    f"{self.vexpr_src(expr.b, has_i)}, {point}, {V})")
        if isinstance(expr, VSplatE):
            fn = self._ref(self.bsplats, self._bsplat_idx, expr.dtype, "_spb")
            return f"{fn}({self.scalar_src(expr.operand)})"
        if isinstance(expr, VBinE):
            fn = self._ref(self.bbinops, self._bbinop_idx,
                           (expr.op.name, expr.dtype), "_bb")
            return (f"{fn}({self.vexpr_src(expr.a, has_i)}, "
                    f"{self.vexpr_src(expr.b, has_i)})")
        if isinstance(expr, VIotaE):
            if not has_i:
                return f"_die({'viota used in a section with no loop counter'!r})"
            fn = self._ref(self.biotas, self._biota_idx,
                           (expr.bias, expr.dtype), "_iob")
            return f"{fn}(i0)"
        raise _CantCompile(type(expr).__name__)

    # -- statements and sections ------------------------------------------

    def _stmt_lines(self, stmt: VStmt, has_i: bool, out: list[str],
                    indent: str) -> None:
        if isinstance(stmt, SetS):
            out.append(f"{indent}sregs[{stmt.reg!r}] = "
                       f"{self.scalar_src(stmt.expr)}")
        elif isinstance(stmt, SetV):
            if stmt.is_copy:
                out.append(f"{indent}vregs[{stmt.reg!r}] = "
                           f"_rv(vregs, {stmt.expr.name!r})")
            else:
                out.append(f"{indent}vregs[{stmt.reg!r}] = "
                           f"{self.vexpr_src(stmt.expr, has_i)}")
        elif isinstance(stmt, VStoreS):
            # Value before address, like interp._exec_stmts, so a bad
            # source register raises before a missing loop counter does.
            out.append(f"{indent}stv = {self.vexpr_src(stmt.src, has_i)}")
            out.append(f"{indent}vstore({self._addr_src(stmt.addr, has_i)}, "
                       f"stv, {self.V})")
        else:
            raise _CantCompile(type(stmt).__name__)

    def _count_stmts(self, stmts: list[VStmt]) -> OpCounters:
        """One execution's counter bumps, mirroring interp._exec_stmts."""
        pc = OpCounters()
        for stmt in stmts:
            if isinstance(stmt, SetS):
                npbackend._count_sbins(pc, stmt.expr)
            else:
                npbackend._count_stmt(pc, stmt)
        return pc

    def emit_function(self, name: str, preheader: list[VStmt],
                      sections: list[Section]) -> str:
        body: list[str] = []
        if preheader:
            pc = self._count_stmts(preheader)
            for stmt in preheader:
                self._stmt_lines(stmt, False, body, "    ")
            cnt = self._count(pc)
            if cnt is not None:
                body.append(f"    _bump_all(c, {cnt})")
        for section in sections:
            body.append(f"    # {section.label}")
            has_i = section.i_expr is not None
            taken = OpCounters()
            if has_i:
                npbackend._count_sbins(taken, section.i_expr)
            taken.merge(self._count_stmts(section.stmts))
            if section.cond is not None:
                # The interpreter bumps BRANCH and evaluates the
                # condition (counting its SBins) whether or not the
                # section runs; only the body is conditional.
                head = OpCounters()
                head.bump(BRANCH)
                npbackend._count_sbins(head, section.cond)
                body.append(f"    _bump_all(c, {self._count(head)})")
                body.append(f"    if {self.scalar_src(section.cond)}:")
                indent = "        "
            else:
                indent = "    "
            inner: list[str] = []
            if has_i:
                inner.append(f"{indent}i0 = {self.scalar_src(section.i_expr)}")
            for stmt in section.stmts:
                self._stmt_lines(stmt, has_i, inner, indent)
            cnt = self._count(taken)
            if cnt is not None:
                inner.append(f"{indent}_bump_all(c, {cnt})")
            if not inner:
                inner.append(f"{indent}pass")
            body.extend(inner)
        hoists = [
            "    c = env.counters",
            "    vregs = env.vregs",
            "    sregs = env.sregs",
            "    b = env.bindings",
            "    mem = env.mem",
            "    vload = mem.vload",
            "    vstore = mem.vstore",
            "    space = env.space",
        ]
        hoists += [
            f"    aA{idx} = space[{arr!r}]"
            for idx, arr in enumerate(self.arrays)
        ]
        if not body:
            body = ["    pass"]
        return f"def {name}(env):\n" + "\n".join(hoists + body) + "\n"


def _emit_sections(program: VProgram, spec_fields: dict) -> bool:
    """Emit _pre/_post into ``spec_fields``; False when a form can't."""
    em = _SectionEmitter(program.V, program.source.upper)
    try:
        pre = em.emit_function("_pre", list(program.preheader),
                               list(program.prologue))
        post = em.emit_function("_post", [], list(program.epilogue))
    except _CantCompile:
        return False
    spec_fields.update(
        arrays=tuple(em.arrays),
        bbinops=tuple(em.bbinops),
        bsplats=tuple(em.bsplats),
        biotas=tuple(em.biotas),
        counts=tuple(em.counts),
    )
    spec_fields["_pre_src"] = pre
    spec_fields["_post_src"] = post
    return True


def _compile_spec(program: VProgram, signature: str) -> _KernelSpec:
    """Lower a program to a kernel spec (once per signature)."""
    fields: dict = {}
    batchable = _emit_steady(program, fields)
    sections_ok = _emit_sections(program, fields)
    sources = []
    if batchable:
        sources.append(fields.pop("_kernel_src"))
    if sections_ok:
        sources.append(fields.pop("_pre_src"))
        sources.append(fields.pop("_post_src"))
    return _KernelSpec(
        signature=signature,
        batchable=batchable,
        sections_ok=sections_ok,
        V=program.V,
        source="\n".join(sources),
        **fields,
    )


# ---------------------------------------------------------------------------
# Helper factories (rebuilt from the spec's constant tables)
# ---------------------------------------------------------------------------
#
# Each factory bakes a spec constant into a closure whose semantics
# mirror one npbackend/interp evaluation case byte-for-byte.  The
# factories — not the closures — are what survives pickling:
# _materialize rebuilds the namespace from the spec's tables on load.

def _lanes(rows: np.ndarray, fmt: str) -> np.ndarray:
    """Reinterpret uint8 rows as lanes; copies only when view() can't."""
    try:
        return rows.view(fmt)
    except ValueError:
        return np.ascontiguousarray(rows).view(fmt)


_BITWISE = {"and": np.bitwise_and, "or": np.bitwise_or, "xor": np.bitwise_xor}
_ARITH = {"add": np.add, "sub": np.subtract, "mul": np.multiply,
          "min": np.minimum, "max": np.maximum}


def _make_binop(name: str, dtype):
    """Lane-wise op matching npbackend._binop_rows (ufuncs broadcast)."""
    if name in _BITWISE:
        return _BITWISE[name]
    ufmt = f"<u{dtype.size}"
    lane_fmt = f"<i{dtype.size}" if dtype.signed else ufmt
    if name in ("add", "sub", "mul"):
        func = _ARITH[name]

        def modular(a, b):
            # Two's-complement wraparound == unsigned modular arithmetic.
            return func(_lanes(a, ufmt), _lanes(b, ufmt)).view(np.uint8)

        return modular
    if name in ("min", "max"):
        func = _ARITH[name]

        def ordered(a, b):
            return func(_lanes(a, lane_fmt), _lanes(b, lane_fmt)).view(np.uint8)

        return ordered
    if name not in ("avg", "sadd", "ssub"):  # IR op set is closed
        raise MachineError(f"no batched lowering for vector op {name!r}")
    mask = (1 << dtype.bits) - 1
    lo, hi = dtype.min_value, dtype.max_value

    def saturating(a, b):
        wa = _lanes(a, lane_fmt).astype(np.int64)
        wb = _lanes(b, lane_fmt).astype(np.int64)
        if name == "avg":
            out = (wa + wb) >> 1  # arithmetic shift floors, like Python's >>
        elif name == "sadd":
            out = np.clip(wa + wb, lo, hi)
        else:  # ssub
            out = np.clip(wa - wb, lo, hi)
        out &= mask  # re-encode two's complement
        return out.astype(ufmt).view(np.uint8)

    return saturating


def _make_fold(name: str, dtype, reg: str, V: int):
    """Seeded lane-wise reduction matching npbackend._fold_reduction."""
    if name in _BITWISE:
        ufunc = _BITWISE[name]

        def fold_bits(env, rows, n):
            init = np.frombuffer(
                interp._read_vreg(env, reg), dtype=np.uint8
            ).reshape(1, V)
            block = np.concatenate(
                (init, np.broadcast_to(rows, (n, V))), axis=0
            )
            return ufunc.reduce(block, axis=0, keepdims=True)

        return fold_bits
    fmt = f"<{'i' if dtype.signed and name in ('min', 'max') else 'u'}{dtype.size}"
    ufunc = {"add": np.add, "mul": np.multiply,
             "min": np.minimum, "max": np.maximum}[name]

    def fold(env, rows, n):
        init = np.frombuffer(
            interp._read_vreg(env, reg), dtype=np.uint8
        ).reshape(1, V)
        block = np.concatenate((init, np.broadcast_to(rows, (n, V))), axis=0)
        lanes = block.view(fmt)
        # Pinned accumulation dtype: keep narrow-lane wraparound exact.
        out = ufunc.reduce(lanes, axis=0, keepdims=True, dtype=lanes.dtype)
        return out.view(np.uint8)

    return fold


def _make_splat(operand: SExpr, dtype, V: int):
    def splat(env):
        value = npbackend._peek_s(env, operand)
        data = vec.vsplat(dtype.wrap(value), dtype, V)
        return np.frombuffer(data, dtype=np.uint8).reshape(1, V)

    return splat


def _make_iota(bias: int, dtype, step: int, V: int):
    B = V // dtype.size
    mask = (1 << dtype.bits) - 1
    fmt = f"<u{dtype.size}"

    def iota(lb, n):
        i_vals = lb + step * np.arange(n, dtype=np.int64)
        m = (i_vals + bias) * dtype.size // V  # numpy // floors like Python
        lanes = m[:, None] * B + np.arange(B, dtype=np.int64)
        lanes &= mask  # modular wrap, like DataType.wrap
        return lanes.astype(fmt).view(np.uint8)

    return iota


def _make_check(limit: int, what: str):
    def check(value):
        if not 0 <= value <= limit:
            raise MachineError(f"{what} {value} outside [0, {limit}]")
        return value

    return check


def _window_bases(spec: _KernelSpec, env, lb: int, n: int):
    """The per-run window/collision analysis, npbackend._plan's runtime half.

    Raises _Unbatchable — before any mutation — exactly where _plan
    returns None at run time: out-of-bounds windows, backward
    load/store collisions, cross-iteration store/store collisions.
    Returns ``(bases, snapshot)``: one window base per spec.win_keys
    entry, and whether loads must read a pre-loop memory snapshot.
    Shared by the per-run kernel prelude and the config-batch builder,
    so both paths accept and reject exactly the same runs.
    """
    V, stride = spec.V, spec.stride
    win_keys, loads, stores = spec.win_keys, spec.loads, spec.stores
    span = (n - 1) * stride
    size = env.mem.size
    bases = []
    for array, elem in win_keys:
        a0 = env.space[array].addr(lb + elem)
        a0 -= a0 % V
        if a0 < 0 or a0 + span + V > size:
            raise _Unbatchable
        bases.append(a0)
    base_of = dict(zip(win_keys, bases))
    snapshot = False
    if stores:
        load_w = [(base_of[(ar, el)], pos) for ar, el, pos in loads]
        store_w = [(base_of[(ar, el)], pos) for ar, el, pos in stores]
        for sa, s_pos in store_w:
            for la, l_pos in load_w:
                d = la - sa
                if d % stride or abs(d) > span:
                    continue  # never the same window
                if d < 0 or (d == 0 and l_pos > s_pos):
                    raise _Unbatchable
                snapshot = True
            for other, _ in store_w:
                d = other - sa
                if d != 0 and d % stride == 0 and abs(d) <= span:
                    raise _Unbatchable
    return bases, snapshot


def _make_prelude(spec: _KernelSpec):
    def prelude(env, lb, n):
        bases, snapshot = _window_bases(spec, env, lb, n)
        mem_u8 = np.frombuffer(env.mem.raw(), dtype=np.uint8)
        read_u8 = mem_u8.copy() if snapshot else mem_u8
        return bases, mem_u8, read_u8

    return prelude


def _make_win(stride: int, V: int):
    as_strided = np.lib.stride_tricks.as_strided

    def win(buffer, a0, n):
        return as_strided(buffer[a0:], shape=(n, V), strides=(stride, 1))

    return win


def _make_invreg(V: int):
    def invreg(env, name):
        return np.frombuffer(
            interp._read_vreg(env, name), dtype=np.uint8
        ).reshape(1, V)

    return invreg


def _make_carry(V: int):
    def carry(env, name, rows, n):
        init = np.frombuffer(
            interp._read_vreg(env, name), dtype=np.uint8
        ).reshape(1, V)
        full = np.broadcast_to(rows, (n, V))
        return np.concatenate((init, full[:-1]), axis=0)

    return carry


def _make_bc(V: int):
    def bc(rows, n):
        return np.broadcast_to(rows, (n, V))

    return bc


# ---------------------------------------------------------------------------
# Config-batch execution (one kernel call per signature class)
# ---------------------------------------------------------------------------
#
# The batched kernel sees a _BatchCtx: C runs of the *same* program
# stacked along a config axis.  Variant values are (rows, V) where
# rows = sum of the per-config steady iteration counts — config c owns
# the contiguous row segment [seg_starts[c], seg_ends[c]), so ragged
# trip counts need no padding or masking: segment boundaries do the
# work (reduceat folds, seg_starts carry injection, seg_ends-1
# finals).  Invariant values are (C, V), one row per config, expanded
# to the row axis via ``row_cfg`` (row -> owning config) only where an
# op mixes the two shapes.  Memory is the concatenation of every
# run's buffer, so a window index is just a per-config base offset
# plus the usual in-run strided layout; stores scatter into the flat
# image and ``writeback`` copies each segment into its run's Memory.

class _BatchCtx:
    """Stacked per-run state for one batched kernel invocation."""

    def __init__(self, spec: _KernelSpec, items: list):
        # items: (env, lb, n, bases, snapshot, shifts, points) per run,
        # every run already validated by _window_bases and the
        # shift/point range checks.
        self.V = spec.V
        self.stride = spec.stride
        self.envs = [item[0] for item in items]
        ns = np.array([item[2] for item in items], dtype=np.int64)
        lbs = np.array([item[1] for item in items], dtype=np.int64)
        ends = np.cumsum(ns)
        self.seg_ends = ends
        self.seg_starts = ends - ns
        self.rows = int(ends[-1])
        self.row_cfg = np.repeat(np.arange(len(items)), ns)
        self.local_t = (np.arange(self.rows, dtype=np.int64)
                        - self.seg_starts[self.row_cfg])
        self.i_vals = lbs[self.row_cfg] + spec.step * self.local_t
        sizes = [env.mem.size for env in self.envs]
        self.mem_offsets = np.cumsum([0] + sizes[:-1])
        self.mem_flat = np.concatenate(
            [np.frombuffer(env.mem.raw(), dtype=np.uint8)
             for env in self.envs]
        )
        snapshot = any(item[4] for item in items)
        self.read_flat = self.mem_flat.copy() if snapshot else self.mem_flat
        bases = np.array([item[3] for item in items],
                         dtype=np.int64).reshape(len(items), len(spec.win_keys))
        self.gbase = self.mem_offsets[:, None] + bases  # (C, windows)
        self.shifts = [np.array([item[5][j] for item in items])
                       for j in range(len(spec.shifts))]
        self.points = [np.array([item[6][j] for item in items])
                       for j in range(len(spec.points))]

    def _segments(self, k: int, buffer):
        """Per-config (slice, strided window view) pairs for window k.

        Window starts within a config advance by the uniform kernel
        stride, so each config's rows are one ``as_strided`` view into
        the flat image — no per-row index arrays.  Store windows never
        overlap (the stride is a multiple of V), which is what lets
        the per-run kernel assign through these same views.
        """
        as_strided = np.lib.stride_tricks.as_strided
        for c, (start, end) in enumerate(zip(self.seg_starts, self.seg_ends)):
            view = as_strided(buffer[self.gbase[c, k]:],
                              shape=(int(end - start), self.V),
                              strides=(self.stride, 1))
            yield slice(int(start), int(end)), view

    def window(self, k: int) -> np.ndarray:
        """(rows, V) copy of window table entry k across all configs."""
        out = np.empty((self.rows, self.V), dtype=np.uint8)
        for rows, view in self._segments(k, self.read_flat):
            out[rows] = view
        return out

    def store(self, k: int, block) -> None:
        """Write a (rows, V) block through window table entry k."""
        for rows, view in self._segments(k, self.mem_flat):
            view[:] = block[rows]

    def writeback(self) -> None:
        """Copy each run's flat-image segment back into its Memory."""
        for offset, env in zip(self.mem_offsets, self.envs):
            end = offset + env.mem.size
            env.mem.raw()[:] = self.mem_flat[offset:end].tobytes()


def _bx(rows, ctx):
    """Expand an invariant (C, V) value to one row per iteration."""
    return rows[ctx.row_cfg]


def _bwin(k, ctx):
    return ctx.window(k)


def _bst(k, ctx, rows, variant):
    ctx.store(k, rows if variant else rows[ctx.row_cfg])


def _btake(a, b, amounts, ctx, variant):
    """Per-row window [s, s+V) of hstack(a, b) — runtime vshiftpair."""
    cat = np.concatenate((a, b), axis=1)
    per_row = amounts[ctx.row_cfg] if variant else amounts
    idx = per_row[:, None] + np.arange(ctx.V)
    return np.take_along_axis(cat, idx, axis=1)


def _bsplice(a, b, amounts, ctx, variant):
    """Per-row a[:p] + b[p:] of two V-byte rows — runtime vsplice."""
    cat = np.concatenate((a, b), axis=1)
    per_row = amounts[ctx.row_cfg] if variant else amounts
    j = np.arange(ctx.V)
    idx = j + ctx.V * (j >= per_row[:, None])
    return np.take_along_axis(cat, idx, axis=1)


def _binv_rows(ctx, name):
    """Every run's value of a vector register, stacked as (C, V)."""
    return np.stack([
        np.frombuffer(interp._read_vreg(env, name), dtype=np.uint8)
        for env in ctx.envs
    ])


def _binv(ctx, name):
    return _binv_rows(ctx, name)


def _bcy(ctx, name, rows, variant):
    """Loop-carried read: row t sees iteration t-1, segment heads see
    each run's pre-loop register value."""
    full = rows if variant else rows[ctx.row_cfg]
    out = np.empty((ctx.rows, ctx.V), dtype=np.uint8)
    out[1:] = full[:-1]
    out[ctx.seg_starts] = _binv_rows(ctx, name)
    return out


def _bfinal(ctx, name, rows, variant):
    """Each run's last-iteration register value feeds its epilogue."""
    finals = rows[ctx.seg_ends - 1] if variant else rows
    for env, row in zip(ctx.envs, finals):
        env.vregs[name] = row.tobytes()


def _make_bfold(name: str, dtype, reg: str, V: int):
    """Per-segment seeded reduction: _make_fold along the config axis.

    Each run's init row is inserted at its segment head, then one
    ``reduceat`` folds every segment in a single call — the pinned
    accumulation dtype keeps narrow-lane wraparound exact, as in the
    per-run fold.
    """
    if name in _BITWISE:
        ufunc = _BITWISE[name]
        fmt = None
    else:
        fmt = f"<{'i' if dtype.signed and name in ('min', 'max') else 'u'}{dtype.size}"
        ufunc = {"add": np.add, "mul": np.multiply,
                 "min": np.minimum, "max": np.maximum}[name]

    def bfold(ctx, rows, variant):
        full = rows if variant else rows[ctx.row_cfg]
        inits = _binv_rows(ctx, reg)
        block = np.insert(np.ascontiguousarray(full), ctx.seg_starts,
                          inits, axis=0)
        # Init rows shift every later segment start by its index.
        starts = ctx.seg_starts + np.arange(len(ctx.envs))
        if fmt is None:
            return ufunc.reduceat(block, starts, axis=0)
        lanes = block.view(fmt)
        out = ufunc.reduceat(lanes, starts, axis=0, dtype=lanes.dtype)
        return np.ascontiguousarray(out).view(np.uint8)

    return bfold


def _make_bsplat(operand: SExpr, dtype, V: int):
    splat = _make_splat(operand, dtype, V)

    def bsplat(ctx):
        return np.concatenate([splat(env) for env in ctx.envs], axis=0)

    return bsplat


def _make_biota(bias: int, dtype, V: int):
    B = V // dtype.size
    mask = (1 << dtype.bits) - 1
    fmt = f"<u{dtype.size}"

    def biota(ctx):
        m = (ctx.i_vals + bias) * dtype.size // V
        lanes = m[:, None] * B + np.arange(B, dtype=np.int64)
        lanes &= mask
        return lanes.astype(fmt).view(np.uint8)

    return biota


def _make_byte_binop(name: str, dtype, V: int):
    """vec.vbinop's lane semantics over one V-byte pair, via NumPy.

    Reuses the array-mode lane closures (:func:`_make_binop`), so the
    sections and the steady loop share one proven arithmetic model
    instead of the interpreter's per-lane Python loop.
    """
    rows = _make_binop(name, dtype)

    def bbin(a, b):
        ra = np.frombuffer(a, dtype=np.uint8).reshape(1, V)
        rb = np.frombuffer(b, dtype=np.uint8).reshape(1, V)
        return rows(ra, rb).tobytes()

    return bbin


def _make_byte_splat(dtype, V: int):
    wrap = dtype.wrap

    def splat(value):
        return vec.vsplat(wrap(value), dtype, V)

    return splat


def _make_byte_iota(bias: int, dtype, V: int):
    """interp._eval_v's VIotaE case, with the constants pre-bound."""
    B = V // dtype.size
    size = dtype.size
    wrap = dtype.wrap

    def iota(i):
        m = ((i + bias) * size) // V
        return vec.from_lanes([wrap(m * B + lane) for lane in range(B)], dtype)

    return iota


def _read_sreg(sregs, name):
    try:
        return sregs[name]
    except KeyError:
        raise MachineError(
            f"scalar register {name!r} read before being set"
        ) from None


def _read_vreg(vregs, name):
    try:
        return vregs[name]
    except KeyError:
        raise MachineError(
            f"vector register {name!r} read before being set"
        ) from None


def _die(message):
    raise MachineError(message)


def _bump_all(counters, counts):
    for category, amount in counts.items():
        counters.bump(category, amount)


def _materialize(spec: _KernelSpec) -> tuple:
    """Compile a spec's source against its rebuilt helper namespace."""
    if not spec.source:
        return None, None, None, None
    ns: dict = {
        "np": np,
        "MachineError": MachineError,
        "_peek": npbackend._peek_s,
        "_vshiftpair": vec.vshiftpair,
        "_vsplice": vec.vsplice,
        "_rs": _read_sreg,
        "_rv": _read_vreg,
        "_die": _die,
        "_bump_all": _bump_all,
    }
    if spec.batchable:
        ns.update({
            "_prelude": _make_prelude(spec),
            "_win": _make_win(spec.stride, spec.V),
            "_invreg": _make_invreg(spec.V),
            "_carry": _make_carry(spec.V),
            "_bc": _make_bc(spec.V),
            "_cks": _make_check(spec.V, "vshiftpair shift"),
            "_ckp": _make_check(spec.V, "vsplice point"),
            "_bx": _bx,
            "_bwin": _bwin,
            "_bst": _bst,
            "_btake": _btake,
            "_bsplice": _bsplice,
            "_binv": _binv,
            "_bcy": _bcy,
            "_bfinal": _bfinal,
        })
        for idx, (name, dtype) in enumerate(spec.binops):
            ns[f"_b{idx}"] = _make_binop(name, dtype)
        for idx, (name, dtype, reg) in enumerate(spec.folds):
            ns[f"_f{idx}"] = _make_fold(name, dtype, reg, spec.V)
            ns[f"_bf{idx}"] = _make_bfold(name, dtype, reg, spec.V)
        for idx, (operand, dtype) in enumerate(spec.splats):
            ns[f"_sp{idx}"] = _make_splat(operand, dtype, spec.V)
            ns[f"_bsp{idx}"] = _make_bsplat(operand, dtype, spec.V)
        for idx, (bias, dtype) in enumerate(spec.iotas):
            ns[f"_io{idx}"] = _make_iota(bias, dtype, spec.step, spec.V)
            ns[f"_bio{idx}"] = _make_biota(bias, dtype, spec.V)
        for idx, expr in enumerate(spec.shifts):
            ns[f"_sh{idx}"] = expr
        for idx, expr in enumerate(spec.points):
            ns[f"_pt{idx}"] = expr
    if spec.sections_ok:
        for idx, (name, dtype) in enumerate(spec.bbinops):
            ns[f"_bb{idx}"] = _make_byte_binop(name, dtype, spec.V)
        for idx, dtype in enumerate(spec.bsplats):
            ns[f"_spb{idx}"] = _make_byte_splat(dtype, spec.V)
        for idx, (bias, dtype) in enumerate(spec.biotas):
            ns[f"_iob{idx}"] = _make_byte_iota(bias, dtype, spec.V)
        for idx, counts in enumerate(spec.counts):
            ns[f"_cnt{idx}"] = counts
    code = compile(spec.source, "<repro-jit-kernel>", "exec")
    exec(code, ns)
    return (ns.get("_kernel"), ns.get("_bkernel"),
            ns.get("_pre"), ns.get("_post"))


# ---------------------------------------------------------------------------
# Two-tier kernel cache
# ---------------------------------------------------------------------------

_KERNEL_CACHE: OrderedDict[str, _Kernel] = OrderedDict()
_KERNEL_CACHE_MAX = 256


def _disk_key(signature: str) -> str:
    from repro import __version__

    return f"jit-kernel:{__version__}:{KERNEL_CODE_VERSION}:{signature}"


def get_kernel(program: VProgram) -> _Kernel:
    """The compiled kernel for this program's signature (cached)."""
    signature = _cached_signature(program)
    kernel = _KERNEL_CACHE.get(signature)
    if kernel is not None:
        _KERNEL_CACHE.move_to_end(signature)  # LRU: recent use survives
        STATS["memory_hits"] += 1
        return kernel
    STATS["memory_misses"] += 1
    _fault("compile")  # REPRO_FAULT=compile:… fails the kernel build here
    start = time.perf_counter()
    disk = get_cache()
    spec = None
    if disk is not None:
        entry = disk.get(_disk_key(signature))
        if isinstance(entry, _KernelSpec) and entry.signature == signature:
            spec = entry
            STATS["disk_hits"] += 1
        else:
            STATS["disk_misses"] += 1
    if spec is None:
        spec = _compile_spec(program, signature)
        STATS["codegens"] += 1
        if disk is not None:
            disk.put(_disk_key(signature), spec)
    STATS["compile_s"] += time.perf_counter() - start
    kernel = _Kernel(spec)
    if len(_KERNEL_CACHE) >= _KERNEL_CACHE_MAX:
        _KERNEL_CACHE.popitem(last=False)
    _KERNEL_CACHE[signature] = kernel
    return kernel


def clear_memory_cache() -> None:
    """Drop materialized kernels (tests use this to force disk loads)."""
    _KERNEL_CACHE.clear()


# ---------------------------------------------------------------------------
# The backend
# ---------------------------------------------------------------------------

class JitBackend:
    """Compile-once execution of vector programs (bit-exact vs bytes).

    The ``_kernel_for`` / ``_steady`` / ``_steady_batch`` /
    ``_finish_env`` / ``_batch_finish`` hooks are the entire subclass
    surface: the native backend (:mod:`repro.machine.native`) overrides
    them to swap the steady loop — or the whole guarded run — for a
    compiled C kernel while inheriting the guard, section, and trip
    machinery unchanged.
    """

    name = "jit"

    def _kernel_for(self, program):
        return get_kernel(program)

    def _steady(self, env, steady, kernel) -> bool:
        return _run_steady(env, steady, kernel)

    def _steady_batch(self, live, kernel) -> dict:
        return _run_steady_batch(live, kernel)

    def _finish_env(self, env, kernel) -> bool:
        """Preheader/prologue, steady loop, epilogue for one guarded env.

        Runs everything after the guard/trip checks of :meth:`run`.
        The native backend overrides this to execute a whole accepted
        run as one C call (sections included) and only falls through
        here when the run declines whole-run lowering.
        """
        program = env.program
        if kernel.pre is not None:
            kernel.pre(env)
        else:
            interp._exec_stmts(env, program.preheader, i=None)
            for section in program.prologue:
                interp._exec_section(env, section)
        fell_back = False
        if program.steady is not None:
            fell_back = self._steady(env, program.steady, kernel)
        if kernel.post is not None:
            kernel.post(env)
        else:
            for section in program.epilogue:
                interp._exec_section(env, section)
        return fell_back

    def _batch_finish(self, live, results, kernel) -> None:
        """Sections + steady + results for the guarded (live) envs.

        The batch twin of :meth:`_finish_env`: the native backend
        overrides it to marshal every accepted env into one C batch
        driver call, delegating declined envs back here.
        """
        for _, env in live:
            if kernel.pre is not None:
                kernel.pre(env)
            else:
                interp._exec_stmts(env, env.program.preheader, i=None)
                for section in env.program.prologue:
                    interp._exec_section(env, section)
        fell: dict[int, bool] = {i: False for i, _ in live}
        if live[0][1].program.steady is not None:
            fell = self._steady_batch(live, kernel)
        for i, env in live:
            if kernel.post is not None:
                kernel.post(env)
            else:
                for section in env.program.epilogue:
                    interp._exec_section(env, section)
            results[i] = VectorRunResult(env.counters, env.trip,
                                         used_fallback=fell[i])

    def run(
        self,
        program,
        space,
        mem,
        bindings=None,
        trace=None,
    ) -> VectorRunResult:
        if trace is not None:
            # Tracing observes every access individually; stay on the
            # byte interpreter (same rule as the numpy engine).
            return run_vector(program, space, mem, bindings, trace)

        _fault("execute")  # before any state mutates: degradation-safe
        env = interp._Env(program, space, mem, bindings or RunBindings(), None)
        env.counters.bump(CALL, 2)

        if program.guard_min_trip is not None:
            env.counters.bump(BRANCH)
            if env.trip <= program.guard_min_trip:
                scalar = NumpyScalarBackend().run(
                    program.source, space, mem, env.bindings
                )
                env.counters.merge(scalar.counters)
                return VectorRunResult(env.counters, env.trip, used_fallback=True)
        elif env.trip != program.source.upper and isinstance(program.source.upper, int):
            raise MachineError("compile-time trip count mismatch")

        kernel = self._kernel_for(program)
        fell_back = self._finish_env(env, kernel)
        return VectorRunResult(env.counters, env.trip, used_fallback=fell_back)

    def run_batch(self, runs) -> list:
        """Execute ``(program, space, mem, bindings)`` runs as a batch.

        All programs must share one structural signature (the caller
        groups sweep configs by :func:`program_signature`); each run
        keeps its *own* program for everything value-dependent — trip
        resolution, guard fallbacks on its own source loop, interp
        section replay — while the class's single compiled kernel
        serves every run.

        Semantically identical to calling :meth:`run` per element —
        same final memories, counters, trips, fallback flags — but
        every run that passes the per-run batching checks executes the
        steady loop in ONE config-batched kernel call, so a signature
        class of C sweep configs costs one NumPy dispatch sequence
        instead of C.
        """
        _fault("execute")  # before any state mutates: degradation-safe
        results: list = [None] * len(runs)
        live: list[tuple[int, interp._Env]] = []
        signature = None
        for i, (program, space, mem, bindings) in enumerate(runs):
            if signature is None:
                signature = _cached_signature(program)
            elif _cached_signature(program) != signature:
                raise MachineError(
                    "run_batch requires one structural signature per batch"
                )
            env = interp._Env(program, space, mem,
                              bindings or RunBindings(), None)
            env.counters.bump(CALL, 2)
            if program.guard_min_trip is not None:
                env.counters.bump(BRANCH)
                if env.trip <= program.guard_min_trip:
                    scalar = NumpyScalarBackend().run(
                        program.source, space, mem, env.bindings
                    )
                    env.counters.merge(scalar.counters)
                    results[i] = VectorRunResult(env.counters, env.trip,
                                                 used_fallback=True)
                    continue
            elif (env.trip != program.source.upper
                  and isinstance(program.source.upper, int)):
                raise MachineError("compile-time trip count mismatch")
            live.append((i, env))
        if not live:
            return results
        kernel = self._kernel_for(live[0][1].program)
        self._batch_finish(live, results, kernel)
        return results


def _checked_amount(env, expr, V: int, what: str) -> int:
    value = npbackend._peek_s(env, expr)
    if not 0 <= value <= V:
        raise MachineError(f"{what} {value} outside [0, {V}]")
    return value


def _run_steady_batch(live, kernel: _Kernel) -> dict:
    """Run the steady loop for every live env, batching where possible.

    Per-env outcomes mirror :func:`_run_steady` exactly: envs the
    window analysis rejects replay the per-iteration fallback
    (``used_fallback=True``), envs with out-of-range runtime
    shift/point values re-raise through the per-run kernel, and the
    rest execute as one ``_bkernel`` call over the stacked config axis.
    """
    spec = kernel.spec
    fell: dict[int, bool] = {}
    if len(live) == 1 or kernel.bfn is None:
        # Nothing to stack: skip the batch planning entirely — the
        # per-run kernel's own prelude redoes the window analysis, so
        # planning here would be pure double work for singleton classes.
        for i, env in live:
            fell[i] = _run_steady(env, env.program.steady, kernel)
        return fell
    batch: list = []     # validated (env, lb, n, bases, snapshot, sh, pt, i)
    solo: list = []      # (i, env, lb, ub) replayed through the per-run path
    for i, env in live:
        steady = env.program.steady
        # Bounds evaluate exactly once per env (SBin evaluation bumps
        # SCALAR); the solo path reuses these values.
        lb = interp._eval_s(env, steady.lb)
        ub = interp._eval_s(env, steady.ub)
        if steady.step <= 0 or kernel.fn is None:
            solo.append((i, env, lb, ub))
            continue
        n = len(range(lb, ub, steady.step))
        if n == 0:
            fell[i] = False
            continue
        try:
            bases, snapshot = _window_bases(spec, env, lb, n)
            shifts = [_checked_amount(env, expr, spec.V, "vshiftpair shift")
                      for expr in spec.shifts]
            points = [_checked_amount(env, expr, spec.V, "vsplice point")
                      for expr in spec.points]
        except _Unbatchable:
            npbackend._steady_periter(env, steady, lb, ub)
            fell[i] = True
            continue
        except MachineError:
            # Out-of-range amount (or unset register): replay the
            # per-run kernel so the identical error raises from the
            # same execution point it would in run().
            solo.append((i, env, lb, ub))
            continue
        batch.append((env, lb, n, bases, snapshot, shifts, points, i))
    if batch and (len(batch) == 1 or kernel.bfn is None):
        solo += [(item[7], item[0], item[1],
                  item[1] + item[2] * spec.step) for item in batch]
        batch = []
    if batch:
        ctx = _BatchCtx(spec, [item[:7] for item in batch])
        kernel.bfn(ctx)
        if spec.stores:
            ctx.writeback()
        for env, _, n, *_rest in batch:
            _bump_steady_counters(env, spec, n)
        for item in batch:
            fell[item[7]] = False
    for i, env, lb, ub in solo:
        fell[i] = _run_steady_at(env, env.program.steady, kernel, lb, ub)
    return fell


def _bump_steady_counters(env: interp._Env, spec: _KernelSpec, n: int) -> None:
    # Structural counters: exactly what the byte interpreter tallies
    # per iteration, multiplied by the iteration count (precomputed at
    # kernel compile time).
    env.counters.bump(SCALAR, spec.pointers * n)
    env.counters.bump(BRANCH, n)
    for category, count in spec.per_iter.items():
        env.counters.bump(category, count * n)


def _run_steady(env: interp._Env, steady, kernel: _Kernel) -> bool:
    """Run the compiled steady kernel; True when the per-iteration path ran."""
    lb = interp._eval_s(env, steady.lb)
    ub = interp._eval_s(env, steady.ub)
    return _run_steady_at(env, steady, kernel, lb, ub)


def _run_steady_at(env: interp._Env, steady, kernel: _Kernel,
                   lb: int, ub: int) -> bool:
    if steady.step <= 0:
        npbackend._steady_periter(env, steady, lb, ub)
        return True
    n = len(range(lb, ub, steady.step))
    if n == 0:
        return False
    if kernel.fn is None:
        npbackend._steady_periter(env, steady, lb, ub)
        return True
    try:
        kernel.fn(env, lb, n)
    except _Unbatchable:
        # Raised by the prelude before any mutation, so the fallback
        # replays the loop from unmodified state.
        npbackend._steady_periter(env, steady, lb, ub)
        return True
    _bump_steady_counters(env, kernel.spec, n)
    return False
