"""Native codegen backend: signature kernels compiled to machine code.

The jit tier (:mod:`repro.machine.jit`) stops at generated NumPy-Python
source.  This tier closes the paper's loop: for each structural program
signature it lowers the :class:`~repro.vir.program.VProgram` through
the C emitter (:mod:`repro.export.cgen` with the portable plain-C
dialect — the SSE/AltiVec emitters stay export-only) into a translation
unit holding the scalar reference loop, the simdized loop, and a
*steady-loop kernel* with the flat-buffer ABI this module calls, then
compiles it with the system toolchain (``cc -O3 -shared -fPIC``), loads
the shared object via :mod:`ctypes`, and invokes it on the run's
existing byte buffers with zero-copy pointer passing.

Division of labour — native is the jit engine with the hot path
swapped out.  Since the v3 ABI the translation unit carries three
entry points per signature: the steady kernel, a whole-run driver
``simdal_run_<digest>`` (prologue/epilogue vector sections lowered as
flag-gated blocks fed by a per-run slot table), and a class driver
``simdal_steady_batch_<digest>`` whose row loop lives inside C — so an
accepted run is **one** ctypes crossing and a batched signature class
is one crossing total.  The split that keeps figures exact:

* everything value-dependent — scalar registers, section conditions
  and addressing, guard fallback, trip resolution, and all counter
  bookkeeping — resolves in Python (for whole-run calls on a shadow
  env *before* the C call; anything outside the lowered surface bails
  to the classic per-piece path from untouched state);
* the per-run window/collision analysis is jit's own
  :func:`~repro.machine.jit._window_bases`, reused verbatim so native
  batches and falls back on **exactly** the same runs (the
  ``used_fallback`` parity contract).  For every accepted run the
  colliding loads read pre-loop memory in sequential order too, so the
  C kernel executes the original statement sequence iteration by
  iteration and needs no snapshot buffer;
* operation counters remain analytic
  (:func:`~repro.machine.jit._bump_steady_counters`), so OPD tables
  are byte-identical to the bytes oracle.

Compilation itself goes through the pipeline in
:mod:`repro.machine.compilequeue`: every kernel is emitted as a
uniquely named ``simdal_steady_<digest>`` function so many signatures
can share one translation unit and one ``cc`` invocation (the sweep
runners precompile whole campaigns this way before workers fork), and
``REPRO_NATIVE_ASYNC=1`` moves compilation to a background thread that
hot-swaps the machine code into the live kernel object while runs
proceed on the jit tier.

Kernels are cached at two tiers keyed on the structural signature:
an in-process LRU of loaded ``ctypes`` functions, and the shared disk
cache holding each kernel's invoke tables under a key versioned by
package version, :data:`NATIVE_CODE_VERSION`, and the *compiler
identity* (path plus ``--version`` line), so a toolchain upgrade can
never resurrect a stale object.  A table entry names its compiled
``.so`` by sha256; the object and its C source live once per ``cc``
invocation in a content-addressed artifact group (:func:`tu_key`),
and a process digest-checks and ``dlopen``s each distinct object
once, binding every signature's symbols from that one handle.  The
compiler identity itself re-resolves whenever ``REPRO_CC``/``CC``
change (and :func:`reset_compiler_cache` drops it plus any memoized
cc failures), so a transient or fault-injected toolchain failure
cannot poison later legitimate compiles.  A corrupted or truncated
``.so`` fails its content digest and is quarantined together with the
entry that named it, never raised; an evicted one is a plain miss.

Hosts without a C compiler (and ``REPRO_FAULT=compile:*`` runs) raise
:class:`NativeUnavailable` from kernel acquisition — before any memory
mutation — which the resilient chain turns into a structured
``native → jit`` degradation with one warning per process.

This module is only imported when NumPy is present (it builds on the
jit tier); use :func:`repro.machine.backend.get_backend` for gated
access.
"""

from __future__ import annotations

import atexit
import ctypes
import hashlib
import os
import shlex
import shutil
import subprocess
import tempfile
import time
import warnings
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

from repro.cache import get_cache
from repro.errors import CodegenError, MachineError
from repro.export.cgen import CEmitter
from repro.export.portable import PortableBackend, kernel_unit_prelude
from repro.ir.types import DataType
from repro.faults import fault as _fault
from repro.machine import compilequeue, interp, jit, npbackend
from repro.machine.alignedbuf import ALIGNMENT, aligned_view, as_ctypes_u8
from repro.machine import vector as vec
from repro.machine.counters import (
    BRANCH,
    VARITH,
    VCOPY,
    VLOAD,
    VPERM,
    VSEL,
    VSPLAT,
    VSTORE,
)
from repro.machine.jit import JitBackend
from repro.vir.program import VProgram
from repro.vir.vexpr import (
    SConst,
    VBinE,
    VExpr,
    VIotaE,
    VLoadE,
    VRegE,
    VShiftPairE,
    VSpliceE,
    VSplatE,
)
from repro.vir.vstmt import SetS, SetV, VStoreS

#: Bump when the emitted C kernel layout or ABI changes: disk entries
#: written by older code must never load.  v2: per-signature
#: ``simdal_steady_<digest>`` symbols (batched translation units).
#: v3: whole-run ``simdal_run_<digest>`` (lowered prologue/epilogue
#: sections) and the class batch driver ``simdal_steady_batch_<digest>``.
#: v4: two emitter modes (scalar-lane / vector-extension), ``restrict``
#: parameters, aligned ``_a`` loads/stores backed by the aligned-buffer
#: marshalling, and batch-row segments padded to the buffer alignment.
#: v5: entries drop the translation-unit source and name a shared,
#: content-addressed ``.so`` group (:func:`tu_key`) instead of carrying
#: their own copy.
NATIVE_CODE_VERSION = 5

#: Compile/cache counters (process-wide; surfaced with a ``native_``
#: prefix by :func:`repro.machine.backend.jit_compile_stats`).
STATS = {
    "codegens": 0,         # C kernels emitted from scratch
    "memory_hits": 0,      # loaded ctypes kernel reused
    "memory_misses": 0,
    "disk_hits": 0,        # kernel entry + its .so found on disk
    "disk_misses": 0,
    "so_loads": 0,         # cached .so files digest-checked and dlopened
    "cc_s": 0.0,           # foreground seconds inside the system compiler
    "load_s": 0.0,         # foreground seconds loading shared objects
    "cc_invocations": 0,   # batched compiles, one per .so built
    "cc_shards": 0,        # compile processes behind those batches
    "cc_timeouts": 0,      # cc processes killed at REPRO_CC_TIMEOUT
    "tus": 0,              # (V, lane) groups in the .so files built
    "tu_kernels": 0,       # kernels carried by successful batches
    "precompiled": 0,      # kernels compiled ahead by the sweep pipeline
    "async_compiles": 0,   # jobs submitted to the background queue
    "hot_swaps": 0,        # async kernels swapped in behind a live run
    "async_failures": 0,   # background jobs that failed (stayed on jit)
    "queue_depth_max": 0,  # high-water mark of the background queue
    "async_cc_s": 0.0,     # background compiler seconds (overlap run time)
    "async_load_s": 0.0,   # background .so load seconds
    "whole_runs": 0,       # accepted runs executed as one C call end-to-end
    "batch_calls": 0,      # class batch-driver invocations (one per class)
    "batch_rows": 0,       # runs carried by those batch-driver calls
    "simd_kernels": 0,     # kernels emitted for the vector-ext prelude
    "scalar_kernels": 0,   # kernels emitted for the scalar-lane prelude
    "simd_probes": 0,      # vector-extension capability probes compiled
    "simd_probe_failures": 0,  # probes the toolchain rejected
    "flag_probes": 0,      # -march=native flag probes compiled
    "mode_simd": 0,        # cold acquisitions keyed in vector-ext mode
    "mode_scalar": 0,      # cold acquisitions keyed in scalar-lane mode
    "batch_marshal_us": 0,  # µs marshalling rows for batch/run drivers
    "batch_copy_us": 0,    # µs in the flat gather/scatter memory copies
    "batch_c_us": 0,       # µs inside the C batch driver itself
}

#: Prefix of every steady-loop kernel symbol; the per-signature name
#: comes from :func:`kernel_symbol`.
KERNEL_SYMBOL = "simdal_steady"


def _sig_digest(signature: str) -> str:
    return hashlib.sha256(signature.encode()).hexdigest()[:16]


def kernel_symbol(signature: str) -> str:
    """The exported C symbol for a signature's steady kernel.

    Digest-suffixed so any set of signature kernels can coexist in one
    shared object — the batched compile pipeline links many kernels
    into one ``cc`` invocation.  Stable across processes (it hashes
    the structural signature only), so a ``.so`` written by one worker
    resolves in every other.
    """
    return f"{KERNEL_SYMBOL}_{_sig_digest(signature)}"


def run_symbol(signature: str) -> str:
    """The whole-run driver symbol: sections + guarded steady call."""
    return f"simdal_run_{_sig_digest(signature)}"


def batch_symbol(signature: str) -> str:
    """The class batch-driver symbol: the row loop over whole runs."""
    return f"simdal_steady_batch_{_sig_digest(signature)}"


class NativeUnavailable(MachineError):
    """The native tier cannot produce a kernel on this host.

    Carries ``phase = "compile"`` so the resilient chain files the
    native → jit degradation under the compile phase.
    """

    phase = "compile"


class _CantEmit(Exception):
    """A steady form outside the C emitter's subset (delegate to jit)."""


# ---------------------------------------------------------------------------
# Steady-kernel C emission
# ---------------------------------------------------------------------------
#
# The kernel ABI (fixed; versioned by NATIVE_CODE_VERSION):
#
#   void simdal_steady(uint8_t *mem, int64_t lb, int64_t n,
#                      const int64_t *wb, const int64_t *scal,
#                      const uint8_t *cvec, uint8_t *vregs)
#
# * mem   — the run's whole memory image (Memory.raw(), zero-copy)
# * lb, n — steady lower bound and iteration count
# * wb    — one absolute V-aligned window base per spec.win_keys entry
#           (window address at iteration t is wb[k] + t*stride)
# * scal  — checked runtime shift amounts then splice points, in table
#           order (loop-invariant: the steady sequence is SetV/VStoreS
#           only, so every SExpr operand is fixed for the whole run)
# * cvec  — one V-byte splat constant per splat-table entry
# * vregs — len(vreg_names) V-byte slots: Python seeds the registers
#           the loop reads before writing, C writes back every SetV
#           target's final value for the epilogue
#
# Statements execute in ORIGINAL sequence order, one iteration at a
# time — exactly the interpreter's semantics — so loop-carried reads
# and reductions need no special lowering, and every run accepted by
# _window_bases produces the same bytes the batched jit kernel does.
#
# Since NATIVE_CODE_VERSION 3 every kernel ships two more functions in
# the same translation unit:
#
#   void simdal_run(uint8_t *mem, int64_t lb, int64_t n,
#                   const int64_t *wb, const int64_t *scal,
#                   const uint8_t *cvec, uint8_t *vregs,
#                   const int64_t *sect)
#
# the whole-run driver — the lowered prologue section blocks, the
# steady kernel call (guarded by n > 0), then the lowered epilogue
# blocks.  ``sect`` is the per-run section table: one flag slot per
# section (0 = the marshaller resolved its condition false, skip the
# block) followed by the section's value slots — precomputed truncated
# load/store base addresses, splat lane values, iota counters, runtime
# shift/splice amounts — in the emitter's traversal order.  Everything
# value-dependent (scalar registers, conditions, addressing, bounds
# checks) is resolved at marshal time on a shadow env, so the C side
# is pure straight-line vector code over mem/vregs.  And:
#
#   void simdal_steady_batch(uint8_t *mem, int64_t rows,
#                            const int64_t *lbn, const int64_t *wb,
#                            const int64_t *scal, const uint8_t *cvec,
#                            uint8_t *vregs, const int64_t *sect)
#
# the class batch driver: ``mem`` is the flat concatenation of every
# run's memory image and ``lbn`` holds (mem offset, lb, n) per row;
# the row loop lives inside C and calls simdal_run once per row with
# that row's slice of the wb/scal/cvec/vregs/sect tables (compile-time
# row strides), so a whole signature class costs ONE ctypes crossing.

@dataclass
class _NativeMeta:
    """Picklable invoke-time tables (this is what the disk cache holds)."""

    signature: str
    symbol: str = ""         # simdal_steady_<digest> in the TU
    so_sha256: str = ""      # the shared object holding it (tu_key)
    vreg_names: tuple = ()   # vregs-buffer slot order
    seed_regs: tuple = ()    # read-before-write registers Python seeds
    out_regs: tuple = ()     # SetV targets C writes back
    shifts: tuple = ()       # runtime vshiftpair SExprs, scal[] order
    points: tuple = ()       # runtime vsplice SExprs, after shifts
    splats: tuple = ()       # (operand SExpr, dtype) per cvec block
    bad_amounts: tuple = ()  # (what, value) compile-time out-of-range
    run_symbol: str = ""     # simdal_run_<digest> (whole-run driver)
    batch_symbol: str = ""   # simdal_steady_batch_<digest> (row loop)
    sections_c: bool = False  # prologue/epilogue lowered into simdal_run
    sect_len: int = 0        # per-run sect[] table length
    sect_spans: tuple = ()   # (base, count) per section, prologue first


@dataclass
class _NativeKernel:
    """A jit kernel plus (when emission and cc succeeded) its C steady."""

    jk: jit._Kernel
    meta: _NativeMeta | None
    cfn: object | None       # ctypes steady fn, or None to delegate to jit
    rfn: object = None       # ctypes whole-run driver (simdal_run)
    bcfn: object = None      # ctypes class batch driver (simdal_steady_batch)
    plan: object = None      # lazy per-process _InvokePlan (never pickled)
    pending: bool = False    # queued on the async pipeline (cfn arrives
    #                          via hot-swap; delegates to jit meanwhile)

    @property
    def spec(self) -> jit._KernelSpec:
        return self.jk.spec

    @property
    def pre(self):
        return self.jk.pre

    @property
    def post(self):
        return self.jk.post


class _KernelEmitter:
    """Lowers a batchable steady sequence to the C kernel + its tables."""

    def __init__(self, program: VProgram, spec: jit._KernelSpec):
        self.program = program
        self.spec = spec
        self.V = spec.V
        self.stride = spec.stride
        self.dtype = program.source.dtype
        self._win_idx = {key: k for k, key in enumerate(spec.win_keys)}
        self.names: list[str] = []       # register -> vregs slot order
        self._slot: dict[str, int] = {}
        self.seeds: dict[str, None] = {}
        self.shifts: list = []
        self._shift_idx: dict = {}
        self.points: list = []
        self._point_idx: dict = {}
        self.splats: list = []
        self._splat_idx: dict = {}
        self.bad_amounts: list = []
        self.assign_pos: dict[str, int] = {}
        self._sect_cursor = 0
        # Alignment suffixes for load/store helpers.  Buffer bases
        # (mem, vregs, cvec, batch-row segments) come from the aligned
        # allocator, and every emitted offset — window/section bases
        # (V-truncated) and vregs/cvec slots (k*V) — is a multiple of
        # V, so slot accesses (_av) are V-aligned whenever V divides
        # the allocator's ALIGNMENT; window accesses (_aw) additionally
        # need the iteration stride to preserve the residue.  Both hold
        # for every current configuration; the guards keep a future
        # exotic V safe rather than fast.
        buf_aligned = self.V <= ALIGNMENT and ALIGNMENT % self.V == 0
        self._av = "_a" if buf_aligned else ""
        self._aw = "_a" if buf_aligned and self.stride % self.V == 0 else ""

    def slot(self, reg: str) -> int:
        idx = self._slot.get(reg)
        if idx is None:
            idx = self._slot[reg] = len(self.names)
            self.names.append(reg)
        return idx

    def _window(self, addr) -> str:
        k = self._win_idx.get((addr.array, addr.elem))
        if k is None:
            raise _CantEmit(f"address {addr} missing from the window table")
        return f"mem + wb[{k}] + t * {self.stride}"

    def _amount(self, amount, kind: str) -> str:
        what = "vshiftpair shift" if kind == "shift" else "vsplice point"
        if isinstance(amount, int):
            if 0 <= amount <= self.V:
                return str(amount)
            # Must still raise the jit engine's MachineError at invoke
            # time, from the same pre-mutation point.
            self.bad_amounts.append((what, amount))
            return "0"
        table = self.shifts if kind == "shift" else self.points
        index = self._shift_idx if kind == "shift" else self._point_idx
        idx = index.get(amount)
        if idx is None:
            idx = index[amount] = len(table)
            table.append(amount)
        offset = idx if kind == "shift" else len(self.shifts) + idx
        return f"scal[{offset}]"

    def vexpr(self, expr: VExpr, pos: int) -> str:
        if isinstance(expr, VLoadE):
            return f"simdal_load{self._aw}({self._window(expr.addr)})"
        if isinstance(expr, VRegE):
            defining = self.assign_pos.get(expr.name)
            if defining is None or defining >= pos:
                # Invariant or loop-carried: Python seeds the pre-loop
                # value; sequential execution does the rest.
                self.seeds.setdefault(expr.name)
            return f"v{self.slot(expr.name)}"
        if isinstance(expr, VShiftPairE):
            a = self.vexpr(expr.a, pos)
            b = self.vexpr(expr.b, pos)
            if isinstance(expr.shift, int) and 0 <= expr.shift <= self.V:
                # Literal amount: the _c macro is a compile-time byte
                # shuffle in vector-ext mode (a plain call otherwise).
                return f"simdal_shiftpair_c({a}, {b}, {expr.shift})"
            s = self._amount(expr.shift, "shift")
            return f"simdal_shiftpair({a}, {b}, {s})"
        if isinstance(expr, VSpliceE):
            a = self.vexpr(expr.a, pos)
            b = self.vexpr(expr.b, pos)
            if isinstance(expr.point, int) and 0 <= expr.point <= self.V:
                return f"simdal_splice_c({a}, {b}, {expr.point})"
            p = self._amount(expr.point, "point")
            return f"simdal_splice({a}, {b}, {p})"
        if isinstance(expr, VSplatE):
            if expr.dtype != self.dtype:
                raise _CantEmit("splat dtype differs from the loop dtype")
            key = (expr.operand, expr.dtype)
            idx = self._splat_idx.get(key)
            if idx is None:
                idx = self._splat_idx[key] = len(self.splats)
                self.splats.append(key)
            return f"simdal_load{self._av}(cvec + {idx * self.V})"
        if isinstance(expr, VIotaE):
            if expr.dtype != self.dtype:
                raise _CantEmit("iota dtype differs from the loop dtype")
            return f"simdal_iota(i + ({expr.bias}))"
        if isinstance(expr, VBinE):
            if expr.dtype != self.dtype:
                raise _CantEmit("binop dtype differs from the loop dtype")
            a = self.vexpr(expr.a, pos)
            b = self.vexpr(expr.b, pos)
            return f"simdal_op_{expr.op.name}({a}, {b})"
        raise _CantEmit(f"no C lowering for {type(expr).__name__}")

    # -- prologue/epilogue section lowering (whole-run surface) ---------
    #
    # Sections are straight-line SetS/SetV/VStoreS blocks guarded by a
    # scalar condition and addressed by a scalar i-expression.  All
    # scalar work stays in the Python marshaller (it never reads vector
    # state, so the split is exact); the C side receives precomputed
    # values through per-section sect[] slots, allocated here in the
    # SAME traversal order the marshaller walks at run time.

    def _sect_slot(self) -> str:
        idx = self._sect_cursor
        self._sect_cursor += 1
        return f"sect[{idx}]"

    def _sect_vexpr(self, expr: VExpr) -> str:
        if isinstance(expr, VLoadE):
            # The marshaller slots the truncated, bounds-checked base.
            return f"simdal_load{self._av}(mem + {self._sect_slot()})"
        if isinstance(expr, VRegE):
            return (f"simdal_load{self._av}"
                    f"(vregs + {self.slot(expr.name) * self.V})")
        if isinstance(expr, VShiftPairE):
            a = self._sect_vexpr(expr.a)
            b = self._sect_vexpr(expr.b)
            if isinstance(expr.shift, int):
                if not 0 <= expr.shift <= self.V:
                    raise _CantEmit("section shift outside [0, V]")
                return f"simdal_shiftpair_c({a}, {b}, {expr.shift})"
            s = self._sect_slot()
            return f"simdal_shiftpair({a}, {b}, {s})"
        if isinstance(expr, VSpliceE):
            a = self._sect_vexpr(expr.a)
            b = self._sect_vexpr(expr.b)
            if isinstance(expr.point, int):
                if not 0 <= expr.point <= self.V:
                    raise _CantEmit("section point outside [0, V]")
                return f"simdal_splice_c({a}, {b}, {expr.point})"
            p = self._sect_slot()
            return f"simdal_splice({a}, {b}, {p})"
        if isinstance(expr, VSplatE):
            if expr.dtype != self.dtype:
                raise _CantEmit("splat dtype differs from the loop dtype")
            return f"simdal_splat({self._sect_slot()})"
        if isinstance(expr, VIotaE):
            if expr.dtype != self.dtype:
                raise _CantEmit("iota dtype differs from the loop dtype")
            return f"simdal_iota({self._sect_slot()})"
        if isinstance(expr, VBinE):
            if expr.dtype != self.dtype:
                raise _CantEmit("binop dtype differs from the loop dtype")
            a = self._sect_vexpr(expr.a)
            b = self._sect_vexpr(expr.b)
            return f"simdal_op_{expr.op.name}({a}, {b})"
        raise _CantEmit(f"no C lowering for {type(expr).__name__}")

    def _sect_stmts(self, stmts) -> list[str]:
        lines: list[str] = []
        V = self.V
        for stmt in stmts:
            if isinstance(stmt, SetS):
                continue  # scalar registers live in the marshaller only
            if isinstance(stmt, SetV):
                if stmt.is_copy:
                    src = (f"simdal_load{self._av}(vregs + "
                           f"{self.slot(stmt.expr.name) * V})")
                else:
                    src = self._sect_vexpr(stmt.expr)
                lines.append(f"        simdal_store{self._av}(vregs + "
                             f"{self.slot(stmt.reg) * V}, {src});")
            elif isinstance(stmt, VStoreS):
                text = self._sect_vexpr(stmt.src)
                lines.append(
                    f"        simdal_store{self._av}"
                    f"(mem + {self._sect_slot()}, {text});"
                )
            else:
                raise _CantEmit(f"no C lowering for {type(stmt).__name__}")
        return lines

    def _sect_block(self, section, spans: list) -> list[str]:
        base = self._sect_cursor
        flag = self._sect_slot()
        body = self._sect_stmts(section.stmts)
        spans.append((base, self._sect_cursor - base))
        return [f"    if ({flag}) {{"] + body + ["    }"]

    def _emit_sections(self):
        """(prologue blocks, epilogue blocks, spans, lowered?).

        All-or-nothing: any form outside the subset declines section
        lowering for the whole signature — the run driver degrades to
        a guarded steady call and sections stay on the jit/interp path.
        """
        self._sect_cursor = 0
        spans: list = []
        try:
            pro = [self._sect_block(s, spans) for s in self.program.prologue]
            epi = [self._sect_block(s, spans) for s in self.program.epilogue]
        except _CantEmit:
            self._sect_cursor = 0
            return [], [], (), False
        return pro, epi, tuple(spans), True

    def _emit_run(self, pro_blocks, epi_blocks) -> list[str]:
        symbol = run_symbol(self.spec.signature)
        steady_sym = kernel_symbol(self.spec.signature)
        pad = " " * (len(symbol) + 6)
        lines = [
            f"SIMDAL_NOINLINE",
            f"void {symbol}(uint8_t *restrict mem, int64_t lb, int64_t n,",
            f"{pad}const int64_t *restrict wb,",
            f"{pad}const int64_t *restrict scal,",
            f"{pad}const uint8_t *restrict cvec,",
            f"{pad}uint8_t *restrict vregs,",
            f"{pad}const int64_t *restrict sect) {{",
            "    (void)sect;",
        ]
        for block in pro_blocks:
            lines.extend(block)
        lines.append(
            f"    if (n > 0) {steady_sym}(mem, lb, n, wb, scal, cvec, vregs);"
        )
        for block in epi_blocks:
            lines.extend(block)
        lines.append("}")
        return lines

    def _emit_batch(self, sect_len: int) -> list[str]:
        symbol = batch_symbol(self.spec.signature)
        rsym = run_symbol(self.spec.signature)
        V = self.V
        nw = len(self.spec.win_keys)
        ns = len(self.shifts) + len(self.points)
        nc = len(self.splats) * V
        nv = len(self.names) * V
        pad = " " * (len(symbol) + 6)
        return [
            f"void {symbol}(uint8_t *mem, int64_t rows, const int64_t *lbn,",
            f"{pad}const int64_t *wb, const int64_t *scal,",
            f"{pad}const uint8_t *cvec, uint8_t *vregs,",
            f"{pad}const int64_t *sect) {{",
            "    /* lbn mem offsets are padded to the allocator alignment",
            "       by the Python gather, so each row's mem base keeps the",
            "       alignment promise simdal_run's loads rely on. */",
            "    for (int64_t r = 0; r < rows; r++) {",
            f"        {rsym}(mem + lbn[3 * r], lbn[3 * r + 1], "
            f"lbn[3 * r + 2],",
            f"            wb + r * {nw}, scal + r * {ns}, cvec + r * {nc},",
            f"            vregs + r * {nv}, sect + r * {sect_len});",
            "    }",
            "}",
        ]

    def emit(self) -> tuple[str, _NativeMeta]:
        steady = self.program.steady
        seq = list(steady.body) + list(steady.bottom)
        for pos, stmt in enumerate(seq):
            if isinstance(stmt, SetV):
                self.assign_pos[stmt.reg] = pos
        body: list[str] = []
        outs: list[str] = []
        for pos, stmt in enumerate(seq):
            if isinstance(stmt, SetV):
                text = self.vexpr(stmt.expr, pos)
                body.append(f"        v{self.slot(stmt.reg)} = {text};")
                if stmt.reg not in outs:
                    outs.append(stmt.reg)
            elif isinstance(stmt, VStoreS):
                text = self.vexpr(stmt.src, pos)
                body.append(
                    f"        simdal_store{self._aw}"
                    f"({self._window(stmt.addr)}, {text});"
                )
            else:
                raise _CantEmit(f"no C lowering for {type(stmt).__name__}")
        V = self.V
        symbol = kernel_symbol(self.spec.signature)
        pad = " " * (len(symbol) + 6)
        lines = [
            f"SIMDAL_NOINLINE",
            f"void {symbol}(uint8_t *restrict mem, int64_t lb, int64_t n,",
            f"{pad}const int64_t *restrict wb,",
            f"{pad}const int64_t *restrict scal,",
            f"{pad}const uint8_t *restrict cvec,",
            f"{pad}uint8_t *restrict vregs) {{",
            "    (void)lb; (void)wb; (void)scal; (void)cvec; (void)vregs;",
        ]
        for k in range(len(self.names)):
            lines.append(f"    simdal_vec v{k};")
        for name in self.seeds:
            lines.append(
                f"    v{self.slot(name)} = "
                f"simdal_load{self._av}(vregs + {self.slot(name) * V});"
            )
        lines.append("    for (int64_t t = 0; t < n; t++) {")
        lines.append(f"        int64_t i = lb + t * {self.spec.step};")
        lines.append("        (void)i;")
        lines.extend(body)
        lines.append("    }")
        for name in outs:
            lines.append(
                f"    simdal_store(vregs + {self.slot(name) * V}, "
                f"v{self.slot(name)});"
            )
        lines.append("}")
        # The whole-run and batch drivers follow the steady kernel in
        # the same unit (definition-before-use, non-static so other
        # translation units never collide on the digest-unique names).
        pro_blocks, epi_blocks, spans, sections_c = self._emit_sections()
        sect_len = self._sect_cursor if sections_c else 0
        lines.append("")
        lines.extend(self._emit_run(pro_blocks, epi_blocks))
        lines.append("")
        lines.extend(self._emit_batch(sect_len))
        meta = _NativeMeta(
            signature=self.spec.signature,
            symbol=symbol,
            vreg_names=tuple(self.names),
            seed_regs=tuple(self.seeds),
            out_regs=tuple(outs),
            shifts=tuple(self.shifts),
            points=tuple(self.points),
            splats=tuple(self.splats),
            bad_amounts=tuple(self.bad_amounts),
            run_symbol=run_symbol(self.spec.signature),
            batch_symbol=batch_symbol(self.spec.signature),
            sections_c=sections_c,
            sect_len=sect_len,
            sect_spans=spans,
        )
        return "\n".join(lines) + "\n", meta


def emit_kernel(program: VProgram,
                spec: jit._KernelSpec) -> tuple[str, _NativeMeta]:
    """Just the steady-kernel C function plus its invoke tables.

    This is the unit of batching: the compile pipeline concatenates
    many kernels (same V and dtype) behind one
    :func:`~repro.export.portable.kernel_unit_prelude`.  Raises
    :class:`_CantEmit` when the steady sequence cannot be lowered.
    """
    return _KernelEmitter(program, spec).emit()


def emit_native_source(program: VProgram,
                       spec: jit._KernelSpec) -> tuple[str, _NativeMeta]:
    """A standalone single-kernel translation unit plus invoke tables.

    The unit is the portable-C export (scalar reference + simdized
    loop, via :class:`~repro.export.cgen.CEmitter`) with the steady
    kernel appended; when the full export hits a form outside the
    exporter's subset, the unit degrades to helpers + kernel only.
    Compilation goes through the *batched* pipeline nowadays
    (:func:`build_request` + :func:`compilequeue.compile_requests`);
    this composer remains for export and diagnosis of one signature in
    isolation.  Raises :class:`_CantEmit` when the steady sequence
    itself cannot be lowered.
    """
    backend = PortableBackend()
    kernel_src, meta = emit_kernel(program, spec)
    try:
        unit = CEmitter(program, backend).translation_unit()
    except CodegenError:
        unit = (
            "/* generated by simdal: steady kernel only */\n"
            "#include <stdint.h>\n"
            "#include <string.h>\n"
            + backend.helpers(program.V, program.source.dtype).rstrip()
            + "\n"
        )
    return unit + "\n" + kernel_src, meta


def build_request(signature: str, key: str, jk: jit._Kernel,
                  program: VProgram):
    """A :class:`~repro.machine.compilequeue.CompileRequest` for this
    program, or None when the steady sequence cannot be lowered (the
    caller caches a permanent jit-delegating kernel instead)."""
    try:
        kernel_src, meta = emit_kernel(program, jk.spec)
    except _CantEmit:
        return None
    STATS["codegens"] += 1
    simd = simd_enabled()
    STATS["simd_kernels" if simd else "scalar_kernels"] += 1
    dtype = program.source.dtype
    return compilequeue.CompileRequest(
        signature=signature,
        key=key,
        symbol=meta.symbol,
        V=jk.spec.V,
        lane=dtype.name,
        kernel_src=kernel_src,
        prelude=kernel_unit_prelude(jk.spec.V, dtype, simd=simd),
        meta=meta,
        jk=jk,
    )


# ---------------------------------------------------------------------------
# Compiler discovery and identity
# ---------------------------------------------------------------------------

#: Memoized compiler resolution: (requested env value, (path-or-None,
#: identity hash)).  Keyed on the request so a ``REPRO_CC``/``CC``
#: change mid-process re-resolves instead of serving the stale probe.
_CC: tuple[str, tuple[str | None, str]] | None = None
_WARNED = False


def _cc_env() -> str:
    """The requested compiler: ``REPRO_CC`` overrides the ambient
    ``CC`` (build systems export ``CC`` for their own purposes; the
    repro-specific knob must win)."""
    return os.environ.get("REPRO_CC") or os.environ.get("CC") or ""


#: Default wall-clock budget for one compiler subprocess (seconds).
_CC_TIMEOUT_DEFAULT = 120.0


def cc_timeout() -> float:
    """Wall-clock budget for every ``cc`` subprocess (seconds).

    ``REPRO_CC_TIMEOUT`` overrides the 120 s default.  A hung compiler
    (broken ccache daemon, dead NFS mount behind the toolchain) used
    to stall the batch pipeline forever; every invocation — probes and
    kernel compiles alike — now runs under this budget, and an
    overrunning compile has its whole process group killed and is
    charged as an ordinary batch failure (singleton-recompile
    isolation included).
    """
    raw = os.environ.get("REPRO_CC_TIMEOUT", "")
    if raw:
        try:
            value = float(raw)
            if value > 0:
                return value
        except ValueError:
            pass
    return _CC_TIMEOUT_DEFAULT


def _compiler_identity() -> tuple[str | None, str]:
    """(compiler executable, identity hash) — memoized per request.

    The identity hash (path + first ``--version`` line) versions every
    disk key, so objects compiled by one toolchain are invisible to
    another.
    """
    global _CC
    env = _cc_env()
    if _CC is not None and _CC[0] == env:
        return _CC[1]
    found = shutil.which(env) if env else None
    if found is None:
        for name in ("gcc", "cc", "clang"):
            found = shutil.which(name)
            if found:
                break
    if found is None:
        _CC = (env, (None, "none"))
        return _CC[1]
    try:
        proc = subprocess.run([found, "--version"], capture_output=True,
                              text=True, timeout=min(30.0, cc_timeout()))
        banner = (proc.stdout or proc.stderr).splitlines()[0] if \
            (proc.stdout or proc.stderr) else ""
    except Exception:
        banner = ""
    digest = hashlib.sha256(f"{found}\0{banner}".encode()).hexdigest()[:16]
    _CC = (env, (found, digest))
    return _CC[1]


# ---------------------------------------------------------------------------
# Compiler flags and the vector-extension capability probe
# ---------------------------------------------------------------------------

#: Memoized flag resolution: ((cc env request, REPRO_CC_FLAGS value),
#: flags tuple, short flags digest for disk keys).  Keyed on both envs
#: so changing either mid-process re-probes instead of serving a stale
#: answer (same doctrine as _CC).
_FLAGS: tuple[tuple[str, str | None], tuple[str, ...], str] | None = None

#: Memoized vector-extension capability: (same env key, supported?).
_SIMD: tuple[tuple[str, str | None], bool] | None = None

#: Test/bench override for the emitter mode (None = env + probe).
_SIMD_OVERRIDE: bool | None = None

_MARCH_PROBE_SRC = "int simdal_flag_probe;\n"


def _flags_env() -> str | None:
    return os.environ.get("REPRO_CC_FLAGS")


def _env_key() -> tuple[str, str | None]:
    return (_cc_env(), _flags_env())


def _try_compile(cc: str, args: list, source: str, stem: str) -> bool:
    """One syntax-only probe invocation: does ``cc args source`` fly?"""
    path = _workdir() / f"{stem}.c"
    try:
        path.write_text(source)
        proc = subprocess.run(
            [cc, *args, "-fsyntax-only", str(path)],
            capture_output=True, text=True, timeout=min(60.0, cc_timeout()),
        )
        return proc.returncode == 0
    except Exception:
        return False


def compiler_flags() -> tuple[str, ...]:
    """The optimization flags every native cc invocation uses.

    ``-O3`` always; then ``-march=native`` when the toolchain accepts
    it (probed once with a trivial unit), *unless* ``REPRO_CC_FLAGS``
    is set — the env value (shell-split, appended after ``-O3``)
    replaces the probed default entirely, so it is both an extension
    point and the opt-out.  Memoized, keyed on the compiler/flags env
    pair; :func:`reset_compiler_cache` clears it.
    """
    global _FLAGS
    key = _env_key()
    if _FLAGS is not None and _FLAGS[0] == key:
        return _FLAGS[1]
    flags = ["-O3"]
    requested = _flags_env()
    if requested is not None:
        flags += shlex.split(requested)
    else:
        cc, _ = _compiler_identity()
        if cc is not None:
            STATS["flag_probes"] += 1
            if _try_compile(cc, ["-O3", "-march=native"],
                            _MARCH_PROBE_SRC, "probe_march"):
                flags.append("-march=native")
    digest = hashlib.sha256("\0".join(flags).encode()).hexdigest()[:8]
    _FLAGS = (key, tuple(flags), digest)
    return _FLAGS[1]


def _flags_digest() -> str:
    """Short hash of :func:`compiler_flags`, memoized alongside it."""
    compiler_flags()
    return _FLAGS[2]


def _simd_probe_source() -> str:
    """A tiny TU exercising every vector-extension idiom the emitter
    relies on (vector_size types, __builtin_shufflevector, vector
    compares/selects, __builtin_assume_aligned)."""
    from repro.export.portable import kernel_unit_prelude as _prelude

    dtype = DataType("int16", 2, True)
    return _prelude(16, dtype, simd=True) + (
        "simdal_vec simdal_simd_probe(simdal_vec a, simdal_vec b,\n"
        "                             int64_t k) {\n"
        "    simdal_vec r = simdal_op_add(simdal_shiftpair_c(a, b, 3),\n"
        "                                 simdal_splice_c(a, b, 5));\n"
        "    r = simdal_op_min(r, simdal_op_sadd(a, simdal_op_ssub(a, b)));\n"
        "    r = simdal_op_avg(r, simdal_op_max(a, b));\n"
        "    r = simdal_shiftpair(r, simdal_splice(a, b, k), k);\n"
        "    r = simdal_op_mul(r, simdal_splat(k));\n"
        "    uint8_t buf[SIMDAL_V] __attribute__((aligned(64)));\n"
        "    simdal_store_a(buf, r);\n"
        "    return simdal_op_xor(simdal_load_a(buf), simdal_iota(k));\n"
        "}\n"
    )


def simd_supported() -> bool:
    """Can the resolved compiler build the vector-extension helpers?

    Probed once per (compiler, flags) resolution by compiling a test
    unit that uses every idiom the SIMD emitter emits; GCC < 12 (no
    ``__builtin_shufflevector``) and non-GNU compilers fail it and the
    tier silently stays on the scalar-lane emitter.  Memoized alongside
    the compiler identity; :func:`reset_compiler_cache` clears it.
    """
    global _SIMD
    key = _env_key()
    if _SIMD is not None and _SIMD[0] == key:
        return _SIMD[1]
    cc, _ = _compiler_identity()
    ok = False
    if cc is not None:
        STATS["simd_probes"] += 1
        ok = _try_compile(cc, list(compiler_flags()), _simd_probe_source(),
                          "probe_simd")
        if not ok:
            STATS["simd_probe_failures"] += 1
    _SIMD = (key, ok)
    return ok


def simd_enabled() -> bool:
    """Is the vector-extension emitter active for new kernels?

    ``set_simd_mode`` overrides win; then ``REPRO_NATIVE_SIMD=0``
    forces scalar-lane; otherwise the capability probe decides.
    """
    if _SIMD_OVERRIDE is not None:
        return _SIMD_OVERRIDE
    if os.environ.get("REPRO_NATIVE_SIMD", "") == "0":
        return False
    return simd_supported()


def emitter_mode() -> str:
    """``"vector-ext"`` or ``"scalar-lane"`` — the active emitter."""
    return "vector-ext" if simd_enabled() else "scalar-lane"


def set_simd_mode(value: bool | None) -> None:
    """Force the emitter mode for this process (None = env + probe).

    Flips what *new* kernels are compiled from, so the in-process
    kernel cache is dropped — the disk key embeds the mode, so objects
    of both modes coexist on disk without cross-loading.  Forcing True
    on a host whose compiler fails the probe makes every compile fail
    (and degrade to jit); benches check :func:`simd_supported` first.
    """
    global _SIMD_OVERRIDE
    _SIMD_OVERRIDE = value
    _NATIVE_CACHE.clear()


def reset_compiler_cache() -> None:
    """Forget the memoized compiler/flag/capability probes and cc
    failures.

    A fault-injected or transient toolchain failure must not poison
    later legitimate compiles in the same process: after repairing the
    toolchain (or pointing ``REPRO_CC``/``REPRO_CC_FLAGS`` somewhere
    sane) call this to retry cold.  Clears the flag resolution and the
    vector-extension capability probe along with the compiler identity
    — they are functions of the same toolchain.  The warn-once flag
    survives — one missing-compiler warning per process is enough.
    """
    global _CC, _FLAGS, _SIMD
    _CC = None
    _FLAGS = None
    _SIMD = None
    _FAILED.clear()


def _require_compiler() -> tuple[str, str]:
    global _WARNED
    cc, identity = _compiler_identity()
    if cc is None:
        if not _WARNED:
            _WARNED = True
            warnings.warn(
                "no C compiler found (tried $CC, gcc, cc, clang); the "
                "native backend degrades to the jit tier for this process",
                RuntimeWarning,
                stacklevel=3,
            )
        raise NativeUnavailable(
            "no C compiler available for the native backend"
        )
    return cc, identity


_WORKDIR: Path | None = None


def _workdir() -> Path:
    """A process-lifetime scratch dir: loaded .so paths must outlive us."""
    global _WORKDIR
    if _WORKDIR is None:
        _WORKDIR = Path(tempfile.mkdtemp(prefix="repro_native_"))
        atexit.register(shutil.rmtree, _WORKDIR, ignore_errors=True)
    return _WORKDIR


def _bind_symbol(lib, symbol: str):
    """Resolve and type one steady-kernel symbol in a loaded library."""
    fn = getattr(lib, symbol)
    fn.restype = None
    fn.argtypes = [
        ctypes.POINTER(ctypes.c_uint8),   # mem
        ctypes.c_int64,                   # lb
        ctypes.c_int64,                   # n
        ctypes.POINTER(ctypes.c_int64),   # wb
        ctypes.POINTER(ctypes.c_int64),   # scal
        ctypes.POINTER(ctypes.c_uint8),   # cvec
        ctypes.POINTER(ctypes.c_uint8),   # vregs
    ]
    return fn


def _bind_functions(lib, meta: _NativeMeta):
    """Resolve (steady, whole-run, batch) for one signature's kernel."""
    cfn = _bind_symbol(lib, meta.symbol)
    rfn = getattr(lib, meta.run_symbol)
    rfn.restype = None
    rfn.argtypes = [
        ctypes.POINTER(ctypes.c_uint8),   # mem
        ctypes.c_int64,                   # lb
        ctypes.c_int64,                   # n
        ctypes.POINTER(ctypes.c_int64),   # wb
        ctypes.POINTER(ctypes.c_int64),   # scal
        ctypes.POINTER(ctypes.c_uint8),   # cvec
        ctypes.POINTER(ctypes.c_uint8),   # vregs
        ctypes.POINTER(ctypes.c_int64),   # sect
    ]
    bcfn = getattr(lib, meta.batch_symbol)
    bcfn.restype = None
    bcfn.argtypes = [
        ctypes.POINTER(ctypes.c_uint8),   # mem (flat concatenation)
        ctypes.c_int64,                   # rows
        ctypes.POINTER(ctypes.c_int64),   # lbn (mem offset, lb, n) per row
        ctypes.POINTER(ctypes.c_int64),   # wb rows
        ctypes.POINTER(ctypes.c_int64),   # scal rows
        ctypes.POINTER(ctypes.c_uint8),   # cvec rows
        ctypes.POINTER(ctypes.c_uint8),   # vregs rows
        ctypes.POINTER(ctypes.c_int64),   # sect rows
    ]
    return cfn, rfn, bcfn


#: Loaded shared objects by sha256: each distinct ``.so`` is verified
#: and ``dlopen``ed once per process, then every signature it carries
#: binds from the one handle.  Forked workers inherit the mappings.
_SO_HANDLES: dict[str, ctypes.CDLL] = {}


def _load_so(path: Path, meta: _NativeMeta):
    """Digest-check and ``dlopen`` the cached ``.so`` at ``path``, then
    bind ``meta``'s functions from it.

    Called once per distinct object per process (the handle lands in
    :data:`_SO_HANDLES`).  The check reads the cache file itself, so a
    tampered or truncated object raises before it is ever mapped.
    """
    if hashlib.sha256(path.read_bytes()).hexdigest() != meta.so_sha256:
        raise OSError("shared object digest mismatch")
    lib = ctypes.CDLL(str(path))
    _SO_HANDLES[meta.so_sha256] = lib
    STATS["so_loads"] += 1
    return _bind_functions(lib, meta)


# ---------------------------------------------------------------------------
# Two-tier kernel cache
# ---------------------------------------------------------------------------

_NATIVE_CACHE: OrderedDict[str, _NativeKernel] = OrderedDict()
_NATIVE_CACHE_MAX = 128

#: Kernels whose cc invocation failed this process, keyed by the full
#: *disk key* (signature + compiler identity): retrying every run would
#: pay a doomed subprocess per config, so the failure is memoized and
#: re-raised cheaply (degradation stays per-run).  Keying on the disk
#: key means switching toolchains via ``REPRO_CC``/``CC`` — or
#: :func:`reset_compiler_cache` — naturally un-poisons the signature.
_FAILED: dict[str, str] = {}


def _disk_key(signature: str, cc_identity: str) -> str:
    from repro import __version__

    # The emitter mode and the exact flag set are part of the object's
    # identity: a scalar-lane .so must never satisfy a vector-ext
    # lookup (or vice versa), and objects built with different flags
    # (-march, REPRO_CC_FLAGS) must not cross-load either.
    if simd_enabled():
        mode = "simd"
        STATS["mode_simd"] += 1
    else:
        mode = "scalar"
        STATS["mode_scalar"] += 1
    return (f"native-kernel:{__version__}:{NATIVE_CODE_VERSION}:"
            f"{cc_identity}:{mode}:{_flags_digest()}:{signature}")


def tu_key(so_sha256: str) -> str:
    """The disk-cache key of the artifact group holding one compiled
    shared object (``.so``) and its C source (``.c``).

    Content-addressed: every kernel compiled by one ``cc`` invocation
    names the same group, and the digest is re-checked before the
    first ``dlopen`` in each process.
    """
    return f"native-tu:{so_sha256}"


def _cache_put(signature: str, kernel: _NativeKernel) -> None:
    if len(_NATIVE_CACHE) >= _NATIVE_CACHE_MAX:
        _NATIVE_CACHE.popitem(last=False)
    _NATIVE_CACHE[signature] = kernel


def clear_memory_cache() -> None:
    """Drop loaded kernels, shared-object handles and memoized cc
    failures (tests use this to force disk loads)."""
    _NATIVE_CACHE.clear()
    _SO_HANDLES.clear()
    _FAILED.clear()


def _load_from_disk(disk, key: str, signature: str,
                    jk: jit._Kernel) -> _NativeKernel | None:
    """Warm path: validated meta + digest-checked shared .so, or None.

    The entry names its object by digest (:func:`tu_key`).  An object
    this process already loaded binds straight from the handle (and
    touches the object's group, so it ages with the entries using it);
    otherwise :func:`_load_so` verifies and maps it first.  A missing
    object (evicted, or quarantined by a batch-mate) is a plain miss:
    the recompile rewrites this entry.  Any other inconsistency — digest
    mismatch, dlopen or symbol failure — quarantines the entry, plus
    the object's group when the object itself failed (cache doctrine:
    corruption is a silent miss, never an exception).
    """
    entry = disk.get(key)
    if (not isinstance(entry, _NativeMeta) or entry.signature != signature
            or not entry.symbol or not entry.run_symbol
            or not entry.batch_symbol or not entry.so_sha256):
        return None
    tu = tu_key(entry.so_sha256)
    start = time.perf_counter()
    try:
        lib = _SO_HANDLES.get(entry.so_sha256)
        if lib is not None:
            disk.touch(tu)
            cfn, rfn, bcfn = _bind_functions(lib, entry)
        else:
            so_path = disk.artifact_path(tu, ".so")
            if so_path is None:
                return None
            cfn, rfn, bcfn = _load_so(so_path, entry)
    except Exception:
        disk.quarantine_artifacts(key)
        if entry.so_sha256 not in _SO_HANDLES:
            disk.quarantine_artifacts(tu)
        return None
    STATS["load_s"] += time.perf_counter() - start
    return _NativeKernel(jk=jk, meta=entry, cfn=cfn, rfn=rfn, bcfn=bcfn)


def _compile_native(key: str, signature: str, jk: jit._Kernel,
                    program: VProgram, disk) -> _NativeKernel:
    """Cold path: a single-request batch through the compile pipeline."""
    request = build_request(signature, key, jk, program)
    if request is None:
        return _NativeKernel(jk=jk, meta=None, cfn=None)
    loaded, failures, cc_s, load_s = compilequeue.compile_requests(
        [request], disk)
    STATS["cc_s"] += cc_s
    STATS["load_s"] += load_s
    pair = loaded.get(signature)
    if pair is None:
        reason = failures.get(signature, "native compile failed")
        _FAILED[key] = reason
        raise NativeUnavailable(reason)
    (cfn, rfn, bcfn), meta = pair
    return _NativeKernel(jk=jk, meta=meta, cfn=cfn, rfn=rfn, bcfn=bcfn)


def _acquire_async(signature: str, jk: jit._Kernel,
                   program: VProgram) -> _NativeKernel:
    """Non-blocking acquisition: delegate to jit now, hot-swap later.

    The foreground never launches the compiler.  A warm disk object
    still loads synchronously (milliseconds, and it keeps warm runs on
    machine code from the first call); anything colder caches a
    ``pending`` placeholder that delegates to jit and queues the
    compile on the background thread, which mutates the *same* kernel
    object when the ``.so`` lands.  Queue failures leave the
    placeholder delegating forever — silent by design, so async
    first-result latency stays within a hair of plain jit.
    """
    cc, identity = _require_compiler()
    key = _disk_key(signature, identity)
    failed = _FAILED.get(key)
    if failed is not None:
        raise NativeUnavailable(failed)
    disk = get_cache()
    if disk is not None:
        kernel = _load_from_disk(disk, key, signature, jk)
        if kernel is not None:
            STATS["disk_hits"] += 1
            _cache_put(signature, kernel)
            return kernel
        STATS["disk_misses"] += 1
    kernel = _NativeKernel(jk=jk, meta=None, cfn=None, pending=True)
    _cache_put(signature, kernel)
    compilequeue.enqueue(signature, key, jk, program, kernel)
    return kernel


def get_native_kernel(program: VProgram) -> _NativeKernel:
    """The loaded native kernel for this program's signature (cached)."""
    signature = jit._cached_signature(program)
    kernel = _NATIVE_CACHE.get(signature)
    if kernel is not None:
        _NATIVE_CACHE.move_to_end(signature)
        STATS["memory_hits"] += 1
        return kernel
    STATS["memory_misses"] += 1
    jk = jit.get_kernel(program)
    if not jk.spec.batchable:
        # The steady loop itself is unbatchable: there is nothing for a
        # C kernel to run that jit's per-iteration path doesn't cover.
        kernel = _NativeKernel(jk=jk, meta=None, cfn=None)
        _cache_put(signature, kernel)
        return kernel
    if compilequeue.async_enabled():
        # The injected compile fault fires inside the queue worker in
        # async mode (the foreground compiles nothing), so the run
        # itself never degrades — it just stays on jit.
        return _acquire_async(signature, jk, program)
    _fault("compile")  # REPRO_FAULT=compile:… fails the cc step here
    cc, identity = _require_compiler()
    key = _disk_key(signature, identity)
    failed = _FAILED.get(key)
    if failed is not None:
        raise NativeUnavailable(failed)
    disk = get_cache()
    kernel = None
    if disk is not None:
        kernel = _load_from_disk(disk, key, signature, jk)
        if kernel is not None:
            STATS["disk_hits"] += 1
        else:
            STATS["disk_misses"] += 1
    if kernel is None:
        kernel = _compile_native(key, signature, jk, program, disk)
    _cache_put(signature, kernel)
    return kernel


# ---------------------------------------------------------------------------
# Steady-loop invocation
# ---------------------------------------------------------------------------

# ctypes array *types* are surprisingly expensive to create (a new
# class per call); a sweep re-invokes kernels with a handful of
# distinct buffer lengths, so the types are cached process-wide.
_U8_ARRAYS: dict[int, type] = {}
_I64_ARRAYS: dict[int, type] = {}


def _u8_array(length: int) -> type:
    atype = _U8_ARRAYS.get(length)
    if atype is None:
        atype = _U8_ARRAYS[length] = ctypes.c_uint8 * length
    return atype


def _i64_array(length: int) -> type:
    atype = _I64_ARRAYS.get(length)
    if atype is None:
        atype = _I64_ARRAYS[length] = ctypes.c_int64 * length
    return atype


#: Cached-negative sentinel for the per-plan window-base memo.
_UNBATCHABLE = object()


class _InvokePlan:
    """Per-kernel invoke constants, derived from the meta tables once.

    Everything here is loop-invariant *and* run-invariant: register
    slot offsets, and — when every splat operand is a literal — the
    fully materialized cvec buffer (already a ctypes array, so warm
    invokes marshal nothing for it).

    ``wb_memo`` additionally memoizes :func:`jit._window_bases` per
    array space: the analysis is a pure function of (spec, space,
    lb, n, memory size) — array bases never move once placed and no
    runtime scalar enters it — so steady-state repeated runs (the
    sweep inner loop) skip the window/collision walk entirely.
    Rejections are memoized too, so the fallback surface is identical
    hot or cold.  Keyed weakly so retired spaces don't pin entries.
    """

    __slots__ = ("seed_offsets", "out_offsets", "all_offsets", "vregs_len",
                 "splats_dyn", "c_cvec_const", "cvec_const", "wb_memo",
                 "nw", "ns", "nc", "nv_stride", "nsect")

    def __init__(self, meta: _NativeMeta, spec: jit._KernelSpec):
        V = spec.V
        self.wb_memo = weakref.WeakKeyDictionary()
        slots = {name: k for k, name in enumerate(meta.vreg_names)}
        self.seed_offsets = tuple((name, slots[name] * V)
                                  for name in meta.seed_regs)
        self.out_offsets = tuple((name, slots[name] * V)
                                 for name in meta.out_regs)
        self.all_offsets = {name: k * V for name, k in slots.items()}
        self.vregs_len = max(1, len(meta.vreg_names) * V)
        # Batch-row table strides (must match the compile-time strides
        # baked into simdal_steady_batch).
        self.nw = len(spec.win_keys)
        self.ns = len(meta.shifts) + len(meta.points)
        self.nc = len(meta.splats) * V
        self.nv_stride = len(meta.vreg_names) * V
        self.nsect = meta.sect_len
        if all(isinstance(operand, SConst) for operand, _ in meta.splats):
            consts = bytearray()
            for operand, dtype in meta.splats:
                consts += vec.vsplat(dtype.wrap(operand.value), dtype, V)
            self.cvec_const = bytes(consts)
            self.splats_dyn = None
            # The persistent ctypes array lives over an aligned view
            # (as_ctypes_u8 keeps the view, and thus the backing,
            # alive), so warm invokes hand the kernel a V-aligned cvec
            # base without copying.
            buf = aligned_view(max(1, len(consts)))
            buf[:len(consts)] = consts
            self.c_cvec_const = as_ctypes_u8(buf)
        else:
            self.splats_dyn = meta.splats
            self.cvec_const = None
            self.c_cvec_const = None


def _plan_for(kernel: _NativeKernel) -> _InvokePlan:
    plan = kernel.plan
    if plan is None:
        plan = kernel.plan = _InvokePlan(kernel.meta, kernel.jk.spec)
    return plan


def _steady_tables(kernel: _NativeKernel, env, lb: int, n: int):
    """Validated steady-call tables ``(wb, scal, cvec bytes)`` for one run.

    Pure reads: raises :class:`jit._Unbatchable` (window analysis,
    memoized per space) or :class:`MachineError` (range checks) before
    anything is mutated, from the same pre-mutation points the jit
    kernel prelude uses, so every tier accepts and rejects exactly the
    same runs.  Shared by the per-run invoke, the whole-run marshaller,
    and the class batch driver.
    """
    spec = kernel.jk.spec
    meta = kernel.meta
    V = spec.V
    plan = _plan_for(kernel)
    per_space = plan.wb_memo.get(env.space)
    if per_space is None:
        per_space = plan.wb_memo[env.space] = {}
    wb_key = (lb, n, env.mem.size)
    cached = per_space.get(wb_key)
    if cached is None:
        try:
            cached = jit._window_bases(spec, env, lb, n)
        except jit._Unbatchable:
            per_space[wb_key] = _UNBATCHABLE
            raise
        per_space[wb_key] = cached
    elif cached is _UNBATCHABLE:
        raise jit._Unbatchable
    bases, _snapshot = cached
    for what, value in meta.bad_amounts:
        raise MachineError(f"{what} {value} outside [0, {V}]")
    amounts = [jit._checked_amount(env, expr, V, "vshiftpair shift")
               for expr in meta.shifts]
    amounts += [jit._checked_amount(env, expr, V, "vsplice point")
                for expr in meta.points]
    if plan.cvec_const is not None:
        cvec = plan.cvec_const
    else:
        consts = bytearray()
        for operand, dtype in plan.splats_dyn:
            value = npbackend._peek_s(env, operand)
            consts += vec.vsplat(dtype.wrap(value), dtype, V)
        cvec = bytes(consts)
    return bases, amounts, cvec


def _invoke(kernel: _NativeKernel, env: interp._Env, lb: int, n: int) -> None:
    """One C steady-loop call; every check precedes every mutation.

    Raises :class:`jit._Unbatchable` (window analysis) or
    :class:`MachineError` (range checks, unset registers) exactly where
    the jit kernel's prelude would, so the fallback surface is shared.
    """
    spec = kernel.jk.spec
    V = spec.V
    plan = _plan_for(kernel)
    bases, amounts, cvec = _steady_tables(kernel, env, lb, n)
    if plan.c_cvec_const is not None:
        c_cvec = plan.c_cvec_const
    else:
        cbuf = aligned_view(max(1, len(cvec)))
        cbuf[:len(cvec)] = cvec
        c_cvec = as_ctypes_u8(cbuf)
    vregs = aligned_view(plan.vregs_len)
    for name, offset in plan.seed_offsets:
        vregs[offset:offset + V] = interp._read_vreg(env, name)

    mem_buf = env.mem.raw()
    c_mem = _u8_array(len(mem_buf)).from_buffer(mem_buf)
    c_vregs = _u8_array(plan.vregs_len).from_buffer(vregs)
    c_wb = _i64_array(max(1, len(bases)))(*bases)
    c_scal = _i64_array(max(1, len(amounts)))(*amounts)
    try:
        kernel.cfn(c_mem, lb, n, c_wb, c_scal, c_cvec, c_vregs)
    finally:
        # Release the buffer exports promptly (the memory view export
        # in particular must not outlive the call).
        del c_mem, c_vregs, c_cvec
    for name, offset in plan.out_offsets:
        env.vregs[name] = bytes(vregs[offset:offset + V])


def _run_steady_at_native(env: interp._Env, steady, kernel: _NativeKernel,
                          lb: int, ub: int) -> bool:
    """Native twin of :func:`jit._run_steady_at`; True = per-iter path."""
    if steady.step <= 0:
        npbackend._steady_periter(env, steady, lb, ub)
        return True
    n = len(range(lb, ub, steady.step))
    if n == 0:
        return False
    if kernel.cfn is None:
        return jit._run_steady_at(env, steady, kernel.jk, lb, ub)
    try:
        _invoke(kernel, env, lb, n)
    except jit._Unbatchable:
        # Raised before any mutation, so the fallback replays the loop
        # from unmodified state — same contract as the jit prelude.
        npbackend._steady_periter(env, steady, lb, ub)
        return True
    jit._bump_steady_counters(env, kernel.jk.spec, n)
    return False


def _run_steady_native(env: interp._Env, steady,
                       kernel: _NativeKernel) -> bool:
    lb = interp._eval_s(env, steady.lb)
    ub = interp._eval_s(env, steady.ub)
    return _run_steady_at_native(env, steady, kernel, lb, ub)


# ---------------------------------------------------------------------------
# Whole-run marshalling (sections + steady as one C call)
# ---------------------------------------------------------------------------
#
# The marshaller resolves everything value-dependent — scalar
# registers, section conditions, addressing, bounds and range checks,
# counter bookkeeping — on a SHADOW env (same program/space/memory/
# bindings, fresh register files and counters), walking the program in
# the interpreter's exact order and collecting the sect[]/wb/scal/cvec
# tables the C drivers consume.  Nothing outside the shadow mutates
# until the C call returns (preheader statements cannot touch memory:
# loads/stores need a loop counter and raise first), so any _Bail —
# an unlowered form, a failed check, a condition the emitter could not
# know — simply discards the shadow and replays the classic jit path
# from pristine state, reproducing byte-exact error and fallback
# semantics.  On success the shadow's counters/registers merge into
# the real env plus the analytic steady bumps, so OPD tables stay
# bit-identical to the bytes oracle.

class _Bail(Exception):
    """This run falls outside the whole-run C surface (classic replay)."""


_I64_MASK = (1 << 64) - 1
_I64_SIGN = 1 << 63


def _as_i64(value: int) -> int:
    """Two's-complement fold into ctypes' int64 range.

    Slot values ride an int64 table; the C side casts back to the
    unsigned lane type, so only the low 64 bits matter.
    """
    return ((value & _I64_MASK) ^ _I64_SIGN) - _I64_SIGN


class _Row:
    """One marshalled run: the per-row tables a C driver call consumes."""

    __slots__ = ("shadow", "lb", "n", "wb", "scal", "cvec", "sect",
                 "vregs", "written")

    def __init__(self, shadow, lb, n, wb, scal, cvec, sect, vregs, written):
        self.shadow = shadow     # the marshal-time env (None: steady-only)
        self.lb = lb
        self.n = n
        self.wb = wb             # window bases, run-relative
        self.scal = scal         # checked runtime shift/point amounts
        self.cvec = cvec         # splat constants, bytes
        self.sect = sect         # section flag + value slots
        self.vregs = vregs       # seeded register buffer (stride-exact)
        self.written = written   # registers C writes that commit reads back


def _store_base(shadow: interp._Env, addr, i0, V: int) -> int:
    """The truncated, bounds-checked base a section load/store touches."""
    if i0 is None:
        raise _Bail  # interp raises MachineError here; classic replays it
    a = shadow.space[addr.array].addr(i0 + addr.elem)
    base = a - a % V
    if base < 0 or base + V > shadow.mem.size:
        raise _Bail
    return base


def _marshal_vexpr(shadow: interp._Env, expr, i0, vals: list,
                   defined: set, V: int) -> None:
    """Mirror interp._eval_v's counter bumps; slot values in emit order."""
    if isinstance(expr, VLoadE):
        shadow.counters.bump(VLOAD)
        vals.append(_store_base(shadow, expr.addr, i0, V))
        return
    if isinstance(expr, VRegE):
        if expr.name not in defined:
            raise _Bail  # read-before-set: classic replay raises it
        return
    if isinstance(expr, VShiftPairE):
        _marshal_vexpr(shadow, expr.a, i0, vals, defined, V)
        _marshal_vexpr(shadow, expr.b, i0, vals, defined, V)
        shift = expr.shift
        if not isinstance(shift, int):
            shift = interp._eval_s(shadow, shift)
            if not 0 <= shift <= V:
                raise _Bail
            vals.append(shift)
        elif not 0 <= shift <= V:
            raise _Bail
        shadow.counters.bump(VPERM)
        return
    if isinstance(expr, VSpliceE):
        _marshal_vexpr(shadow, expr.a, i0, vals, defined, V)
        _marshal_vexpr(shadow, expr.b, i0, vals, defined, V)
        point = expr.point
        if not isinstance(point, int):
            point = interp._eval_s(shadow, point)
            if not 0 <= point <= V:
                raise _Bail
            vals.append(point)
        elif not 0 <= point <= V:
            raise _Bail
        shadow.counters.bump(VSEL)
        return
    if isinstance(expr, VSplatE):
        value = interp._eval_s(shadow, expr.operand)
        shadow.counters.bump(VSPLAT)
        vals.append(_as_i64(expr.dtype.wrap(value)))
        return
    if isinstance(expr, VBinE):
        _marshal_vexpr(shadow, expr.a, i0, vals, defined, V)
        _marshal_vexpr(shadow, expr.b, i0, vals, defined, V)
        shadow.counters.bump(VARITH)
        return
    if isinstance(expr, VIotaE):
        if i0 is None:
            raise _Bail
        shadow.counters.bump(VARITH)
        vals.append(_as_i64(i0 + expr.bias))
        return
    raise _Bail


def _marshal_stmts(shadow: interp._Env, stmts, i0, vals: list, defined: set,
                   written: list, written_set: set, V: int) -> None:
    for stmt in stmts:
        if isinstance(stmt, SetS):
            shadow.sregs[stmt.reg] = interp._eval_s(shadow, stmt.expr)
        elif isinstance(stmt, SetV):
            if stmt.is_copy:
                shadow.counters.bump(VCOPY)
                if stmt.expr.name not in defined:
                    raise _Bail
            else:
                _marshal_vexpr(shadow, stmt.expr, i0, vals, defined, V)
            defined.add(stmt.reg)
            if stmt.reg not in written_set:
                written_set.add(stmt.reg)
                written.append(stmt.reg)
        elif isinstance(stmt, VStoreS):
            # interp order: src evaluates (and bumps) before the store
            # counter and address — slots land in the same order.
            _marshal_vexpr(shadow, stmt.src, i0, vals, defined, V)
            shadow.counters.bump(VSTORE)
            vals.append(_store_base(shadow, stmt.addr, i0, V))
        else:
            raise _Bail


def _marshal_section(shadow: interp._Env, section, sect: list, span,
                     defined: set, written: list, written_set: set,
                     V: int) -> None:
    base, count = span
    if section.cond is not None:
        shadow.counters.bump(BRANCH)
        if not interp._eval_s(shadow, section.cond):
            return  # flag slot stays 0: C skips the block
    i0 = (interp._eval_s(shadow, section.i_expr)
          if section.i_expr is not None else None)
    vals: list = []
    _marshal_stmts(shadow, section.stmts, i0, vals, defined, written,
                   written_set, V)
    if len(vals) + 1 != count:
        raise _Bail  # defensive: emitter/marshaller slot drift
    sect[base] = 1
    sect[base + 1:base + count] = vals


def _marshal_run(kernel: _NativeKernel, env: interp._Env) -> _Row:
    """Marshal one guarded env into a whole-run row, mutating nothing.

    Raises :class:`_Bail` when any part of the run falls outside the
    lowered surface; the caller replays the classic path on the still
    untouched env.
    """
    program = env.program
    meta = kernel.meta
    plan = _plan_for(kernel)
    V = kernel.jk.spec.V
    shadow = interp._Env(program, env.space, env.mem, env.bindings, None)
    try:
        # Memory-safe on the shared mem: preheader loads/stores need a
        # loop counter and raise inside interp before touching bytes.
        interp._exec_stmts(shadow, program.preheader, i=None)
    except MachineError:
        raise _Bail from None
    defined = set(shadow.vregs)
    written: list = []
    written_set: set = set()
    sect = [0] * plan.nsect
    spans = meta.sect_spans
    n_pro = len(program.prologue)
    if len(spans) != n_pro + len(program.epilogue):
        raise _Bail  # defensive: meta shape drift
    for section, span in zip(program.prologue, spans[:n_pro]):
        _marshal_section(shadow, section, sect, span, defined, written,
                         written_set, V)
    steady = program.steady
    lb = n = 0
    wb: list = [0] * plan.nw
    scal: list = [0] * plan.ns
    cvec: bytes = b"\x00" * plan.nc
    if steady is not None:
        lb = interp._eval_s(shadow, steady.lb)
        ub = interp._eval_s(shadow, steady.ub)
        if steady.step <= 0:
            raise _Bail
        n = len(range(lb, ub, steady.step))
        if n > 0:
            for name in meta.seed_regs:
                if name not in defined:
                    raise _Bail
            try:
                wb, scal, cvec = _steady_tables(kernel, shadow, lb, n)
            except (jit._Unbatchable, MachineError):
                raise _Bail from None
            wb = list(wb)  # the memoized base list must never be shared
            for name in meta.out_regs:
                defined.add(name)
                if name not in written_set:
                    written_set.add(name)
                    written.append(name)
    for section, span in zip(program.epilogue, spans[n_pro:]):
        _marshal_section(shadow, section, sect, span, defined, written,
                         written_set, V)
    offsets = plan.all_offsets
    for name in written:
        if name not in offsets:
            raise _Bail  # defensive: register without a vregs slot
    vregs = aligned_view(plan.nv_stride)
    for name, value in shadow.vregs.items():
        offset = offsets.get(name)
        if offset is not None:
            vregs[offset:offset + V] = value
    return _Row(shadow, lb, n, wb, scal, cvec, sect, vregs, tuple(written))


def _commit_run(kernel: _NativeKernel, env: interp._Env, row: _Row) -> None:
    """Fold a completed whole-run C call back into the real env."""
    spec = kernel.jk.spec
    V = spec.V
    shadow = row.shadow
    env.counters.merge(shadow.counters)
    if row.n > 0:
        jit._bump_steady_counters(env, spec, row.n)
    env.sregs.update(shadow.sregs)
    env.vregs.update(shadow.vregs)
    offsets = kernel.plan.all_offsets
    for name in row.written:
        offset = offsets[name]
        env.vregs[name] = bytes(row.vregs[offset:offset + V])


def _call_run(kernel: _NativeKernel, env: interp._Env, row: _Row) -> None:
    """The ctypes whole-run call + commit for one marshalled row."""
    mem_buf = env.mem.raw()
    c_mem = _u8_array(len(mem_buf)).from_buffer(mem_buf)
    vregs = row.vregs if len(row.vregs) else aligned_view(1)
    c_vregs = _u8_array(len(vregs)).from_buffer(vregs)
    cvec = aligned_view(max(1, len(row.cvec)))
    cvec[:len(row.cvec)] = row.cvec
    c_cvec = as_ctypes_u8(cvec)
    c_wb = _i64_array(max(1, len(row.wb)))(*row.wb)
    c_scal = _i64_array(max(1, len(row.scal)))(*row.scal)
    c_sect = _i64_array(max(1, len(row.sect)))(*row.sect)
    try:
        kernel.rfn(c_mem, row.lb, row.n, c_wb, c_scal, c_cvec, c_vregs,
                   c_sect)
    finally:
        del c_mem, c_vregs, c_cvec
    _commit_run(kernel, env, row)


def _invoke_run(kernel: _NativeKernel, env: interp._Env) -> bool:
    """Execute one whole run as a single C call; False = marshal bailed."""
    try:
        row = _marshal_run(kernel, env)
    except _Bail:
        return False
    _call_run(kernel, env, row)
    STATS["whole_runs"] += 1
    return True


def _invoke_batch(kernel: _NativeKernel, rows: list) -> None:
    """One C batch-driver call for ``rows`` = ``[(env, row), ...]``.

    Gathers every row's memory into one flat image (a row's addresses
    stay run-relative: the driver adds the row's segment offset to the
    mem base), fires ``simdal_steady_batch`` once, then scatters the
    segments and per-row vregs back.  Callers commit registers and
    counters per row afterwards.

    The flat image, vregs block, and cvec block all come from
    :func:`aligned_view`, and every row's segment offset is rounded up
    to :data:`ALIGNMENT` — so each row's mem/vregs/cvec base keeps the
    V-alignment promise the kernels were compiled against.  The gather
    and scatter copy the whole memory image of every row (O(total
    mem), unlike the zero-copy per-iter path); ``batch_copy_us`` vs
    ``batch_c_us`` attribute that cost in ``--profile``.
    """
    plan = _plan_for(kernel)
    t0 = time.perf_counter()
    sizes = [env.mem.size for env, _ in rows]
    offsets: list = []
    total = 0
    for size in sizes:
        offsets.append(total)
        total += -(-size // ALIGNMENT) * ALIGNMENT
    flat = aligned_view(max(1, total))
    for (env, _), offset, size in zip(rows, offsets, sizes):
        flat[offset:offset + size] = env.mem.raw()
    lbn: list = []
    wb: list = []
    scal: list = []
    sect: list = []
    stride = plan.nv_stride
    vregs = aligned_view(max(1, stride * len(rows)))
    cvec = aligned_view(max(1, plan.nc * len(rows)))
    for idx, ((env, row), offset) in enumerate(zip(rows, offsets)):
        lbn += (offset, row.lb, row.n)
        wb += row.wb
        scal += row.scal
        sect += row.sect
        cvec[idx * plan.nc:(idx + 1) * plan.nc] = row.cvec
        vregs[idx * stride:(idx + 1) * stride] = row.vregs
    c_mem = as_ctypes_u8(flat)
    c_vregs = as_ctypes_u8(vregs)
    c_cvec = as_ctypes_u8(cvec)
    c_lbn = _i64_array(len(lbn))(*lbn)
    c_wb = _i64_array(max(1, len(wb)))(*wb)
    c_scal = _i64_array(max(1, len(scal)))(*scal)
    c_sect = _i64_array(max(1, len(sect)))(*sect)
    t1 = time.perf_counter()
    try:
        kernel.bcfn(c_mem, len(rows), c_lbn, c_wb, c_scal, c_cvec,
                    c_vregs, c_sect)
    finally:
        del c_mem, c_vregs, c_cvec
    t2 = time.perf_counter()
    for (env, _), offset, size in zip(rows, offsets, sizes):
        env.mem.raw()[:] = flat[offset:offset + size]
    if stride:
        for idx, (_env, row) in enumerate(rows):
            row.vregs = vregs[idx * stride:(idx + 1) * stride]
    t3 = time.perf_counter()
    STATS["batch_copy_us"] += int((t1 - t0 + t3 - t2) * 1e6)
    STATS["batch_c_us"] += int((t2 - t1) * 1e6)


# ---------------------------------------------------------------------------
# The backend
# ---------------------------------------------------------------------------

class NativeBackend(JitBackend):
    """Machine-code execution of vector programs (bit-exact vs bytes).

    Inherits the jit engine's run/guard/section machinery and swaps the
    steady loop for the compiled C kernel via the hook points.  When a
    kernel's whole-run surface compiled (``meta.sections_c``), accepted
    runs execute as a single ``simdal_run`` call and whole signature
    classes execute as a single ``simdal_steady_batch`` call — one
    ctypes crossing per class; anything the marshaller bails on replays
    the classic per-piece path from untouched state.
    """

    name = "native"

    def _kernel_for(self, program):
        return get_native_kernel(program)

    def _steady(self, env, steady, kernel):
        return _run_steady_native(env, steady, kernel)

    def _finish_env(self, env, kernel):
        meta = kernel.meta
        if (kernel.cfn is not None and kernel.rfn is not None
                and meta is not None and meta.sections_c
                and _invoke_run(kernel, env)):
            return False
        return super()._finish_env(env, kernel)

    def _batch_finish(self, live, results, kernel):
        meta = kernel.meta
        if (kernel.cfn is None or kernel.bcfn is None or meta is None
                or not meta.sections_c):
            return super()._batch_finish(live, results, kernel)
        rows: list = []
        classic: list = []
        t0 = time.perf_counter()
        for i, env in live:
            try:
                rows.append((i, env, _marshal_run(kernel, env)))
            except _Bail:
                classic.append((i, env))
        STATS["batch_marshal_us"] += int((time.perf_counter() - t0) * 1e6)
        if len(rows) == 1:
            # Singleton classes skip the flat gather/scatter copy.
            i, env, row = rows[0]
            _call_run(kernel, env, row)
            STATS["whole_runs"] += 1
            results[i] = interp.VectorRunResult(env.counters, env.trip,
                                                used_fallback=False)
        elif rows:
            _invoke_batch(kernel, [(env, row) for _, env, row in rows])
            STATS["batch_calls"] += 1
            STATS["batch_rows"] += len(rows)
            for i, env, row in rows:
                _commit_run(kernel, env, row)
                results[i] = interp.VectorRunResult(env.counters, env.trip,
                                                    used_fallback=False)
        for i, env in classic:
            fell = super()._finish_env(env, kernel)
            results[i] = interp.VectorRunResult(env.counters, env.trip,
                                                used_fallback=fell)

    def _steady_batch(self, live, kernel):
        # Reached when the whole-run surface is unavailable (sections
        # not lowered, or functions still pending): sections already
        # ran in Python; batch the steady loops through the C driver.
        if kernel.cfn is None or kernel.bcfn is None:
            # Pending/declined kernels batch on the jit tier's
            # config-batched kernel, exactly like jit.run_batch.
            return jit._run_steady_batch(live, kernel.jk)
        spec = kernel.jk.spec
        V = spec.V
        plan = _plan_for(kernel)
        fell: dict[int, bool] = {}
        if len(live) == 1:
            for i, env in live:
                fell[i] = _run_steady_native(env, env.program.steady,
                                             kernel)
            return fell
        rows: list = []
        solo: list = []
        t0 = time.perf_counter()
        for i, env in live:
            steady = env.program.steady
            lb = interp._eval_s(env, steady.lb)
            ub = interp._eval_s(env, steady.ub)
            if steady.step <= 0:
                solo.append((i, env, lb, ub))
                continue
            n = len(range(lb, ub, steady.step))
            if n == 0:
                fell[i] = False
                continue
            try:
                wb, scal, cvec = _steady_tables(kernel, env, lb, n)
                vregs = aligned_view(plan.nv_stride)
                for name, offset in plan.seed_offsets:
                    vregs[offset:offset + V] = interp._read_vreg(env, name)
            except jit._Unbatchable:
                npbackend._steady_periter(env, steady, lb, ub)
                fell[i] = True
                continue
            except MachineError:
                solo.append((i, env, lb, ub))
                continue
            rows.append((i, env,
                         _Row(None, lb, n, list(wb), scal, cvec,
                              [0] * plan.nsect, vregs, ())))
        STATS["batch_marshal_us"] += int((time.perf_counter() - t0) * 1e6)
        if len(rows) == 1:
            i, env, row = rows[0]
            solo.append((i, env, row.lb, row.lb + row.n * spec.step))
            rows = []
        if rows:
            _invoke_batch(kernel, [(env, row) for _, env, row in rows])
            STATS["batch_calls"] += 1
            STATS["batch_rows"] += len(rows)
            for i, env, row in rows:
                for name, offset in plan.out_offsets:
                    env.vregs[name] = bytes(row.vregs[offset:offset + V])
                jit._bump_steady_counters(env, spec, row.n)
                fell[i] = False
        for i, env, lb, ub in solo:
            fell[i] = _run_steady_at_native(env, env.program.steady,
                                            kernel, lb, ub)
        return fell
