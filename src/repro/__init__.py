"""simdal — Vectorization for SIMD Architectures with Alignment Constraints.

A from-scratch reproduction of Eichenberger, Wu & O'Brien (PLDI 2004):
automatic simdization of loops with misaligned stride-one memory
references for SIMD units that only load/store vector-aligned memory.

Quick start
-----------
>>> import repro
>>> loop = repro.compile_source('''
...     int a[128]; int b[128]; int c[128];
...     for (i = 0; i < 100; i++) { a[i+3] = b[i+1] + c[i+2]; }
... ''')
>>> result = repro.simdize(loop, V=16, options=repro.SimdOptions(policy="lazy"))
>>> print(repro.format_program(result.program))      # AltiVec-style code
... # doctest: +SKIP
>>> report = repro.run_and_verify(result.program)    # execute + verify
>>> report.speedup                                    # doctest: +SKIP

Package map
-----------
``repro.ir``       scalar loop IR and builder API
``repro.lang``     mini-C frontend
``repro.align``    stream-offset analysis
``repro.reorg``    data reorganization graphs + shift-placement policies
``repro.codegen``  SIMD code generation and vector-IR passes
``repro.vir``      the vector IR and its AltiVec-style printer
``repro.machine``  the virtual SIMD machine (memory, interpreter, counters)
``repro.simdize``  the end-to-end driver, options, and verification
``repro.baselines`` ideal scalar / loop peeling / VAST-equivalent baselines
``repro.bench``    the paper's evaluation: Tables 1-2, Figures 11-12, coverage
"""

from __future__ import annotations

import random

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.errors": ("SimdalError",),
    "repro.ir": ("LoopBuilder", "Loop", "figure1_loop"),
    "repro.lang": ("compile_source", "simdize_source"),
    "repro.machine": (
        "ArraySpace", "Memory", "RunBindings", "run_scalar", "run_vector",
        "BACKEND_CHOICES", "SCALAR_BACKEND_CHOICES", "ExecutionBackend",
        "ScalarBackend", "get_backend", "get_scalar_backend",
        "numpy_available",
    ),
    "repro.simdize": (
        "EquivalenceReport", "SimdOptions", "SimdizeResult", "fill_random",
        "make_space", "verify_equivalence",
    ),
    "repro.vir": ("VProgram", "format_program"),
})
__all__ += ["simdize", "run_and_verify"]

# ``simdize`` is both a subpackage and the driver function exported
# here.  Importing a submodule binds it on its parent package, so the
# function must be bound after the subpackage loads, not on first read.
from repro.simdize.driver import simdize  # noqa: E402


def run_and_verify(
    program: VProgram,
    seed: int = 0,
    trip: int | None = None,
    scalars: dict[str, int] | None = None,
    backend: str = "auto",
    scalar_backend: str = "auto",
    profile=None,
) -> EquivalenceReport:
    """Execute a simdized program on random data and verify it.

    Allocates the loop's arrays (choosing random in-page residues for
    runtime-aligned ones), fills them with random element values, runs
    both the scalar reference and the vector program, checks the
    memories are byte-identical, and returns the operation counts.
    ``backend`` picks the vector engine
    (``auto``/``bytes``/``numpy``/``jit``/``native``) and
    ``scalar_backend`` the scalar-reference engine
    (``auto``/``bytes``/``numpy``).  Passing a
    :class:`repro.profiling.PhaseProfile` accumulates execute/verify
    (and jit compile / native cc) phase timings into it.
    """
    from repro.machine.scalar import RunBindings
    from repro.simdize.verify import fill_random, make_space, verify_equivalence

    rng = random.Random(seed)
    loop = program.source
    space = make_space(loop, program.V, rng)
    mem = space.make_memory()
    fill_random(space, mem, rng)
    bindings = RunBindings(trip=trip, scalars=scalars or {})
    return verify_equivalence(program, space, mem, bindings, backend=backend,
                              scalar_backend=scalar_backend, profile=profile)
