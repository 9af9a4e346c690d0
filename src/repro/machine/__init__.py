"""Virtual SIMD machine: memory, arrays, vector semantics, interpreters."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.machine.arrays": ("ArraySpace", "BoundArray", "GUARD_VECTORS"),
    "repro.machine.backend": (
        "BACKEND_CHOICES", "SCALAR_BACKEND_CHOICES", "BytesBackend",
        "BytesScalarBackend", "ExecutionBackend", "ScalarBackend",
        "default_backend_name", "get_backend", "get_scalar_backend",
        "jit_compile_stats", "numpy_available",
    ),
    "repro.machine.counters": ("OpCounters",),
    "repro.machine.interp": ("VectorRunResult", "run_vector"),
    "repro.machine.memory": ("Memory",),
    "repro.machine.trace": ("Trace", "TraceEvent"),
    "repro.machine.scalar": (
        "RunBindings", "ScalarRunResult", "ideal_scalar_opd",
        "ideal_scalar_ops", "reference_counters", "run_scalar",
    ),
    "repro.machine.vector": (
        "from_lanes", "lanes", "vbinop", "vshiftpair", "vsplat", "vsplice",
    ),
})
