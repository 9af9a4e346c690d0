"""C code export: AltiVec and SSE intrinsics backends + cross-validation."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.export.altivec": ("AltivecBackend",),
    "repro.export.cgen": ("Backend", "CEmitter"),
    "repro.export.portable": ("PortableBackend",),
    "repro.export.sse": ("SseBackend",),
    "repro.export.validate": (
        "BACKENDS", "CrossValidationReport", "cross_validate", "export_c",
        "find_compiler",
    ),
})
