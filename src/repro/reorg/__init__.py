"""Data reorganization graphs and stream-shift placement policies."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.reorg.build": ("build_expr", "build_loop_graph", "build_statement"),
    "repro.reorg.graph": (
        "LoopGraph", "RIota", "RLoad", "RNode", "ROp", "RShiftStream",
        "RSplat", "RStore", "StatementGraph",
    ),
    "repro.reorg.policies": (
        "POLICY_NAMES", "apply_policy", "default_policy", "dominant_offset",
        "dominant_shift", "eager_shift", "lazy_shift", "zero_shift",
        "zero_shift_expr",
    ),
    "repro.reorg.reassoc": ("reassociate",),
    "repro.reorg.validate": (
        "is_valid", "validate_graph", "validate_statement",
    ),
})
