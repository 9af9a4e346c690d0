"""SIMD code generation: graph -> vector program."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.codegen.context": ("CodegenCtx",),
    "repro.codegen.exprgen": (
        "ShiftPlan", "gen_expr", "gen_shift_stream", "plan_shift",
    ),
    "repro.codegen.loopgen": ("GenOptions", "generate_program"),
    "repro.codegen.swp": ("SwpPieces", "gen_expr_sp"),
})
