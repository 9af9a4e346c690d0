"""Vector IR: the simdizer's output language."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.vir.printer": ("format_program",),
    "repro.vir.program": ("SteadyLoop", "VProgram"),
    "repro.vir.vexpr": (
        "Addr", "SBase", "SBin", "SConst", "SExpr", "SReg", "SVar", "VBinE",
        "VExpr", "VIotaE", "VLoadE", "VRegE", "VShiftPairE", "VSpliceE",
        "VSplatE", "as_sexpr", "displace", "is_pure", "s_add", "s_and",
        "s_div", "s_mod", "s_mul", "s_sub", "walk",
    ),
    "repro.vir.vstmt": ("Section", "SetS", "SetV", "VStmt", "VStoreS"),
})
