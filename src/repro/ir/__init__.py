"""Scalar loop IR: the simdizer's input language."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.ir.expr": (
        "ArrayDecl", "LoopIndex", "BinOp", "Const", "Expr", "Loop",
        "Reduction", "Ref", "ScalarVar", "Statement", "as_expr",
        "validate_loop",
    ),
    "repro.ir.builder": (
        "ArrayHandle", "ExprHandle", "LoopBuilder", "figure1_loop",
    ),
    "repro.ir.types": (
        "ADD", "ALL_OPS", "ALL_TYPES", "AND", "AVG", "INT8", "INT16", "INT32",
        "MAX", "MIN", "MUL", "OR", "SUB", "UINT8", "UINT16", "UINT32", "XOR",
        "BinaryOp", "DataType", "op_by_name", "type_by_name",
    ),
})
